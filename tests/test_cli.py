import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellscan.catalog import catalog_get
from bellscan.cli import main
from bellscan.core import (
    BellFunctional,
    functional_from_json,
    functional_to_json,
    parse_functional,
    serialize_functional,
)
from bellscan.quantum import seesaw_maximize
from bellscan.robustness import eta_threshold_asymmetric
from bellscan.symmetry import equivalent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_chsh(capsys):
    code, out, _ = run_cli(capsys, "bound", "--name", "CHSH")
    assert code == 0
    assert out.strip() == "0"


def test_bound_fraction_formatting(capsys):
    code, out, _ = run_cli(capsys, "bound", "--name", "I4422_7")
    assert code == 0
    assert out.strip() == "1"


def test_bound_past_the_strategy_guard_is_usage_error(tmp_path, capsys):
    path = tmp_path / "big.bell"
    path.write_text(serialize_functional(
        BellFunctional.build([0] * 13, [0] * 13, [[0] * 13] * 13, 0)))
    code, out, err = run_cli(capsys, "bound", "--file", str(path))
    assert code == 2
    assert out == ""
    assert "scoring 2^26 strategies exceeds the guard" in err


@pytest.mark.parametrize("field, value, message", [
    ("alice_marg", [0.9, 0], "coefficient must be an integer, got 0.9"),
    ("bob_marg", [-1, True], "coefficient must be an integer, got True"),
    ("bound", {"num": 2.5, "den": 1}, "bound numerator must be an integer"),
    ("bound", {"num": 0, "den": 0}, "bound denominator must be nonzero"),
    ("scenario", {"ma": "x", "mb": 2}, "m_a must be an integer"),
])
def test_json_file_with_a_non_integer_is_usage_error(tmp_path, capsys, field, value,
                                                     message):
    obj = functional_to_json(catalog_get("CHSH").functional)
    obj[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "canon", "--file", str(path))
    assert code == 2
    assert out == ""
    assert message in err


def test_unknown_name_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "bound", "--name", "nope")
    assert code == 2
    assert out == ""
    assert "valid names" in err


def test_missing_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bound")
    assert code == 2
    assert "no functional given" in err


def test_facet_report(capsys):
    code, out, _ = run_cli(capsys, "facet", "--name", "CHSH", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["is_tight"] is True
    assert rep["affine_dim"] == 7 and rep["ns_dim"] == 8


def test_equiv_files(tmp_path, capsys):
    a = tmp_path / "a.bell"
    b = tmp_path / "b.bell"
    a.write_text(serialize_functional(catalog_get("I3322").functional))
    b.write_text(serialize_functional(catalog_get("I3322_TILDE").functional))
    code, out, _ = run_cli(capsys, "equiv", "--file", str(a), "--file", str(b))
    assert code == 0
    assert out.strip() == "equivalent"

    c = tmp_path / "c.json"
    c.write_text(json.dumps(
        {"scenario": {"ma": 2, "mb": 2}, "alice_marg": [-1, 0],
         "bob_marg": [-1, 0], "corr": [[1, 1], [1, -1]],
         "bound": {"num": 0, "den": 1}}))
    code, out, _ = run_cli(capsys, "equiv", "--name", "CHSH", "--file", str(c))
    assert code == 0 and out.strip() == "equivalent"


def test_equiv_negative_result_exits_one(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--name", "I4422_1", "--name", "I4422_2")
    assert code == 1
    assert out.strip() == "inequivalent"


def test_canon_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "canon", "--name", "I3322")
    assert code == 0
    canon_i3322 = parse_functional(out)
    code, out, _ = run_cli(capsys, "canon", "--name", "I3322_TILDE")
    assert code == 0
    assert parse_functional(out) == canon_i3322


def test_symmetric_none_exits_one(capsys):
    code, out, _ = run_cli(capsys, "symmetric", "--name", "I4422_2")
    assert code == 1
    assert out.strip() == "none"
    code, out, _ = run_cli(capsys, "symmetric", "--name", "I3322_TILDE")
    assert code == 0
    assert "bell 3 3" in out


def test_symmetric_json_of_an_asymmetric_table(capsys):
    code, out, _ = run_cli(capsys, "symmetric", "--name", "I3322", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "I3322"
    rep = functional_from_json(payload)
    assert rep.alice_marg == rep.bob_marg == tuple(sorted(rep.alice_marg))
    assert rep.corr == tuple(zip(*rep.corr))
    assert equivalent(rep, catalog_get("I3322").functional)


def test_qmax_json(capsys):
    code, out, _ = run_cli(capsys, "qmax", "--name", "CHSH", "--seed", "3",
                           "--restarts", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.207107, abs=1e-5)
    assert payload["theta_max_over_pi"] == pytest.approx(0.25, abs=1e-5)
    full = seesaw_maximize(catalog_get("CHSH").functional, restarts=10, seed=3)
    assert payload["sweeps"] == full.sweeps
    assert payload["row_sweeps"] == full.row_sweeps
    assert payload["converged"] == full.converged
    assert payload["accepted"] == full.accepted
    assert 0 <= payload["converged"] <= payload["restarts"]
    assert 0 < payload["accepted"] <= payload["row_sweeps"] // 3
    assert payload["sweeps"] <= payload["row_sweeps"] <= payload["restarts"] * payload["sweeps"]


RAISED_CHSH = "bell 2 2 1\nbob -1 0\n-1 | 1 1\n0 | 1 -1\n"  # CHSH with bound 1


def test_qmax_not_violating_exits_one(tmp_path, capsys):
    raised = tmp_path / "raised.bell"
    raised.write_text(RAISED_CHSH)
    code, out, _ = run_cli(capsys, "qmax", "--file", str(raised), "--seed", "1",
                           "--restarts", "5")
    assert code == 1


@pytest.mark.parametrize("cmd, key", [
    ("noise", "w_threshold"), ("eta", "eta"), ("eta-asym", "eta_b")])
def test_threshold_without_violation_replies_none(tmp_path, capsys, cmd, key):
    raised = tmp_path / "raised.bell"
    raised.write_text(RAISED_CHSH)
    code, out, _ = run_cli(capsys, cmd, "--file", str(raised), "--seed", "1",
                           "--format", "json")
    assert code == 1
    assert json.loads(out) == {"name": str(raised), key: None}


def test_noise_theta_flag(capsys):
    code, out, _ = run_cli(capsys, "noise", "--name", "CHSH", "--theta", "0.25",
                           "--seed", "1", "--restarts", "10")
    assert code == 0
    assert out.strip() == "0.7071"


def test_noise_theta_zero_is_usage_error(capsys):
    # theta = 0 is a product state; it must not fall back to pi/4
    code, out, err = run_cli(capsys, "noise", "--name", "CHSH", "--theta", "0",
                             "--seed", "1", "--restarts", "10")
    assert code == 2
    assert out == ""
    assert "theta" in err


def test_flags_only_on_subcommands_that_read_them(capsys):
    for argv in (["qmax", "--name", "CHSH", "--jobs", "2"],
                 ["table1", "--only", "CHSH", "--theta", "0.2"],
                 ["table1", "--only", "CHSH", "--degenerate"],
                 ["eta", "--name", "I3322", "--restarts", "1"],
                 ["eta-asym", "--name", "I3322", "--restarts", "1"],
                 ["qmax", "--name", "CHSH", "--tol", "1e-8"],
                 ["noise", "--name", "CHSH", "--tol", "1e-8"],
                 ["eta", "--name", "CHSH", "--tol", "1e-8"],
                 ["eta-asym", "--name", "CHSH", "--tol", "1e-8"],
                 ["table1", "--only", "CHSH", "--tol", "1e-8"],
                 ["table1", "--only", "CHSH", "--inner-restarts", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_csv_only_where_a_csv_is_written(capsys):
    # qmax, noise and eta print text or json only
    for cmd in ("qmax", "noise", "eta"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--name", "CHSH", "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err
    # eta-asym writes a CSV for --sweep only
    code, out, err = run_cli(capsys, "eta-asym", "--name", "CHSH",
                             "--format", "csv")
    assert code == 2
    assert out == ""
    assert "--format csv needs --sweep" in err


def test_eta_command(capsys):
    code, out, _ = run_cli(capsys, "eta", "--name", "CHSH", "--seed", "1")
    assert code == 0
    assert out.strip().startswith("0.8284")


def test_threshold_json_reports_work(capsys):
    # a closed form runs one see-saw; the root-finder runs one per step: the
    # decision at efficiency 1, a capped maximization at each root that moved
    # by more than 1e-5 (two here) and the decision 1e-5 below the last root
    for argv, batches in ((["noise", "--name", "CHSH", "--theta", "0.25"], 1),
                          (["eta", "--name", "CHSH"], 1),
                          (["noise", "--name", "CHSH", "--theta", "0.2",
                            "--degenerate", "--restarts", "2"], 4),
                          (["eta-asym", "--name", "CHSH", "--theta", "0.2",
                            "--inner-restarts", "2"], 4)):
        code, out, _ = run_cli(capsys, *argv, "--seed", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["batches"] == batches
        assert payload["row_sweeps"] >= batches
    # the counters are the result's own
    res = eta_threshold_asymmetric(catalog_get("CHSH").functional, 0.2 * math.pi,
                                   seed=1, restarts=2)
    assert (payload["batches"], payload["row_sweeps"]) == (res.batches, res.row_sweeps)


def test_bisected_eta_with_no_restarts_is_usage_error(capsys):
    for argv in (["eta-asym", "--name", "CHSH", "--inner-restarts", "0"],
                 ["eta", "--name", "CHSH", "--theta", "0.2",
                  "--inner-restarts", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "restarts must be >= 1" in err


def test_eta_asym_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "eta-asym", "--name", "CHSH", "--sweep",
                           "--seed", "1", "--inner-restarts", "4",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta_over_pi,eta_b"
    assert len(lines) >= 7


def test_eta_asym_sweep_rejects_theta(capsys):
    # the sweep scans its own grid of angles, so --theta would be ignored
    code, out, err = run_cli(capsys, "eta-asym", "--name", "CHSH", "--sweep",
                             "--theta", "0.05", "--inner-restarts", "4",
                             "--format", "csv", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "--theta" in err


def test_search_text_reports_the_ranked_sets(capsys):
    code, out, _ = run_cli(capsys, "search", "--ma", "2", "--mb", "2",
                           "--corr-min", "-1", "--corr-max", "1", "--marg-min", "-1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1:4] == ["rank-tested (at least d saturating strategies): 5",
                          "distinct saturating sets: 5",
                          "  settled by the support screen, not ranked: 0"]


def test_search_sampling_flags_need_random_mode(capsys):
    space = ["search", "--ma", "2", "--mb", "2", "--corr-min", "-1",
             "--corr-max", "1", "--marg-min", "-1", "--format", "json"]
    for extra in (["--samples", "5"], ["--seed", "9"]):
        code, out, err = run_cli(capsys, *space, *extra)
        assert code == 2
        assert out == ""
        assert "--mode random" in err
    code, out, _ = run_cli(capsys, *space, "--mode", "random", "--samples", "5",
                           "--seed", "9")
    assert code == 0
    assert json.loads(out)["candidates_tested"] == 5


def test_search_coefficients_past_int64_are_usage_error(capsys):
    code, out, err = run_cli(capsys, "search", "--ma", "2", "--mb", "2",
                             "--corr-min", "-100000000000000000000",
                             "--mode", "random", "--samples", "5")
    assert code == 2
    assert out == ""
    assert "2^62" in err


def test_search_positive_marg_min_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "search", "--ma", "2", "--mb", "2", "--marg-min", "1")
    assert code == 2
    assert out == ""
    assert "error: marg_min must be <= 0" in err


def test_search_over_an_empty_marginal_space(capsys):
    space = ["search", "--ma", "2", "--mb", "2", "--marg-min", "0", "--format", "json"]
    code, out, _ = run_cli(capsys, *space)
    assert code == 0
    assert json.loads(out)["candidates_tested"] == 0
    code, out, err = run_cli(capsys, *space, "--mode", "random")
    assert code == 2
    assert out == ""
    assert "error: no marginal tuple" in err


def test_search_command(tmp_path, capsys):
    out_dir = tmp_path / "found"
    code, out, _ = run_cli(capsys, "search", "--ma", "2", "--mb", "2",
                           "--corr-min", "-1", "--corr-max", "1",
                           "--marg-min", "-1", "--format", "json",
                           "--out", str(out_dir))
    assert code == 0
    payload = json.loads(out)
    assert payload["candidates_tested"] == 81
    assert payload["candidates_tested"] >= payload["rank_tested"] >= payload["tight"] >= 1
    assert payload["rank_tested"] >= payload["rank_sets"] >= 1
    assert payload["facets_found"][0]["known_as"] == "CHSH"
    assert (out_dir / "report.json").exists()


def test_table1_row_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "table1", "--only", "CHSH", "--format", "csv",
                           "--seed", "7", "--restarts", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,violation,theta_max_over_pi,w_max,w,eta"
    assert lines[1] == "CHSH,0.2071,0.2500,0.7071,0.7071,0.8284"


def test_table1_json_and_text_match_the_csv_row(capsys):
    args = ["table1", "--only", "CHSH", "--seed", "7", "--restarts", "10"]
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert row["name"] == "CHSH"
    assert [f"{row[k]:.4f}" for k in ("violation", "theta_max_over_pi", "w_max", "w", "eta")] \
        == ["0.2071", "0.2500", "0.7071", "0.7071", "0.8284"]
    code, out, _ = run_cli(capsys, *args, "--format", "text")
    assert code == 0
    header, line = out.splitlines()
    assert header.split() == ["name", "violation", "theta/pi", "w_max", "w", "eta"]
    assert line.split() == ["CHSH", "0.2071", "0.2500", "0.7071", "0.7071", "0.8284"]


def test_table1_with_no_restarts_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "table1", "--only", "CHSH", "--restarts", "0")
    assert code == 2
    assert out == ""
    assert "restarts must be >= 1" in err


def test_table1_with_no_jobs_is_usage_error(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "table1", "--only", "CHSH", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "jobs must be >= 1" in err


def test_table1_deterministic_across_runs_and_jobs(capsys):
    args = ["table1", "--only", "CHSH", "--only", "I3322", "--format", "csv",
            "--seed", "5", "--restarts", "8"]
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    code, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
    assert parallel == first


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "bellscan", "catalog"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[0] == "CHSH"
