"""The benchmark's output checks count a wrong answer as failed.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bellscan.catalog import catalog_get  # noqa: E402
from bellscan.core import Scenario, lift  # noqa: E402
from bellscan.robustness import eta_threshold_symmetric, noise_threshold  # noqa: E402
from bellscan.search import FacetFinding, SearchConfig, SearchReport  # noqa: E402
from bellscan.symmetry import (  # noqa: E402
    apply_transformation,
    canonical_form,
    random_transformation,
)
from bellscan.table import ReportRow  # noqa: E402

import checks  # noqa: E402


def reference_rows():
    rows = []
    for name, (v, t, w_max, w, eta) in checks.REFERENCE.items():
        v = checks.PROVEN.get((name, "violation"), (v,))[0]
        rows.append(ReportRow(name, v, checks.fold(t), w_max, w, eta))
    return rows


def failed(outcomes):
    return [label for label, failures in outcomes if failures]


def test_reference_rows_pass():
    assert failed(checks.check_table(reference_rows())) == []


def test_corrupted_cell_fails():
    rows = reference_rows()
    rows[2] = dataclasses.replace(rows[2], eta_symmetric=rows[2].eta_symmetric + 0.01)
    assert failed(checks.check_table(rows)) == [rows[2].name]
    rows = reference_rows()
    rows[1] = dataclasses.replace(rows[1], w=None)
    assert failed(checks.check_table(rows)) == [rows[1].name]


def test_defective_cell_is_checked_against_proven_value():
    rows = [r for r in reference_rows() if r.name == "I4422_4"]
    assert failed(checks.check_table(rows)) == []
    as_referenced = [dataclasses.replace(rows[0], violation=0.2071)]
    assert failed(checks.check_table(as_referenced)) == ["I4422_4"]


def test_witness_moved_below_threshold_fails():
    f = catalog_get("CHSH").functional
    sym = eta_threshold_symmetric(f, math.pi / 4, seed=0)
    noise = noise_threshold(f, math.pi / 4, allow_degenerate=True, seed=0)
    calls = [("sym", "CHSH", 0.25, 0), ("noise", "CHSH", 0.25, 0)]
    assert failed(checks.check_thresholds(calls, [sym, noise])) == []

    eta = sym.eta - 0.02
    low_sym = dataclasses.replace(sym, eta=eta, eta_a=eta, eta_b=eta)
    low_noise = dataclasses.replace(noise, w_threshold=noise.w_threshold - 0.02)
    outcomes = checks.check_thresholds(calls, [low_sym, low_noise])
    assert failed(outcomes) == ["sym:CHSH@0.25", "noise:CHSH@0.25"]
    assert failed(checks.check_thresholds(calls, [None, noise])) == ["sym:CHSH@0.25"]


def _finding(f, name=None):
    return FacetFinding(functional=f, canonical=canonical_form(f), known_as=name)


def test_duplicate_facet_fails():
    import random

    cfg = SearchConfig(Scenario(4, 4), mode="random", sample_count=10)
    chsh = lift(catalog_get("CHSH").functional, Scenario(4, 4))
    relabeled = apply_transformation(chsh, random_transformation(chsh.scenario,
                                                                 random.Random(3)))
    one = SearchReport(cfg, 10, [_finding(chsh, "CHSH")])
    assert failed(checks.check_random(cfg, one)) == []
    twice = SearchReport(cfg, 10, [_finding(chsh, "CHSH"), _finding(relabeled)])
    assert failed(checks.check_random(cfg, twice)) == ["run_search"]
    short = SearchReport(cfg, 9, [_finding(chsh, "CHSH")])
    assert failed(checks.check_random(cfg, short)) == ["run_search"]
    loose = dataclasses.replace(chsh, bound=chsh.bound + 1)
    assert failed(checks.check_random(cfg, SearchReport(cfg, 10, [_finding(loose)]))) \
        == ["run_search"]


def test_exhaustive_needs_both_classes():
    cfg = SearchConfig(Scenario(3, 3), corr_range=(-1, 1), marg_min=-2)
    chsh = _finding(lift(catalog_get("CHSH").functional, Scenario(3, 3)), "CHSH")
    i3322 = _finding(catalog_get("I3322").functional, "I3322")
    both = SearchReport(cfg, 177147, [chsh, i3322])
    assert failed(checks.check_exhaustive(both)) == []
    assert failed(checks.check_exhaustive(SearchReport(cfg, 177147, [i3322]))) \
        == ["run_search"]
    assert failed(checks.check_exhaustive(
        SearchReport(cfg, 177147, [chsh, i3322, i3322]))) == ["run_search"]
