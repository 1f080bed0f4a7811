import json

import pytest

from bellscan.catalog import catalog_get
from bellscan.core import CapacityError, Scenario, StructuralError, lift, parse_functional
from bellscan.polytope import facet_check, local_bound
from bellscan.search import (
    SearchConfig,
    _build,
    _marginal_tuples,
    _raw_candidates,
    run_search,
)
from bellscan.symmetry import canonical_key, equivalent


def generate_candidates(cfg):
    """The candidate stream of run_search, each bound set to its exact local bound."""
    for am, bm, flat in _raw_candidates(cfg):
        f = _build(cfg, am, bm, flat, 0)
        yield _build(cfg, am, bm, flat, local_bound(f))


def test_marginal_tuples_match_constraints():
    # chain: marg_min <= M0 < M1 <= M2 = 0
    tuples = _marginal_tuples(3, -2, True)
    assert tuples == [(-2, -1, 0), (-2, 0, 0), (-1, 0, 0)]
    loose = _marginal_tuples(3, -2, False)
    assert (0, 0, 0) in loose and set(tuples) <= set(loose)
    assert _marginal_tuples(1, -2, True) == [(0,)]
    assert _marginal_tuples(2, -1, True) == [(-1, 0)]


def test_generate_includes_printed_tables():
    cfg = SearchConfig(Scenario(2, 2), corr_range=(-1, 1), marg_min=-1)
    chsh = catalog_get("CHSH").functional
    assert any(f == chsh for f in generate_candidates(cfg))

    cfg = SearchConfig(Scenario(3, 3), corr_range=(-1, 1), marg_min=-2)
    i3322 = catalog_get("I3322").functional
    found = False
    for f in generate_candidates(cfg):
        if (f.alice_marg, f.bob_marg, f.corr) == (
                i3322.alice_marg, i3322.bob_marg, i3322.corr):
            assert f.bound == i3322.bound  # bound comes out of local_bound
            found = True
            break
    assert found


def test_generated_bounds_are_local_bounds():
    cfg = SearchConfig(Scenario(2, 2), corr_range=(-1, 1), marg_min=-1,
                       mode="random", sample_count=50, seed=3)
    for f in generate_candidates(cfg):
        assert f.bound == local_bound(f)


def test_random_mode_is_seed_deterministic():
    cfg = SearchConfig(Scenario(4, 4), mode="random", sample_count=40, seed=11)
    a = list(generate_candidates(cfg))
    b = list(generate_candidates(cfg))
    assert a == b
    other = SearchConfig(Scenario(4, 4), mode="random", sample_count=40, seed=12)
    assert list(generate_candidates(other)) != a


def test_exhaustive_capacity_guard():
    cfg = SearchConfig(Scenario(4, 4))  # 5^16 correlation choices
    with pytest.raises(CapacityError) as err:
        next(iter(generate_candidates(cfg)))
    assert "random" in str(err.value)


def test_config_validation():
    with pytest.raises(StructuralError):
        SearchConfig(Scenario(2, 2), corr_range=(1, -1))
    with pytest.raises(StructuralError):
        SearchConfig(Scenario(2, 2), mode="clever")
    with pytest.raises(StructuralError):
        SearchConfig(Scenario(2, 2), mode="random", sample_count=0)


def test_run_search_2222_finds_chsh_class():
    cfg = SearchConfig(Scenario(2, 2), corr_range=(-1, 1), marg_min=-1)
    rep = run_search(cfg)
    assert rep.candidates_tested == 81  # one marginal tuple per side, 3^4 tables
    assert [f.known_as for f in rep.facets_found] == ["CHSH"]
    assert rep.new_count == 0
    assert equivalent(rep.facets_found[0].functional, catalog_get("CHSH").functional)


def test_run_search_trivial_facets_filtered():
    cfg = SearchConfig(Scenario(2, 2), corr_range=(-1, 1), marg_min=-1,
                       strict_first=False)
    rep = run_search(cfg)
    assert rep.trivial_count > 0
    assert [f.known_as for f in rep.facets_found] == ["CHSH"]


def test_run_search_found_facets_are_sound():
    cfg = SearchConfig(Scenario(3, 3), corr_range=(-1, 0), marg_min=-1,
                       mode="random", sample_count=3000, seed=5)
    rep = run_search(cfg)
    assert rep.candidates_tested == 3000
    keys = set()
    for finding in rep.facets_found:
        assert facet_check(finding.functional).is_tight
        key = canonical_key(finding.functional)
        assert key not in keys  # deduped
        keys.add(key)
        assert canonical_key(finding.canonical) == key


def test_run_search_degenerate_range_finds_nothing():
    # all-zero tables saturate every vertex, which spans the full parameter
    # space, so nothing is tight
    cfg = SearchConfig(Scenario(2, 2), corr_range=(0, 0), marg_min=0,
                       strict_first=False)
    rep = run_search(cfg)
    assert rep.candidates_tested == 1
    assert rep.facets_found == [] and rep.trivial_count == 0


def test_run_search_writes_files(tmp_path):
    cfg = SearchConfig(Scenario(2, 2), corr_range=(-1, 1), marg_min=-1)
    rep = run_search(cfg, out_dir=tmp_path)
    bell_files = sorted(tmp_path.glob("*.bell"))
    assert len(bell_files) == len(rep.facets_found) == 1
    parsed = parse_functional(bell_files[0].read_text())
    assert equivalent(parsed, catalog_get("CHSH").functional)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["candidates_tested"] == 81
    assert report["facets_found"][0]["known_as"] == "CHSH"
