import json
import math
from itertools import islice, permutations, product

import numpy as np
import pytest

from bellscan import search
from bellscan.catalog import catalog_get, catalog_list
from bellscan.core import (
    BellFunctional,
    CapacityError,
    Scenario,
    StructuralError,
    functional_to_json,
    lift,
    parse_functional,
)
from bellscan.polytope import _affine_dims, facet_check, local_bound, ns_dimension
from bellscan.search import (
    _CHUNK,
    SearchConfig,
    _build,
    _catalog_keys,
    _marginal_tuples,
    _raw_candidates,
    _screen,
    _varying,
    run_search,
)
from bellscan.symmetry import canonical_key, equivalent
from reference_walks import full_table_screen


def generate_candidates(cfg, stream=_raw_candidates):
    """The candidate stream of run_search, each bound set to its exact local bound."""
    for rows in stream(cfg):
        for row in rows:
            f = _build(cfg.scenario, row, 0)
            yield _build(cfg.scenario, row, local_bound(f))


def nested_loop_rows(cfg):
    """The exhaustive stream as nested loops: Alice's marginal tuple outermost,
    then Bob's, then the correlation cells with the last cell fastest."""
    s = cfg.scenario
    lo, hi = cfg.corr_range
    for am in _marginal_tuples(s.m_a, cfg.marg_min, cfg.strict_first):
        for bm in _marginal_tuples(s.m_b, cfg.marg_min, cfg.strict_first):
            for flat in product(range(lo, hi + 1), repeat=s.m_a * s.m_b):
                yield am + bm + flat


def full_stream(cfg):
    """The whole nested-loop stream in int64 chunks of _CHUNK rows, in the
    layout of search._raw_candidates, for tests that need every row."""
    rows = nested_loop_rows(cfg)
    while chunk := list(islice(rows, _CHUNK)):
        yield np.array(chunk, dtype=np.int64)


def is_least_image(cfg, row):
    """Whether a row of the nested-loop stream comes first in it among its
    images under the relabelings that keep the stream: C's rows
    nondecreasing within each run of equal Alice marginals, its columns
    within each run of equal Bob marginals, and on square scenarios Alice's
    marginal tuple at most Bob's."""
    ma, mb = cfg.scenario.m_a, cfg.scenario.m_b
    a, b = tuple(row[:ma]), tuple(row[ma:ma + mb])
    corr = [tuple(row[ma + mb + x * mb:ma + mb + (x + 1) * mb]) for x in range(ma)]
    cols = list(zip(*corr))
    return (not (ma == mb and a > b)
            and all(corr[x] <= corr[x + 1] for x in range(ma - 1) if a[x] == a[x + 1])
            and all(cols[y] <= cols[y + 1] for y in range(mb - 1) if b[y] == b[y + 1]))


def stream_rows(cfg):
    chunks = list(_raw_candidates(cfg))
    terms = cfg.scenario.m_a + cfg.scenario.m_b + cfg.scenario.m_a * cfg.scenario.m_b
    for chunk in chunks:
        assert chunk.dtype == np.int64 and chunk.ndim == 2 and chunk.shape[1] == terms
        assert 1 <= len(chunk) <= search._CHUNK
    if cfg.mode == "random":
        assert all(len(c) == _CHUNK for c in chunks[:-1])
    return np.vstack(chunks)


def assert_funnel(rep):
    assert rep.candidates_tested >= rep.rank_tested >= rep.tight
    assert rep.tight >= rep.trivial_count + len(rep.facets_found)
    assert rep.rank_tested >= rep.rank_sets >= (rep.rank_tested > 0)
    assert rep.rank_sets >= rep.support_settled >= 0


EXHAUSTIVE_3322 = SearchConfig(Scenario(3, 3), corr_range=(-1, 1), marg_min=-2)


@pytest.fixture(scope="module")
def exhaustive_3322():
    return run_search(EXHAUSTIVE_3322)


def outcome(rep):
    """Everything a report says except the rank layer's work count."""
    return ((rep.candidates_tested, rep.rank_tested, rep.tight, rep.trivial_count,
             rep.new_count),
            [(f.known_as, functional_to_json(f.functional), functional_to_json(f.canonical))
             for f in rep.facets_found])


@pytest.mark.parametrize("cfg", [
    SearchConfig(Scenario(2, 2), corr_range=(-1, 1), marg_min=-1),  # no ties: all 81 rows
    SearchConfig(Scenario(3, 3), corr_range=(-1, 0), marg_min=-2),  # 4608 rows
    SearchConfig(Scenario(3, 3), corr_range=(-1, 0), marg_min=-2,
                 strict_first=False),  # 18432 rows
    SearchConfig(Scenario(1, 3), corr_range=(-2, 1), marg_min=-2),  # one-setting side
], ids=["2222", "3322-strict", "3322-loose", "1x3"])
def test_exhaustive_stream_matches_nested_loops(cfg):
    expected = [list(r) for r in nested_loop_rows(cfg) if is_least_image(cfg, r)]
    assert stream_rows(cfg).tolist() == expected


@pytest.mark.parametrize("cfg", [
    EXHAUSTIVE_3322,
    SearchConfig(Scenario(3, 3), corr_range=(-1, 1), marg_min=-2, strict_first=False),
    SearchConfig(Scenario(2, 2), corr_range=(-2, 2), marg_min=-3),
    SearchConfig(Scenario(3, 4), mode="random", seed=3),
    SearchConfig(Scenario(4, 4), mode="random", seed=0),
    SearchConfig(Scenario(4, 4), mode="random", seed=11),
], ids=["3322-strict", "3322-loose", "2222-wide", "3422-random", "4422-seed0", "4422-seed11"])
def test_best_response_screen_matches_the_full_table(cfg):
    s = cfg.scenario
    ranked = 0
    for rows in (full_stream if cfg.mode == "exhaustive" else _raw_candidates)(cfg):
        got, want = _screen(s, rows), full_table_screen(s, rows)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        ranked += len(got[0])
    assert ranked > 0


def test_random_stream_draws_within_the_constraints():
    s = Scenario(3, 4)
    cfg = SearchConfig(s, corr_range=(-2, 1), marg_min=-3, mode="random",
                       sample_count=2 * _CHUNK + 7, seed=21)
    rows = stream_rows(cfg)
    assert len(rows) == cfg.sample_count
    assert np.array_equal(rows, stream_rows(cfg))
    other = SearchConfig(s, corr_range=(-2, 1), marg_min=-3, mode="random",
                         sample_count=cfg.sample_count, seed=22)
    assert not np.array_equal(rows, stream_rows(other))
    assert set(map(tuple, rows[:, :3].tolist())) <= set(_marginal_tuples(3, -3, True))
    assert set(map(tuple, rows[:, 3:7].tolist())) <= set(_marginal_tuples(4, -3, True))
    cells = rows[:, 7:]
    assert cells.min() >= -2 and cells.max() <= 1
    assert set(np.unique(cells).tolist()) == {-2, -1, 0, 1}


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

    # the printed I3322 is in the full stream only: Bob's tied columns 1 and 2
    # are out of order, so its least image is another table
    cfg = SearchConfig(Scenario(3, 3), corr_range=(-1, 1), marg_min=-2)
    i3322 = catalog_get("I3322").functional
    printed = i3322.alice_marg + i3322.bob_marg + sum(i3322.corr, ())
    assert not is_least_image(cfg, printed)
    found = False
    for f in generate_candidates(cfg, stream=full_stream):
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
    with pytest.raises(StructuralError):
        SearchConfig(Scenario(2, 2), mode="random", seed=-1)
    with pytest.raises(StructuralError) as err:
        SearchConfig(Scenario(2, 2), marg_min=1)  # refused before any stream starts
    assert "marg_min must be <= 0" in str(err.value)


def test_empty_marginal_space():
    # no tuple satisfies 0 <= M(0) < M(1) = 0
    s = Scenario(2, 2)
    assert run_search(SearchConfig(s, marg_min=0)).candidates_tested == 0
    with pytest.raises(StructuralError) as err:
        run_search(SearchConfig(s, marg_min=0, mode="random"))
    assert "marg_min 0" in str(err.value)


@pytest.mark.parametrize("bounds", [
    dict(corr_range=(-2 ** 62, 0)),
    dict(corr_range=(0, 2 ** 62)),
    dict(corr_range=(-10 ** 20, 2)),
    dict(marg_min=-2 ** 62),
])
def test_config_rejects_coefficients_past_int64(bounds):
    with pytest.raises(StructuralError) as err:
        SearchConfig(Scenario(2, 2), mode="random", **bounds)
    assert "2^62" in str(err.value)


def test_random_search_at_the_coefficient_limit():
    # the largest accepted range: drawn in int64, scored in Python integers
    top = 2 ** 62 - 1
    cfg = SearchConfig(Scenario(2, 2), corr_range=(-top, top), marg_min=-1,
                       mode="random", sample_count=20, seed=4)
    rows = stream_rows(cfg)
    assert np.abs(rows[:, 4:]).max() > 2 ** 60
    for f in generate_candidates(cfg):
        assert f.bound == local_bound(f)
    assert run_search(cfg).candidates_tested == 20


def test_run_search_2222_finds_chsh_class():
    cfg = SearchConfig(Scenario(2, 2), corr_range=(-1, 1), marg_min=-1)
    rep = run_search(cfg)
    assert rep.candidates_tested == 81  # one marginal tuple per side, 3^4 tables
    assert [f.known_as for f in rep.facets_found] == ["CHSH"]
    assert rep.new_count == 0
    assert equivalent(rep.facets_found[0].functional, catalog_get("CHSH").functional)
    assert_funnel(rep)
    assert rep.tight > 0


def test_run_search_trivial_facets_filtered():
    cfg = SearchConfig(Scenario(2, 2), corr_range=(-1, 1), marg_min=-1,
                       strict_first=False)
    rep = run_search(cfg)
    assert rep.trivial_count > 0
    assert [f.known_as for f in rep.facets_found] == ["CHSH"]
    assert_funnel(rep)


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
    assert_funnel(rep)
    assert rep.tight == 0


def test_rank_queue_flushes_leave_the_report_unchanged(monkeypatch, exhaustive_3322):
    # a queue of 7 flushes after every chunk that rank-tests anything, so a
    # set shared by two chunks is ranked twice; the report must not notice
    monkeypatch.setattr(search, "_RANK_QUEUE", 7)
    rep = run_search(EXHAUSTIVE_3322)
    assert outcome(rep) == outcome(exhaustive_3322)
    assert outcome(rep)[0] == (56295, 834, 2, 0, 0)
    assert [f.known_as for f in rep.facets_found] == ["I3322", "CHSH"]
    assert rep.rank_sets > exhaustive_3322.rank_sets
    assert_funnel(rep)


def test_each_distinct_saturating_set_is_ranked_once(monkeypatch):
    calls = []

    def recording(scenario, saturated):
        calls.append(saturated)
        return _affine_dims(scenario, saturated)

    monkeypatch.setattr(search, "_affine_dims", recording)
    rep = run_search(EXHAUSTIVE_3322)
    # the 834 rank-tested candidates fit one queue and hold 331 sets, of
    # which the support screen leaves 110 to the rank
    assert len(calls) == 1
    assert len(np.unique(calls[0], axis=0)) == len(calls[0]) == 110
    assert (rep.rank_tested, rep.rank_sets, rep.support_settled) == (834, 331, 221)
    assert_funnel(rep)


def test_catalog_keys_computed_only_when_a_facet_is_found(monkeypatch):
    calls = []

    def counting_key(f):
        calls.append(f)
        return canonical_key(f)

    monkeypatch.setattr(search, "canonical_key", counting_key)
    run_search(SearchConfig(Scenario(2, 2), corr_range=(0, 0), marg_min=0,
                            strict_first=False))
    assert calls == []
    rep = run_search(SearchConfig(Scenario(2, 2), corr_range=(-1, 1), marg_min=-1))
    assert len(rep.facets_found) == 1 and len(calls) > rep.tight


def test_run_search_writes_files(tmp_path):
    cfg = SearchConfig(Scenario(2, 2), corr_range=(-1, 1), marg_min=-1)
    rep = run_search(cfg, out_dir=tmp_path)
    bell_files = sorted(tmp_path.glob("*.bell"))
    assert len(bell_files) == len(rep.facets_found) == 1
    parsed = parse_functional(bell_files[0].read_text())
    assert equivalent(parsed, catalog_get("CHSH").functional)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["candidates_tested"] == 81
    assert (report["rank_tested"], report["rank_sets"], report["support_settled"],
            report["tight"]) == (
        rep.rank_tested, rep.rank_sets, rep.support_settled, rep.tight) == (5, 5, 0, 1)
    keys = list(report)
    assert keys.index("support_settled") == keys.index("rank_sets") + 1
    assert report["facets_found"][0]["known_as"] == "CHSH"


def test_catalog_keys_hold_both_party_orders_off_the_diagonal(monkeypatch):
    # a key carries the party swap only when m_a == m_b, so (3,4) must also
    # know the 4322 classes written with Alice and Bob exchanged
    s = Scenario(3, 4)
    keys = _catalog_keys(s)
    for name in ("I4322_1", "I4322_2", "I4322_3"):
        f = catalog_get(name).functional
        swapped = BellFunctional.build(f.bob_marg, f.alice_marg, zip(*f.corr), f.bound)
        assert keys[canonical_key(lift(swapped, s))] == name
    # on the diagonal the printed orders already cover every class: one
    # canonicalization per entry that fits, and the same key set as before
    calls = []
    monkeypatch.setattr(search, "canonical_key", lambda f: calls.append(f) or canonical_key(f))
    for s, classes in ((Scenario(3, 3), 2), (Scenario(4, 4), 31)):
        calls.clear()
        keys = _catalog_keys(s)
        fits = [entry.functional for entry in catalog_list()
                if entry.native_scenario.m_a <= s.m_a and entry.native_scenario.m_b <= s.m_b]
        assert len(calls) == len(fits)
        assert set(keys) == {canonical_key(lift(f, s)) for f in fits}
        assert len(keys) == classes


def test_run_search_reduces_a_multiple_of_a_facet():
    # the space holds 2*CHSH (bound 0) beside CHSH; both are the CHSH class,
    # and 2*CHSH is a least image in the stream, so the gcd reduction still runs
    cfg = SearchConfig(Scenario(2, 2), corr_range=(-2, 2), marg_min=-3)
    chsh = catalog_get("CHSH").functional
    double = [2 * c for c in chsh.alice_marg + chsh.bob_marg + sum(chsh.corr, ())]
    assert double in np.vstack(list(full_stream(cfg))).tolist()
    assert double in stream_rows(cfg).tolist()
    rep = run_search(cfg)
    assert (rep.candidates_tested, rep.rank_tested, rep.tight, rep.new_count) == (
        3750, 18, 2, 0)
    assert [f.known_as for f in rep.facets_found] == ["CHSH"]
    found = rep.facets_found[0].functional
    coeffs = found.alice_marg + found.bob_marg + sum(found.corr, ())
    assert math.gcd(*coeffs, int(found.bound)) == 1
    assert equivalent(found, catalog_get("CHSH").functional)
    assert_funnel(rep)


def test_run_search_reports_a_class_missing_from_the_catalog(monkeypatch):
    def without_i3322():
        return [e for e in catalog_list() if e.name not in ("I3322", "I3322_TILDE")]

    monkeypatch.setattr(search, "catalog_list", without_i3322)
    rep = run_search(EXHAUSTIVE_3322)
    assert [f.known_as for f in rep.facets_found] == [None, "CHSH"]
    assert rep.new_count == 1
    assert equivalent(rep.facets_found[0].functional, catalog_get("I3322").functional)
    assert_funnel(rep)


def least_images(cfg):
    """The exhaustive stream's rows that come first in it among their orbit
    under every relabeling that keeps the stream: setting permutations that
    fix each side's marginal tuple, and on square scenarios the party swap.
    Brute force over the orbits, in stream order."""
    s = cfg.scenario
    rows = [tuple(r) for r in nested_loop_rows(cfg)]
    position = {r: i for i, r in enumerate(rows)}
    fixing = {}  # marginal tuple -> the setting permutations that keep it

    def perms(tup):
        if tup not in fixing:
            fixing[tup] = [p for p in permutations(range(len(tup)))
                           if tuple(tup[i] for i in p) == tup]
        return fixing[tup]

    least = set()
    for row in rows:
        a, b = row[:s.m_a], row[s.m_a:s.m_a + s.m_b]
        corr = [row[s.m_a + s.m_b + x * s.m_b:s.m_a + s.m_b + (x + 1) * s.m_b]
                for x in range(s.m_a)]
        bases = [(a, b, corr)]
        if s.m_a == s.m_b:
            bases.append((b, a, [list(col) for col in zip(*corr)]))
        first = min(position[ma + mb + tuple(c[x][y] for x in p for y in q)]
                    for ma, mb, c in bases for p in perms(ma) for q in perms(mb))
        least.add(rows[first])
    return least


def stream_tuples(cfg):
    return [tuple(r) for r in stream_rows(cfg).tolist()]


@pytest.mark.parametrize("cfg, counts", [
    (SearchConfig(Scenario(2, 2), corr_range=(-1, 1), marg_min=-2, strict_first=False),
     None),
    (SearchConfig(Scenario(2, 2), corr_range=(-2, 2), marg_min=-3), None),
    (SearchConfig(Scenario(2, 3), corr_range=(-1, 1), marg_min=-2, strict_first=False),
     None),
    (EXHAUSTIVE_3322, (41688, 56295, 177147)),
], ids=["2222-loose", "2222-wide", "2x3-loose", "3322-strict"])
def test_orbit_cut_keeps_every_least_image(cfg, counts):
    position = {tuple(r): i for i, r in enumerate(nested_loop_rows(cfg))}
    least, kept = least_images(cfg), stream_tuples(cfg)
    assert least <= set(kept)
    places = [position[r] for r in kept]
    assert places == sorted(places) and len(kept) < len(position)  # a stream-order subset
    if counts is not None:
        assert (len(least), len(kept), len(position)) == counts


@pytest.mark.parametrize("cfg", [
    SearchConfig(Scenario(2, 2), corr_range=(-2, 2), marg_min=-3),
    EXHAUSTIVE_3322,
    SearchConfig(Scenario(3, 3), corr_range=(-1, 1), marg_min=-2, strict_first=False),
], ids=["2222-wide", "3322-strict", "3322-loose"])
def test_orbit_cut_leaves_the_findings_unchanged(monkeypatch, cfg):
    cut = run_search(cfg)
    monkeypatch.setattr(search, "_raw_candidates", full_stream)
    full = run_search(cfg)
    assert outcome(cut)[1] == outcome(full)[1]
    assert cut.new_count == full.new_count
    assert cut.candidates_tested < full.candidates_tested
    assert_funnel(cut)
    assert_funnel(full)


def test_exhaustive_chunks_are_nonempty_and_skip_swapped_pairs(exhaustive_3322):
    # a square pair with Alice's tuple above Bob's yields nothing, and no
    # chunk is empty, since the scorers take no empty table
    chunks = list(_raw_candidates(EXHAUSTIVE_3322))
    assert min(map(len, chunks)) >= 1
    rows = np.vstack(chunks)
    assert all(a <= b for a, b in zip(rows[:, :3].tolist(), rows[:, 3:6].tolist()))
    assert len(rows) == exhaustive_3322.candidates_tested == 56295
    assert [f.known_as for f in exhaustive_3322.facets_found] == ["I3322", "CHSH"]


@pytest.mark.parametrize("cfg", [
    SearchConfig(Scenario(2, 2), corr_range=(-2, 2), marg_min=-3),
    EXHAUSTIVE_3322,
    SearchConfig(Scenario(1, 3), corr_range=(-2, 1), marg_min=-2),
], ids=["2222-wide", "3322-strict", "1x3"])
@pytest.mark.parametrize("chunk", [7, 1000])
def test_chunk_boundaries_inside_a_block_change_nothing(monkeypatch, cfg, chunk):
    rows, rep = stream_rows(cfg), run_search(cfg)
    monkeypatch.setattr(search, "_CHUNK", chunk)
    assert np.array_equal(stream_rows(cfg), rows)  # every chunk holds 1 to `chunk` rows
    assert outcome(run_search(cfg)) == outcome(rep)


@pytest.mark.parametrize("cfg", [
    SearchConfig(Scenario(2, 2), corr_range=(-2, 2), marg_min=-3),
    EXHAUSTIVE_3322,
    SearchConfig(Scenario(3, 3), corr_range=(-1, 1), marg_min=-2, strict_first=False),
    SearchConfig(Scenario(3, 4), mode="random", seed=3),
    SearchConfig(Scenario(4, 4), mode="random", seed=0),
    SearchConfig(Scenario(4, 4), mode="random", seed=11),
    SearchConfig(Scenario(4, 4), corr_range=(-1, 1), marg_min=-2, mode="random", seed=1),
], ids=["2222-wide", "3322-strict", "3322-loose", "3422-random", "4422-seed0",
        "4422-seed11", "4422-pm1-seed1"])
def test_support_screen_settles_only_sets_that_cannot_be_tight(monkeypatch, cfg):
    screened = run_search(cfg)
    d = ns_dimension(cfg.scenario)
    ranked = []

    def checked(scenario, saturated):
        dims = _affine_dims(scenario, saturated)
        assert (dims <= _varying(scenario, saturated)).all()
        ranked.append(len(saturated))
        return dims

    monkeypatch.setattr(search, "_affine_dims", checked)
    monkeypatch.setattr(search, "_varying", lambda scenario, masks: np.full(len(masks), d))
    unscreened = run_search(cfg)
    assert outcome(unscreened) == outcome(screened)
    assert unscreened.support_settled == 0
    assert sum(ranked) == unscreened.rank_sets == screened.rank_sets > 0


def test_orbit_cut_at_large_coefficients():
    # lines are coded from C - lo; coded from C itself, the two-entry rows of
    # a 3x2 table at lo = 2^61 - 1 would score 4 lo + v = 2^63 - 4 + v, with v
    # the code of the row of C - lo, and wrap past int64's limit for v >= 4
    lo = 2 ** 61 - 1
    near, far = (SearchConfig(Scenario(3, 2), corr_range=(shift, shift + 2), marg_min=-2,
                              strict_first=False) for shift in (0, lo))
    kept, shifted = np.array(stream_tuples(near)), np.array(stream_tuples(far))
    assert np.array_equal(shifted[:, :5], kept[:, :5])
    assert np.array_equal(shifted[:, 5:] - lo, kept[:, 5:])
    # the plain-Python predicate compares the large entries without codes
    assert stream_tuples(far) == [r for r in nested_loop_rows(far) if is_least_image(far, r)]
