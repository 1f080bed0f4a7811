import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from bellscan import polytope
from bellscan.catalog import catalog_get, catalog_list
from bellscan.core import (
    BellFunctional,
    CapacityError,
    Scenario,
    evaluate,
    lift,
)
from bellscan.polytope import (
    facet_check,
    local_bound,
    ns_dimension,
    _affine_dims,
    _best_responses,
    _primes,
    _ranks,
    _ranks_mod,
    _scored,
    _strategy_table,
    _strategy_values,
)
from reference_walks import (
    DeterministicStrategy,
    behavior_matrix_values,
    behavior_of_strategy,
    local_bound_bruteforce,
    saturating_strategies,
    strategies,
)


def integer_rank(rows: list[list[int]]) -> int:
    """Rank by fraction-free Gaussian elimination (Bareiss); exact over Z."""
    mat = [list(r) for r in rows]
    nr = len(mat)
    if nr == 0:
        return 0
    nc = len(mat[0])
    rank = 0
    prev = 1
    for col in range(nc):
        if rank == nr:
            break
        piv = next((r for r in range(rank, nr) if mat[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            mat[rank], mat[piv] = mat[piv], mat[rank]
        pivval = mat[rank][col]
        prow = mat[rank]
        for r in range(rank + 1, nr):
            row = mat[r]
            factor = row[col]
            for j in range(col, nc):
                row[j] = (pivval * row[j] - factor * prow[j]) // prev
        prev = pivval
        rank += 1
    return rank


def rank(mat) -> int:
    """_ranks on a batch of one."""
    return int(_ranks(np.array(mat, dtype=np.int64).reshape(1, len(mat), -1))[0])


def rank_mod(mat, p) -> int:
    return int(_ranks_mod(np.array(mat, dtype=np.int64).reshape(1, len(mat), -1) % p, p)[0])


def random_functional(rng, scenario, lo=-3, hi=3):
    am = [rng.randint(lo, hi) for _ in range(scenario.m_a)]
    bm = [rng.randint(lo, hi) for _ in range(scenario.m_b)]
    corr = [[rng.randint(lo, hi) for _ in range(scenario.m_b)]
            for _ in range(scenario.m_a)]
    return BellFunctional.build(am, bm, corr, 0)


def test_ns_dimension():
    assert ns_dimension(Scenario(2, 2)) == 8
    assert ns_dimension(Scenario(3, 3)) == 15
    assert ns_dimension(Scenario(4, 4)) == 24
    assert ns_dimension(Scenario(4, 3)) == 19


def test_local_bounds_of_known_tables():
    assert local_bound(catalog_get("CHSH").functional) == 0
    assert local_bound(catalog_get("I3322").functional) == 0
    assert local_bound(catalog_get("I4422_7").functional) == 1
    zero = BellFunctional.build([0, 0], [0, 0], [[0, 0], [0, 0]], 0)
    assert local_bound(zero) == 0


def test_bruteforce_agrees_on_catalog():
    for entry in catalog_list():
        f = entry.functional
        assert local_bound(f) == local_bound_bruteforce(f) == f.bound


def test_bruteforce_agrees_on_random_functionals():
    rng = random.Random(99)
    scenarios = [Scenario(2, 2), Scenario(3, 3), Scenario(4, 3), Scenario(2, 4),
                 Scenario(1, 1), Scenario(2, 3), Scenario(4, 4)]
    functionals = [random_functional(rng, rng.choice(scenarios)) for _ in range(200)]
    # past int64 (2**63), and where int64 sums would wrap (8 * 2**61 = 2**64)
    chsh = catalog_get("CHSH").functional
    huge = 2 ** 63
    functionals.append(BellFunctional.build(
        [huge * v for v in chsh.alice_marg], [huge * v for v in chsh.bob_marg],
        [[huge * v for v in row] for row in chsh.corr], 0))
    functionals.append(BellFunctional.build([2 ** 61] * 2, [2 ** 61] * 2,
                                            [[2 ** 61] * 2] * 2, 0))
    for f in functionals:
        bound = local_bound_bruteforce(f)
        assert local_bound(f) == bound
        assert facet_check(f).local_bound == bound
        for b in (f.bound, bound, bound / 2):
            g = replace(f, bound=b)
            walk = [s for s in strategies(g.scenario)
                    if evaluate(g, behavior_of_strategy(s)) == g.bound]
            assert saturating_strategies(g) == walk
    assert functionals[-2].bound == 0 and facet_check(functionals[-2]).is_tight
    assert local_bound(functionals[-1]) == 2 ** 64


def vector(st):
    """The behavior vector (s_a, s_b, s_a s_b^T) of a strategy."""
    return st.s_a + st.s_b + tuple(a * b for a in st.s_a for b in st.s_b)


def python_values(scenario, rows):
    """Each row's value at every strategy, in Python integers."""
    return [[sum(c * v for c, v in zip(row, vector(st))) for st in strategies(scenario)]
            for row in rows]


def test_strategy_values_exact_at_the_float_boundary():
    # float64 scores exactly while max|c| * d < 2^53; from there on the
    # Python-integer path takes over, where float64 would round
    s = Scenario(2, 2)  # d = 8
    rng = random.Random(3)
    for top, dtype in ((2 ** 50 - 1, np.float64), (2 ** 50 + 1, object)):
        rows = [[top] * 7 + [top - 1], [-top] * 8, [top, -top] * 4]
        rows += [[rng.randint(-top, top) for _ in range(8)] for _ in range(20)]
        values = _strategy_values(s, rows)
        assert values.dtype == dtype
        assert [[int(v) for v in r] for r in values] == python_values(s, rows)
        # the best responses take the same dtype and agree with the table
        bounds, counts = _best_responses(s, rows)
        assert bounds.dtype == dtype
        assert [int(b) for b in bounds] == [max(r) for r in python_values(s, rows)]
        assert counts.tolist() == [r.count(max(r)) for r in python_values(s, rows)]
    # the first row reaches 2^53 + 7 at the all-ones strategy
    as_float = np.array(rows[:1], dtype=np.float64) @ np.ones(8)
    assert int(as_float[0]) != 2 ** 53 + 7 == python_values(s, rows[:1])[0][-1]
    # 6x6: Bob's 64 strategies expand the fields of Alice's 64
    big = Scenario(6, 6)
    rows = [[rng.randint(-3, 3) for _ in range(48)] for _ in range(2)]
    assert _strategy_values(big, rows).tolist() == python_values(big, rows)


@pytest.mark.parametrize("ma, mb, count, top", [
    (1, 1, 5, 3), (2, 3, 5, 3), (3, 2, 5, 3), (3, 5, 5, 3), (5, 3, 5, 3),
    (3, 3, 3000, 3),  # three row blocks
    (8, 8, 3, 3),  # Alice's 256 strategies span six kernel blocks
    (7, 7, 2, 2 ** 50),  # Python integers; Alice's 128 span two kernel blocks
])
def test_strategy_values_match_the_behavior_matrix(ma, mb, count, top):
    # off the diagonal a swapped Alice/Bob column order cannot match, and
    # random marginals catch a lost alpha(s) term
    s = Scenario(ma, mb)
    rows = np.random.default_rng(ma * 10 + mb).integers(
        -top, top, size=(count, ns_dimension(s)), endpoint=True)
    values, want = _strategy_values(s, rows), behavior_matrix_values(s, rows)
    assert values.dtype == want.dtype == (object if top > 3 else np.float64)
    assert values.shape == want.shape == (count, 1 << (ma + mb))
    assert values.tolist() == want.tolist()


def test_best_responses_count_every_tie():
    # the all-zero table: every strategy saturates, so each of Alice's
    # strategies contributes 2^m_b tied best responses of Bob's; at 8x8 they
    # span several kernel blocks, whose counts must add up
    for s in (Scenario(1, 1), Scenario(2, 3), Scenario(4, 4), Scenario(8, 8)):
        bounds, counts = _best_responses(s, np.zeros((3, ns_dimension(s)), dtype=np.int64))
        assert bounds.tolist() == [0, 0, 0]
        assert counts.tolist() == [1 << (s.m_a + s.m_b)] * 3


def test_best_responses_match_the_strategy_table_on_8x8():
    # 256 Alice strategies span several kernel blocks; these tables reach
    # their maximum in one block, in a later one, or tie it across several
    rng = np.random.default_rng(5)
    s = Scenario(8, 8)
    for lo, hi in ((-3, 3), (-1, 1)):
        rows = rng.integers(lo, hi, size=(4, ns_dimension(s)), endpoint=True)
        bounds, counts = _best_responses(s, rows)
        for row, bound, count in zip(rows, bounds, counts):
            f = BellFunctional.build(row[:8].tolist(), row[8:16].tolist(),
                                     row[16:].reshape(8, 8).tolist(), 0)
            table = _strategy_table(f)
            assert local_bound(f) == bound == table.max()
            assert count == (table == table.max()).sum()


def test_bruteforce_capacity_guard():
    f = BellFunctional.build([0] * 13, [0] * 13, [[0] * 13] * 13, 0)
    for bound in (local_bound_bruteforce, local_bound, facet_check):
        with pytest.raises(CapacityError):
            bound(f)


def test_saturating_strategies_chsh():
    chsh = catalog_get("CHSH").functional
    sats = saturating_strategies(chsh)
    assert DeterministicStrategy((0, 0), (0, 0)) in sats
    assert DeterministicStrategy((1, 1), (1, 1)) in sats
    # raising the bound above the maximum leaves nothing
    raised = BellFunctional.build(chsh.alice_marg, chsh.bob_marg, chsh.corr, 1)
    assert saturating_strategies(raised) == []
    zero = BellFunctional.build([0, 0], [0, 0], [[0, 0], [0, 0]], 0)
    assert len(saturating_strategies(zero)) == 16


def test_facet_check_chsh():
    report = facet_check(catalog_get("CHSH").functional)
    assert report.is_tight
    assert report.ns_dim == 8
    assert report.affine_dim == 7
    assert report.local_bound == 0


def test_facet_check_i3322():
    report = facet_check(catalog_get("I3322").functional)
    assert report.is_tight
    assert report.affine_dim == 14
    assert report.ns_dim == 15


def test_facet_check_raised_bound_not_tight():
    chsh = catalog_get("CHSH").functional
    # 2^60 lies beyond every value and beyond float64's exact range
    for bound in (1, 2 ** 60, 10 ** 400, -10 ** 400):
        raised = BellFunctional.build(chsh.alice_marg, chsh.bob_marg, chsh.corr, bound)
        report = facet_check(raised)
        assert not report.is_tight
        assert report.saturating_count == 0
        assert report.affine_dim == -1


def test_integer_rank_examples():
    examples = [[[0, 0], [0, 0]], [[1, 2], [2, 4]], [[1, 2, 3], [0, 1, 1], [1, 3, 4]],
                [[2, 0, 0], [0, 3, 0], [0, 0, 5]]]
    for mat, expected in zip(examples, [0, 1, 2, 3]):
        assert integer_rank(mat) == rank(mat) == expected
    assert integer_rank([]) == 0
    # the batched rank matches the oracle and a floating reference on random
    # integer matrices, stacked with zero-row padding as the facet test pads them
    rng = random.Random(7)
    mats = []
    for _ in range(100):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        mats.append([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
    for mat in mats:
        assert rank(mat) == integer_rank(mat) == np.linalg.matrix_rank(np.array(mat, dtype=float))
    stack = np.zeros((len(mats), 7, 5), dtype=np.int64)
    fives = [m for m in mats if len(m[0]) == 5]
    for i, mat in enumerate(fives):
        stack[i, :len(mat)] = mat
    assert _ranks(stack[:len(fives)]).tolist() == [integer_rank(m) for m in fives]


def test_ranks_mod_at_the_largest_residue():
    # -1 is p - 1 modulo p: the largest residue, whose products reach
    # (p - 1)^2 just below 2^62.  +-1 minors of at most 8 columns stay far
    # below p, so the modular rank is the rank over Q.
    p = next(_primes())
    rng = random.Random(11)
    mats = [[[-1] * 8] * 8, [[-1, 1], [1, -1]], [[-1, -1], [1, -1]]]
    mats += [[[rng.choice((-1, -1, 0, 1)) for _ in range(8)]
              for _ in range(rng.randrange(1, 12))] for _ in range(60)]
    stack = np.zeros((len(mats), 11, 8), dtype=np.int64)
    for i, mat in enumerate(mats):
        stack[i, :len(mat), :len(mat[0])] = mat
    residues = stack % p
    assert residues.max() == p - 1
    assert _ranks_mod(residues, p).tolist() == [integer_rank(m) for m in mats]


def test_affine_dims_sorted_stacks_keep_the_callers_order(monkeypatch):
    s = Scenario(3, 3)
    d = ns_dimension(s)
    rng = random.Random(5)
    functionals = [lift(catalog_get("CHSH").functional, s), catalog_get("I3322").functional]
    for lo, hi in ((-1, 1), (-1, 0), (0, 1), (-3, 3)):
        for _ in range(12):
            f = random_functional(rng, s, lo, hi)
            functionals.append(replace(f, bound=local_bound(f)))
    chsh = functionals[0]
    functionals.append(replace(chsh, bound=chsh.bound + 1))  # saturates nothing
    masks = np.array([_scored(f)[1] for f in functionals])
    counts = masks.sum(axis=1)
    assert counts.min() == 0 and counts.max() > 2 * d  # widths from none to wide
    expected = [facet_check(f).affine_dim for f in functionals]
    assert expected[-1] == -1 and expected[:2] == [d - 1, d - 1]

    shapes = []

    def recording(stack):
        shapes.append(stack.shape)
        return _ranks(stack)

    monkeypatch.setattr(polytope, "_ranks", recording)
    monkeypatch.setattr(polytope, "_STACK", 40 * d)
    perm = np.random.default_rng(5).permutation(len(functionals))
    dims = _affine_dims(s, masks[perm])
    assert dims.tolist() == [expected[i] for i in perm]
    # stacks in order of width, each within _STACK unless one row is wider,
    # padded to its own widest row
    assert len(shapes) >= 4 and sum(t for t, _, _ in shapes) == len(functionals)
    widths = [w for _, w, _ in shapes]
    assert widths == sorted(widths) and widths[-1] == counts.max()
    assert all(t * w * c <= 40 * d or t == 1 for t, w, c in shapes)
    assert sum(t * w for t, w, _ in shapes) < len(functionals) * counts.max()


def test_primes_are_the_largest_below_2_to_31():
    primes = list(islice(_primes(), 4))
    assert primes == [2147483647, 2147483629, 2147483587, 2147483579]
    top = 2 ** 31
    by_trial_division = [n for n in range(primes[-1], top)
                         if all(n % q for q in range(2, int(n ** 0.5) + 1))]
    assert by_trial_division == primes[::-1]


def test_rank_takes_as_many_primes_as_the_hadamard_bound_needs():
    p1, p2, p3 = islice(_primes(), 3)
    # a single prime loses the rank of [[p1]] ...
    assert rank_mod([[p1]], p1) == 0 and integer_rank([[p1]]) == rank([[p1]]) == 1
    # ... and two lose a matrix whose determinant is p1 * p2
    mat = [[p1, 1], [0, p2]]
    assert rank_mod(mat, p1) == rank_mod(mat, p2) == 1 and rank_mod(mat, p3) == 2
    assert integer_rank(mat) == rank(mat) == 2


def primes_used(monkeypatch):
    used = []

    def recording(stack, p):
        used.append(p)
        return _ranks_mod(stack, p)

    monkeypatch.setattr(polytope, "_ranks_mod", recording)
    return used


def test_facet_check_of_liftings_takes_primes_by_the_bound(monkeypatch):
    # +-1 differences: 15^7.5 < 2^31 for 3322, 24^12 < 2^62 for 4422, and
    # 35^17.5 ~ 2^89.8 for 5x5 (d = 35) needs three primes below 2^31
    used = primes_used(monkeypatch)
    for name in ("CHSH", "I3322"):
        native = catalog_get(name).functional
        for s, count in ((native.scenario, 1), (Scenario(4, 4), 2), (Scenario(5, 5), 3)):
            lifted = lift(native, s)
            used.clear()
            report = facet_check(lifted)
            assert len(used) == count
            d = ns_dimension(s)
            assert report.is_tight and report.ns_dim == d and report.affine_dim == d - 1
            vecs = [vector(st) for st in saturating_strategies(lifted)]
            assert report.saturating_count == len(vecs)
            diffs = [[x - y for x, y in zip(v, vecs[0])] for v in vecs[1:]]
            assert integer_rank(diffs) == report.affine_dim
            raised = replace(lifted, bound=lifted.bound + 1)
            assert not facet_check(raised).is_tight
            assert facet_check(raised).affine_dim == -1
