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
    DeterministicStrategy,
    Scenario,
    evaluate,
    lift,
)
from bellscan.polytope import (
    facet_check,
    local_bound,
    ns_dimension,
    _primes,
    _ranks,
    _ranks_mod,
    _strategy_values,
)
from reference_walks import (
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
    # the first row reaches 2^53 + 7 at the all-ones strategy
    as_float = np.array(rows[:1], dtype=np.float64) @ np.ones(8)
    assert int(as_float[0]) != 2 ** 53 + 7 == python_values(s, rows[:1])[0][-1]
    # 6x6: the 4096 x 48 behavior matrix is built in several blocks
    big = Scenario(6, 6)
    rows = [[rng.randint(-3, 3) for _ in range(48)] for _ in range(2)]
    assert _strategy_values(big, rows).tolist() == python_values(big, rows)


def test_bruteforce_capacity_guard():
    f = BellFunctional.build([0] * 13, [0] * 13, [[0] * 13] * 13, 0)
    with pytest.raises(CapacityError):
        local_bound_bruteforce(f)
    with pytest.raises(CapacityError):
        facet_check(f)


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
    for bound in (1, 10 ** 400, -10 ** 400):
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
