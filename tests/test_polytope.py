import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bellscan.catalog import catalog_get, catalog_list
from bellscan.core import (
    BellFunctional,
    CapacityError,
    DeterministicStrategy,
    Scenario,
    behavior_of_strategy,
    evaluate,
    strategies,
)
from bellscan.polytope import (
    facet_check,
    local_bound,
    local_bound_bruteforce,
    ns_dimension,
    saturating_strategies,
    _integer_rank,
)


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
    raised = BellFunctional.build(chsh.alice_marg, chsh.bob_marg, chsh.corr, 1)
    report = facet_check(raised)
    assert not report.is_tight
    assert report.saturating_count == 0
    assert report.affine_dim == -1


def test_integer_rank_examples():
    assert _integer_rank([]) == 0
    assert _integer_rank([[0, 0], [0, 0]]) == 0
    assert _integer_rank([[1, 2], [2, 4]]) == 1
    assert _integer_rank([[1, 2, 3], [0, 1, 1], [1, 3, 4]]) == 2
    assert _integer_rank([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 3
    # rank must match a floating reference on random integer matrices
    import numpy as np
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert _integer_rank(mat) == np.linalg.matrix_rank(np.array(mat, dtype=float))
