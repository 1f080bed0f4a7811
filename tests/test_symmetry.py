import random
from fractions import Fraction

import pytest

from bellscan.catalog import catalog_get, catalog_list
from bellscan.core import (
    Behavior,
    BellFunctional,
    Scenario,
    StructuralError,
    evaluate,
)
from bellscan.polytope import facet_check
from bellscan.symmetry import (
    Transformation,
    apply_transformation,
    canonical_form,
    canonical_key,
    equivalent,
    random_transformation,
    symmetric_representative,
)
from reference_walks import (
    all_transformations,
    behavior_of_strategy,
    identity_transformation,
    relabel_behavior,
    strategies,
    transformation_count,
)


def is_symmetric(f):
    m = f.scenario.m_a
    return f.alice_marg == f.bob_marg and all(
        f.corr[x][y] == f.corr[y][x] for x in range(m) for y in range(m))


def random_functional(rng, scenario, lo=-2, hi=2):
    am = [rng.randint(lo, hi) for _ in range(scenario.m_a)]
    bm = [rng.randint(lo, hi) for _ in range(scenario.m_b)]
    corr = [[rng.randint(lo, hi) for _ in range(scenario.m_b)]
            for _ in range(scenario.m_a)]
    return BellFunctional.build(am, bm, corr, rng.randint(-2, 2))


def random_rational_behavior(rng, scenario):
    # random convex mixture of deterministic vertices, exact rationals
    verts = [behavior_of_strategy(s) for s in strategies(scenario)]
    picks = rng.sample(range(len(verts)), 3)
    weights = [Fraction(rng.randrange(1, 10)) for _ in picks]
    total = sum(weights)
    weights = [w / total for w in weights]
    ma, mb = scenario.m_a, scenario.m_b
    p_a = tuple(sum(w * verts[i].p_a[x] for w, i in zip(weights, picks)) for x in range(ma))
    p_b = tuple(sum(w * verts[i].p_b[y] for w, i in zip(weights, picks)) for y in range(mb))
    p_ab = tuple(tuple(sum(w * verts[i].p_ab[x][y] for w, i in zip(weights, picks))
                       for y in range(mb)) for x in range(ma))
    return Behavior(p_a, p_b, p_ab)


def brute_canonical_key(f):
    # oracle: scan the full orbit, no pruning
    best = None
    for t in all_transformations(f.scenario):
        g = apply_transformation(f, t)
        key = (g.bound, g.alice_marg, g.bob_marg,
               tuple(v for row in g.corr for v in row))
        if best is None or key < best:
            best = key
    return best


def test_identity():
    f = catalog_get("I3322").functional
    assert apply_transformation(f, identity_transformation(f.scenario)) == f


def test_flip_is_involution():
    f = catalog_get("I3322").functional
    t = Transformation((0, 1, 2), (0, 1, 2), (1, 0, 0), (0, 0, 0))
    assert apply_transformation(apply_transformation(f, t), t) == f


def test_i3322_flips_and_relabeling_give_symmetric_form():
    # invert outputs of Alice's first setting and Bob's second and third,
    # then reverse the setting order on both sides
    f = catalog_get("I3322").functional
    t = Transformation(
        alice_perm=(2, 1, 0),
        bob_perm=(2, 1, 0),
        alice_flips=(1, 0, 0),
        bob_flips=(0, 1, 1),
    )
    assert apply_transformation(f, t) == catalog_get("I3322_TILDE").functional


def test_swap_requires_square_scenario():
    f = catalog_get("I4322_1").functional
    with pytest.raises(StructuralError):
        Transformation((0, 1, 2, 3), (0, 1, 2), (0,) * 4, (0,) * 3, swap_parties=True)
    with pytest.raises(StructuralError):
        symmetric_representative(f)


def test_transformation_counts():
    assert transformation_count(Scenario(2, 2)) == 128
    assert transformation_count(Scenario(4, 4)) == 294912
    assert transformation_count(Scenario(4, 3)) == 24 * 6 * 2 ** 7
    group = list(all_transformations(Scenario(2, 2)))
    assert len(group) == 128
    assert len(set(group)) == 128


def test_value_minus_bound_is_invariant():
    rng = random.Random(31337)
    for _ in range(60):
        scenario = rng.choice([Scenario(2, 2), Scenario(3, 3), Scenario(3, 2)])
        f = random_functional(rng, scenario)
        t = random_transformation(scenario, rng)
        p = random_rational_behavior(rng, scenario)
        g = apply_transformation(f, t)
        q = relabel_behavior(p, t)
        assert evaluate(f, p) - f.bound == evaluate(g, q) - g.bound


def test_canonical_form_idempotent_and_matches_bruteforce():
    rng = random.Random(555)
    for _ in range(12):
        scenario = rng.choice([Scenario(2, 2), Scenario(3, 2)])
        f = random_functional(rng, scenario)
        cf = canonical_form(f)
        assert canonical_form(cf) == cf
        assert canonical_key(f) == brute_canonical_key(f)


def test_canonical_form_constant_on_orbit():
    rng = random.Random(808)
    f = catalog_get("I3322").functional
    key = canonical_key(f)
    for _ in range(20):
        t = random_transformation(f.scenario, rng)
        assert canonical_key(apply_transformation(f, t)) == key


def test_i3322_equivalences():
    f = catalog_get("I3322").functional
    g = catalog_get("I3322_TILDE").functional
    assert canonical_form(f) == canonical_form(g)
    assert equivalent(f, g)
    assert equivalent(f, f)
    assert not equivalent(catalog_get("I4422_1").functional,
                          catalog_get("I4422_2").functional)
    with pytest.raises(StructuralError):
        equivalent(f, catalog_get("CHSH").functional)


def test_facet_check_invariant_under_relabeling():
    rng = random.Random(90210)
    for name in ("CHSH", "I3322", "I4422_7", "AS2"):
        f = catalog_get(name).functional
        for _ in range(3):
            t = random_transformation(f.scenario, rng)
            g = apply_transformation(f, t)
            assert facet_check(g).is_tight


def test_symmetric_representative_examples():
    tilde = catalog_get("I3322_TILDE").functional
    assert symmetric_representative(tilde) == tilde  # already symmetric

    chsh = catalog_get("CHSH").functional
    rep = symmetric_representative(chsh)
    assert rep is not None
    assert rep.alice_marg == rep.bob_marg
    assert all(rep.corr[x][y] == rep.corr[y][x] for x in range(2) for y in range(2))
    assert equivalent(rep, chsh)

    assert symmetric_representative(catalog_get("I4422_2").functional) is None


def test_symmetric_representative_is_equivalent_when_found():
    f = catalog_get("I4422_1").functional
    rep = symmetric_representative(f)
    assert rep is not None
    assert equivalent(rep, f)
    assert rep.alice_marg == rep.bob_marg


def test_symmetric_representatives_over_the_catalog():
    # a symmetric input comes back unchanged; any other (I3322 among them)
    # gives the first symmetric table of the walk, with sorted marginals
    missing, transformed = [], []
    for entry in catalog_list():
        f = entry.functional
        if f.scenario.m_a != f.scenario.m_b:
            continue
        rep = symmetric_representative(f)
        if rep is None:
            missing.append(entry.name)
            continue
        assert is_symmetric(rep)
        assert equivalent(rep, f)
        if is_symmetric(f):
            assert rep == f
        else:
            assert list(rep.alice_marg) == sorted(rep.alice_marg)
            transformed.append(entry.name)
    assert missing == ["I4422_2", "AII2", "I4422_3", "I4422_5", "I4422_6", "I4422_7"]
    assert "I3322" in transformed


def test_symmetric_representative_exists_iff_the_full_orbit_has_one():
    # oracle: scan the whole group, swap included, for a symmetric image;
    # inputs are relabeled symmetric tables, half of them with one cell nudged
    rng = random.Random(2718)
    answers = []
    for _ in range(16):
        scenario = rng.choice([Scenario(2, 2), Scenario(3, 3)])
        m = scenario.m_a
        marg = [rng.randint(-1, 1) for _ in range(m)]
        corr = [[0] * m for _ in range(m)]
        for x in range(m):
            for y in range(x, m):
                corr[x][y] = corr[y][x] = rng.randint(-1, 1)
        if rng.random() < 0.5:
            x, y = rng.sample(range(m), 2)
            corr[x][y] += rng.choice((-1, 1))
        f = apply_transformation(BellFunctional.build(marg, marg, corr, 0),
                                 random_transformation(scenario, rng))
        exists = any(is_symmetric(apply_transformation(f, t))
                     for t in all_transformations(scenario))
        rep = symmetric_representative(f)
        assert (rep is not None) == exists
        if rep is not None:
            assert is_symmetric(rep) and equivalent(rep, f)
            assert rep == f or list(rep.alice_marg) == sorted(rep.alice_marg)
        answers.append(exists)
    assert any(answers) and not all(answers)
