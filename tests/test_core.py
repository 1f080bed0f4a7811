import random
from fractions import Fraction

import pytest

from bellscan.core import (
    Behavior,
    BellFunctional,
    DeterministicStrategy,
    FunctionalParseError,
    Scenario,
    StructuralError,
    evaluate,
    functional_from_json,
    functional_to_json,
    lift,
    parse_functional,
    serialize_functional,
)
from bellscan.catalog import catalog_get, catalog_list
from reference_walks import behavior_of_strategy, strategies, uniform_behavior


def all_zero_outputs(scenario):
    # every party outputs "0" for every setting (bit 1 everywhere)
    return DeterministicStrategy((1,) * scenario.m_a, (1,) * scenario.m_b)


def test_scenario_validation():
    Scenario(2, 2)
    Scenario(4, 3)
    with pytest.raises(StructuralError):
        Scenario(0, 2)
    with pytest.raises(StructuralError):
        Scenario(2, -1)


def test_functional_shape_validation():
    with pytest.raises(StructuralError):
        BellFunctional.build([-1, 0], [-1], [[1, 1], [1, -1]], 0)
    with pytest.raises(StructuralError):
        BellFunctional.build([-1, 0], [-1, 0], [[1, 1]], 0)
    with pytest.raises(StructuralError):
        BellFunctional.build([-1.5, 0], [-1, 0], [[1, 1], [1, -1]], 0)


def test_evaluate_chsh_all_zero_outputs():
    chsh = catalog_get("CHSH").functional
    p = behavior_of_strategy(all_zero_outputs(chsh.scenario))
    # (-1) + (-1) + (1 + 1 + 1 - 1) = 0
    assert evaluate(chsh, p) == 0


def test_evaluate_chsh_uniform():
    chsh = catalog_get("CHSH").functional
    assert evaluate(chsh, uniform_behavior(chsh.scenario)) == Fraction(-1, 2)


def test_evaluate_all_ones_strategy_gives_zero():
    # party outputs "1" everywhere -> all weighted probabilities vanish
    for entry in catalog_list():
        s = DeterministicStrategy((0,) * entry.native_scenario.m_a,
                                  (0,) * entry.native_scenario.m_b)
        assert evaluate(entry.functional, behavior_of_strategy(s)) == 0


def test_evaluate_dimension_mismatch():
    chsh = catalog_get("CHSH").functional
    i3322 = catalog_get("I3322").functional
    p = behavior_of_strategy(all_zero_outputs(i3322.scenario))
    with pytest.raises(StructuralError):
        evaluate(chsh, p)


def test_behavior_of_strategy_products():
    s = DeterministicStrategy((1, 1, 1, 1), (1, 1, 1, 1))
    p = behavior_of_strategy(s)
    assert p.p_a == (1, 1, 1, 1)
    assert all(v == 1 for row in p.p_ab for v in row)

    s = DeterministicStrategy((0, 0), (0, 0))
    p = behavior_of_strategy(s)
    assert p.p_a == (0, 0) and p.p_b == (0, 0)
    assert all(v == 0 for row in p.p_ab for v in row)

    s = DeterministicStrategy((1, 0), (0, 1))
    p = behavior_of_strategy(s)
    assert p.p_ab == ((0, 1), (0, 0))


def test_behavior_box_validation():
    with pytest.raises(StructuralError):
        Behavior((0.5,), (0.5,), ((0.75,),))  # above min(p_a, p_b)
    with pytest.raises(StructuralError):
        Behavior((0.9,), (0.9,), ((0.5,),))  # below p_a + p_b - 1
    with pytest.raises(StructuralError):
        Behavior((1.5,), (0.5,), ((0.5,),))
    Behavior((0.5,), (0.5,), ((0.25,),))


def test_evaluate_is_linear():
    rng = random.Random(20240811)
    entries = catalog_list()
    for _ in range(50):
        f = rng.choice(entries).functional
        sc = f.scenario
        ss = list(strategies(sc))
        p = behavior_of_strategy(rng.choice(ss))
        q = behavior_of_strategy(rng.choice(ss))
        lam = Fraction(rng.randrange(0, 101), 100)
        mix = Behavior(
            tuple(lam * a + (1 - lam) * b for a, b in zip(p.p_a, q.p_a)),
            tuple(lam * a + (1 - lam) * b for a, b in zip(p.p_b, q.p_b)),
            tuple(tuple(lam * a + (1 - lam) * b for a, b in zip(ra, rb))
                  for ra, rb in zip(p.p_ab, q.p_ab)),
        )
        assert evaluate(f, mix) == lam * evaluate(f, p) + (1 - lam) * evaluate(f, q)


def test_strategy_count():
    assert len(list(strategies(Scenario(4, 4)))) == 256
    assert len(set(strategies(Scenario(3, 2)))) == 32


def test_roundtrip_whole_catalog():
    for entry in catalog_list():
        text = serialize_functional(entry.functional, name=entry.name)
        assert parse_functional(text) == entry.functional
        obj = functional_to_json(entry.functional, name=entry.name)
        assert functional_from_json(obj) == entry.functional
        assert obj["name"] == entry.name


def test_parse_bound_field():
    text = """
    # a bound given as a fraction
    bell 2 2 -1/2
    bob -1 0
    -1 | 1 1
    0 | 1 -1
    """
    f = parse_functional(text)
    assert f.bound == Fraction(-1, 2)


def test_parse_error_reports_line():
    bad = "bell 2 2 0\nbob -1 0\n-1 | 1 1 1\n0 | 1 -1\n"
    with pytest.raises(FunctionalParseError) as err:
        parse_functional(bad)
    assert "line 3" in str(err.value)

    with pytest.raises(FunctionalParseError):
        parse_functional("hello 2 2 0\n")
    with pytest.raises(FunctionalParseError):
        parse_functional("bell 2 2 0\nbob -1 x\n-1 | 1 1\n0 | 1 -1\n")
    with pytest.raises(FunctionalParseError):
        parse_functional("bell 2 2 0\nbob -1 0\n-1 | 1 1\n")


def test_lift_pads_with_zeros():
    chsh = catalog_get("CHSH").functional
    lifted = lift(chsh, Scenario(3, 3))
    assert lifted.alice_marg == (-1, 0, 0)
    assert lifted.corr == ((1, 1, 0), (1, -1, 0), (0, 0, 0))
    assert lifted.bound == chsh.bound
    with pytest.raises(StructuralError):
        lift(lifted, Scenario(2, 2))
