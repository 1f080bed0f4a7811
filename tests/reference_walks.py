"""Test-only reference helpers: brute-force walks over the deterministic
strategies and the relabeling group, and the behaviors they act on.  The
package's exact and vectorized paths are checked against these."""

from fractions import Fraction
from itertools import permutations, product
from typing import Iterator

import numpy as np

from bellscan.core import (
    Behavior,
    BellFunctional,
    CapacityError,
    DeterministicStrategy,
    Scenario,
    StructuralError,
    evaluate,
    strategy_from_index,
)
from bellscan.polytope import _ENUMERATION_LIMIT, _scored
from bellscan.symmetry import Transformation, _source_map


def behavior_of_strategy(s: DeterministicStrategy) -> Behavior:
    """Deterministic vertex of the local polytope: p_ab(x,y) = s_a(x) s_b(y)."""
    return Behavior(
        p_a=s.s_a,
        p_b=s.s_b,
        p_ab=tuple(tuple(a * b for b in s.s_b) for a in s.s_a),
    )


def uniform_behavior(scenario: Scenario) -> Behavior:
    """Exact uniform point p_a = p_b = 1/2, p_ab = 1/4 (maximally mixed statistics)."""
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    return Behavior(
        p_a=(half,) * scenario.m_a,
        p_b=(half,) * scenario.m_b,
        p_ab=((quarter,) * scenario.m_b,) * scenario.m_a,
    )


def strategies(scenario: Scenario) -> Iterator[DeterministicStrategy]:
    """All 2^(m_a+m_b) deterministic strategies, in index order."""
    for index in range(scenario.num_strategies):
        yield strategy_from_index(scenario, index)


def local_bound_bruteforce(f: BellFunctional) -> Fraction:
    """Full 2^(m_a+m_b) enumeration; the oracle for local_bound."""
    ma, mb = f.scenario.m_a, f.scenario.m_b
    if ma + mb > _ENUMERATION_LIMIT:
        raise CapacityError(
            f"brute-force enumeration over 2^{ma + mb} strategies exceeds the guard")
    best = None
    for s in strategies(f.scenario):
        value = evaluate(f, behavior_of_strategy(s))
        if best is None or value > best:
            best = value
    return Fraction(best)


def saturating_strategies(f: BellFunctional) -> list[DeterministicStrategy]:
    """Strategies whose behavior attains f.bound exactly."""
    return [strategy_from_index(f.scenario, int(i)) for i in np.flatnonzero(_scored(f)[1])]


def identity_transformation(s: Scenario) -> Transformation:
    return Transformation(
        tuple(range(s.m_a)), tuple(range(s.m_b)),
        (0,) * s.m_a, (0,) * s.m_b, False)


def transformation_count(s: Scenario) -> int:
    n = 1
    for k in range(2, s.m_a + 1):
        n *= k
    for k in range(2, s.m_b + 1):
        n *= k
    n <<= s.m_a + s.m_b
    return n * (2 if s.m_a == s.m_b else 1)


def all_transformations(s: Scenario) -> Iterator[Transformation]:
    swaps = (False, True) if s.m_a == s.m_b else (False,)
    for swap in swaps:
        for aperm in permutations(range(s.m_a)):
            for bperm in permutations(range(s.m_b)):
                for aflips in product((0, 1), repeat=s.m_a):
                    for bflips in product((0, 1), repeat=s.m_b):
                        yield Transformation(aperm, bperm, aflips, bflips, swap)


def relabel_behavior(p: Behavior, t: Transformation) -> Behavior:
    """Behavior relabeling matching apply_transformation (same group element)."""
    src = _source_map(t)
    ma, mb = len(t.alice_perm), len(t.bob_perm)
    if len(p.p_a) != ma or len(p.p_b) != mb:
        raise StructuralError("behavior shape does not match the transformation")

    def marg(party, idx):
        return p.p_a[idx] if party == 0 else p.p_b[idx]

    q_a = []
    for x in range(ma):
        party, i, fl = src[(0, x)]
        v = marg(party, i)
        q_a.append(1 - v if fl else v)
    q_b = []
    for y in range(mb):
        party, i, fl = src[(1, y)]
        v = marg(party, i)
        q_b.append(1 - v if fl else v)

    q_ab = []
    for x in range(ma):
        pa_party, ia, fa = src[(0, x)]
        row = []
        for y in range(mb):
            pb_party, jb, fb = src[(1, y)]
            u = marg(pa_party, ia)
            v = marg(pb_party, jb)
            joint = p.p_ab[ia][jb] if pa_party == 0 else p.p_ab[jb][ia]
            if fa and fb:
                row.append(1 - u - v + joint)
            elif fa:
                row.append(v - joint)
            elif fb:
                row.append(u - joint)
            else:
                row.append(joint)
        q_ab.append(tuple(row))
    return Behavior(tuple(q_a), tuple(q_b), tuple(q_ab))
