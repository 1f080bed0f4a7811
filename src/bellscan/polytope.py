"""Local bounds, saturating strategies and the facet (tightness) test.

Everything here is exact.  `_strategy_values` scores coefficient tables at
every deterministic strategy as S_A M_A + S_B M_B + S_A C S_B^T over
per-party bit tables, in int64 when no partial sum can reach 2^62 and in
Python integers otherwise; the saturating set, the facet test and search
screening all use it.  `local_bound_bruteforce` is the reference walk.
A functional is a facet iff its bound is attained and the saturating
points span an affine subspace of dimension d-1 (d the no-signaling
dimension); the rank is taken by fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    BellFunctional,
    CapacityError,
    DeterministicStrategy,
    Scenario,
    behavior_of_strategy,
    evaluate,
    strategies,
    strategy_from_index,
)

__all__ = [
    "FacetReport",
    "ns_dimension",
    "local_bound",
    "local_bound_bruteforce",
    "saturating_strategies",
    "facet_check",
]

_ENUMERATION_LIMIT = 24  # m_a + m_b; 2^24 strategies enumerated at most


@dataclass(frozen=True)
class FacetReport:
    is_tight: bool
    local_bound: Fraction
    saturating_count: int
    affine_dim: int
    ns_dim: int


def ns_dimension(s: Scenario) -> int:
    """Free-parameter count of a binary-outcome behavior: m_a + m_b + m_a*m_b."""
    return s.m_a + s.m_b + s.m_a * s.m_b


def local_bound(f: BellFunctional) -> Fraction:
    """Maximum over all deterministic strategies.

    For each of the 2^m_a Alice assignments, Bob's settings decouple: setting
    y contributes max(0, M_B(y) + sum_{x on} C(x,y)).
    """
    ma, mb = f.scenario.m_a, f.scenario.m_b
    best = None
    for mask in range(1 << ma):
        on = [x for x in range(ma) if (mask >> x) & 1]
        total = sum(f.alice_marg[x] for x in on)
        for y in range(mb):
            col = f.bob_marg[y] + sum(f.corr[x][y] for x in on)
            if col > 0:
                total += col
        if best is None or total > best:
            best = total
    return Fraction(best)


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


def _bits(indices: np.ndarray, m: int) -> np.ndarray:
    """Row k holds the m low bits of indices[k], least significant first."""
    return (indices[:, None] >> np.arange(m)) & 1


def _strategy_values(scenario: Scenario, rows) -> np.ndarray:
    """Exact values of coefficient rows (M_A, M_B, then C by rows) at every
    strategy: one column per strategy, in strategy_from_index order."""
    ma, mb = scenario.m_a, scenario.m_b
    if ma + mb > _ENUMERATION_LIMIT:
        raise CapacityError(f"scoring 2^{ma + mb} strategies exceeds the guard")
    terms = ns_dimension(scenario)
    try:
        table = np.array(rows, dtype=np.int64).reshape(-1, terms)
        # no partial sum exceeds terms * max|coefficient| in magnitude
        fits = max(int(table.max()), -int(table.min())) * terms < 2 ** 62
    except OverflowError:
        fits = False
    if not fits:
        table = np.array(rows, dtype=object).reshape(-1, terms)
    sa, sb = _bits(np.arange(1 << ma), ma), _bits(np.arange(1 << mb), mb)
    # (n, 2^mb, 2^ma): Bob's bits sit above Alice's in the strategy index
    values = sb @ table[:, ma + mb:].reshape(-1, ma, mb).transpose(0, 2, 1) @ sa.T
    values += (table[:, :ma] @ sa.T)[:, None, :]
    values += (table[:, ma:ma + mb] @ sb.T)[:, :, None]
    return values.reshape(len(table), -1)


def _scored(f: BellFunctional) -> tuple[np.ndarray, np.ndarray]:
    """f's value at every strategy, and where it equals f.bound (nowhere if
    the bound is not an integer)."""
    values = _strategy_values(f.scenario, [f.alice_marg + f.bob_marg + sum(f.corr, ())])[0]
    if f.bound.denominator != 1:
        return values, np.empty(0, dtype=np.int64)
    return values, np.flatnonzero(values == f.bound.numerator)


def saturating_strategies(f: BellFunctional) -> list[DeterministicStrategy]:
    """Strategies whose behavior attains f.bound exactly."""
    return [strategy_from_index(f.scenario, int(i)) for i in _scored(f)[1]]


def _integer_rank(rows: list[list[int]]) -> int:
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


def facet_check(f: BellFunctional) -> FacetReport:
    """Tightness test against the no-signaling polytope dimension.

    affine_dim is the rank of the saturating vertices' differences from one
    reference vertex; an empty saturating set reports affine_dim = -1 rather
    than an error so that searches can treat non-facets as data.
    """
    d = ns_dimension(f.scenario)
    ma, mb = f.scenario.m_a, f.scenario.m_b
    values, sats = _scored(f)
    lb = Fraction(int(values.max()))
    if sats.size == 0:
        return FacetReport(False, lb, 0, -1, d)
    # behavior vectors (s_a, s_b, s_a s_b^T) of the saturating strategies
    bits = _bits(sats, ma + mb)
    joint = (bits[:, :ma, None] * bits[:, None, ma:]).reshape(len(sats), -1)
    vecs = np.hstack([bits, joint])
    affine_dim = _integer_rank((vecs[1:] - vecs[0]).tolist())
    is_tight = (lb == f.bound) and (affine_dim == d - 1)
    return FacetReport(is_tight, lb, len(sats), affine_dim, d)
