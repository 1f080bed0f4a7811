"""Local bounds, saturating strategies and the facet (tightness) test.

Everything here is exact.  `_strategy_values` scores coefficient tables at
every deterministic strategy with one GEMM against the 0/1 behavior matrix,
in float64 when max|coefficient| * d < 2^53 (so that every partial sum is an
integer float64 holds exactly) and in Python integers otherwise; the
saturating set, the facet test and search screening all use it.  A
functional is a facet iff its bound is attained and the saturating points
span an affine subspace of dimension d-1 (d the no-signaling dimension).
`_affine_dims` takes that rank for a whole batch of saturating sets at
once: Gaussian elimination modulo primes below 2^31, with as many primes
as a Hadamard bound on the minors asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BellFunctional, CapacityError, Scenario

__all__ = [
    "FacetReport",
    "ns_dimension",
    "local_bound",
    "facet_check",
]

_ENUMERATION_LIMIT = 24  # m_a + m_b; 2^24 strategies enumerated at most
_BLOCK = 1 << 16  # array elements per GEMM operand or product block and per rank stack


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


def _bits(indices: np.ndarray, m: int) -> np.ndarray:
    """Row k holds the m low bits of indices[k], least significant first."""
    return (indices[:, None] >> np.arange(m)) & 1


def _behaviors(scenario: Scenario, indices: np.ndarray) -> np.ndarray:
    """0/1 behavior vectors (s_a, s_b, s_a s_b^T) of the strategies with
    these strategy_from_index numbers, one int64 row each."""
    ma, mb = scenario.m_a, scenario.m_b
    bits = _bits(indices, ma + mb)
    joint = (bits[:, :ma, None] * bits[:, None, ma:]).reshape(len(bits), ma * mb)
    return np.hstack([bits, joint])


def _strategy_values(scenario: Scenario, rows, behaviors=None) -> np.ndarray:
    """Exact values of coefficient rows (M_A, M_B, then C by rows) at every
    strategy: one column per strategy, in strategy_from_index order.

    A row's value at s is row . v_s, so the values are rows @ V^T for the
    behavior matrix V.  In float64 that GEMM is exact when
    max|coefficient| * d < 2^53: every partial sum is then an integer below
    2^53, whatever the summation order.  Larger rows are scored in Python
    integers.  V is built _BLOCK elements at a time, unless a caller that
    scores many tables passes the whole of it as `behaviors`.
    """
    ma, mb = scenario.m_a, scenario.m_b
    if ma + mb > _ENUMERATION_LIMIT:
        raise CapacityError(f"scoring 2^{ma + mb} strategies exceeds the guard")
    terms = ns_dimension(scenario)
    try:
        table = np.asarray(rows, dtype=np.int64).reshape(-1, terms)
        exact = max(int(table.max()), -int(table.min())) * terms < 2 ** 53
    except OverflowError:
        exact = False
    if exact:
        table = table.astype(np.float64)
    else:
        table = np.array(rows, dtype=object).reshape(-1, terms)
    if behaviors is not None:
        return table @ behaviors.T
    count = 1 << (ma + mb)
    values = np.empty((len(table), count), dtype=table.dtype)
    step = max(1, _BLOCK // terms)
    for start in range(0, count, step):
        stop = min(start + step, count)
        values[:, start:stop] = table @ _behaviors(scenario, np.arange(start, stop)).T
    return values


def _scored(f: BellFunctional) -> tuple[np.ndarray, np.ndarray]:
    """f's value at every strategy, and the mask of those equal to f.bound
    (all False if the bound is not an integer)."""
    values = _strategy_values(f.scenario, [f.alice_marg + f.bob_marg + sum(f.corr, ())])[0]
    target = f.bound.numerator
    # a bound beyond every value saturates nothing, and may not fit float64
    if f.bound.denominator != 1 or abs(target) > int(np.abs(values).max()):
        return values, np.zeros(values.shape, dtype=bool)
    return values, values == target


def _primes():
    """Primes below 2^31, largest first.  Miller-Rabin with the bases
    2, 3, 5 and 7 is exact below 3215031751."""
    n = 2 ** 31 - 1
    while True:
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                break  # a witnesses that n is composite
        else:
            yield n
        n -= 2


def _ranks_mod(stack: np.ndarray, p: int) -> np.ndarray:
    """Rank over GF(p) of each matrix in a (t, r, c) stack of residues.

    Gaussian elimination without inverses: at each column, every row R
    becomes R*piv - R[col]*P for the first row P with a nonzero entry piv
    there.  That turns P itself into zero, so each pivot retires its row and
    no swaps are needed.  Every product is below p^2 < 2^62, so int64 is
    exact.  Overwrites the stack.
    """
    t, r, c = stack.shape
    rank = np.zeros(t, dtype=np.int64)
    batch = np.arange(t)
    for col in range(c):
        column = stack[:, :, col]
        live = column != 0
        found = live.any(axis=1)
        pivot_row = stack[batch, live.argmax(axis=1), col:]
        scale = np.where(found, pivot_row[:, 0], 1)[:, None, None]
        rest = stack[:, :, col:]
        rest[...] = (rest * scale - column[:, :, None] * pivot_row[:, None, :]) % p
        rank += found
    return rank


def _ranks(stack: np.ndarray) -> np.ndarray:
    """Exact rank of each matrix in a (t, r, c) int64 stack, r >= 1.

    A rank modulo a prime never exceeds the rank over Q, and a nonzero
    R x R minor vanishes modulo several distinct primes only if it is a
    multiple of their product.  By Hadamard, an R x R minor is at most
    prod_j min(|D_j|_2, |D_j|_inf sqrt(R)) over its columns D_j, and a
    nonzero integer column has both norms >= 1, so the product over all
    nonzero columns with R = min(r, c), taken over the whole stack, bounds
    every minor.  Once the primes' product exceeds that bound (with one bit
    to spare for float rounding), the largest modular rank is exact.  For
    +-1 entries that takes at most one prime at c = 15, two at c = 24 and
    three at c = 35.
    """
    t, r, c = stack.shape
    ranks = np.zeros(t, dtype=np.int64)
    size = np.abs(stack).astype(np.float64)
    squares = np.minimum((size * size).sum(axis=1).max(axis=0),
                         size.max(axis=(0, 1)) ** 2 * min(r, c))
    bits = np.log2(np.maximum(squares, 1.0)).sum() / 2 + 1
    for p in _primes():
        ranks = np.maximum(ranks, _ranks_mod(stack % p, p))
        bits -= np.log2(p)
        if bits < 0:
            return ranks


def _affine_dims(scenario: Scenario, saturated: np.ndarray) -> np.ndarray:
    """Affine dimension of each row's strategies in a (n, 2^(m_a+m_b)) mask:
    the rank of V[sat] - V[first], or -1 for an empty row.

    The difference matrices are zero-padded to the widest row and ranked
    in stacks of at most _BLOCK elements each.
    """
    d = ns_dimension(scenario)
    counts = saturated.sum(axis=1)
    width = max(1, int(counts.max(initial=0)))
    step = max(1, _BLOCK // (width * d))
    dims = np.empty(len(saturated), dtype=np.int64)
    for start in range(0, len(saturated), step):
        owner, index = np.nonzero(saturated[start:start + step])
        held = counts[start:start + step]
        first = np.cumsum(held) - held  # each row's first entry in owner
        vecs = _behaviors(scenario, index)
        stack = np.zeros((len(held), width, d), dtype=np.int64)
        stack[owner, np.arange(len(owner)) - first[owner]] = vecs - vecs[first[owner]]
        dims[start:start + step] = _ranks(stack) - (held == 0)
    return dims


def facet_check(f: BellFunctional) -> FacetReport:
    """Tightness test against the no-signaling polytope dimension.

    affine_dim is the rank of the saturating vertices' differences from one
    reference vertex; an empty saturating set reports affine_dim = -1 rather
    than an error so that searches can treat non-facets as data.
    """
    d = ns_dimension(f.scenario)
    values, saturated = _scored(f)
    lb = Fraction(int(values.max()))
    affine_dim = int(_affine_dims(f.scenario, saturated[None])[0])
    is_tight = (lb == f.bound) and (affine_dim == d - 1)
    return FacetReport(is_tight, lb, int(saturated.sum()), affine_dim, d)
