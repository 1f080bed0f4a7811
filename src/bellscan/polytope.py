"""Local bounds, saturating strategies and the facet (tightness) test.

Everything here is exact.  Deterministic strategies are scored through one
product, `_fields`: at each of Alice's strategies s the response kernel
picks alpha(s) = M_A . s and Bob's fields g_y(s) = M_B[y] + sum_x C_xy s_x
out of each coefficient row, and Bob's strategy t scores alpha(s) + t . g(s).
It runs under `_exact_table`'s rule (float64 GEMMs when max|coefficient| *
d < 2^53, so that every partial sum is an integer float64 holds exactly,
and Python integers otherwise) and its one guard (m_a + m_b <= 24).

- `_best_responses` reduces the fields to each table's local bound and its
  number of saturating strategies, by Bob's best response to each s.
  `local_bound` and the search screen read it.
- `_strategy_values` expands them over Bob's 2^m_b strategies into every
  strategy's value.  The saturating masks (the facet test and the search's
  rank-tested candidates) and the closed-form detection threshold at
  theta = pi/4 read it.

A functional is a facet iff its bound is attained and the saturating points
span an affine subspace of dimension d-1 (d the no-signaling dimension).
`_affine_dims` takes that rank for a whole batch of saturating sets at
once: Gaussian elimination modulo primes below 2^31, with as many primes
as a Hadamard bound on the minors asks for.  It sorts the sets by size and
ranks them in stacks of similar sizes, each padded only to its own widest
set.
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
# array elements per GEMM operand or product block: with these 256 KiB
# float64 blocks the best-response screen ran exhaustive 3322 about 45%
# faster than with 512 KiB ones, and random 4422 no slower (2 cores)
_BLOCK = 1 << 15
# int64 elements per rank stack: 256 KiB stacks ranked the exhaustive 3322
# and random 4422 search sets about 20% faster than 512 KiB ones (2 cores),
# and 2^14 was no faster
_STACK = 1 << 15


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
    """Maximum over deterministic strategies, by Bob's best response to each
    of Alice's 2^m_a strategies, under the one guard (CapacityError past
    m_a + m_b = 24)."""
    return Fraction(int(_best_responses(f.scenario, [_coefficients(f)])[0][0]))


def _coefficients(f: BellFunctional) -> tuple:
    """f as one coefficient row: M_A, M_B, then C by rows."""
    return f.alice_marg + f.bob_marg + sum(f.corr, ())


def _bits(indices: np.ndarray, m: int) -> np.ndarray:
    """Row k holds the m low bits of indices[k], least significant first."""
    return (indices[:, None] >> np.arange(m)) & 1


def _behaviors(scenario: Scenario, indices: np.ndarray) -> np.ndarray:
    """0/1 behavior vectors (s_a, s_b, s_a s_b^T) of the strategies with
    these numbers (Alice's bits low, Bob's above), one int64 row each."""
    ma, mb = scenario.m_a, scenario.m_b
    bits = _bits(indices, ma + mb)
    joint = (bits[:, :ma, None] * bits[:, None, ma:]).reshape(len(bits), ma * mb)
    return np.hstack([bits, joint])


def _exact_table(scenario: Scenario, rows) -> np.ndarray:
    """Coefficient rows (M_A, M_B, then C by rows) as an (n, d) table that
    scores exactly: float64 while max|coefficient| * d < 2^53, so that every
    sum of at most d coefficients is an integer float64 holds whatever the
    summation order, and Python integers (object) beyond that.  The one guard
    of every scoring path: CapacityError past m_a + m_b = 24."""
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
        return table.astype(np.float64)
    return np.array(rows, dtype=object).reshape(-1, terms)


def _response_kernel(scenario: Scenario, alice: np.ndarray) -> np.ndarray:
    """The (m_b+1, k, d) 0/1 kernel of k Alice strategies: row (0, s) picks
    alpha(s) = M_A . s out of a coefficient row, and row (1+y, s) Bob's field
    g_y(s) = M_B[y] + sum_x C_xy s_x."""
    ma, mb = scenario.m_a, scenario.m_b
    bits = _bits(alice, ma)
    kernel = np.zeros((mb + 1, len(alice), ns_dimension(scenario)), dtype=np.int64)
    kernel[0, :, :ma] = bits
    kernel[1:, :, ma:ma + mb] = np.eye(mb, dtype=np.int64)[:, None, :]
    kernel[1:, :, ma + mb:] = (bits[None, :, :, None]
                               * np.eye(mb, dtype=np.int64)[:, None, None, :]).reshape(
                                   mb, len(alice), ma * mb)
    return kernel


def _fields(scenario: Scenario, table: np.ndarray):
    """Yield (alice, rows, fields) per block of Alice's strategies (alice,
    consecutive numbers) and of table rows (rows, a slice): fields is the
    strategy-major (m_b+1, k, n) product of the response kernel with those
    rows, alpha(s) at index 0 and g_y(s) at 1+y.  Kernel blocks and products
    hold at most _BLOCK elements (one Alice strategy at least)."""
    mb, terms = scenario.m_b, table.shape[1]
    step = max(1, _BLOCK // ((mb + 1) * terms))
    for first in range(0, 1 << scenario.m_a, step):
        alice = np.arange(first, min(first + step, 1 << scenario.m_a))
        kernel = _response_kernel(scenario, alice).reshape(-1, terms).astype(table.dtype)
        rows_per_gemm = max(1, _BLOCK // len(kernel))
        for start in range(0, len(table), rows_per_gemm):
            rows = slice(start, start + rows_per_gemm)
            yield alice, rows, (kernel @ table[rows].T).reshape(mb + 1, len(alice), -1)


def _strategy_values(scenario: Scenario, rows) -> np.ndarray:
    """Exact values of coefficient rows (M_A, M_B, then C by rows) at every
    strategy: one column per strategy, numbered with Alice's bits low and
    Bob's above.  Each block of `_fields` times Bob's 0/1 matrix
    [1 | bits(t)] gives alpha(s) + t . g(s) for all of his strategies t, a
    sum of at most d coefficients."""
    table = _exact_table(scenario, rows)
    ma, mb = scenario.m_a, scenario.m_b
    bob = np.hstack([np.ones((1 << mb, 1), dtype=np.int64),
                     _bits(np.arange(1 << mb), mb)]).astype(table.dtype)
    values = np.empty((len(table), 1 << mb, 1 << ma), dtype=table.dtype)
    for alice, rows, fields in _fields(scenario, table):
        block = (bob @ fields.reshape(mb + 1, -1)).reshape(1 << mb, len(alice), -1)
        values[rows, :, alice[0]:alice[-1] + 1] = block.transpose(2, 0, 1)
    return values.reshape(len(table), -1)


def _best_responses(scenario: Scenario, rows) -> tuple[np.ndarray, np.ndarray]:
    """Each coefficient row's local bound and its number of saturating
    strategies, without the 2^(m_a+m_b) strategy table.

    At Alice's strategy s Bob answers each setting y on his own: the best
    value is alpha(s) + sum_y max(g_y(s), 0), reached by 2^#{y : g_y(s) = 0}
    of his strategies.  The bound is the largest best value over s, and the
    count sums those powers of two over the s that reach it.  The fields are
    strategy-major, so every step runs over contiguous rows of n values and
    the maximum over s reduces across those rows; the running maximum and
    count are merged over the Alice blocks.  Every best value is a sum of at
    most d coefficients.
    """
    table = _exact_table(scenario, rows)
    bounds = np.empty(len(table), dtype=table.dtype)
    counts = np.zeros(len(table), dtype=np.int64)
    for alice, rows, fields in _fields(scenario, table):
        bob = fields[1:]
        power = 1 << (bob == 0).sum(axis=0)
        best = np.maximum(bob, 0, out=bob).sum(axis=0)
        best += fields[0]
        bound = best.max(axis=0)
        ties = (power * (best == bound)).sum(axis=0)
        if alice[0]:
            held = bounds[rows]
            ties = np.where(bound > held, ties, counts[rows] + (bound == held) * ties)
            bound = np.maximum(bound, held)
        bounds[rows], counts[rows] = bound, ties
    return bounds, counts


def _strategy_table(f: BellFunctional) -> np.ndarray:
    """f's value at every deterministic strategy, Alice's bits low."""
    return _strategy_values(f.scenario, [_coefficients(f)])[0]


def _scored(f: BellFunctional) -> tuple[np.ndarray, np.ndarray]:
    """f's value at every strategy, and the mask of those equal to f.bound
    (all False if the bound is not an integer)."""
    values = _strategy_table(f)
    target = f.bound.numerator
    # a bound beyond every value saturates nothing, and may not fit float64
    if f.bound.denominator != 1 or abs(target) > max(int(values.max()), -int(values.min())):
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
    exact.  The residue is taken as x - x // p * p, which equals x % p for
    int64 x and costs far less in numpy.  Overwrites the stack.
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
        x = rest * scale - column[:, :, None] * pivot_row[:, None, :]
        rest[...] = x - x // p * p
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

    The rows are taken in order of saturating count and ranked in stacks of
    at most _STACK elements.  Each stack's difference matrices are
    zero-padded only to that stack's widest row.  The dims come back in the
    rows' own order.
    """
    d = ns_dimension(scenario)
    counts = saturated.sum(axis=1)
    order = np.argsort(counts, kind="stable")
    widths = np.maximum(counts[order], 1)  # an empty row ranks one zero row
    dims = np.empty(len(saturated), dtype=np.int64)
    start = 0
    while start < len(order):
        # the stack widens with each sorted row taken, so its size grows
        size = (np.arange(1, len(order) - start + 1) * widths[start:]) * d
        stop = start + max(1, int(np.searchsorted(size, _STACK, side="right")))
        rows = order[start:stop]
        owner, index = np.nonzero(saturated[rows])
        held = counts[rows]
        first = np.cumsum(held) - held  # each row's first entry in owner
        vecs = _behaviors(scenario, index)
        stack = np.zeros((len(rows), widths[stop - 1], d), dtype=np.int64)
        stack[owner, np.arange(len(owner)) - first[owner]] = vecs - vecs[first[owner]]
        dims[rows] = _ranks(stack) - (held == 0)
        start = stop
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
