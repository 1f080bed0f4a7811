"""Reference for the closed-form symmetric detection threshold at pi/4.

The quadratic in eta of each no-click assignment, written out term by term
from the coefficient arrays: the detected value with bits s = (s_a, s_b)
splits into the local value det of s, the correlation s_a C s_b, the
marginal half of the rank-1 optimum and the cross terms in which one party
clicks.  `robustness` reads the same quadratic off the strategy table.
"""

import numpy as np

from bellscan.polytope import _bits
from bellscan.quantum import _coefficient_arrays


def bit_algebra(f, value):
    """(det, b, d) with I'(eta) = det + b eta + d eta^2 at every assignment
    s = s_a + 2^m_a s_b, from the pi/4 rank-1 optimum `value`."""
    ma, mb = f.scenario.m_a, f.scenario.m_b
    MA, MB, C = _coefficient_arrays(f)
    bits = _bits(np.arange(1 << (ma + mb)), ma + mb).astype(float)
    sa, sb = bits[:, :ma], bits[:, ma:]
    csb = sb @ C.T
    corr = np.einsum("nx,nx->n", sa, csb)                 # s_a C s_b
    det = sa @ MA + sb @ MB + corr
    half = (MA.sum() + MB.sum()) / 2                      # marginal part of Q
    cross = (csb.sum(axis=1) + (sa @ C).sum(axis=1)) / 2
    return det, half + cross - det - corr, value - half + corr - cross


def eta_from_bit_algebra(f, value, target):
    """Smallest eta in [0, 1] at which some assignment's quadratic reaches
    `target`, or None when `value` does not exceed it."""
    if value <= target:
        return None
    det, b, d = bit_algebra(f, value)
    gap = target - det
    disc = b * b + 4 * d * gap
    q = -(b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b)) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        pair = np.stack([q / d, -gap / q])
    pair = np.where((pair > 0) & (disc >= 0), pair, np.inf)
    return min(float(np.where(gap <= 0, 0.0, pair.min(axis=0)).min()), 1.0)
