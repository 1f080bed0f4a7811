"""Noise and detection-efficiency thresholds.

Noise model: the isotropic mixture rho_w = w |psi(theta)><psi(theta)| +
(1-w) 1/4, whose behavior is `quantum`'s one trace formula; this module
models no noise of its own.  For rank-1 projective measurements the fully
mixed component contributes the measurement-independent value

    N = sum M_A / 2 + sum M_B / 2 + sum C / 4,

so I(rho_w) = w Q(theta) + (1-w) N is linear in w and the visibility
threshold is the closed form w* = (bound - N) / (Q(theta) - N), or 0
when the bound lies below N.  With degenerate measurements allowed the
noise term depends on the chosen effects, so the threshold comes from the
root-finder below, re-optimizing the measurements at each visibility (the
optimized value is convex in w, so the violating set is an interval
ending at w = 1).  Its first step, at w = 1, decides whether the state
violates at all.

Detection model: each party holds a deterministic no-click assignment
(bit 1 = output "0" on non-detection), numbered as the strategy it
outputs, s = s_a + 2^m_a s_b, the order of f's strategy table D
(`polytope`); both efficiency paths read their no-click rows from one
helper in that order (every s, or every s_b at s_a = 0 for eta_B).  The
detected behavior is an affine image of the quantum behavior, so for
fixed assignments and efficiencies the optimization collapses onto an
effective coefficient table evaluated on the undetected behavior plus a
constant.

Both efficiency thresholds at theta = pi/4 with rank-1 effects are
closed forms over D, D[s] the value of strategy s.  Every rank-1
marginal is 1/2 there, so where only Alice detects the value is
Abar[s_b], the mean of D over her strategies s_a, and where only Bob
detects it is Bbar[s_a], the mean over s_b.  For no-click bits s the
best detected value is

    I'(eta) = eta^2 Q(pi/4) + eta (1 - eta) (Abar + Bbar) + (1 - eta)^2 D

at eta_A = eta_B = eta, and I'(eta_B) = eta_B Q(pi/4) + (1 - eta_B)
Abar[s_b] at eta_A = 1, whose measurement optimum Q(pi/4) depends on
neither s nor the efficiency.  The threshold is the smallest root, over
all 2^(m_a+m_b) assignments (2^m_b for eta_B), at the bound plus a small
margin, so the model and the bits witness a violation there.  The closed
forms, w* and both of these, read one fixed-theta see-saw optimum for
Q(pi/4); a caller that already holds that optimum (the benchmark table
does) passes it on instead of re-running it.

Elsewhere (theta < pi/4, or degenerate effects) a threshold p (w, or
the efficiency) comes from one witnessed root-finder from above,
Newton/Dinkelbach style (Dinkelbach, Management Science 13, 492, 1967).
The violating set is an interval ending at p = 1: a party can always
discard detections to simulate a lower efficiency.  A witness is a model
plus, for detection, its no-click bits.  For a fixed witness the
value is affine in w and in eta_B, and quadratic in a symmetric eta; it is
fitted from the witness's values at p = 0, 1/2 and 1, each read through
`quantum`'s trace formula (at w for the noise), `detected_behavior` and
`core.evaluate`.  The root-finder

  1. runs a decision batch at p = 1 (None if no row beats the bound plus
     the margin) and takes its best row as the witness;
  2. moves to the witness's lowest root at the bound plus twice the
     margin, re-evaluated the same way, so every iterate is witnessed (a
     root that fails that check, or lies above the point where the
     witness is known to violate, leaves p there);
  3. while that root moved by more than 1e-5, runs one capped
     maximization at it (_POLISH_SWEEPS map evaluations per row, no
     target, every group's best row as a warm start) for a better
     witness, and goes back to 2;
  4. runs a decision batch 1e-5 below the root (at 0 if the root is
     closer to 0).  "No" returns the root; "yes" at 0 returns 0, since
     every p violates; any other "yes" makes its best row the witness
     there, and goes back to 2.

Each answer above 0 thus has a "no" decision 1e-5 below it, as a
bisection to width 1e-5 has, and lies twice the margin over the witness's
slope above that witness's root at the bound itself.  The batches run one
see-saw over all no-click assignments times restarts, each warm started
from the previous batch's best row per assignment.  A decision batch only
asks whether some measurement choice beats the bound plus the margin, so
its see-saw stops after the first sweep in which a row does.  Rank-1 rows
run guarded SQUAREM cycles (see `quantum`: two plain sweeps, then one
from an extrapolated point that a row keeps only if it scores at least as
well), and degenerate rows one plain sweep per cycle.  No see-saw step
lowers a row's value, so a full run would say "yes" too.  Each row stops
when a whole cycle moves its value by less than quantum._TOL, or at the
cap: the engine's one cap (quantum._MAX_SWEEPS) in a decision batch,
_POLISH_SWEEPS in a capped maximization.  In a decision batch it also
stops, at the end of a cycle, once it could not reach the target even at
ten times that cycle's gain per cycle left under the cap (quantum._REACH).
Stopped rows cost nothing while the others run on.  So a decision that
finds no violation ends with its last row that could still find one.
That a full run would also say "no" is measured, not proven: on the
benchmark's off-centre calls at seeds 1-10, every threshold equals that
of runs stopped only by convergence or the cap.  Each result counts its
see-saw batches and their map evaluations summed over rows (`batches`,
`row_sweeps`); a closed form runs one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Behavior, BellFunctional, StructuralError, evaluate
from .polytope import _bits, _strategy_table
from .quantum import (
    QuantumResult,
    QubitModel,
    _best_of_groups,
    _coefficient_arrays,
    _mixed_behavior,
    model_behavior,
    seesaw_maximize,
)

__all__ = [
    "NoiseResult",
    "DetectionModel",
    "DetectionResult",
    "noise_floor",
    "noise_threshold",
    "detected_behavior",
    "eta_threshold_symmetric",
    "eta_threshold_asymmetric",
    "eta_asymmetric_sweep",
    "DEFAULT_SWEEP_THETAS",
]

_VIOLATION_MARGIN = 1e-9
_ROOT_STEP = 1e-5  # each root-finder answer has a "no" decision this far below it
_POLISH_SWEEPS = 30  # map evaluations of a capped maximization at a root


@dataclass(frozen=True)
class NoiseResult:
    w_threshold: float
    theta: float
    model: QubitModel
    batches: int      # see-saw batches run, the closed form's one included
    row_sweeps: int   # their map evaluations summed over rows


@dataclass(frozen=True)
class DetectionModel:
    eta_a: float
    eta_b: float
    noclick_a: tuple[int, ...]
    noclick_b: tuple[int, ...]

    def __post_init__(self):
        if not (0.0 <= self.eta_a <= 1.0 and 0.0 <= self.eta_b <= 1.0):
            raise StructuralError("efficiencies must lie in [0, 1]")
        object.__setattr__(self, "noclick_a", tuple(self.noclick_a))
        object.__setattr__(self, "noclick_b", tuple(self.noclick_b))
        if not all(v in (0, 1) for v in self.noclick_a + self.noclick_b):
            raise StructuralError("no-click assignments must be bit vectors")


@dataclass(frozen=True)
class DetectionResult:
    eta: float
    eta_a: float
    eta_b: float
    model: QubitModel
    noclick_a: tuple[int, ...]
    noclick_b: tuple[int, ...]
    batches: int      # see-saw batches run, the closed form's one included
    row_sweeps: int   # their map evaluations summed over rows


def noise_floor(f: BellFunctional) -> Fraction:
    """Exact value on the maximally mixed state with rank-1 measurements."""
    return (Fraction(sum(f.alice_marg), 2) + Fraction(sum(f.bob_marg), 2)
            + Fraction(sum(v for row in f.corr for v in row), 4))


def _visibility_threshold(f: BellFunctional, value: float) -> float | None:
    """Closed-form w* = (bound - N) / (Q - N) from a rank-1 optimum Q, or 0
    when the bound lies below N, where every w violates; None when Q does
    not violate."""
    bound = float(f.bound)
    if value <= bound + _VIOLATION_MARGIN:
        return None
    floor = float(noise_floor(f))
    return 0.0 if bound <= floor else (bound - floor) / (value - floor)


def _smallest_roots(det, b, d, target):
    """Smallest positive root of det + b p + d p^2 = target, elementwise:
    0 where det already reaches the target, inf where no root exists.  The
    roots q/d and -gap/q avoid cancellation whatever the signs."""
    gap = target - det
    disc = b * b + 4 * d * gap
    q = -(b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b)) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        pair = np.stack([q / d, -gap / q])
    pair = np.where((pair > 0) & (disc >= 0), pair, np.inf)
    return np.where(gap <= 0, 0.0, pair.min(axis=0))


def _check_theta(theta: float) -> None:
    if not 0.0 < theta <= math.pi / 4 + 1e-12:
        raise StructuralError(f"theta {theta} outside (0, pi/4]")


def _threshold_from_above(f, tables, value, *, restarts, seed, **engine_options):
    """Witnessed root-finder from above for the smallest violating p in
    [0, 1] (see the module docstring); it runs every threshold see-saw
    batch but the closed forms' one.  tables(p) gives the batch's groups
    at p, (MA, MB, const, C, visibility); value((model, group), p)
    re-evaluates a witness through the behavior path; a value above f's
    bound plus the margin violates.  A decision batch runs with that target
    under the engine's cap, a capped maximization without it at
    _POLISH_SWEEPS; each is warm started from the previous batch's best
    row per group, all from one generator seeded with `seed`.  Returns None
    when p = 1 does not violate, else (p, its witness, batches, row-sweeps
    summed)."""
    target = float(f.bound) + _VIOLATION_MARGIN
    rng = np.random.default_rng(seed)
    p, decide, known, hi = 1.0, True, None, None  # the witness beats the target at `known`
    warm, batches, row_sweeps = None, 0, 0
    while True:
        *groups, w = tables(p)
        best, group, model, warm, state = _best_of_groups(
            *groups, restarts=restarts, warm=warm, target=target if decide else None, w=w,
            rng=rng, max_sweeps=None if decide else _POLISH_SWEEPS, **engine_options)
        batches += 1
        row_sweeps += int(state["row_sweeps"].sum())
        del state  # its rows need not outlive the batch
        yes = best > target
        if decide and not yes:
            return None if known is None else (hi, witness, batches, row_sweeps)
        if yes:
            witness = (model, group)
            if decide and p == 0.0:  # violated however small p is
                return 0.0, witness, batches, row_sweeps
        known = p
        v0, vh, v1 = (value(witness, q) for q in (0.0, 0.5, 1.0))
        root = float(_smallest_roots(v0, 4 * vh - 3 * v0 - v1, 2 * (v1 - 2 * vh + v0),
                                     target + _VIOLATION_MARGIN))
        hi = root if root <= known and value(witness, root) > target else known
        decide = known - hi <= _ROOT_STEP  # the root moved little: settle it
        p = max(hi - _ROOT_STEP, 0.0) if decide else hi


def noise_threshold(f: BellFunctional, theta: float, *,
                    allow_degenerate: bool = False, restarts: int = 50,
                    seed: int = 0) -> NoiseResult | None:
    """Smallest visibility w at which |psi(theta)> still violates f.

    Returns None when the state does not violate even at w = 1.
    """
    _check_theta(theta)
    if not allow_degenerate:
        best = seesaw_maximize(f, restarts=restarts, seed=seed, theta=theta)
        w = _visibility_threshold(f, best.value)
        found = None if w is None else (w, (best.model, 0), 1, best.row_sweeps)
    else:
        # identity effects make the noise term measurement-dependent: find the
        # root from above, re-optimizing the measurements at each visibility
        MA, MB, C = _coefficient_arrays(f)
        found = _threshold_from_above(
            f, lambda w: (MA[None], MB[None], np.zeros(1), C, w),
            lambda witness, w: float(evaluate(f, _mixed_behavior(witness[0], w))),
            restarts=restarts, seed=seed, theta=theta, allow_degenerate=True)
    if found is None:
        return None
    w, (model, _), batches, row_sweeps = found
    return NoiseResult(w_threshold=w, theta=theta, model=model,
                       batches=batches, row_sweeps=row_sweeps)


def detected_behavior(p: Behavior, d: DetectionModel) -> Behavior:
    """Behavior seen with inefficient detectors and deterministic no-click outputs."""
    ma, mb = len(p.p_a), len(p.p_b)
    if len(d.noclick_a) != ma or len(d.noclick_b) != mb:
        raise StructuralError("no-click assignments do not match the behavior shape")
    ea, eb = d.eta_a, d.eta_b
    sa, sb = d.noclick_a, d.noclick_b
    q_a = tuple(ea * p.p_a[x] + (1 - ea) * sa[x] for x in range(ma))
    q_b = tuple(eb * p.p_b[y] + (1 - eb) * sb[y] for y in range(mb))
    q_ab = tuple(
        tuple(ea * eb * p.p_ab[x][y]
              + ea * (1 - eb) * p.p_a[x] * sb[y]
              + (1 - ea) * eb * sa[x] * p.p_b[y]
              + (1 - ea) * (1 - eb) * sa[x] * sb[y]
              for y in range(mb))
        for x in range(ma))
    return Behavior(q_a, q_b, q_ab)


# ---------------------------------------------------------------------------
# Detection thresholds.
# ---------------------------------------------------------------------------

def _detection_tables(MA, MB, C, eta_a, eta_b, sa, sb):
    """(MA_eff, MB_eff, const, C_eff) with the detected value at no-click
    bits (sa[i], sb[i]) equal to const[i] plus the table (MA_eff[i],
    MB_eff[i], C_eff) on the undetected behavior."""
    csb = sb @ C.T                      # (n, ma): sum_y C[x,y] s_b[y]
    csa = sa @ C                        # (n, mb)
    return (eta_a * MA[None, :] + eta_a * (1 - eta_b) * csb,
            eta_b * MB[None, :] + (1 - eta_a) * eta_b * csa,
            ((1 - eta_a) * (sa @ MA) + (1 - eta_b) * (sb @ MB)
             + (1 - eta_a) * (1 - eta_b) * np.einsum("nx,nx->n", sa, csb)),
            eta_a * eta_b * C)


def _noclick_rows(f: BellFunctional, symmetric: bool):
    """No-click bits (s_a, s_b) as float rows, row k the assignment that
    outputs strategy s = s_a + 2^m_a s_b: every s, or every s_b at s_a = 0
    (Alice always detects) for eta_B."""
    ma, mb = f.scenario.m_a, f.scenario.m_b
    s = np.arange(1 << (ma + mb)) if symmetric else np.arange(1 << mb) << ma
    bits = _bits(s, ma + mb).astype(float)
    return bits[:, :ma], bits[:, ma:]


def _detection(rows, symmetric: bool, eta: float, group: int) -> DetectionModel:
    """Efficiencies (eta, eta), or (1, eta) for eta_B, and row `group`'s bits."""
    return DetectionModel(eta if symmetric else 1.0, eta,
                          *(tuple(int(v) for v in s[group]) for s in rows))


def _detection_result(rows, symmetric: bool, found) -> DetectionResult | None:
    """The result for found = (eta, (model, row), batches, row_sweeps), or None."""
    if found is None:
        return None
    eta, (model, group), batches, row_sweeps = found
    d = _detection(rows, symmetric, eta, group)
    return DetectionResult(eta=eta, eta_a=d.eta_a, eta_b=d.eta_b, model=model,
                           noclick_a=d.noclick_a, noclick_b=d.noclick_b,
                           batches=batches, row_sweeps=row_sweeps)


def _eta_threshold(f: BellFunctional, theta: float, symmetric: bool, *,
                   seed: int, restarts: int,
                   allow_degenerate: bool) -> DetectionResult | None:
    _check_theta(theta)
    if not allow_degenerate and abs(theta - math.pi / 4) <= 1e-12:
        best = seesaw_maximize(f, restarts=restarts, seed=seed, theta=math.pi / 4)
        return _eta_at_maximal_entanglement(f, best, symmetric)
    MA, MB, C = _coefficient_arrays(f)
    rows = _noclick_rows(f, symmetric)
    found = _threshold_from_above(
        f, lambda eta: (*_detection_tables(MA, MB, C, eta if symmetric else 1.0, eta,
                                           *rows), 1.0),
        lambda witness, eta: float(evaluate(f, detected_behavior(
            model_behavior(witness[0]), _detection(rows, symmetric, eta, witness[1])))),
        restarts=restarts, seed=seed, theta=theta, allow_degenerate=allow_degenerate)
    return _detection_result(rows, symmetric, found)


def _quadratic_at_maximal_entanglement(f: BellFunctional, value: float,
                                       symmetric: bool = True):
    """(det, b, d) with I'(eta) = det + b eta + d eta^2 at every no-click
    assignment, from the pi/4 rank-1 optimum `value` (see the module
    docstring): symmetric at s = s_a + 2^m_a s_b, where det is f's strategy
    table, or one-sided (eta_A = 1) at s_b, where it is (Abar, Q - Abar, 0)."""
    ma, mb = f.scenario.m_a, f.scenario.m_b
    table = _strategy_table(f).astype(float).reshape(1 << mb, 1 << ma)  # [s_b, s_a]
    alice = table.mean(axis=1, keepdims=True)  # Abar[s_b]
    if not symmetric:
        return alice.ravel(), (value - alice).ravel(), np.zeros(1 << mb)
    bob = table.mean(axis=0, keepdims=True)    # Bbar[s_a]
    return (table.ravel(), (alice + bob - 2 * table).ravel(),
            (value - alice - bob + table).ravel())


def _eta_at_maximal_entanglement(f: BellFunctional, best: QuantumResult,
                                 symmetric: bool = True) -> DetectionResult | None:
    """Closed-form threshold at theta = pi/4 with rank-1 effects from the
    fixed-theta optimum `best`: the symmetric eta, or eta_B at eta_A = 1."""
    target = float(f.bound) + _VIOLATION_MARGIN
    if best.value <= target:
        return None
    roots = _smallest_roots(
        *_quadratic_at_maximal_entanglement(f, best.value, symmetric), target)
    assign = int(np.argmin(roots))
    return _detection_result(_noclick_rows(f, symmetric), symmetric, (
        min(float(roots[assign]), 1.0), (best.model, assign), 1, best.row_sweeps))


def eta_threshold_symmetric(f: BellFunctional, theta: float = math.pi / 4, *,
                            seed: int = 0, restarts: int = 8,
                            allow_degenerate: bool = False) -> DetectionResult | None:
    """Threshold efficiency eta_A = eta_B = eta, optimizing measurements and
    no-click strategies; None when there is no violation at eta = 1.

    At theta = pi/4 with rank-1 effects the threshold is a closed form over
    one see-saw at fixed theta (`restarts` restarts, default sweep cap);
    otherwise it comes from the witnessed root-finder."""
    return _eta_threshold(f, theta, True, seed=seed, restarts=restarts,
                          allow_degenerate=allow_degenerate)


def eta_threshold_asymmetric(f: BellFunctional, theta: float = math.pi / 4, *,
                             seed: int = 0, restarts: int = 8,
                             allow_degenerate: bool = False) -> DetectionResult | None:
    """Threshold eta_B with a perfect detector on Alice's side (eta_A = 1),
    found as eta_threshold_symmetric finds eta."""
    return _eta_threshold(f, theta, False, seed=seed, restarts=restarts,
                          allow_degenerate=allow_degenerate)


DEFAULT_SWEEP_THETAS = tuple(t * math.pi for t in (
    0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.005))


def eta_asymmetric_sweep(f: BellFunctional, **opts):
    """eta_B thresholds over DEFAULT_SWEEP_THETAS, a decreasing grid of
    Schmidt angles.

    Returns [(theta, DetectionResult | None), ...].  The grid shows the
    trend toward weak entanglement; the limiting value is not asserted.
    """
    return [(theta, eta_threshold_asymmetric(f, theta, **opts))
            for theta in DEFAULT_SWEEP_THETAS]
