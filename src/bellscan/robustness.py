"""Noise and detection-efficiency thresholds.

Noise model: the isotropic mixture rho_w = w |psi(theta)><psi(theta)| +
(1-w) 1/4.  For rank-1 projective measurements the fully mixed component
contributes the measurement-independent value

    N = sum M_A / 2 + sum M_B / 2 + sum C / 4,

so I(rho_w) = w Q(theta) + (1-w) N is linear in w and the visibility
threshold is the closed form w* = (bound - N) / (Q(theta) - N).  With
degenerate measurements allowed the noise term depends on the chosen
effects, so the threshold is found by bisection, re-optimizing the
measurements at each visibility (the optimized value is convex in w, so
the violating set is an interval ending at w = 1).  The bisection's own
step at w = 1 decides whether the state violates at all.

Detection model: each party holds a deterministic no-click assignment
(bit 1 = output "0" on non-detection).  The detected behavior is an affine
image of the quantum behavior, so for fixed assignments and efficiencies
the optimization collapses onto an effective coefficient table evaluated
on the undetected behavior plus a constant.

The symmetric threshold at theta = pi/4 with rank-1 effects is a closed
form over f's strategy table D (`polytope`), D[s] the value of the
deterministic strategy s = (s_a, s_b).  Every rank-1 marginal is 1/2
there, so where only Alice detects the value is Abar[s_b], the mean of D
over her strategies s_a, and where only Bob detects it is Bbar[s_a], the
mean over s_b.  For no-click bits s the best detected value is

    I'(eta) = eta^2 Q(pi/4) + eta (1 - eta) (Abar + Bbar) + (1 - eta)^2 D,

a quadratic in eta whose measurement optimum Q(pi/4) depends on neither s
nor eta.  The threshold is the smallest root, over all 2^(m_a+m_b)
assignments, at the bound plus a small margin, so the model and the bits
witness a violation there.  Both closed forms, w* and this eta, read one
fixed-theta see-saw optimum for Q(pi/4); a caller that already holds that
optimum (the benchmark table does) passes it on instead of re-running it.

Elsewhere (theta < pi/4, degenerate effects, or the one-sided eta_B)
thresholds are bisected on the efficiency; monotonicity holds because a
party can always discard detections to simulate a lower efficiency.  The
inner maximization runs one batched see-saw over all no-click
assignments times restarts, warm started from the previous bisection
step.  Every bisection stops at width 1e-5.  A bisection step only asks
whether some measurement choice beats the bound plus the margin, so its
see-saw stops after the first sweep in which a row does.  Every see-saw
step is an exact block maximum, so that row's value can only rise, and a
full run would say "yes" too.  Each row stops when its own value has
converged, or at 300 sweeps for detection (500 for noise).  It also stops
once it could not reach the target even at ten times its last gain per
sweep up to the cap (quantum._REACH).  Stopped rows cost nothing while the
others run on.  So a step that finds no violation ends with its last row
that could still find one.  That a full run would also say "no" is
measured, not proven: on the benchmark's off-centre calls at seeds 1-30,
every threshold equals that of runs stopped only by convergence or the
cap.  Each result counts its see-saw batches and their row-sweeps
(`batches`, `row_sweeps`); a closed form runs one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Behavior, BellFunctional, StructuralError
from .polytope import _bits, _strategy_table
from .quantum import (
    QuantumResult,
    QubitModel,
    _best_of_groups,
    _coefficient_arrays,
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
_BISECTION_WIDTH = 1e-5
_ETA_SWEEPS = 300


@dataclass(frozen=True)
class NoiseResult:
    w_threshold: float
    theta: float
    model: QubitModel
    batches: int      # see-saw batches run, the closed form's one included
    row_sweeps: int   # their sweeps summed over rows


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
    row_sweeps: int   # their sweeps summed over rows


def noise_floor(f: BellFunctional) -> Fraction:
    """Exact value on the maximally mixed state with rank-1 measurements."""
    return (Fraction(sum(f.alice_marg), 2) + Fraction(sum(f.bob_marg), 2)
            + Fraction(sum(v for row in f.corr for v in row), 4))


def _visibility_threshold(f: BellFunctional, value: float) -> float | None:
    """Closed-form w* = (bound - N) / (Q - N) from a rank-1 optimum Q; None
    when Q does not violate."""
    bound = float(f.bound)
    if value <= bound + _VIOLATION_MARGIN:
        return None
    floor = float(noise_floor(f))
    return (bound - floor) / (value - floor)


def _bisect_threshold(violated_at):
    """Bisect for the smallest p in (0, 1] with violated_at(p) -> (True, info,
    row_sweeps), one see-saw batch per call.  Returns None when p = 1 does
    not violate, else (p, its info, batches, row_sweeps summed)."""
    violated, info, row_sweeps = violated_at(1.0)
    if not violated:
        return None
    lo, hi, batches = 0.0, 1.0, 1
    while hi - lo > _BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        violated, res, sweeps = violated_at(mid)
        batches += 1
        row_sweeps += sweeps
        if violated:
            hi, info = mid, res
        else:
            lo = mid
    return hi, info, batches, row_sweeps


def noise_threshold(f: BellFunctional, theta: float, *,
                    allow_degenerate: bool = False, restarts: int = 50,
                    seed: int = 0) -> NoiseResult | None:
    """Smallest visibility w at which |psi(theta)> still violates f.

    Returns None when the state does not violate even at w = 1.
    """
    if not 0.0 < theta <= math.pi / 4 + 1e-12:
        raise StructuralError(f"theta {theta} outside (0, pi/4]")
    if not allow_degenerate:
        best = seesaw_maximize(f, restarts=restarts, seed=seed, theta=theta)
        w = _visibility_threshold(f, best.value)
        if w is None:
            return None
        return NoiseResult(w_threshold=w, theta=theta, model=best.model,
                           batches=1, row_sweeps=best.row_sweeps)

    # identity effects make the noise term measurement-dependent: bisect,
    # re-optimizing the measurements at each visibility
    MA, MB, C = _coefficient_arrays(f)
    target = float(f.bound) + _VIOLATION_MARGIN
    rng = np.random.default_rng(seed)

    def violated_at(w: float):
        value, _, model, _, state = _best_of_groups(
            MA[None], MB[None], np.zeros(1), C, restarts=restarts, target=target,
            theta=theta, w=w, allow_degenerate=True, rng=rng)
        return value > target, model, int(state["row_sweeps"].sum())

    found = _bisect_threshold(violated_at)
    if found is None:
        return None
    w, model, batches, row_sweeps = found
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

def _detected_max(MA, MB, C, theta, eta_a, eta_b, sa, sb, *, rng, restarts,
                  warm, allow_degenerate, target=None):
    """Max of I over measurements and no-click assignments, at most
    _ETA_SWEEPS sweeps per row: (value, assignment, model, warm start for
    the next call, row-sweeps).  The detected value is const + I_eff(p) on
    the undetected behavior p.

    With a target the see-saw stops once some detected value exceeds it."""
    csb = sb @ C.T                      # (n, ma): sum_y C[x,y] s_b[y]
    csa = sa @ C                        # (n, mb)
    MA_eff = eta_a * MA[None, :] + eta_a * (1 - eta_b) * csb
    MB_eff = eta_b * MB[None, :] + (1 - eta_a) * eta_b * csa
    const = ((1 - eta_a) * (sa @ MA) + (1 - eta_b) * (sb @ MB)
             + (1 - eta_a) * (1 - eta_b) * np.einsum("nx,nx->n", sa, csb))
    value, assign, model, warm, state = _best_of_groups(
        MA_eff, MB_eff, const, eta_a * eta_b * C, restarts=restarts, warm=warm,
        target=target, theta=theta, allow_degenerate=allow_degenerate, rng=rng,
        max_sweeps=_ETA_SWEEPS)
    return value, assign, model, warm, int(state["row_sweeps"].sum())


def _eta_threshold(f: BellFunctional, theta: float, symmetric: bool, *,
                   seed: int, restarts: int,
                   allow_degenerate: bool) -> DetectionResult | None:
    if not 0.0 < theta <= math.pi / 4 + 1e-12:
        raise StructuralError(f"theta {theta} outside (0, pi/4]")
    ma, mb = f.scenario.m_a, f.scenario.m_b
    MA, MB, C = _coefficient_arrays(f)
    bound = float(f.bound)
    rng = np.random.default_rng(seed)

    if symmetric:
        bits = _bits(np.arange(1 << (ma + mb)), ma + mb).astype(float)
        sa, sb = bits[:, :ma], bits[:, ma:]
    else:
        sb = _bits(np.arange(1 << mb), mb).astype(float)
        sa = np.zeros((1 << mb, ma))  # irrelevant at eta_a = 1

    warm = None

    def violated_at(eta):
        nonlocal warm
        ea, eb = (eta, eta) if symmetric else (1.0, eta)
        value, assign, model, warm, row_sweeps = _detected_max(
            MA, MB, C, theta, ea, eb, sa, sb, rng=rng, restarts=restarts,
            warm=warm, allow_degenerate=allow_degenerate,
            target=bound + _VIOLATION_MARGIN)
        return value > bound + _VIOLATION_MARGIN, (assign, model), row_sweeps

    found = _bisect_threshold(violated_at)
    if found is None:
        return None
    eta, (assign, model), batches, row_sweeps = found
    noclick_a = tuple(int(v) for v in sa[assign])
    noclick_b = tuple(int(v) for v in sb[assign])
    ea, eb = (eta, eta) if symmetric else (1.0, eta)
    return DetectionResult(eta=eta, eta_a=ea, eta_b=eb, model=model,
                           noclick_a=noclick_a, noclick_b=noclick_b,
                           batches=batches, row_sweeps=row_sweeps)


def _quadratic_at_maximal_entanglement(f: BellFunctional, value: float):
    """(det, b, d) with I'(eta) = det + b eta + d eta^2 at every no-click
    assignment s = s_a + 2^m_a s_b, from the pi/4 rank-1 optimum `value`
    (see the module docstring); det is f's strategy table."""
    ma, mb = f.scenario.m_a, f.scenario.m_b
    table = _strategy_table(f).astype(float).reshape(1 << mb, 1 << ma)  # [s_b, s_a]
    alice = table.mean(axis=1, keepdims=True)  # Abar[s_b]
    bob = table.mean(axis=0, keepdims=True)    # Bbar[s_a]
    return (table.ravel(), (alice + bob - 2 * table).ravel(),
            (value - alice - bob + table).ravel())


def _eta_at_maximal_entanglement(f: BellFunctional,
                                 best: QuantumResult) -> DetectionResult | None:
    """Closed-form symmetric threshold at theta = pi/4 with rank-1 effects
    from the fixed-theta optimum `best`."""
    target = float(f.bound) + _VIOLATION_MARGIN
    if best.value <= target:
        return None
    det, b, d = _quadratic_at_maximal_entanglement(f, best.value)
    # smallest positive root of d eta^2 + b eta - gap = 0; the roots q/d and
    # -gap/q avoid cancellation whatever the signs.  gap <= 0 means s
    # reaches the target already at eta = 0
    gap = target - det
    disc = b * b + 4 * d * gap
    q = -(b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b)) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        pair = np.stack([q / d, -gap / q])
    pair = np.where((pair > 0) & (disc >= 0), pair, np.inf)
    roots = np.where(gap <= 0, 0.0, pair.min(axis=0))
    assign = int(np.argmin(roots))
    eta = min(float(roots[assign]), 1.0)
    ma, mb = f.scenario.m_a, f.scenario.m_b
    bits = tuple(int(v) for v in _bits(np.array([assign]), ma + mb)[0])
    return DetectionResult(eta=eta, eta_a=eta, eta_b=eta, model=best.model,
                           noclick_a=bits[:ma], noclick_b=bits[ma:],
                           batches=1, row_sweeps=best.row_sweeps)


def eta_threshold_symmetric(f: BellFunctional, theta: float = math.pi / 4, *,
                            seed: int = 0, restarts: int = 8,
                            allow_degenerate: bool = False) -> DetectionResult | None:
    """Threshold efficiency eta_A = eta_B = eta, optimizing measurements and
    no-click strategies; None when there is no violation at eta = 1.

    At theta = pi/4 with rank-1 effects the threshold is a closed form over
    one see-saw at fixed theta (`restarts` restarts, default sweep cap);
    otherwise it is bisected."""
    if not allow_degenerate and abs(theta - math.pi / 4) <= 1e-12:
        best = seesaw_maximize(f, restarts=restarts, seed=seed, theta=math.pi / 4)
        return _eta_at_maximal_entanglement(f, best)
    return _eta_threshold(f, theta, True, seed=seed, restarts=restarts,
                          allow_degenerate=allow_degenerate)


def eta_threshold_asymmetric(f: BellFunctional, theta: float = math.pi / 4, *,
                             seed: int = 0, restarts: int = 8,
                             allow_degenerate: bool = False) -> DetectionResult | None:
    """Threshold eta_B with a perfect detector on Alice's side (eta_A = 1)."""
    return _eta_threshold(f, theta, False, seed=seed, restarts=restarts,
                          allow_degenerate=allow_degenerate)


def _default_sweep_thetas() -> tuple[float, ...]:
    out = []
    t = 0.25
    while t > 0.005:
        out.append(t)
        t /= 2
    out.append(0.005)
    return tuple(v * math.pi for v in out)


DEFAULT_SWEEP_THETAS = _default_sweep_thetas()


def eta_asymmetric_sweep(f: BellFunctional, **opts):
    """eta_B thresholds over DEFAULT_SWEEP_THETAS, a decreasing grid of
    Schmidt angles.

    Returns [(theta, DetectionResult | None), ...].  The grid shows the
    trend toward weak entanglement; the limiting value is not asserted.
    """
    return [(theta, eta_threshold_asymmetric(f, theta, **opts))
            for theta in DEFAULT_SWEEP_THETAS]
