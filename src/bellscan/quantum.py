"""Two-qubit models and see-saw maximization of Bell functionals.

States are Schmidt-form pure states cos(theta)|00> + sin(theta)|11> with
theta in [0, pi/4] (the form is symmetric about pi/4), or at fixed theta
the mixture w|psi><psi| + (1-w) 1/4 that degenerate noise thresholds need.
A two-outcome measurement is its "0" effect (t + r.sigma)/2, t its trace:
a rank-1 projector has t = 1 and a unit Bloch vector r; a degenerate one
has the identity (t = 2) or the zero operator (t = 0), with r = 0.  The
engine's int8 kind code is t itself.

The engine works in effect coordinates x = (t, r_x, r_y, r_z).  In the
correlation-tensor form of the state, with wc = w cos 2theta, ws =
w sin 2theta and u = (1, 0, 0, wc) / 2, a setting occurs with p = x . u
and a pair with p_ab = x_a . Omega x_b, where

    Omega = [[1, 0, 0, wc], [0, ws, 0, 0], [0, 0, -ws, 0], [wc, 0, 0, w]] / 4,

so a functional's value is one bilinear form plus marginal terms.  The
optimizer is coordinate ascent on it.  With the partner fixed, one product
with kron(C, Omega) plus the marginal term gives each setting's field G,
and an effect scores x . G: the best projector aligns r with g = G[1:]
(value G[0] + |g|), the identity scores 2 G[0] and the zero effect 0; the
last two compete only when degenerate effects are allowed.  For a free
state the Bell operator sum_ij T_ij sigma_i (x) sigma_j, T = X_a^T C X_b / 4
plus marginal rows, has its top eigenvector put in Schmidt form; the local
unitaries fold into the measurements as SO(3) rotations of the Bloch
vectors.  Every step is an exact block maximum, so the value never
decreases; seeded random restarts run batched and share one correlation
table (marginal coefficients may differ per row).

No product sums across rows: each is stacked per row (np.matmul over the
batch axis), since one GEMM over the batch rounds differently with the
batch size.  A row stops after the first sweep that moves its value by
less than 1e-10 (_TOL), so its trajectory does not depend on its batch.
At fixed theta a sweep's value is Alice's marginal term plus the sum of
Bob's per-setting block maxima.  A decision call ("does some row beat this
target?") stops after the first sweep in which a row exceeds the target.
It also stops a row once the row could not reach the target even if it
gained _REACH times its last gain in every sweep left under the cap.  A
"no" batch therefore ends with its last row that might still reach the
target, not at the cap.  Each row's value is its full run's at its own
sweep count, and it can only rise, so a row above the target is above it
in the full run too.  A row stopped by the reach rule might still have
crossed the target; that part is a heuristic, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Behavior, BellFunctional, StructuralError

__all__ = [
    "Measurement",
    "QubitModel",
    "QuantumResult",
    "model_behavior",
    "seesaw_maximize",
]

KIND_PROJECTOR = "projector"
KIND_ALWAYS_ZERO = "always_zero"  # "0" effect is the identity
KIND_ALWAYS_ONE = "always_one"    # "0" effect is the zero operator

# a kind code is the trace of its "0" effect (t + r.sigma)/2
_ZERO, _PROJ, _ID = 0, 1, 2
_KIND_NAMES = {_PROJ: KIND_PROJECTOR, _ID: KIND_ALWAYS_ZERO, _ZERO: KIND_ALWAYS_ONE}

_PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
# row 4i + j holds sigma_i (x) sigma_j, flattened: the Bell operator is T.ravel() @ it
_PAULI_PAIRS = np.einsum("iac,jbd->ijabcd", _PAULI, _PAULI).reshape(16, 16)
_TOL = 1e-10  # a sweep that moves a row's value by less ends that row
# a decision row stops once even this many times its last gain, for every
# sweep left under the cap, would leave it below the target
_REACH = 10.0


@dataclass(frozen=True)
class Measurement:
    kind: str
    bloch: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.kind not in (KIND_PROJECTOR, KIND_ALWAYS_ZERO, KIND_ALWAYS_ONE):
            raise StructuralError(f"unknown measurement kind {self.kind!r}")
        if self.kind == KIND_PROJECTOR:
            if self.bloch is None:
                raise StructuralError("projector measurements need a Bloch vector")
            object.__setattr__(self, "bloch", tuple(float(v) for v in self.bloch))
            norm = math.sqrt(sum(v * v for v in self.bloch))
            if abs(norm - 1.0) > 1e-12:
                raise StructuralError(f"Bloch vector norm {norm} is not 1")
        elif self.bloch is not None:
            raise StructuralError("degenerate measurements carry no Bloch vector")


def projector(bloch) -> Measurement:
    """Rank-1 measurement from a (not necessarily normalized) Bloch direction."""
    v = np.asarray(bloch, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise StructuralError("zero Bloch direction")
    return Measurement(KIND_PROJECTOR, tuple(v / n))


@dataclass(frozen=True)
class QubitModel:
    theta: float
    alice_meas: tuple[Measurement, ...]
    bob_meas: tuple[Measurement, ...]

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 4 + 1e-12:
            raise StructuralError(f"theta {self.theta} outside [0, pi/4]")


@dataclass(frozen=True)
class QuantumResult:
    value: float
    violation: float
    theta_max: float
    model: QubitModel
    restarts_used: int
    sweeps: int          # sweeps the batch ran (its slowest restart)
    row_sweeps: int      # sweeps summed over restarts
    converged: int       # restarts stopped by _TOL, not by max_sweeps
    history: tuple[tuple[float, ...], ...] | None = None


def _pair_prob(theta: float, a: Measurement, b: Measurement) -> float:
    if a.kind == KIND_ALWAYS_ONE or b.kind == KIND_ALWAYS_ONE:
        return 0.0
    if a.kind == KIND_ALWAYS_ZERO and b.kind == KIND_ALWAYS_ZERO:
        return 1.0
    c = math.cos(2 * theta)
    if a.kind == KIND_ALWAYS_ZERO:
        return (1 + c * b.bloch[2]) / 2
    if b.kind == KIND_ALWAYS_ZERO:
        return (1 + c * a.bloch[2]) / 2
    s = math.sin(2 * theta)
    ax, ay, az = a.bloch
    bx, by, bz = b.bloch
    return (1 + c * (az + bz) + az * bz + s * (ax * bx - ay * by)) / 4


def _marg_prob(theta: float, m: Measurement) -> float:
    if m.kind == KIND_ALWAYS_ZERO:
        return 1.0
    if m.kind == KIND_ALWAYS_ONE:
        return 0.0
    return (1 + math.cos(2 * theta) * m.bloch[2]) / 2


def model_behavior(m: QubitModel) -> Behavior:
    """Closed-form behavior of the model on the pure Schmidt state."""
    p_a = tuple(_marg_prob(m.theta, a) for a in m.alice_meas)
    p_b = tuple(_marg_prob(m.theta, b) for b in m.bob_meas)
    p_ab = tuple(tuple(_pair_prob(m.theta, a, b) for b in m.bob_meas)
                 for a in m.alice_meas)
    return Behavior(p_a, p_b, p_ab)


# Batched see-saw engine.  All arrays carry a leading batch axis; one row is
# one independent optimization (a restart, or an assignment x restart in the
# detection module).  A party's state is its (n, m, 4) effect coordinates.

def _random_bloch(rng: np.random.Generator, shape) -> np.ndarray:
    v = rng.normal(size=shape + (3,))
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    norm[norm == 0] = 1.0
    return v / norm


def _kernels(C, theta, w):
    """Per angle: Alice's field kernel, Bob's kron(C, Omega) (k, 4 m_a, 4 m_b)
    whose transpose it is, and wc as a (k, 1) column."""
    wc, ws = w * np.cos(2 * theta), w * np.sin(2 * theta)
    omega = np.zeros(theta.shape + (4, 4))
    omega[:, 0, 0] = 0.25
    omega[:, 0, 3] = omega[:, 3, 0] = wc / 4.0
    omega[:, 1, 1] = ws / 4.0
    omega[:, 2, 2] = -ws / 4.0
    omega[:, 3, 3] = w / 4.0
    (ma, mb), k = C.shape, len(theta)
    kb = (C[:, None, :, None] * omega[:, None, :, None, :]).reshape(k, 4 * ma, 4 * mb)
    return np.ascontiguousarray(kb.transpose(0, 2, 1)), kb, wc[:, None]


def _field(M, x, K, wc):
    """(n, m, 4) scores of one party's effects given the partner's x (M is
    halved): the value is x_self . field plus the partner's marginal term.
    One stacked product per row; none sums across rows."""
    G = np.matmul(x.reshape(len(x), 1, -1), K).reshape(M.shape + (4,))
    G[..., 0] += M
    G[..., 3] += M * wc
    return G


def _marginal(M, x, wc):
    """A party's marginal term, M halved: an effect occurs with (t + wc r_z) / 2."""
    return np.einsum("nm,nm->n", M, x[..., 0] + wc * x[..., 3])


def _value(xa, fa, MB, xb, wc):
    """The value from Alice's coordinates and field and Bob's marginal term."""
    return np.einsum("nxi,nxi->n", xa, fa) + _marginal(MB, xb, wc)


def _best_effects(G, allow_degenerate):
    """Exact block maximum over one party's effects, given their scores G:
    the new coordinates and each setting's maximum.  The projector along
    g = G[1:] scores G[0] + |g|, the identity 2 G[0], the zero effect 0."""
    base = G[..., 0]
    norm = np.sqrt(G[..., 1] ** 2 + G[..., 2] ** 2 + G[..., 3] ** 2)
    best = base + norm
    x = np.empty_like(G)
    x[..., 0] = _PROJ
    # g = 0: every r is optimal; +z keeps the projector's r a unit vector
    unit = norm > 1e-300
    plus_z = ~unit
    if allow_degenerate:
        # argmax over (projector, identity, zero); ties go to the earlier one
        v_id = 2.0 * base
        top = np.maximum(np.maximum(best, v_id), 0.0)
        proj = best >= top
        x[..., 0] = np.where(proj, _PROJ, _ID * (v_id >= 0.0))
        best = top
        unit &= proj  # a degenerate effect has r = 0
        plus_z &= proj
    scale = np.where(unit, norm, np.inf)
    for k in (1, 2, 3):
        np.divide(G[..., k], scale, out=x[..., k])
    x[..., 3] += plus_z
    return x, best


def _rotation(U):
    """(n, 3, 3) R with U^dag (r.sigma) U = (r R).sigma: the SO(3) image of U."""
    return 0.5 * np.einsum("lab,nbc,kcd,nda->nkl", _PAULI[1:], U.conj().transpose(0, 2, 1),
                           _PAULI[1:], U).real


def _schmidt_step(MA, MB, C, xa, xb):
    """Free-state block maximum (MA, MB halved): the Bell operator's top
    eigenvector in Schmidt form.  Returns the angles and new coordinates."""
    n = len(xa)
    half = np.matmul(C, xb) / 4.0
    half[..., 0] += MA
    t = np.matmul(xa.transpose(0, 2, 1), half)
    t[:, 0] += np.matmul(MB[:, None, :], xb)[:, 0]
    _, vecs = np.linalg.eigh(np.matmul(t.reshape(n, 1, 16), _PAULI_PAIRS).reshape(n, 4, 4))
    u, s, vh = np.linalg.svd(vecs[:, :, -1].reshape(n, 2, 2))
    theta = np.arctan2(s[:, 1], s[:, 0])  # s sorted descending -> theta in [0, pi/4]
    xa, xb = (np.concatenate([x[..., :1], np.matmul(x[..., 1:], _rotation(U))], axis=-1)
              for x, U in ((xa, u), (xb, vh.transpose(0, 2, 1))))  # Bob: conjugated columns
    return theta, xa, xb


def _seesaw_batch(MA, MB, C, *, theta, free_theta, w=1.0, allow_degenerate=False,
                  rng=None, init=None, max_sweeps=500, record=False, target=None):
    """Run one batched see-saw; returns the final state of every row, with
    its sweeps (`row_sweeps`) and whether it stopped on _TOL (`converged`).

    MA (n, m_a) and MB (n, m_b) may differ per row; C (m_a, m_b) is shared,
    and so is theta at fixed theta.  A row freezes after the first sweep
    that moves its value by less than _TOL, so its trajectory does not
    depend on the other rows.  A target (scalar or per row) ends the run
    after the first sweep in which some row's value exceeds it.  With a
    target, a row also leaves once value + _REACH * max(gain, 0) * (sweeps
    left) stays below its target.  Such a row keeps its value, which equals
    its full run's value at that sweep count; it is not marked converged.
    """
    C = np.ascontiguousarray(C, dtype=float)
    MA, MB = (np.asarray(M, dtype=float) / 2.0 for M in (MA, MB))  # halved from here on
    (n, ma), mb = MA.shape, MB.shape[1]
    if free_theta and w != 1.0:
        raise StructuralError("free-state updates require visibility 1")
    theta = np.array(theta, dtype=float).reshape(n).copy()
    if not free_theta and np.any(theta != theta[0]):
        raise StructuralError("a fixed-theta batch shares one theta")

    xa, xb = (np.concatenate([np.full((n, m, 1), float(_PROJ)), _random_bloch(rng, (n, m))],
                             axis=-1) for m in (ma, mb))
    if init is not None:
        for side, x in (("a", xa), ("b", xb)):
            x[init["rows"], :, 0] = init[side + "kind"]
            x[init["rows"], :, 1:] = init[side + "bloch"]
    ka, kb, wc = _kernels(C, theta if free_theta else theta[:1], w)
    fa = _field(MA, xb, ka, wc)  # Alice's field, ready for the next sweep
    values = _value(xa, fa, MB, xb, wc)
    out = {"values": values, "theta": theta, "xa": xa, "xb": xb,
           "row_sweeps": np.zeros(n, dtype=np.int64), "converged": np.zeros(n, dtype=bool)}
    history = [values.copy()] if record else None
    decide = target is not None
    target = np.broadcast_to(np.inf if target is None else target, (n,))
    live = np.arange(n)  # the arrays below hold the live rows only
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        xa, _ = _best_effects(fa, allow_degenerate)
        xb, b_best = _best_effects(_field(MB, xa, kb, wc), allow_degenerate)
        if free_theta:
            theta, xa, xb = _schmidt_step(MA, MB, C, xa, xb)
            ka, kb, wc = _kernels(C, theta, w)
            fa = _field(MA, xb, ka, wc)
            new_values = _value(xa, fa, MB, xb, wc)
        else:
            fa = _field(MA, xb, ka, wc)
            new_values = _marginal(MA, xa, wc) + b_best.sum(axis=1)
        gain = new_values - values
        done = np.abs(gain) < _TOL
        values = new_values
        stop = sweeps == max_sweeps or bool((values > target).any())
        if stop:
            leave = np.ones_like(done)
        elif decide:
            reach = _REACH * np.maximum(gain, 0.0) * (max_sweeps - sweeps)
            leave = done | (values + reach < target)
        else:
            leave = done
        if leave.any():
            rows = live[leave]
            for key, arr in zip(out, (values, theta, xa, xb)):
                out[key][rows] = arr[leave]
            out["row_sweeps"][rows] = sweeps
            out["converged"][rows] = done[leave]
            keep = ~leave
            live, MA, MB, theta, target, values, xa, xb, fa = (
                a[keep] for a in (live, MA, MB, theta, target, values, xa, xb, fa))
            if free_theta:  # fixed-theta kernels are shared, not per row
                kb, wc = kb[keep], wc[keep]
        if record:
            out["values"][live] = values
            history.append(out["values"].copy())
        if not live.size:
            break
    xa, xb = out.pop("xa"), out.pop("xb")
    return {**out, "akind": xa[..., 0].astype(np.int8), "abloch": xa[..., 1:],
            "bkind": xb[..., 0].astype(np.int8), "bbloch": xb[..., 1:],
            "history": history, "sweeps": sweeps}


def _measurements_from_row(kind, bloch) -> tuple[Measurement, ...]:
    out = []
    for k, v in zip(kind, bloch):
        if k == _PROJ:
            n = float(np.linalg.norm(v))
            out.append(Measurement(KIND_PROJECTOR, tuple(v / n)))
        else:
            out.append(Measurement(_KIND_NAMES[int(k)]))
    return tuple(out)


def _model_from_row(state, row: int) -> QubitModel:
    theta = float(min(max(state["theta"][row], 0.0), math.pi / 4))
    return QubitModel(
        theta=theta,
        alice_meas=_measurements_from_row(state["akind"][row], state["abloch"][row]),
        bob_meas=_measurements_from_row(state["bkind"][row], state["bbloch"][row]),
    )


def _coefficient_arrays(f: BellFunctional):
    return tuple(np.array(a, dtype=float) for a in (f.alice_marg, f.bob_marg, f.corr))


def seesaw_maximize(f: BellFunctional, *, restarts: int = 50, seed: int = 0,
                    theta: float | None = None, allow_degenerate: bool = False,
                    max_sweeps: int = 500,
                    record_history: bool = False) -> QuantumResult:
    """Best raw value of I over `restarts` seeded see-saw runs.

    theta=None optimizes the Schmidt angle; a float fixes it.  The returned
    value is the maximum of I itself, not I minus the bound.
    """
    if restarts < 1:
        raise StructuralError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    MA, MB, C = _coefficient_arrays(f)
    n = restarts
    free = theta is None
    if free:
        theta0 = rng.uniform(0.0, math.pi / 4, size=n)
    else:
        if not 0.0 <= theta <= math.pi / 4 + 1e-12:
            raise StructuralError(f"theta {theta} outside [0, pi/4]")
        theta0 = np.full(n, float(theta))
    state = _seesaw_batch(
        np.broadcast_to(MA, (n, MA.size)), np.broadcast_to(MB, (n, MB.size)), C,
        theta=theta0, free_theta=free, allow_degenerate=allow_degenerate,
        rng=rng, max_sweeps=max_sweeps, record=record_history)
    best = int(np.argmax(state["values"]))  # first index on ties
    value = float(state["values"][best])
    model = _model_from_row(state, best)
    history = None
    if record_history:
        arr = np.stack(state["history"], axis=1)  # (n, sweeps+1)
        history = tuple(tuple(float(v) for v in row) for row in arr)
    return QuantumResult(
        value=value,
        violation=value - float(f.bound),
        theta_max=model.theta,
        model=model,
        restarts_used=restarts,
        sweeps=state["sweeps"],
        row_sweeps=int(state["row_sweeps"].sum()),
        converged=int(state["converged"].sum()),
        history=history,
    )

