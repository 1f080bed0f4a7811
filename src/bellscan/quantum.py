"""Two-qubit models and see-saw maximization of Bell functionals.

States are Schmidt-form pure states cos(theta)|00> + sin(theta)|11| with
theta in [0, pi/4] (the form is symmetric about pi/4, so the half interval
is canonical).  A two-outcome measurement is described by its "0" effect
(t + r.sigma)/2, where t is the effect's trace: a rank-1 projector pair
has t = 1 and a unit Bloch vector r, and a degenerate von Neumann
measurement has the identity (t = 2) or the zero operator (t = 0) as its
"0" effect, with r = 0.  The engine's int8 kind code is t itself.

With T = diag(sin 2theta, -sin 2theta, 1) the closed-form behavior of a
model is, for every kind,

    p_a(x)    = (t_a + cos(2theta) a_z) / 2
    p_ab(x,y) = (t_a t_b + cos(2theta)(t_b a_z + t_a b_z) + a.T.b) / 4 .

The optimizer is plain coordinate ascent.  For a fixed state a party's "0"
effect scores t * base + r.g per setting, so the best projector aligns r
with g (value base + |g|), the identity scores 2 base and the zero effect
0; the last two compete only when degenerate effects are allowed.  For a
free state the 4x4 Bell operator's top eigenvector is re-expressed in
Schmidt form, absorbing the local unitaries into the measurements.  Every
step is an exact block maximum, so the objective never decreases; global
quality comes from seeded random restarts, which run batched and share one
correlation table (marginal coefficients may differ per row).  A row stops
after the first sweep that moves its value by less than 1e-10 (_TOL), so
its trajectory does not depend on its batch and a converged row costs
nothing while slower rows run on.  At fixed theta a sweep's value is Alice's
marginal term plus the sum of Bob's per-setting block maxima.  A decision
call ("does some row beat this target?") stops after the first sweep in
which a row exceeds the target; monotone ascent means a full run would
give the same answer.

The engine also accepts a visibility w, optimizing over measurements on
the isotropic mixture w|psi><psi| + (1-w) 1/4 at fixed theta (cos and T
above carry a factor w); this is what degenerate-measurement noise
thresholds need, since the identity effect makes the noise term
measurement-dependent.
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

_SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)
_TOL = 1e-10  # a sweep that moves a row's value by less ends that row


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


# ---------------------------------------------------------------------------
# Batched see-saw engine.  All arrays carry a leading batch axis; one row is
# one independent optimization (a restart, or an assignment x restart in the
# detection module).
# ---------------------------------------------------------------------------

def _random_bloch(rng: np.random.Generator, shape) -> np.ndarray:
    v = rng.normal(size=shape + (3,))
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    norm[norm == 0] = 1.0
    return v / norm


def _marginals(kind, bloch, wc):
    return (kind + wc[:, None] * bloch[..., 2]) / 2.0


def _values(MA, MB, C, wc, ws, w, akind, abloch, bkind, bbloch):
    ta, tb = akind[:, :, None], bkind[:, None, :]
    az = abloch[..., 2][:, :, None]
    bz = bbloch[..., 2][:, None, :]
    cross = (abloch[..., 0][:, :, None] * bbloch[..., 0][:, None, :]
             - abloch[..., 1][:, :, None] * bbloch[..., 1][:, None, :])
    pab = (ta * tb + wc[:, None, None] * (tb * az + ta * bz) + w * az * bz
           + ws[:, None, None] * cross) / 4.0
    return (np.einsum("nx,nx->n", MA, _marginals(akind, abloch, wc))
            + np.einsum("ny,ny->n", MB, _marginals(bkind, bbloch, wc))
            + pab.reshape(len(pab), -1) @ C.ravel())


def _update_party(M, C, wc, ws, w, other_kind, other_bloch, allow_degenerate):
    """Exact block maximum over one party's measurements (partner fixed).

    C is the (m_self, m_other) table shared by all rows.  Returns the new
    kinds and Bloch vectors and, per setting, the block maximum attained:
    the partner's marginal term plus the sum of these is the new value."""
    t, r = other_kind, other_bloch
    wc, ws = wc[:, None], ws[:, None]
    # the effect (t + r.sigma)/2 scores t * base + r.g
    base = M / 2.0 + ((t + wc * r[..., 2]) / 2.0) @ C.T / 2.0
    g = np.empty(r.shape[:1] + M.shape[1:] + (3,))
    g[..., 0] = ws * (r[..., 0] @ C.T) / 4.0
    g[..., 1] = -ws * (r[..., 1] @ C.T) / 4.0
    g[..., 2] = M * wc / 2.0 + ((wc * t + w * r[..., 2]) / 4.0) @ C.T
    norm = np.sqrt(g[..., 0] * g[..., 0] + g[..., 1] * g[..., 1] + g[..., 2] * g[..., 2])
    safe = norm > 1e-300
    # g = 0: every r is optimal; +z keeps the projector's r a unit vector
    new_bloch = g / np.where(safe, norm, np.inf)[..., None]
    new_bloch[..., 2] += ~safe
    v_proj = base + norm
    if allow_degenerate:
        # argmax over (projector, identity, zero); ties go to the earlier one
        v_id = 2.0 * base
        best = np.maximum(np.maximum(v_proj, v_id), 0.0)
        proj = v_proj >= best
        kind = np.where(proj, _PROJ, _ID * (v_id >= 0.0)).astype(np.int8)
        return kind, new_bloch * proj[..., None], best
    return np.full(base.shape, _PROJ, dtype=np.int8), new_bloch, v_proj


def _effects(kind, bloch) -> np.ndarray:
    """(N, m, 2, 2) complex "0"-outcome effects."""
    return 0.5 * (kind[..., None, None] * _EYE2 + np.einsum("nmk,kij->nmij", bloch, _SIGMA))


def _update_state(MA, MB, C, akind, abloch, bkind, bbloch):
    """Top eigenvector of the Bell operator, re-canonicalized to Schmidt form."""
    A = _effects(akind, abloch)
    B = _effects(bkind, bbloch)
    G = np.einsum("xy,nxij,nykl->nikjl", C, A, B)
    G += np.einsum("nx,nxij,kl->nikjl", MA, A, _EYE2)
    G += np.einsum("ny,ij,nykl->nikjl", MB, _EYE2, B)
    n = MA.shape[0]
    G = G.reshape(n, 4, 4)
    _, vecs = np.linalg.eigh(G)
    psi = vecs[:, :, -1].reshape(n, 2, 2)
    u, s, vh = np.linalg.svd(psi)
    theta = np.arctan2(s[:, 1], s[:, 0])  # s sorted descending -> theta in [0, pi/4]
    ub = np.transpose(vh, (0, 2, 1))      # Bob's Schmidt basis (conjugated columns)
    new_a = np.einsum("nji,nxjk,nkl->nxil", u.conj(), A, u)
    new_b = np.einsum("nji,nyjk,nkl->nyil", ub.conj(), B, ub)

    def extract(eff):
        # a degenerate effect's traceless part is rounding noise: keep r = 0
        vec = np.real(np.einsum("nmij,kji->nmk", eff, _SIGMA))
        norm = np.linalg.norm(vec, axis=-1, keepdims=True)
        ok = norm > 1e-12
        return np.where(ok, vec / np.where(ok, norm, 1.0), 0.0)

    return theta, extract(new_a), extract(new_b)


def _seesaw_batch(MA, MB, C, *, theta, free_theta, w=1.0, allow_degenerate=False,
                  rng=None, init=None, max_sweeps=500, record=False, target=None):
    """Run one batched see-saw; returns the final state of every row, with
    its sweeps (`row_sweeps`) and whether it stopped on _TOL (`converged`).

    MA (n, m_a) and MB (n, m_b) may differ per row; C (m_a, m_b) is shared.
    A row freezes after the first sweep that moves its value by less than
    _TOL, so its trajectory does not depend on the other rows.  A target
    (scalar or per row) ends the run after the first sweep in which some
    row's value exceeds it.
    """
    MA = np.ascontiguousarray(MA, dtype=float)
    MB = np.ascontiguousarray(MB, dtype=float)
    C = np.ascontiguousarray(C, dtype=float)
    (n, ma), mb = MA.shape, MB.shape[1]
    if free_theta and w != 1.0:
        raise StructuralError("free-state updates require visibility 1")

    theta = np.array(theta, dtype=float).reshape(n).copy()
    akind, bkind = (np.full((n, m), _PROJ, dtype=np.int8) for m in (ma, mb))
    abloch = _random_bloch(rng, (n, ma))
    bbloch = _random_bloch(rng, (n, mb))
    if init is not None:
        rows = init["rows"]
        abloch[rows] = init["abloch"]
        bbloch[rows] = init["bbloch"]
        akind[rows] = init["akind"]
        bkind[rows] = init["bkind"]

    wc = w * np.cos(2 * theta)
    ws = w * np.sin(2 * theta)
    values = _values(MA, MB, C, wc, ws, w, akind, abloch, bkind, bbloch)
    out = {"values": values, "theta": theta, "akind": akind, "abloch": abloch,
           "bkind": bkind, "bbloch": bbloch, "row_sweeps": np.zeros(n, dtype=np.int64),
           "converged": np.zeros(n, dtype=bool)}
    history = [values.copy()] if record else None
    target = np.broadcast_to(np.inf if target is None else target, (n,))
    live = np.arange(n)  # the arrays below hold the live rows only
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        akind, abloch, _ = _update_party(MA, C, wc, ws, w, bkind, bbloch,
                                         allow_degenerate)
        bkind, bbloch, b_best = _update_party(MB, C.T, wc, ws, w, akind, abloch,
                                              allow_degenerate)
        if free_theta:
            theta, abloch, bbloch = _update_state(MA, MB, C, akind, abloch,
                                                  bkind, bbloch)
            wc = w * np.cos(2 * theta)
            ws = w * np.sin(2 * theta)
            new_values = _values(MA, MB, C, wc, ws, w, akind, abloch, bkind, bbloch)
        else:
            new_values = (np.einsum("nx,nx->n", MA, _marginals(akind, abloch, wc))
                          + b_best.sum(axis=1))
        done = np.abs(new_values - values) < _TOL
        values = new_values
        stop = sweeps == max_sweeps or bool((values > target).any())
        leave = np.ones_like(done) if stop else done
        if leave.any():
            rows = live[leave]
            for key, arr in zip(out, (values, theta, akind, abloch, bkind, bbloch)):
                out[key][rows] = arr[leave]
            out["row_sweeps"][rows] = sweeps
            out["converged"][rows] = done[leave]
            keep = ~leave
            live, MA, MB, wc, ws, theta, target, values = (
                a[keep] for a in (live, MA, MB, wc, ws, theta, target, values))
            akind, abloch, bkind, bbloch = (a[keep] for a in (akind, abloch, bkind, bbloch))
        if record:
            out["values"][live] = values
            history.append(out["values"].copy())
        if not live.size:
            break
    return {**out, "history": history, "sweeps": sweeps}


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
    MA = np.array(f.alice_marg, dtype=float)
    MB = np.array(f.bob_marg, dtype=float)
    C = np.array(f.corr, dtype=float)
    return MA, MB, C


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

