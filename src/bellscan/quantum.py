"""Two-qubit models and see-saw maximization of Bell functionals.

States are Schmidt-form pure states cos(theta)|00> + sin(theta)|11| with
theta in [0, pi/4] (the form is symmetric about pi/4, so the half interval
is canonical).  A two-outcome measurement is either a rank-1 projector
pair, described by the Bloch vector of its "0" effect (1 + a.sigma)/2, or
a degenerate von Neumann measurement whose "0" effect is the identity or
the zero operator.

With T = diag(sin 2theta, -sin 2theta, 1) the closed-form behavior of a
projective model is

    p_a(x)    = (1 + cos(2theta) a_z) / 2
    p_ab(x,y) = (1 + cos(2theta)(a_z + b_z) + a.T.b) / 4 .

The optimizer is plain coordinate ascent: for a fixed state each party's
"0" effect enters the objective through a 2x2 Hermitian coefficient
operator, whose maximizer is the projector onto its positive part (the
Bloch vector aligns with the operator's traceless component; when the
operator is sign-definite and degenerate effects are allowed, the identity
or zero effect wins).  For a free state the 4x4 Bell operator's top
eigenvector is taken and re-expressed in Schmidt form, absorbing the local
unitaries into the measurements.  Every step is an exact block maximum, so
the objective is monotone nondecreasing; global quality comes from seeded
random restarts, which run batched.  The rows of a batch may carry their
own marginal coefficients but share one correlation table.  At fixed
theta a sweep's value comes free with Bob's update: it is Alice's
marginal term plus the sum of Bob's per-setting block maxima.  A
decision call ("does some row beat this target?") passes a target and
stops after the first sweep in which a row exceeds it; monotone ascent
means the answer of a full run would be the same.

The engine also accepts a visibility w, optimizing over measurements on
the isotropic mixture w|psi><psi| + (1-w) 1/4 at fixed theta; this is what
degenerate-measurement noise thresholds need, since the identity effect
makes the noise term measurement-dependent.
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

_PROJ, _ID, _ZERO = 0, 1, 2
_KIND_NAMES = {_PROJ: KIND_PROJECTOR, _ID: KIND_ALWAYS_ZERO, _ZERO: KIND_ALWAYS_ONE}

_SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


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
    sweeps: int
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
    p = (1.0 + wc[:, None] * bloch[..., 2]) / 2.0
    p = np.where(kind == _ID, 1.0, p)
    p = np.where(kind == _ZERO, 0.0, p)
    return p


def _values(MA, MB, C, wc, ws, w, akind, abloch, bkind, bbloch):
    pa = _marginals(akind, abloch, wc)
    pb = _marginals(bkind, bbloch, wc)
    az = abloch[..., 2][:, :, None]
    bz = bbloch[..., 2][:, None, :]
    cross = (abloch[..., 0][:, :, None] * bbloch[..., 0][:, None, :]
             - abloch[..., 1][:, :, None] * bbloch[..., 1][:, None, :])
    pab = (1.0 + wc[:, None, None] * (az + bz) + w * az * bz
           + ws[:, None, None] * cross) / 4.0
    a_id = (akind == _ID)[:, :, None]
    b_id = (bkind == _ID)[:, None, :]
    pab = np.where(a_id & b_id, 1.0, pab)
    pab = np.where(a_id & ~b_id, np.broadcast_to(pb[:, None, :], pab.shape), pab)
    pab = np.where(b_id & ~a_id, np.broadcast_to(pa[:, :, None], pab.shape), pab)
    dead = (akind == _ZERO)[:, :, None] | (bkind == _ZERO)[:, None, :]
    pab = np.where(dead, 0.0, pab)
    return (np.einsum("nx,nx->n", MA, pa) + np.einsum("ny,ny->n", MB, pb)
            + pab.reshape(len(pab), -1) @ C.ravel())


def _update_party(M, C, wc, ws, w, kind, bloch, other_kind, other_bloch,
                  allow_degenerate):
    """Exact block maximum over one party's measurements (partner fixed).

    C is the (m_self, m_other) table shared by all rows.  Returns the new
    kinds and Bloch vectors and, per setting, the block maximum attained:
    the partner's marginal term plus the sum of these is the new value."""
    other_proj = other_kind == _PROJ
    oz = other_bloch[..., 2]
    p_other = np.where(other_proj, (1.0 + wc[:, None] * oz) / 2.0,
                       np.where(other_kind == _ID, 1.0, 0.0))
    # az-independent half: M/2 + sum_y C p_other/2; the identity effect scores
    # exactly twice this (trace doubling), the zero effect scores 0
    base = M / 2.0 + p_other @ C.T / 2.0

    zc = np.where(other_proj, (wc[:, None] + w * oz) / 4.0,
                  np.where(other_kind == _ID, wc[:, None] / 2.0, 0.0))
    gx_src = np.where(other_proj, other_bloch[..., 0], 0.0)
    gy_src = np.where(other_proj, other_bloch[..., 1], 0.0)
    g = np.empty(bloch.shape)
    g[..., 0] = ws[:, None] * (gx_src @ C.T) / 4.0
    g[..., 1] = -ws[:, None] * (gy_src @ C.T) / 4.0
    g[..., 2] = M * wc[:, None] / 2.0 + zc @ C.T

    norm = np.linalg.norm(g, axis=-1)
    safe = norm > 1e-300
    new_bloch = np.where(safe[..., None], g / np.where(safe, norm, 1.0)[..., None], bloch)
    v_proj = base + norm

    if allow_degenerate:
        v_id = 2.0 * base
        stacked = np.stack([v_proj, v_id, np.zeros_like(base)], axis=-1)
        new_kind = np.argmax(stacked, axis=-1).astype(np.int8)
        return new_kind, new_bloch, stacked.max(axis=-1)
    return np.zeros_like(kind), new_bloch, v_proj


def _effects(kind, bloch) -> np.ndarray:
    """(N, m, 2, 2) complex "0"-outcome effects."""
    eff = 0.5 * (_EYE2 + np.einsum("nmk,kij->nmij", bloch, _SIGMA))
    eff = np.where((kind == _ID)[..., None, None], _EYE2, eff)
    eff = np.where((kind == _ZERO)[..., None, None], np.zeros((2, 2), dtype=complex), eff)
    return eff


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

    def extract(eff, kind, old):
        vec = np.real(np.einsum("nmij,kji->nmk", eff, _SIGMA))
        norm = np.linalg.norm(vec, axis=-1, keepdims=True)
        ok = norm[..., 0] > 1e-12
        vec = np.where(ok[..., None], vec / np.where(norm > 0, norm, 1.0), old)
        return np.where((kind == _PROJ)[..., None], vec, old)

    return theta, extract(new_a, akind, abloch), extract(new_b, bkind, bbloch)


def _seesaw_batch(MA, MB, C, *, theta, free_theta, w=1.0, allow_degenerate=False,
                  rng=None, init=None, tol=1e-10, max_sweeps=500, record=False,
                  target=None):
    """Run one batched see-saw; returns the final state of every row.

    MA (n, m_a) and MB (n, m_b) may differ per row; C (m_a, m_b) is shared.
    A target (scalar or per row) ends the run after the first sweep in
    which some row's value exceeds it.
    """
    MA = np.ascontiguousarray(MA, dtype=float)
    MB = np.ascontiguousarray(MB, dtype=float)
    C = np.ascontiguousarray(C, dtype=float)
    n, ma = MA.shape
    mb = MB.shape[1]
    if free_theta and w != 1.0:
        raise StructuralError("free-state updates require visibility 1")

    theta = np.array(theta, dtype=float).reshape(n).copy()
    akind = np.zeros((n, ma), dtype=np.int8)
    bkind = np.zeros((n, mb), dtype=np.int8)
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
    history = [values.copy()] if record else None
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        akind, abloch, _ = _update_party(MA, C, wc, ws, w, akind, abloch,
                                         bkind, bbloch, allow_degenerate)
        bkind, bbloch, b_best = _update_party(MB, C.T, wc, ws, w, bkind, bbloch,
                                              akind, abloch, allow_degenerate)
        if free_theta:
            theta, abloch, bbloch = _update_state(MA, MB, C, akind, abloch,
                                                  bkind, bbloch)
            wc = w * np.cos(2 * theta)
            ws = w * np.sin(2 * theta)
            new_values = _values(MA, MB, C, wc, ws, w, akind, abloch, bkind, bbloch)
        else:
            new_values = (np.einsum("nx,nx->n", MA, _marginals(akind, abloch, wc))
                          + b_best.sum(axis=1))
        delta = new_values - values
        values = new_values
        if record:
            history.append(values.copy())
        if np.max(np.abs(delta)) < tol:
            break
        if target is not None and np.any(values > target):
            break
    return {
        "values": values, "theta": theta,
        "akind": akind, "abloch": abloch, "bkind": bkind, "bbloch": bbloch,
        "history": history, "sweeps": sweeps,
    }


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
                    tol: float = 1e-10, max_sweeps: int = 500,
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
        rng=rng, tol=tol, max_sweeps=max_sweeps, record=record_history)
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
        history=history,
    )

