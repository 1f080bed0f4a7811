"""Two-qubit models and see-saw maximization of Bell functionals.

States are Schmidt-form pure states cos(theta)|00> + sin(theta)|11> with
theta in [0, pi/4] (the form is symmetric about pi/4), or at fixed theta
the mixture w|psi><psi| + (1-w) 1/4 that degenerate noise thresholds need.
A two-outcome measurement is its "0" effect (t + r.sigma)/2, t its trace:
a rank-1 projector has t = 1 and a unit Bloch vector r; a degenerate one
has the identity (t = 2) or the zero operator (t = 0), with r = 0, so a
kind code is t itself.

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
state the block maximum is the top eigenvector psi of the Bell operator
sum_ij T_ij sigma_i (x) sigma_j, T = X_a^T C X_b / 4 plus marginal rows.  A
free row keeps psi in the frame its effects live in, with Omega_ij =
<psi|sigma_i (x) sigma_j|psi> / 4 and marginal vectors 4 Omega[:, 0]
(Alice) and 4 Omega[0, :] (Bob) in place of the Schmidt ones.  Only its
output is put in Schmidt form: the local unitaries fold into the
measurements as SO(3) rotations of the Bloch vectors.  Every step is an
exact block maximum, so the value never decreases; seeded random restarts
run batched and share one correlation table (marginal coefficients may
differ per row).  A batch takes theta = None (free: each row draws its
starting angle) or one float; a row's state, returned and accepted as a
warm start, is its effect coordinates xa, xb and, at free theta, its
Schmidt angle.  The sweep cap is _MAX_SWEEPS unless a caller sets another.

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
_MAX_SWEEPS = 500  # sweep cap of a see-saw batch, unless its caller sets one


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
    converged: int       # restarts stopped by _TOL, not by _MAX_SWEEPS
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


def _omega(theta, w):
    """Omega (k, 4, 4) of the Schmidt state at each angle, mixed with
    visibility w, and wc = w cos 2theta as a (k, 1) column."""
    wc, ws = w * np.cos(2 * theta), w * np.sin(2 * theta)
    omega = np.zeros(theta.shape + (4, 4))
    omega[:, 0, 0] = 0.25
    omega[:, 0, 3] = omega[:, 3, 0] = wc / 4.0
    omega[:, 1, 1] = ws / 4.0
    omega[:, 2, 2] = -ws / 4.0
    omega[:, 3, 3] = w / 4.0
    return omega, wc[:, None]


def _omega_state(psi):
    """Omega_ij = <psi|sigma_i (x) sigma_j|psi> / 4 (n, 4, 4) of each row's
    pure state psi (n, 4), one stacked product per row."""
    n = len(psi)
    rho = (psi.conj()[:, :, None] * psi[:, None, :]).reshape(n, 1, 16)
    return np.matmul(rho, _PAULI_PAIRS.T).real.reshape(n, 4, 4) / 4.0


def _kron_table(C):
    """(16, 4 m_a, 4 m_b) table T with Omega.ravel() @ T = kron(C, Omega):
    T[4 i + j, 4 x + i, 4 y + j] = C[x, y], and 0 elsewhere."""
    (ma, mb), i = C.shape, np.arange(4)
    table = np.zeros((4, 4, ma, 4, mb, 4))
    table[i[:, None], i, :, i[:, None], :, i] = C
    return table.reshape(16, 4 * ma, 4 * mb)


def _kernels(table, omega):
    """Per Omega: Alice's field kernel and Bob's kron(C, Omega) (k, 4 m_a,
    4 m_b), whose transpose it is.  Each entry of the product with the
    table has one nonzero term, so it is exact and sums across no rows."""
    k = len(omega)
    kb = (omega.reshape(k, 16) @ table.reshape(16, -1)).reshape((k,) + table.shape[1:])
    return np.ascontiguousarray(kb.transpose(0, 2, 1)), kb


def _state_kernels(table, psi):
    """Field kernels of each row's state psi and its marginal vectors
    u_a = 4 Omega[:, 0], u_b = 4 Omega[0, :] (n, 4)."""
    omega = _omega_state(psi)
    return (*_kernels(table, omega), 4.0 * omega[:, :, 0], 4.0 * omega[:, 0, :])


def _field(M, x, K, u):
    """(n, m, 4) scores of one party's effects given the partner's x (M is
    halved): the value is x_self . field plus the partner's marginal term.
    u is the party's marginal vector, (n, 4) per free row; a fixed state's
    is (1, 0, 0, wc), passed as the (1, 1) wc and added as its two nonzero
    entries.  One stacked product per row; none sums across rows."""
    G = np.matmul(x.reshape(len(x), 1, -1), K).reshape(M.shape + (4,))
    if u.shape[-1] == 4:
        G += M[..., None] * u[:, None, :]
    else:
        G[..., 0] += M
        G[..., 3] += M * u
    return G


def _marginal(M, x, u):
    """A party's marginal term, M halved: an effect occurs with x . u / 2,
    u as in _field."""
    p = np.matmul(x, u[:, :, None])[..., 0] if u.shape[-1] == 4 else x[..., 0] + u * x[..., 3]
    return np.einsum("nm,nm->n", M, p)


def _value(xa, fa, MB, xb, ub):
    """The value from Alice's coordinates and field and Bob's marginal term."""
    return np.einsum("nxi,nxi->n", xa, fa) + _marginal(MB, xb, ub)


def _best_effects(G, allow_degenerate):
    """Exact block maximum over one party's effects, given their scores G:
    the new coordinates and each setting's maximum.  The projector along
    g = G[1:] scores G[0] + |g|, the identity 2 G[0], the zero effect 0.
    With g = 0 every r is optimal; +z keeps the projector's r a unit vector."""
    if not allow_degenerate:
        sq = G * G
        norm = np.sqrt((sq[..., 1] + sq[..., 2]) + sq[..., 3])
        unit = norm > 1e-300
        x = G / np.where(unit, norm, np.inf)[..., None]
        x[..., 0] = _PROJ
        x[..., 3] += ~unit
        return x, G[..., 0] + norm
    # argmax over (projector, identity, zero); ties go to the earlier one.
    # Column by column, which is faster than the above on large batches
    base = G[..., 0]
    norm = np.sqrt(G[..., 1] ** 2 + G[..., 2] ** 2 + G[..., 3] ** 2)
    best = base + norm
    v_id = 2.0 * base
    top = np.maximum(np.maximum(best, v_id), 0.0)
    proj = best >= top
    x = np.empty_like(G)
    x[..., 0] = np.where(proj, _PROJ, _ID * (v_id >= 0.0))
    unit = (norm > 1e-300) & proj  # a degenerate effect has r = 0
    scale = np.where(unit, norm, np.inf)
    for k in (1, 2, 3):
        np.divide(G[..., k], scale, out=x[..., k])
    x[..., 3] += proj & ~unit
    return x, top


def _rotation(U):
    """(n, 3, 3) R with U^dag (r.sigma) U = (r R).sigma: the SO(3) image of U."""
    return 0.5 * np.einsum("lab,nbc,kcd,nda->nkl", _PAULI[1:], U.conj().transpose(0, 2, 1),
                           _PAULI[1:], U).real


def _state_step(MA, MB, C, xa, xb):
    """Free-state block maximum (MA, MB halved): the top eigenvector (n, 4)
    of the Bell operator, in the frame of xa and xb."""
    n = len(xa)
    half = np.matmul(C, xb) / 4.0
    half[..., 0] += MA
    t = np.matmul(xa.transpose(0, 2, 1), half)
    t[:, 0] += np.matmul(MB[:, None, :], xb)[:, 0]
    _, vecs = np.linalg.eigh(np.matmul(t.reshape(n, 1, 16), _PAULI_PAIRS).reshape(n, 4, 4))
    return vecs[:, :, -1]


def _schmidt_form(psi, xa, xb):
    """Each state psi (n, 4) as cos(theta)|00> + sin(theta)|11> with theta in
    [0, pi/4]: the local unitaries fold into the effects as SO(3) rotations
    of their Bloch vectors.  Returns theta and the rotated xa, xb."""
    u, s, vh = np.linalg.svd(psi.reshape(len(psi), 2, 2))
    theta = np.arctan2(s[:, 1], s[:, 0])  # s sorted descending -> theta in [0, pi/4]
    xa, xb = (np.concatenate([x[..., :1], np.matmul(x[..., 1:], _rotation(U))], axis=-1)
              for x, U in ((xa, u), (xb, vh.transpose(0, 2, 1))))  # Bob: conjugated columns
    return theta, xa, xb


def _seesaw_batch(MA, MB, C, *, theta=None, w=1.0, allow_degenerate=False,
                  rng=None, init=None, max_sweeps=None, record=False, target=None):
    """Run one batched see-saw; returns each row's final state (`values`,
    `theta` and the effect coordinates `xa`, `xb`), its sweeps (`row_sweeps`)
    and whether it stopped on _TOL (`converged`).

    theta=None optimizes the state from Schmidt angles drawn from `rng`
    (before the Bloch vectors); a float fixes it.  A free row carries its
    state psi, starting at cos(theta)|00> + sin(theta)|11>, in the frame of
    its effects; the returned rows are put in Schmidt form once, at the
    end.  MA (n, m_a) and MB (n, m_b) may differ per row; C (m_a, m_b) is
    shared.  `init` replaces the random start of rows init["rows"] by
    init["xa"], init["xb"] and, at free theta, init["theta"] (a Schmidt
    angle, with xa and xb in its frame).  The cap is _MAX_SWEEPS unless
    `max_sweeps` is given.  A row freezes after the first sweep that moves
    its value by less than _TOL, so its trajectory does not depend on the
    other rows.  A target (scalar or per row) ends the run after the first
    sweep in which some row's value exceeds it.  With a target, a row also
    leaves once value + _REACH * max(gain, 0) * (sweeps left) stays below
    its target.  Such a row keeps its value, which equals its full run's
    value at that sweep count; it is not marked converged.
    """
    C = np.ascontiguousarray(C, dtype=float)
    MA, MB = (np.asarray(M, dtype=float) / 2.0 for M in (MA, MB))  # halved from here on
    (n, ma), mb = MA.shape, MB.shape[1]
    free = theta is None
    if free and w != 1.0:
        raise StructuralError("free-state updates require visibility 1")
    max_sweeps = _MAX_SWEEPS if max_sweeps is None else max_sweeps
    theta = rng.uniform(0.0, math.pi / 4, size=n) if free else np.full(n, float(theta))
    xa, xb = (np.concatenate([np.full((n, m, 1), float(_PROJ)), _random_bloch(rng, (n, m))],
                             axis=-1) for m in (ma, mb))
    if init is not None:
        rows = init["rows"]
        xa[rows], xb[rows] = init["xa"], init["xb"]
        if free:
            theta[rows] = init["theta"]
    table = _kron_table(C)
    if free:  # a row's state is psi in the frame of its effects
        psi = np.zeros((n, 4), dtype=complex)
        psi[:, 0], psi[:, 3] = np.cos(theta), np.sin(theta)
        ka, kb, ua, ub = _state_kernels(table, psi)
    else:  # one Schmidt state, shared by all rows
        omega, ua = _omega(theta[:1], w)
        ka, kb = _kernels(table, omega)
        ub = ua
    fa = _field(MA, xb, ka, ua)  # Alice's field, ready for the next sweep
    values = _value(xa, fa, MB, xb, ub)
    out = {"values": values, "theta": theta, "xa": xa, "xb": xb,
           "row_sweeps": np.zeros(n, dtype=np.int64), "converged": np.zeros(n, dtype=bool)}
    if free:
        out["psi"] = psi
    history = [values.copy()] if record else None
    decide = target is not None
    target = np.broadcast_to(np.inf if target is None else target, (n,))
    live = np.arange(n)  # the arrays below hold the live rows only
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        xa, _ = _best_effects(fa, allow_degenerate)
        xb, b_best = _best_effects(_field(MB, xa, kb, ub), allow_degenerate)
        if free:
            psi = _state_step(MA, MB, C, xa, xb)
            ka, kb, ua, ub = _state_kernels(table, psi)
            fa = _field(MA, xb, ka, ua)
            new_values = _value(xa, fa, MB, xb, ub)
        else:
            fa = _field(MA, xb, ka, ua)
            new_values = _marginal(MA, xa, ua) + b_best.sum(axis=1)
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
            for key, arr in zip(("values", "xa", "xb"), (values, xa, xb)):
                out[key][rows] = arr[leave]
            out["row_sweeps"][rows] = sweeps
            out["converged"][rows] = done[leave]
            keep = ~leave
            live, MA, MB, target, values, xa, xb, fa = (
                a[keep] for a in (live, MA, MB, target, values, xa, xb, fa))
            if free:  # fixed-theta kernels are shared, not per row
                out["psi"][rows] = psi[leave]
                psi, kb, ub = psi[keep], kb[keep], ub[keep]
        if record:
            out["values"][live] = values
            history.append(out["values"].copy())
        if not live.size:
            break
    if free:
        out["theta"], out["xa"], out["xb"] = _schmidt_form(out.pop("psi"), out["xa"], out["xb"])
    return {**out, "history": history, "sweeps": sweeps}


def _model_from_row(state, row: int) -> QubitModel:
    def measurements(x):
        return tuple(projector(v[1:]) if v[0] == _PROJ else Measurement(_KIND_NAMES[int(v[0])])
                     for v in x)

    theta = float(min(max(state["theta"][row], 0.0), math.pi / 4))
    return QubitModel(theta, measurements(state["xa"][row]), measurements(state["xb"][row]))


def _best_of_groups(MA, MB, const, C, *, restarts, warm=None, target=None, **engine_options):
    """One see-saw batch for groups of `restarts` rows, group i maximizing
    the table (MA[i], MB[i], C) plus const[i]; `warm` (one row state per
    group) replaces each group's first random start, and a target for the
    value plus the constant makes it a decision call.  Returns (best value,
    its group, its model, each group's best row state, the batch state)."""
    if restarts < 1:
        raise StructuralError("restarts must be >= 1")
    g, r = len(const), restarts
    row_const = np.repeat(const, r)
    init = None if warm is None else {"rows": np.arange(g) * r, **warm}
    state = _seesaw_batch(np.repeat(MA, r, axis=0), np.repeat(MB, r, axis=0), C, init=init,
                          target=None if target is None else target - row_const,
                          **engine_options)
    totals = (state["values"] + row_const).reshape(g, r)
    best_r = totals.argmax(axis=1)  # first index on ties
    group_rows = np.arange(g) * r + best_r
    best = int(totals.max(axis=1).argmax())
    warm_out = {k: state[k][group_rows] for k in ("xa", "xb", "theta")}
    return (float(totals[best, best_r[best]]), best, _model_from_row(state, group_rows[best]),
            warm_out, state)


def _coefficient_arrays(f: BellFunctional):
    return tuple(np.array(a, dtype=float) for a in (f.alice_marg, f.bob_marg, f.corr))


def seesaw_maximize(f: BellFunctional, *, restarts: int = 50, seed: int = 0,
                    theta: float | None = None, allow_degenerate: bool = False,
                    record_history: bool = False) -> QuantumResult:
    """Best raw value of I over `restarts` seeded see-saw runs of at most
    _MAX_SWEEPS sweeps.

    theta=None optimizes the Schmidt angle; a float fixes it.  The returned
    value is the maximum of I itself, not I minus the bound.
    """
    if theta is not None and not 0.0 <= theta <= math.pi / 4 + 1e-12:
        raise StructuralError(f"theta {theta} outside [0, pi/4]")
    MA, MB, C = _coefficient_arrays(f)
    value, _, model, _, state = _best_of_groups(
        MA[None], MB[None], np.zeros(1), C, restarts=restarts, theta=theta,
        allow_degenerate=allow_degenerate, rng=np.random.default_rng(seed),
        record=record_history)
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
