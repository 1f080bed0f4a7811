"""Two-qubit models and see-saw maximization of Bell functionals.

States are Schmidt-form pure states cos(theta)|00> + sin(theta)|11> with
theta in [0, pi/4] (the form is symmetric about pi/4), or at fixed theta
the mixture w|psi><psi| + (1-w) 1/4 that degenerate noise thresholds need.
A two-outcome measurement is its "0" effect (t + r.sigma)/2, t its trace:
a rank-1 projector has t = 1 and a unit Bloch vector r; a degenerate one
has the identity (t = 2) or the zero operator (t = 0), with r = 0, so a
kind code is t itself.

The engine works in effect coordinates x = (t, r_x, r_y, r_z).  Every
state is its Omega_ij = Tr[rho sigma_i (x) sigma_j] / 4: a pair occurs
with p_ab = x_a . Omega x_b and a setting with p = x . u / 2, u the
party's marginal vector, u_a = 4 Omega[:, 0] or u_b = 4 Omega[0, :].  The
Schmidt state mixed with visibility w has, with c = w cos 2theta and
s = w sin 2theta,

    Omega = [[1, 0, 0, c], [0, s, 0, 0], [0, 0, -s, 0], [c, 0, 0, w]] / 4,

so u_a = u_b = (1, 0, 0, c), and its behavior is one trace formula
(`model_behavior` is w = 1):

    p_a = (t + c r_z) / 2,
    p_ab = (t_a t_b + c (t_a r_bz + t_b r_az) + w r_az r_bz
            + s (r_ax r_bx - r_ay r_by)) / 4.

A functional's value is one bilinear form plus marginal terms, and the
optimizer is coordinate ascent on it.  With
the partner fixed, one product with kron(C, Omega) plus the marginal term
gives each setting's field G, and an effect scores x . G: the best
projector aligns r with g = G[1:] (value G[0] + |g|), the identity scores
2 G[0] and the zero effect 0; the last two compete only when degenerate
effects are allowed.  For a free state the block maximum is the top
eigenvector psi of the Bell operator sum_ij T_ij sigma_i (x) sigma_j,
T = X_a^T C X_b / 4 plus marginal rows.  A free row keeps psi in the
frame its effects live in, with Omega_ij = <psi|sigma_i (x) sigma_j|psi>
/ 4.  Fixed or free, an Omega passes one kernel path (`_kernels`) to its
kernels and marginal vectors: a fixed state's is shared by all rows, a
free row's is its own.  Only a free row's output is put in Schmidt form:
the local unitaries fold into the measurements as SO(3) rotations of the
Bloch vectors.  Every step is an exact block maximum, so a plain sweep F
(`_sweep`) never lowers the value; seeded random restarts run batched and
share one correlation table (marginal coefficients may differ per row).
A batch takes theta = None (free: each row draws its starting angle) or
one float; a row's state, returned and accepted as a warm start, is its
effect coordinates xa, xb and, at free theta, its Schmidt angle.

F is a monotone fixed-point map, like EM, and plain sweeps creep where it
contracts slowly, so rank-1 rows run guarded SQUAREM cycles (Varadhan &
Roland, Scand. J. Stat. 35, 335, 2008) on Bob's effects x.  A cycle takes
x1 = F(x0) and x2 = F(x1), r = x1 - x0 and v = x2 - 2 x1 + x0, and the
step alpha = -|r| / |v| per row, clamped to [-1e3, -1] (-1 when v = 0).
It renormalizes the Bloch vectors of x0 - 2 alpha r + alpha^2 v (a row
where one vanishes takes x2) and applies F once more, from x2's state psi
at free theta.  The row keeps that x3 if its value is at least x2's and
x2 otherwise, so the value still never falls.  Rows with degenerate
effects allowed run one plain sweep per cycle.  The cap, _MAX_SWEEPS
(only the threshold root-finder's capped maximization sets a lower one),
and every sweep count are map evaluations.

No product sums across rows: each is stacked per row (np.matmul over the
batch axis), since one GEMM over the batch rounds differently with the
batch size, so a row's arithmetic does not depend on its batch; only
where it stops does.  At fixed theta a sweep's value is Alice's marginal
term plus the sum of Bob's per-setting block maxima.  A row stops after
the first cycle that moves its value by less than 1e-10 (_TOL), or at the
cap.  It is also raced out: at the end of a cycle it leaves once its
total, its value plus its group's constant (`_best_of_groups`), could not
reach a bar even if it gained _REACH times that cycle's gain in every
cycle left under the cap.  A decision call ("does some row beat this
target?") stops after the first evaluation in which a row's total
exceeds the target, and its bar is the target, so a "no" batch ends with
its last row that might still reach the target, not at the cap.  Any
other batch's bar is the best total that any of its rows has reached so
far, so the batch ends with its last row that might still beat it.  Each
row's value is its solo run's at its own evaluation count, and it can
only rise, so a row above the target is above it in the solo run too.  A
raced row might still have crossed the bar; that part is a heuristic, not
a proof.
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
_TRACE = {name: t for t, name in _KIND_NAMES.items()}

_PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
# row 4i + j holds sigma_i (x) sigma_j, flattened: the Bell operator is T.ravel() @ it
_PAULI_PAIRS = np.einsum("iac,jbd->ijabcd", _PAULI, _PAULI).reshape(16, 16)
_TOL = 1e-10  # a cycle that moves a row's value by less ends that row
# a row is raced out once even this many times its last cycle's gain, for
# every cycle left under the cap, would leave its total below its bar (a
# decision's target, else the batch's best total so far)
_REACH = 10.0
_MAX_SWEEPS = 500  # evaluation cap of a see-saw batch (robustness._POLISH_SWEEPS aside)
_ALPHA_MAX = 1e3  # SQUAREM steps are clamped to alpha in [-_ALPHA_MAX, -1]


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
    sweeps: int          # map evaluations the batch ran (its slowest restart)
    row_sweeps: int      # map evaluations summed over restarts
    converged: int       # restarts stopped by _TOL, not by _MAX_SWEEPS
    accepted: int        # cycles that kept their SQUAREM trial point, over restarts
    raced: int           # restarts stopped below the best they could not reach
    hits: int            # restarts that end within 1e-9 of the best value


def _mixed_behavior(m: QubitModel, w: float) -> Behavior:
    """Behavior of the model's measurements on w |psi><psi| + (1 - w) 1/4:
    the trace formula of the module docstring, each effect read as its
    trace t and Bloch vector r."""
    c, s = w * math.cos(2 * m.theta), w * math.sin(2 * m.theta)
    alice, bob = ([(_TRACE[x.kind], x.bloch or (0.0, 0.0, 0.0)) for x in meas]
                  for meas in (m.alice_meas, m.bob_meas))
    return Behavior([(t + c * r[2]) / 2 for t, r in alice],
                    [(t + c * r[2]) / 2 for t, r in bob],
                    [[(ta * tb + c * (ta * rb[2] + tb * ra[2]) + w * ra[2] * rb[2]
                       + s * (ra[0] * rb[0] - ra[1] * rb[1])) / 4 for tb, rb in bob]
                     for ta, ra in alice])


def model_behavior(m: QubitModel) -> Behavior:
    """Closed-form behavior of the model on the pure Schmidt state."""
    return _mixed_behavior(m, 1.0)


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
    visibility w."""
    wc, ws = w * np.cos(2 * theta), w * np.sin(2 * theta)
    omega = np.zeros(theta.shape + (4, 4))
    omega[:, 0, 0] = 0.25
    omega[:, 0, 3] = omega[:, 3, 0] = wc / 4.0
    omega[:, 1, 1] = ws / 4.0
    omega[:, 2, 2] = -ws / 4.0
    omega[:, 3, 3] = w / 4.0
    return omega


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
    """Per Omega (k, 4, 4): Alice's field kernel, Bob's kron(C, Omega)
    (k, 4 m_a, 4 m_b), whose transpose it is, and the marginal vectors
    u_a = 4 Omega[:, :, 0] and u_b = 4 Omega[:, 0, :] (k, 4); a Schmidt
    state's are (1, 0, 0, wc) exactly.  Each entry of the product with the
    table has one nonzero term, so it is exact and sums across no rows."""
    k = len(omega)
    kb = (omega.reshape(k, 16) @ table.reshape(16, -1)).reshape((k,) + table.shape[1:])
    return (np.ascontiguousarray(kb.transpose(0, 2, 1)), kb,
            4.0 * omega[:, :, 0], 4.0 * omega[:, 0, :])


def _field(M, x, K, u):
    """(n, m, 4) scores of one party's effects given the partner's x (M is
    halved): the value is x_self . field plus the partner's marginal term,
    u the party's marginal vector.  One stacked product per row; none sums
    across rows."""
    G = np.matmul(x.reshape(len(x), 1, -1), K).reshape(M.shape + (4,))
    G += M[..., None] * u[:, None, :]
    return G


def _marginal(M, x, u):
    """A party's marginal term, M halved: an effect occurs with x . u / 2."""
    return np.einsum("nm,nm->n", M, np.matmul(x, u[:, :, None])[..., 0])


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


def _sweep(s, C, table, allow_degenerate):
    """One plain see-saw sweep, the map F that a batch iterates, on the
    rows' state s: Alice's block maximum against her field s["fa"], Bob's
    against her new effects and, with a free state (s holds psi), the
    state's.  s holds each row's halved MA and MB, its effects xa and xb,
    fa and value, and the field kernels ka, kb and marginal vectors ua, ub
    (`_kernels`): per row with a free state, shared at fixed theta.
    Returns the new state, with Alice's field for the next sweep and the
    new values; s itself is left as it was."""
    MA, MB = s["MA"], s["MB"]
    xa, _ = _best_effects(s["fa"], allow_degenerate)
    xb, b_best = _best_effects(_field(MB, xa, s["kb"], s["ub"]), allow_degenerate)
    new = {**s, "xa": xa, "xb": xb}
    if "psi" in s:
        new["psi"] = _state_step(MA, MB, C, xa, xb)
        new["ka"], new["kb"], new["ua"], new["ub"] = _kernels(table, _omega_state(new["psi"]))
        new["fa"] = _field(MA, xb, new["ka"], new["ua"])
        new["values"] = _value(xa, new["fa"], MB, xb, new["ub"])
    else:
        new["fa"] = _field(MA, xb, s["ka"], s["ua"])
        new["values"] = _marginal(MA, xa, s["ua"]) + b_best.sum(axis=1)
    return new


def _row_norm(d):
    """Each row's Euclidean norm over all its (n, m, 4) effect coordinates,
    squared and summed coordinate by coordinate as in _best_effects."""
    sq = d * d
    return np.sqrt((((sq[..., 0] + sq[..., 1]) + sq[..., 2]) + sq[..., 3]).sum(axis=1))


def _squarem_point(x0, x1, x2):
    """SQUAREM trial point of rank-1 effects x0, x1 = F(x0), x2 = F(x1):
    x0 - 2 alpha r + alpha^2 v with r = x1 - x0, v = x2 - 2 x1 + x0 and
    alpha = -|r| / |v| per row, clamped to [-1e3, -1] (-1 where v = 0,
    which gives x2), with its Bloch vectors renormalized.  A row with a
    vanishing Bloch vector gets x2 instead.  No division can warn."""
    r = x1 - x0
    v = (x2 - x1) - r
    rn, vn = _row_norm(r), _row_norm(v)
    # a nonzero vn is at least the root of the least subnormal, so rn / vn
    # stays finite
    alpha = -np.minimum(np.maximum(rn / np.where(vn > 0.0, vn, np.inf), 1.0), _ALPHA_MAX)
    alpha = alpha[:, None, None]
    trial = x0 - alpha * (2.0 * r - alpha * v)
    sq = trial * trial
    norm = np.sqrt((sq[..., 1] + sq[..., 2]) + sq[..., 3])
    unit = norm > 1e-300
    trial /= np.where(unit, norm, np.inf)[..., None]
    trial[..., 0] = _PROJ
    if unit.all():  # the common case, where no row falls back
        return trial
    return np.where(unit.all(axis=1)[:, None, None], trial, x2)


def _seesaw_batch(MA, MB, C, *, theta=None, w=1.0, allow_degenerate=False,
                  rng=None, init=None, max_sweeps=None, record=False, target=None, const=0.0):
    """Run one batched see-saw; returns each row's final state (`values`,
    `theta` and the effect coordinates `xa`, `xb`), its map evaluations
    (`row_sweeps`), whether it stopped on _TOL (`converged`) or by the race
    (`raced`) and how many of its cycles kept their trial point
    (`accepted`).

    theta=None optimizes the state from Schmidt angles drawn from `rng`
    (before the Bloch vectors); a float fixes it.  A free row carries its
    state psi, starting at cos(theta)|00> + sin(theta)|11>, in the frame of
    its effects; the returned rows are put in Schmidt form once, at the
    end.  MA (n, m_a) and MB (n, m_b) may differ per row; C (m_a, m_b) is
    shared.  `init` replaces the random start of rows init["rows"] by
    init["xa"], init["xb"] and, at free theta, init["theta"] (a Schmidt
    angle, with xa and xb in its frame).

    The batch runs in cycles.  With degenerate effects allowed a cycle is
    one plain sweep F (`_sweep`).  With rank-1 effects it is a guarded
    SQUAREM cycle on Bob's effects x: x1 = F(x0), x2 = F(x1), then F of the
    trial point `_squarem_point(x0, x1, x2)`, kept only if its value is at
    least that of x2 (else the row keeps x2), so the value never falls.
    The trial sweep takes a free row's state psi, and its kernels, from
    x2.  The cap, _MAX_SWEEPS unless `max_sweeps` is given, and
    `row_sweeps` count map evaluations, three per rank-1 cycle.

    A row's total is its value plus `const` (scalar or per row).  A row
    freezes after the first cycle that moves its value by less than _TOL.
    A target (scalar or per row) for the total ends the run after the first
    evaluation in which some row's total exceeds it.  At the end of a cycle
    a row also leaves once total + _REACH * max(gain, 0) * (cycles left)
    stays below a bar: its target if one is given, else the best total of
    any row so far.  The gain is the cycle's, and (cap - evaluations) /
    (evaluations per cycle) cycles are left.  Such a raced row keeps its
    value, which equals its solo run's value at that evaluation count; it
    is neither converged nor capped.  Up to where it leaves, a row's
    trajectory does not depend on the other rows.
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
    s = {"live": np.arange(n), "MA": MA, "MB": MB, "xa": xa, "xb": xb,
         "const": np.broadcast_to(np.asarray(const, dtype=float), (n,)),
         "target": np.broadcast_to(np.inf if target is None else target, (n,))}
    if free:  # a row's state is psi in the frame of its effects
        s["psi"] = np.zeros((n, 4), dtype=complex)
        s["psi"][:, 0], s["psi"][:, 3] = np.cos(theta), np.sin(theta)
        omega, shared = _omega_state(s["psi"]), ()
    else:  # one Schmidt state, shared by all rows
        omega, shared = _omega(theta[:1], w), ("ka", "kb", "ua", "ub")
    s["ka"], s["kb"], s["ua"], s["ub"] = _kernels(table, omega)
    s["fa"] = _field(MA, xb, s["ka"], s["ua"])  # Alice's field, ready for the next sweep
    s["values"] = _value(xa, s["fa"], MB, xb, s["ub"])
    saved = ("values", "xa", "xb") + (("psi",) if free else ())
    out = {**{k: s[k] for k in saved}, "values": s["values"].copy(), "theta": theta,
           "row_sweeps": np.zeros(n, dtype=np.int64), "converged": np.zeros(n, dtype=bool),
           "raced": np.zeros(n, dtype=bool), "accepted": np.zeros(n, dtype=np.int64)}
    history = [out["values"].copy()] if record else None
    best = -np.inf  # the best total so far: the bar when there is no target
    cycle = 1 if allow_degenerate else 3  # map evaluations per cycle
    evals = 0
    for evals in range(1, max_sweeps + 1):
        phase = (evals - 1) % cycle
        if phase == 0:
            v0, x0 = s["values"], s["xb"]
        elif phase == 1:
            x1 = s["xb"]
        if phase < 2:
            s = _sweep(s, C, table, allow_degenerate)
        else:  # the trial sweep from the extrapolated x, guarded against x2
            xt = _squarem_point(x0, x1, s["xb"])
            t = _sweep({**s, "xb": xt, "fa": _field(s["MA"], xt, s["ka"], s["ua"])},
                       C, table, allow_degenerate)
            kept = t["values"] >= s["values"]
            back = np.flatnonzero(~kept)  # rows that keep x2
            for k, v in s.items():
                if t[k] is not v:  # not passed through (MA, MB, shared kernels)
                    t[k][back] = v[back]
            out["accepted"][s["live"]] += kept
            s = t
        values = s["values"]
        totals = values + s["const"]
        stop = evals == max_sweeps or bool((totals > s["target"]).any())
        end = phase == cycle - 1
        if stop or end:
            gain = values - v0  # over the cycle so far
            done = np.abs(gain) < _TOL if end else np.zeros(len(values), dtype=bool)
            if stop:
                leave, raced = np.ones_like(done), np.zeros_like(done)
            else:
                best = max(best, float(totals.max()))
                reach = _REACH * np.maximum(gain, 0.0) * ((max_sweeps - evals) / cycle)
                raced = ~done & (totals + reach < (best if target is None else s["target"]))
                leave = done | raced
            if leave.any():
                rows = s["live"][leave]
                for key in saved:
                    out[key][rows] = s[key][leave]
                out["row_sweeps"][rows] = evals
                out["converged"][rows] = done[leave]
                out["raced"][rows] = raced[leave]
                keep = ~leave
                s = {k: v if k in shared else v[keep] for k, v in s.items()}
        if record:
            out["values"][s["live"]] = s["values"]
            history.append(out["values"].copy())
        if not s["live"].size:
            break
    if free:
        out["theta"], out["xa"], out["xb"] = _schmidt_form(out.pop("psi"), out["xa"], out["xb"])
    return {**out, "history": history, "sweeps": evals}


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
    value plus the constant makes it a decision call.  Rows race on that
    total, so groups of different constants race on what they maximize.  Returns (best value,
    its group, its model, each group's best row state, the batch state)."""
    if restarts < 1:
        raise StructuralError("restarts must be >= 1")
    g, r = len(const), restarts
    row_const = np.repeat(const, r)
    init = None if warm is None else {"rows": np.arange(g) * r, **warm}
    state = _seesaw_batch(np.repeat(MA, r, axis=0), np.repeat(MB, r, axis=0), C, init=init,
                          target=target, const=row_const, **engine_options)
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
                    theta: float | None = None, allow_degenerate: bool = False) -> QuantumResult:
    """Best raw value of I over `restarts` seeded see-saw runs of at most
    _MAX_SWEEPS map evaluations.

    theta=None optimizes the Schmidt angle; a float fixes it.  The returned
    value is the maximum of I itself, not I minus the bound.
    """
    if theta is not None and not 0.0 <= theta <= math.pi / 4 + 1e-12:
        raise StructuralError(f"theta {theta} outside [0, pi/4]")
    MA, MB, C = _coefficient_arrays(f)
    value, _, model, _, state = _best_of_groups(
        MA[None], MB[None], np.zeros(1), C, restarts=restarts, theta=theta,
        allow_degenerate=allow_degenerate, rng=np.random.default_rng(seed))
    return QuantumResult(
        value=value,
        violation=value - float(f.bound),
        theta_max=model.theta,
        model=model,
        restarts_used=restarts,
        sweeps=state["sweeps"],
        row_sweeps=int(state["row_sweeps"].sum()),
        converged=int(state["converged"].sum()),
        accepted=int(state["accepted"].sum()),
        raced=int(state["raced"].sum()),
        hits=int((state["values"] >= value - 1e-9).sum()),
    )
