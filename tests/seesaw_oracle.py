"""Test-only oracle: the see-saw algebra written on kinds, Bloch vectors
and complex 2x2 effects, independent of the engine's effect coordinates.
The engine's block maxima, free-state updates and values are checked
against these functions.  It also holds the free-theta sweep in Schmidt
form, which re-canonicalizes every row's state on every sweep, and a
loop that iterates the engine's plain sweep alone; the engine keeps
the state in the frame of its effects and is checked against it."""

import numpy as np

from bellscan.quantum import (_ID, _MAX_SWEEPS, _PROJ, _TOL, _best_effects, _field, _kernels,
                              _kron_table, _omega, _omega_state, _schmidt_form, _state_step,
                              _sweep, _value)

_SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


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
    kinds and Bloch vectors and, per setting, the block maximum attained."""
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
    new_bloch = g / np.where(safe, norm, np.inf)[..., None]
    new_bloch[..., 2] += ~safe
    v_proj = base + norm
    if allow_degenerate:
        v_id = 2.0 * base
        best = np.maximum(np.maximum(v_proj, v_id), 0.0)
        proj = v_proj >= best
        kind = np.where(proj, _PROJ, _ID * (v_id >= 0.0)).astype(np.int8)
        return kind, new_bloch * proj[..., None], best
    return np.full(base.shape, _PROJ, dtype=np.int8), new_bloch, v_proj


def _effects(kind, bloch) -> np.ndarray:
    """(N, m, 2, 2) complex "0"-outcome effects."""
    return 0.5 * (kind[..., None, None] * _EYE2 + np.einsum("nmk,kij->nmij", bloch, _SIGMA))


def _bell_operator(MA, MB, C, A, B):
    """(N, 4, 4) Bell operator of the effects A and B."""
    G = np.einsum("xy,nxij,nykl->nikjl", C, A, B)
    G += np.einsum("nx,nxij,kl->nikjl", MA, A, _EYE2)
    G += np.einsum("ny,ij,nykl->nikjl", MB, _EYE2, B)
    return G.reshape(len(G), 4, 4)


def _update_state(MA, MB, C, akind, abloch, bkind, bbloch):
    """Top eigenvector of the Bell operator, re-canonicalized to Schmidt form."""
    A = _effects(akind, abloch)
    B = _effects(bkind, bbloch)
    n = MA.shape[0]
    _, vecs = np.linalg.eigh(_bell_operator(MA, MB, C, A, B))
    psi = vecs[:, :, -1].reshape(n, 2, 2)
    u, s, vh = np.linalg.svd(psi)
    theta = np.arctan2(s[:, 1], s[:, 0])
    ub = np.transpose(vh, (0, 2, 1))
    new_a = np.einsum("nji,nxjk,nkl->nxil", u.conj(), A, u)
    new_b = np.einsum("nji,nyjk,nkl->nyil", ub.conj(), B, ub)

    def extract(eff):
        # a degenerate effect's traceless part is rounding noise: keep r = 0
        vec = np.real(np.einsum("nmij,kji->nmk", eff, _SIGMA))
        norm = np.linalg.norm(vec, axis=-1, keepdims=True)
        ok = norm > 1e-12
        return np.where(ok, vec / np.where(ok, norm, 1.0), 0.0)

    return theta, extract(new_a), extract(new_b)


def _schmidt_kernels(C, theta):
    """Per row: Alice's field kernel, Bob's kron(C, Omega) built by
    broadcasting, and the marginal vector u = (1, 0, 0, cos 2theta) (n, 4)
    that both parties share, for the Schmidt state at each angle."""
    omega = _omega(theta, 1.0)
    (ma, mb), n = C.shape, len(theta)
    kb = (C[:, None, :, None] * omega[:, None, :, None, :]).reshape(n, 4 * ma, 4 * mb)
    u = np.zeros((n, 4))
    u[:, 0], u[:, 3] = 1.0, np.cos(2 * theta)
    return np.ascontiguousarray(kb.transpose(0, 2, 1)), kb, u


def _schmidt_step(MA, MB, C, xa, xb):
    """Free-state block maximum in Schmidt form (MA, MB halved): the angles
    and the effects rotated into the new state's Schmidt frame."""
    return _schmidt_form(_state_step(MA, MB, C, xa, xb), xa, xb)


def _schmidt_sweep(s, C, allow_degenerate):
    """One free sweep of the rows' state s with the state put back in
    Schmidt form, and the kernels rebuilt from its angle."""
    MA, MB = s["MA"], s["MB"]
    xa, _ = _best_effects(s["fa"], allow_degenerate)
    xb, _ = _best_effects(_field(MB, xa, s["kb"], s["u"]), allow_degenerate)
    theta, xa, xb = _schmidt_step(MA, MB, C, xa, xb)
    ka, kb, u = _schmidt_kernels(C, theta)
    fa = _field(MA, xb, ka, u)
    return {**s, "theta": theta, "xa": xa, "xb": xb, "fa": fa, "kb": kb, "u": u,
            "values": _value(xa, fa, MB, xb, u)}


def _plain_run(sweep, s):
    """Iterates `sweep` on the rows' state s (a dict of per-row arrays with
    their `values`); a row stops on the engine's plain rule (|gain| < _TOL,
    or the _MAX_SWEEPS cap).  Returns each row's final state with its
    `row_sweeps`, and the (n, sweeps + 1) history in which a stopped row
    keeps its last value."""
    out = {k: v.copy() for k, v in s.items()}
    out["row_sweeps"] = np.zeros(len(s["values"]), dtype=np.int64)
    history = [s["values"].copy()]
    live = np.arange(len(s["values"]))
    for sweeps in range(1, _MAX_SWEEPS + 1):
        new = sweep(s)
        keep = (np.abs(new["values"] - s["values"]) >= _TOL) & (sweeps < _MAX_SWEEPS)
        for k, v in new.items():
            out[k][live] = v
        out["row_sweeps"][live] = sweeps
        history.append(out["values"].copy())
        live, s = live[keep], {k: v[keep] for k, v in new.items()}
        if not live.size:
            break
    return out, np.stack(history, axis=1)


def schmidt_frame_batch(MA, MB, C, init, allow_degenerate):
    """Free-theta see-saw of the rows init["xa"], init["xb"], init["theta"]
    with every state put back in Schmidt form after each sweep, run by
    _plain_run: returns the final state (`values`, `theta`, `row_sweeps`
    among it) and the history."""
    MA, MB = MA / 2.0, MB / 2.0
    ka, kb, u = _schmidt_kernels(C, init["theta"])
    fa = _field(MA, init["xb"], ka, u)
    s = {"MA": MA, "MB": MB, "theta": init["theta"], "xa": init["xa"], "xb": init["xb"],
         "fa": fa, "kb": kb, "u": u, "values": _value(init["xa"], fa, MB, init["xb"], u)}
    return _plain_run(lambda s: _schmidt_sweep(s, C, allow_degenerate), s)


def lab_frame_batch(MA, MB, C, init, allow_degenerate):
    """The same rows iterated by the engine's plain sweep F (quantum._sweep)
    alone, with no SQUAREM cycle: each row keeps its state psi in the frame
    of its effects, and only the output `theta` is put in Schmidt form."""
    psi = np.zeros((len(init["theta"]), 4), dtype=complex)
    psi[:, 0], psi[:, 3] = np.cos(init["theta"]), np.sin(init["theta"])
    table = _kron_table(C)
    s = {"MA": MA / 2.0, "MB": MB / 2.0, "xa": init["xa"], "xb": init["xb"], "psi": psi}
    s["ka"], s["kb"], s["ua"], s["ub"] = _kernels(table, _omega_state(psi))
    s["fa"] = _field(s["MA"], s["xb"], s["ka"], s["ua"])
    s["values"] = _value(s["xa"], s["fa"], s["MB"], s["xb"], s["ub"])
    out, history = _plain_run(lambda s: _sweep(s, C, table, allow_degenerate), s)
    out["theta"], _, _ = _schmidt_form(out["psi"], out["xa"], out["xb"])
    return out, history
