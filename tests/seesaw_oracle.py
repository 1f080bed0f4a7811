"""Test-only oracle: the see-saw algebra written on kinds, Bloch vectors
and complex 2x2 effects, independent of the engine's effect coordinates.
The engine's block maxima, free-state updates and values are checked
against these functions."""

import numpy as np

from bellscan.quantum import _ID, _PROJ

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
