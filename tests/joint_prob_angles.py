"""Test-only helpers: the two-qubit joint probability in Bloch angles."""

import math

import numpy as np

# ---------------------------------------------------------------------------
# Closed-form derivatives of the joint probability, used by the test suite to
# cross-check the parametrization against finite differences.
# ---------------------------------------------------------------------------

def _bloch_from_angles(polar: float, azim: float) -> np.ndarray:
    return np.array([
        math.sin(polar) * math.cos(azim),
        math.sin(polar) * math.sin(azim),
        math.cos(polar),
    ])


def _joint_prob_angles(theta, apolar, aazim, bpolar, bazim) -> float:
    a = _bloch_from_angles(apolar, aazim)
    b = _bloch_from_angles(bpolar, bazim)
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return (1 + c * (a[2] + b[2]) + a[2] * b[2] + s * (a[0] * b[0] - a[1] * b[1])) / 4


def _joint_prob_angles_grad(theta, apolar, aazim, bpolar, bazim):
    """(d/dtheta, d/dapolar, d/daazim, d/dbpolar, d/dbazim) of the joint probability."""
    a = _bloch_from_angles(apolar, aazim)
    b = _bloch_from_angles(bpolar, bazim)
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    d_theta = (-2 * s * (a[2] + b[2]) + 2 * c * (a[0] * b[0] - a[1] * b[1])) / 4
    grad_a = np.array([s * b[0], -s * b[1], c + b[2]]) / 4
    grad_b = np.array([s * a[0], -s * a[1], c + a[2]]) / 4
    da_dpolar = np.array([math.cos(apolar) * math.cos(aazim),
                          math.cos(apolar) * math.sin(aazim),
                          -math.sin(apolar)])
    da_dazim = np.array([-math.sin(apolar) * math.sin(aazim),
                         math.sin(apolar) * math.cos(aazim), 0.0])
    db_dpolar = np.array([math.cos(bpolar) * math.cos(bazim),
                          math.cos(bpolar) * math.sin(bazim),
                          -math.sin(bpolar)])
    db_dazim = np.array([-math.sin(bpolar) * math.sin(bazim),
                         math.sin(bpolar) * math.cos(bazim), 0.0])
    return (d_theta,
            float(grad_a @ da_dpolar), float(grad_a @ da_dazim),
            float(grad_b @ db_dpolar), float(grad_b @ db_dazim))
