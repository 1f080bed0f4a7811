import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bellscan.catalog import catalog_get
from bellscan.core import Behavior, BellFunctional, StructuralError, evaluate
from bellscan.quantum import _coefficient_arrays, model_behavior, projector, QubitModel
from bellscan.robustness import (
    DetectionModel,
    _assignment_bits,
    _detected_max,
    detected_behavior,
    eta_threshold_asymmetric,
    eta_threshold_symmetric,
    noise_floor,
    noise_threshold,
)

ETA_CHSH = 2 / (math.sqrt(2) + 1)


def bisected_eta(f, *, seed=1, restarts=8, eta_tol=1e-5):
    """Oracle: the symmetric threshold at pi/4 bisected over the batched
    detected maximum of every no-click assignment (rank-1 effects)."""
    ma, mb = f.scenario.m_a, f.scenario.m_b
    MA, MB, C = _coefficient_arrays(f)
    bits = _assignment_bits(1 << (ma + mb), ma + mb)
    rng = np.random.default_rng(seed)
    warm = None
    lo, hi = 0.0, 1.0
    while hi - lo > eta_tol:
        mid = 0.5 * (lo + hi)
        value, _, _, warm = _detected_max(
            MA, MB, C, math.pi / 4, mid, mid, bits[:, :ma], bits[:, ma:],
            rng=rng, restarts=restarts, warm=warm, allow_degenerate=False,
            tol=1e-10, max_sweeps=300)
        if value > float(f.bound) + 1e-9:
            hi = mid
        else:
            lo = mid
    return hi


def test_noise_floor_values():
    assert noise_floor(catalog_get("CHSH").functional) == Fraction(-1, 2)
    assert noise_floor(catalog_get("I3322").functional) == -1
    zero = BellFunctional.build([0, 0], [0, 0], [[0, 0], [0, 0]], 0)
    assert noise_floor(zero) == 0


def test_noise_threshold_closed_forms():
    r = noise_threshold(catalog_get("CHSH").functional, math.pi / 4, seed=1)
    assert r.w_threshold == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert r.theta == math.pi / 4
    r = noise_threshold(catalog_get("I3322").functional, math.pi / 4, seed=1)
    assert r.w_threshold == pytest.approx(0.8, abs=1e-9)


def test_noise_threshold_none_when_no_violation():
    # a slack bound kills the violation entirely
    chsh = catalog_get("CHSH").functional
    relaxed = BellFunctional.build(chsh.alice_marg, chsh.bob_marg, chsh.corr, 1)
    assert noise_threshold(relaxed, math.pi / 4, seed=1) is None


def test_noise_threshold_rejects_bad_theta():
    with pytest.raises(StructuralError):
        noise_threshold(catalog_get("CHSH").functional, 0.0)


def test_detected_behavior_limits():
    rng = random.Random(5)
    p = model_behavior(QubitModel(
        0.6,
        tuple(projector([rng.gauss(0, 1) for _ in range(3)]) for _ in range(2)),
        tuple(projector([rng.gauss(0, 1) for _ in range(3)]) for _ in range(2)),
    ))
    ident = DetectionModel(1.0, 1.0, (0, 1), (1, 0))
    q = detected_behavior(p, ident)
    assert q == p

    dark = DetectionModel(0.0, 0.0, (0, 1), (1, 0))
    q = detected_behavior(p, dark)
    assert q.p_a == (0.0, 1.0) and q.p_b == (1.0, 0.0)
    assert q.p_ab == ((0.0, 0.0), (1.0, 0.0))

    one_sided = DetectionModel(1.0, 0.0, (0, 0), (1, 0))
    q = detected_behavior(p, one_sided)
    for x in range(2):
        assert q.p_ab[x][0] == pytest.approx(p.p_a[x])
        assert q.p_ab[x][1] == 0.0


def test_detected_behavior_preserves_box_constraints():
    # Behavior.__post_init__ enforces the constraints; must never raise
    rng = random.Random(17)
    for _ in range(200):
        p = model_behavior(QubitModel(
            rng.uniform(0, math.pi / 4),
            tuple(projector([rng.gauss(0, 1) for _ in range(3)]) for _ in range(3)),
            tuple(projector([rng.gauss(0, 1) for _ in range(3)]) for _ in range(2)),
        ))
        for ea in (0.0, 0.3, 0.7, 1.0):
            for eb in (0.0, 0.5, 1.0):
                d = DetectionModel(
                    ea, eb,
                    tuple(rng.randrange(2) for _ in range(3)),
                    tuple(rng.randrange(2) for _ in range(2)))
                detected_behavior(p, d)


def test_eta_symmetric_chsh_closed_form():
    r = eta_threshold_symmetric(catalog_get("CHSH").functional, seed=1, eta_tol=1e-7)
    assert r is not None
    assert r.eta == pytest.approx(ETA_CHSH, abs=1e-9)
    assert r.eta_a == r.eta_b == r.eta


@pytest.mark.parametrize("name", ["CHSH", "I3322", "I4322_2"])
def test_eta_symmetric_closed_form_is_witnessed(name):
    # at pi/4 the threshold is a closed form: the returned model and no-click
    # bits must violate at the returned eta, and bisection must agree
    f = catalog_get(name).functional
    r = eta_threshold_symmetric(f, math.pi / 4, seed=1)
    assert r.model.theta == math.pi / 4
    d = DetectionModel(r.eta, r.eta, r.noclick_a, r.noclick_b)
    value = float(evaluate(f, detected_behavior(model_behavior(r.model), d)))
    assert value > float(f.bound)
    assert r.eta == pytest.approx(bisected_eta(f), abs=1e-4)
    if name == "CHSH":
        assert r.eta == pytest.approx(ETA_CHSH, abs=1e-9)


def test_eta_symmetric_none_when_no_violation():
    chsh = catalog_get("CHSH").functional
    relaxed = BellFunctional.build(chsh.alice_marg, chsh.bob_marg, chsh.corr, 1)
    assert eta_threshold_symmetric(relaxed, seed=1) is None


def test_eta_monotone_under_bound_relaxation():
    chsh = catalog_get("CHSH").functional
    base = eta_threshold_symmetric(chsh, seed=1).eta
    tightened = BellFunctional.build(chsh.alice_marg, chsh.bob_marg, chsh.corr,
                                     Fraction(1, 20))
    relaxed_eta = eta_threshold_symmetric(tightened, seed=1).eta
    assert relaxed_eta >= base - 1e-6


def test_eta_chsh_drops_toward_eberhard_regime():
    chsh = catalog_get("CHSH").functional
    at_max = eta_threshold_symmetric(chsh, 0.25 * math.pi, seed=1).eta
    weak = eta_threshold_symmetric(chsh, 0.05 * math.pi, seed=1).eta
    assert weak < at_max


def test_eta_a5_beats_chsh_only_near_maximal_entanglement():
    # with fully optimized no-click strategies the A5 threshold decreases
    # monotonically with entanglement (verified against exact behavior
    # evaluations), so the distinguishing feature is the crossover with
    # CHSH just below theta = pi/4.48
    a5 = catalog_get("A5").functional
    chsh = catalog_get("CHSH").functional
    a5_max = eta_threshold_symmetric(a5, 0.25 * math.pi, seed=1).eta
    a5_mid = eta_threshold_symmetric(a5, 0.20 * math.pi, seed=1).eta
    chsh_max = eta_threshold_symmetric(chsh, 0.25 * math.pi, seed=1).eta
    chsh_mid = eta_threshold_symmetric(chsh, 0.20 * math.pi, seed=1).eta
    assert a5_mid < a5_max
    assert a5_max < chsh_max      # A5 wins at maximal entanglement
    assert a5_mid > chsh_mid      # CHSH wins once entanglement weakens


def test_eta_asymmetric_chsh_against_grid_oracle():
    # oracle: dense random measurement sampling on a grid of efficiencies,
    # exact detected-value evaluation through the behavior path
    chsh = catalog_get("CHSH").functional
    res = eta_threshold_asymmetric(chsh, math.pi / 4, seed=1)
    assert res is not None
    assert 0.5 <= res.eta < 1.0

    rng = np.random.default_rng(99)
    angles = rng.uniform(0, 2 * math.pi, size=(4000, 4))
    violated_at = None
    for eta_b in np.arange(0.60, 1.001, 0.02):
        found = False
        for row in angles:
            meas = [projector((math.sin(t), 0.0, math.cos(t))) for t in row]
            p = model_behavior(QubitModel(math.pi / 4, tuple(meas[:2]), tuple(meas[2:])))
            for mask in range(4):
                d = DetectionModel(1.0, float(eta_b), (0, 0),
                                   ((mask >> 0) & 1, (mask >> 1) & 1))
                if float(evaluate(chsh, detected_behavior(p, d))) > 1e-12:
                    found = True
                    break
            if found:
                break
        if found:
            violated_at = float(eta_b)
            break
    assert violated_at is not None
    # the bisected threshold must sit just below the first violating grid point
    assert res.eta <= violated_at + 1e-6
    assert res.eta >= violated_at - 0.04


def test_eta_asymmetric_i3322_small_theta():
    i3322 = catalog_get("I3322").functional
    res = eta_threshold_asymmetric(i3322, 0.01 * math.pi, seed=1)
    assert res is not None
    assert 0.43 <= res.eta <= 0.46
    stronger = eta_threshold_asymmetric(i3322, 0.05 * math.pi, seed=1)
    assert res.eta < stronger.eta


def test_wmax_never_exceeds_w():
    for name in ("CHSH", "I4322_1", "I4422_9", "I4422_16"):
        f = catalog_get(name).functional
        w = noise_threshold(f, math.pi / 4, seed=2)
        from bellscan.quantum import seesaw_maximize
        opt = seesaw_maximize(f, restarts=30, seed=2)
        w_max = noise_threshold(f, max(opt.theta_max, 1e-6), seed=2)
        assert w_max.w_threshold <= w.w_threshold + 1e-6
