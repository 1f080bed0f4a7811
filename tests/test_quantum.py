import math
import random

import numpy as np
import pytest

from bellscan.catalog import catalog_get
from bellscan.core import StructuralError, evaluate
from bellscan.quantum import (
    KIND_ALWAYS_ONE,
    KIND_ALWAYS_ZERO,
    KIND_PROJECTOR,
    Measurement,
    QubitModel,
    _ID,
    _PROJ,
    _ZERO,
    _coefficient_arrays,
    _model_from_row,
    _random_bloch,
    _seesaw_batch,
    _values,
    model_behavior,
    projector,
    seesaw_maximize,
)
from joint_prob_angles import _joint_prob_angles, _joint_prob_angles_grad
from mixed_state import noisy_value

CHSH_MAX = 1 / math.sqrt(2) - 0.5


def random_model(rng, ma, mb):
    def meas():
        v = np.array([rng.gauss(0, 1) for _ in range(3)])
        return projector(v)
    return QubitModel(
        theta=rng.uniform(0, math.pi / 4),
        alice_meas=tuple(meas() for _ in range(ma)),
        bob_meas=tuple(meas() for _ in range(mb)),
    )


def test_measurement_validation():
    with pytest.raises(StructuralError):
        Measurement(KIND_PROJECTOR)  # missing Bloch vector
    with pytest.raises(StructuralError):
        Measurement(KIND_PROJECTOR, (1.0, 1.0, 0.0))  # not unit norm
    with pytest.raises(StructuralError):
        Measurement(KIND_ALWAYS_ZERO, (0.0, 0.0, 1.0))
    with pytest.raises(StructuralError):
        Measurement("sometimes")


def test_model_behavior_maximally_entangled_z():
    z = Measurement(KIND_PROJECTOR, (0.0, 0.0, 1.0))
    m = QubitModel(math.pi / 4, (z, z), (z, z))
    p = model_behavior(m)
    assert p.p_a == (0.5, 0.5)
    assert p.p_b == (0.5, 0.5)
    assert all(abs(v - 0.5) < 1e-15 for row in p.p_ab for v in row)


def test_model_behavior_product_state_factorizes():
    rng = random.Random(3)
    for _ in range(20):
        m = random_model(rng, 3, 2)
        m = QubitModel(0.0, m.alice_meas, m.bob_meas)
        p = model_behavior(m)
        for x in range(3):
            for y in range(2):
                assert p.p_ab[x][y] == pytest.approx(p.p_a[x] * p.p_b[y], abs=1e-12)


def test_model_behavior_degenerate_kinds():
    always0 = Measurement(KIND_ALWAYS_ZERO)
    always1 = Measurement(KIND_ALWAYS_ONE)
    m = QubitModel(0.3, (always0, always0), (always0, always0))
    p = model_behavior(m)
    assert p.p_a == (1.0, 1.0) and p.p_b == (1.0, 1.0)
    assert all(v == 1.0 for row in p.p_ab for v in row)
    m = QubitModel(0.3, (always1,), (always0,))
    p = model_behavior(m)
    assert p.p_a == (0.0,) and p.p_ab == ((0.0,),)


def test_model_behavior_box_invariants_random():
    # Behavior.__post_init__ enforces the box constraints; it must never raise
    rng = random.Random(2024)
    for _ in range(10_000):
        model_behavior(random_model(rng, 2, 2))


def test_chsh_free_theta_matches_closed_form():
    r = seesaw_maximize(catalog_get("CHSH").functional, restarts=20, seed=1)
    assert r.value == pytest.approx(CHSH_MAX, abs=1e-9)
    assert r.theta_max / math.pi == pytest.approx(0.25, abs=1e-6)
    assert r.violation == pytest.approx(CHSH_MAX, abs=1e-9)
    assert r.restarts_used == 20


def test_i3322_free_theta():
    r = seesaw_maximize(catalog_get("I3322").functional, restarts=20, seed=1)
    assert r.value == pytest.approx(0.25, abs=1e-6)
    assert r.theta_max / math.pi == pytest.approx(0.25, abs=1e-4)


def test_product_state_never_violates():
    for name in ("CHSH", "I3322", "AS2"):
        f = catalog_get(name).functional
        v = seesaw_maximize(f, restarts=10, seed=7, theta=0.0).value
        assert v <= float(f.bound) + 1e-9


def test_seesaw_value_reproducible():
    f = catalog_get("A5").functional
    r1 = seesaw_maximize(f, restarts=10, seed=42)
    r2 = seesaw_maximize(f, restarts=10, seed=42)
    assert r1.value == r2.value
    assert r1.theta_max == r2.theta_max


def test_seesaw_monotone_history():
    for name in ("CHSH", "I4422_2", "I4422_7"):
        f = catalog_get(name).functional
        r = seesaw_maximize(f, restarts=8, seed=5, record_history=True)
        for row in r.history:
            diffs = [b - a for a, b in zip(row, row[1:])]
            assert min(diffs) >= -1e-9


def _fixed_batch(name, theta, w, allow_degenerate, **kwargs):
    """A recorded fixed-theta batch of six restarts; returns the state and
    its (rows, sweeps + 1) history after checking both."""
    MA, MB, C = _coefficient_arrays(catalog_get(name).functional)
    n = 6
    MA, MB = np.broadcast_to(MA, (n, MA.size)), np.broadcast_to(MB, (n, MB.size))
    state = _seesaw_batch(MA, MB, C, theta=np.full(n, theta), free_theta=False,
                          w=w, allow_degenerate=allow_degenerate,
                          rng=np.random.default_rng(3), record=True, **kwargs)
    # a fixed-theta sweep scores itself from its block maxima; that score
    # must equal the value of the state it returns, stopped early or not
    wc = w * np.cos(2 * state["theta"])
    ws = w * np.sin(2 * state["theta"])
    recomputed = _values(MA, MB, C, wc, ws, w, state["akind"], state["abloch"],
                         state["bkind"], state["bbloch"])
    assert np.max(np.abs(state["values"] - recomputed)) <= 1e-12
    history = np.stack(state["history"], axis=1)
    assert history.shape[1] == state["sweeps"] + 1
    assert np.min(np.diff(history, axis=1)) >= -1e-9
    return state, history


@pytest.mark.parametrize("w", [1.0, 0.7])
@pytest.mark.parametrize("allow_degenerate", [False, True])
def test_fixed_theta_sweep_values_match_state(w, allow_degenerate):
    for name, theta, sweeps in (("I3322", math.pi / 4, 300), ("I4422_4", 0.6, 7),
                                ("I4322_2", 0.3, 300)):
        _fixed_batch(name, theta, w, allow_degenerate, max_sweeps=sweeps)


DECISION_CASES = (("I4322_2", 0.3, 1.0, False), ("I4422_4", 0.6, 0.7, True),
                  ("I3322", math.pi / 4, 1.0, False))


@pytest.mark.parametrize("name,theta,w,allow_degenerate", DECISION_CASES)
def test_target_stops_at_first_sweep_above_it(name, theta, w, allow_degenerate):
    # a decision run is the full run cut after the first sweep in which a
    # row beats the target, scalar or per row
    _, history = _fixed_batch(name, theta, w, allow_degenerate)
    best = history.max(axis=0)
    k = 2
    row = int(history[:, k].argmax())
    assert best[k - 1] < best[k] and history[row, k - 1] < history[row, k]
    per_row = np.full(len(history), np.inf)
    per_row[row] = 0.5 * (history[row, k - 1] + history[row, k])
    for target in (0.5 * (best[k - 1] + best[k]), per_row):
        above = (history[:, 1:] > np.reshape(target, (-1, 1))).any(axis=0)
        stop = 1 + int(np.argmax(above))
        assert stop <= k
        state, _ = _fixed_batch(name, theta, w, allow_degenerate, target=target)
        assert state["sweeps"] == stop
        assert np.any(state["values"] > target)
        assert np.array_equal(state["values"], history[:, stop])


@pytest.mark.parametrize("name,theta,w,allow_degenerate", DECISION_CASES)
def test_unreachable_target_changes_nothing(name, theta, w, allow_degenerate):
    full, history = _fixed_batch(name, theta, w, allow_degenerate)
    ceiling = sum(np.abs(a).sum()
                  for a in _coefficient_arrays(catalog_get(name).functional))
    state, cut = _fixed_batch(name, theta, w, allow_degenerate, target=ceiling)
    assert state["sweeps"] == full["sweeps"]
    for key in ("values", "theta", "akind", "abloch", "bkind", "bbloch"):
        assert np.array_equal(state[key], full[key]), key
    assert np.array_equal(cut, history)


def test_result_reports_sweeps():
    f = catalog_get("I4322_2").functional
    assert seesaw_maximize(f, restarts=4, seed=2, max_sweeps=7).sweeps == 7
    assert seesaw_maximize(f, restarts=4, seed=2, theta=0.3, max_sweeps=7).sweeps == 7
    # CHSH at pi/4 converges long before the cap
    done = seesaw_maximize(catalog_get("CHSH").functional, restarts=4, seed=2,
                           theta=math.pi / 4)
    assert 1 <= done.sweeps < 500


def test_result_reports_row_work():
    f = catalog_get("I4322_2").functional
    for theta in (None, 0.3):
        cut = seesaw_maximize(f, restarts=4, seed=2, theta=theta, max_sweeps=1)
        assert (cut.sweeps, cut.row_sweeps, cut.converged) == (1, 4, 0)
    # CHSH at pi/4 converges on every restart, each in its own number of sweeps
    done = seesaw_maximize(catalog_get("CHSH").functional, restarts=4, seed=2,
                           theta=math.pi / 4)
    assert done.converged == 4
    assert done.sweeps <= done.row_sweeps <= 4 * done.sweeps


def _random_rows(rng, n, ma, mb, degenerate):
    """An init covering every row: unit Bloch vectors, and with `degenerate`
    each setting's kind drawn from projector, identity and zero (r = 0)."""
    state = {"rows": np.arange(n)}
    for side, m in (("a", ma), ("b", mb)):
        kind = rng.choice([_PROJ, _ID, _ZERO] if degenerate else [_PROJ], size=(n, m))
        state[side + "kind"] = kind.astype(np.int8)
        state[side + "bloch"] = _random_bloch(rng, (n, m)) * (kind == _PROJ)[..., None]
    return state


@pytest.mark.parametrize("free", [False, True])
@pytest.mark.parametrize("allow_degenerate", [False, True])
def test_rows_run_independently(free, allow_degenerate):
    # a row freezes on its own |delta| < tol, so a batch is its rows run
    # alone.  BLAS may round a product differently with the batch size, so
    # rows agree only to rounding, which an ill-conditioned step (an exact
    # projector/identity tie at w = 1, equal Schmidt coefficients) can
    # amplify; on I3322 it stays at rounding size
    f = catalog_get("I3322").functional
    MA, MB, C = _coefficient_arrays(f)
    n = 6
    rng = np.random.default_rng(11)
    init = _random_rows(rng, n, MA.size, MB.size, allow_degenerate)
    theta = rng.uniform(0.0, math.pi / 4, n) if free else np.full(n, 0.3)
    opts = dict(free_theta=free, allow_degenerate=allow_degenerate)

    def run(rows):
        k = len(rows)
        sub = {key: v[rows] for key, v in init.items() if key != "rows"}
        return _seesaw_batch(np.tile(MA, (k, 1)), np.tile(MB, (k, 1)), C,
                             theta=theta[rows], init={"rows": np.arange(k), **sub},
                             rng=np.random.default_rng(0), **opts)

    batch = run(np.arange(n))
    assert len(set(batch["row_sweeps"])) > 1  # the rows stop at different sweeps
    for i in range(n):
        alone = run(np.array([i]))
        assert alone["row_sweeps"][0] == batch["row_sweeps"][i]
        assert alone["converged"][0] == batch["converged"][i]
        for key in ("values", "theta", "abloch", "bbloch"):
            assert np.max(np.abs(alone[key][0] - batch[key][i])) <= 1e-12, key
        for key in ("akind", "bkind"):
            assert np.array_equal(alone[key][0], batch[key][i]), key


@pytest.mark.parametrize("allow_degenerate", [False, True])
def test_zero_block_gives_unit_projectors(allow_degenerate):
    # an all-zero block ties the three effects at 0; the projector wins the
    # tie and, with g = 0, takes r = +z, not the r = 0 a degenerate effect holds
    n, m = 3, 2
    init = _random_rows(np.random.default_rng(1), n, m, m, degenerate=True)
    state = _seesaw_batch(np.zeros((n, m)), np.zeros((n, m)), np.zeros((m, m)),
                          theta=np.full(n, 0.4), free_theta=False,
                          allow_degenerate=allow_degenerate, init=init,
                          rng=np.random.default_rng(0), max_sweeps=1)
    for side in "ab":
        assert np.all(state[side + "kind"] == _PROJ)
        assert np.array_equal(state[side + "bloch"], np.tile([0.0, 0.0, 1.0], (n, m, 1)))


@pytest.mark.parametrize("w", [1.0, 0.7])
@pytest.mark.parametrize("name", ["I4322_2", "I4422_4"])
def test_values_match_model_oracle(name, w):
    # _values reads kinds as traces; the oracle is the closed-form behavior
    # of the Measurement model, mixed with the maximally mixed state's
    f = catalog_get(name).functional
    MA, MB, C = _coefficient_arrays(f)
    n = 40
    rng = np.random.default_rng(5)
    state = _random_rows(rng, n, MA.size, MB.size, degenerate=True)
    state["theta"] = rng.choice([0.0, 0.2, math.pi / 8, 0.6, math.pi / 4], size=n)
    assert {_PROJ, _ID, _ZERO} <= set(np.unique(state["akind"]))
    _check_values(f, state, w)


def test_free_degenerate_batch_values_match_model_oracle():
    f = catalog_get("I4422_4").functional
    MA, MB, C = _coefficient_arrays(f)
    n = 8
    rng = np.random.default_rng(9)
    state = _seesaw_batch(np.tile(MA, (n, 1)), np.tile(MB, (n, 1)), C,
                          theta=rng.uniform(0.0, math.pi / 4, n), free_theta=True,
                          allow_degenerate=True, rng=rng)
    assert np.any(state["akind"] != _PROJ) or np.any(state["bkind"] != _PROJ)
    assert np.max(np.abs(_check_values(f, state, 1.0) - state["values"])) <= 1e-12


def _check_values(f, state, w):
    """Checks _values of every row against the model oracle; returns them."""
    MA, MB, C = _coefficient_arrays(f)
    n = len(state["theta"])
    got = _values(np.tile(MA, (n, 1)), np.tile(MB, (n, 1)), C,
                  w * np.cos(2 * state["theta"]), w * np.sin(2 * state["theta"]), w,
                  state["akind"], state["abloch"], state["bkind"], state["bbloch"])
    for row in range(n):
        oracle = float(noisy_value(f, _model_from_row(state, row), w))
        assert got[row] == pytest.approx(oracle, abs=1e-12)
    return got


def test_seesaw_reaches_local_bound():
    # deterministic strategies are reachable at theta = 0, so the free
    # optimum is never below the local bound
    for name in ("CHSH", "I3322", "I4322_2", "I4422_7", "I4422_13"):
        f = catalog_get(name).functional
        r = seesaw_maximize(f, restarts=30, seed=3)
        assert r.value >= float(f.bound) - 1e-9


def test_seesaw_model_value_consistent():
    # the reported optimum must equal the closed-form value of the model
    for name in ("I4422_2", "AS2"):
        f = catalog_get(name).functional
        r = seesaw_maximize(f, restarts=12, seed=9)
        assert float(evaluate(f, model_behavior(r.model))) == pytest.approx(r.value, abs=1e-9)


def test_i4422_4_needs_degenerate_measurements():
    f = catalog_get("I4422_4").functional
    rank1 = seesaw_maximize(f, restarts=30, seed=3, theta=math.pi / 4).value
    assert rank1 <= 1e-6
    deg = seesaw_maximize(f, restarts=30, seed=3, theta=math.pi / 4,
                          allow_degenerate=True).value
    assert deg > 0.2


def test_i4422_4_forgetting_reduction_value():
    # deterministically outputting "1" on Alice's 2nd/3rd and Bob's 1st/4th
    # settings removes their weighted probabilities and leaves exactly the
    # CHSH core on the remaining settings, worth 1/sqrt(2) - 1/2 at pi/4
    f = catalog_get("I4422_4").functional
    chsh = catalog_get("CHSH").functional
    opt = seesaw_maximize(chsh, restarts=20, seed=1, theta=math.pi / 4)
    a_core = opt.model.alice_meas
    b_core = opt.model.bob_meas
    off = Measurement(KIND_ALWAYS_ONE)
    model = QubitModel(
        math.pi / 4,
        (a_core[0], off, off, a_core[1]),
        (off, b_core[0], b_core[1], off),
    )
    value = float(evaluate(f, model_behavior(model)))
    assert value == pytest.approx(CHSH_MAX, abs=1e-9)


def test_i4422_4_double_ch_embedding():
    # zero effects on Alice's last two settings plus antipodal projectors for
    # Bob embed two CH copies, so the degenerate-class optimum at pi/4 is
    # twice the CHSH maximum; the see-saw must find it
    f = catalog_get("I4422_4").functional
    deg = seesaw_maximize(f, restarts=30, seed=3, theta=math.pi / 4,
                          allow_degenerate=True).value
    assert deg == pytest.approx(2 * CHSH_MAX, abs=1e-8)


def test_joint_prob_gradient_matches_finite_differences():
    rng = random.Random(77)
    h = 1e-5
    worst = 0.0
    for _ in range(40):
        args = [rng.uniform(0.05, math.pi / 4 - 0.05)] + \
               [rng.uniform(0.1, math.pi - 0.1) for _ in range(2)] + \
               [rng.uniform(0.1, math.pi - 0.1) for _ in range(2)]
        grads = _joint_prob_angles_grad(*args)
        for i in range(5):
            plus = list(args)
            minus = list(args)
            plus[i] += h
            minus[i] -= h
            fd = (_joint_prob_angles(*plus) - _joint_prob_angles(*minus)) / (2 * h)
            worst = max(worst, abs(fd - grads[i]))
    assert worst <= 1e-6


def test_optimum_invariant_under_opposite_z_rotations():
    # at theta = pi/4 the correlations only see the combination
    # a_x b_x - a_y b_y, which is invariant when the two sides rotate about
    # z by opposite angles
    f = catalog_get("AS1").functional
    r = seesaw_maximize(f, restarts=20, seed=13, theta=math.pi / 4)

    def rotz(v, phi):
        x, y, z = v
        return (x * math.cos(phi) - y * math.sin(phi),
                x * math.sin(phi) + y * math.cos(phi), z)

    for phi in (0.3, 1.1, 2.7):
        am = tuple(projector(rotz(m.bloch, phi)) for m in r.model.alice_meas)
        bm = tuple(projector(rotz(m.bloch, -phi)) for m in r.model.bob_meas)
        rotated = QubitModel(r.model.theta, am, bm)
        value = float(evaluate(f, model_behavior(rotated)))
        assert value == pytest.approx(r.value, abs=1e-6)
