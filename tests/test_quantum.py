import math
import random

import numpy as np
import pytest

from bellscan import quantum
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
    _REACH,
    _ZERO,
    _best_effects,
    _coefficient_arrays,
    _field,
    _kernels,
    _kron_table,
    _model_from_row,
    _omega,
    _omega_state,
    _random_bloch,
    _schmidt_form,
    _seesaw_batch,
    _state_step,
    _value,
    model_behavior,
    projector,
    seesaw_maximize,
)
from joint_prob_angles import _joint_prob_angles, _joint_prob_angles_grad
from mixed_state import noisy_value
import seesaw_oracle
from seesaw_oracle import _values

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
    state = _seesaw_batch(MA, MB, C, theta=theta,
                          w=w, allow_degenerate=allow_degenerate,
                          rng=np.random.default_rng(3), record=True, **kwargs)
    # a fixed-theta sweep scores itself from its block maxima; that score
    # must equal the value of the state it returns, stopped early or not
    wc = w * np.cos(2 * state["theta"])
    ws = w * np.sin(2 * state["theta"])
    recomputed = _values(MA, MB, C, wc, ws, w, *_split(state))
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


def _decision_batch(name, theta, w, allow_degenerate, target):
    """A decision run checked against the full run of the same rows: each
    row returns its own full-run value at its own sweep count, the decision
    is the full run's, and a row that left early without the batch ending
    on a crossing met the reach rule.  Returns the decision state."""
    full, history = _fixed_batch(name, theta, w, allow_degenerate)
    state, _ = _fixed_batch(name, theta, w, allow_degenerate, target=target)
    rows, own = np.arange(len(history)), state["row_sweeps"]
    assert np.array_equal(state["values"], history[rows, own])
    assert np.all(own <= full["row_sweeps"])
    assert np.array_equal(state["converged"], full["converged"] & (own == full["row_sweeps"]))
    crossed = bool(np.any(state["values"] > target))
    assert crossed == bool(np.any(full["values"] > target))
    early = (own < full["row_sweeps"]) & ((own < state["sweeps"]) | (not crossed))
    value, gain = history[rows, own], history[rows, own] - history[rows, own - 1]
    reach = _REACH * np.maximum(gain, 0.0) * (500 - own)  # 500: the default cap
    assert np.all((value + reach < target)[early])
    return state


@pytest.mark.parametrize("name,theta,w,allow_degenerate", DECISION_CASES)
def test_target_stops_at_first_sweep_above_it(name, theta, w, allow_degenerate):
    # a target the full run crosses first at sweep k <= 2, scalar or per row
    # (+inf elsewhere), ends the batch after that sweep
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
        state = _decision_batch(name, theta, w, allow_degenerate, target)
        assert state["sweeps"] == stop
        assert np.any(state["values"] > target)


@pytest.mark.parametrize("name,theta,w,allow_degenerate", DECISION_CASES)
def test_unreachable_target_stops_rows_early(name, theta, w, allow_degenerate):
    # no row reaches the target: the answer is the full run's "no", for fewer
    # row-sweeps, both just above the full run's best and far above it
    full, _ = _fixed_batch(name, theta, w, allow_degenerate)
    ceiling = sum(np.abs(a).sum()
                  for a in _coefficient_arrays(catalog_get(name).functional))
    for target in (full["values"].max() + 1e-3, ceiling):
        state = _decision_batch(name, theta, w, allow_degenerate, target)
        assert not np.any(state["values"] > target)
        assert state["row_sweeps"].sum() < full["row_sweeps"].sum()


def test_result_reports_sweeps(monkeypatch):
    f = catalog_get("I4322_2").functional
    with monkeypatch.context() as m:
        m.setattr(quantum, "_MAX_SWEEPS", 7)
        assert seesaw_maximize(f, restarts=4, seed=2).sweeps == 7
        assert seesaw_maximize(f, restarts=4, seed=2, theta=0.3).sweeps == 7
    # CHSH at pi/4 converges long before the cap
    done = seesaw_maximize(catalog_get("CHSH").functional, restarts=4, seed=2,
                           theta=math.pi / 4)
    assert 1 <= done.sweeps < 500


def test_result_reports_row_work(monkeypatch):
    f = catalog_get("I4322_2").functional
    with monkeypatch.context() as m:
        m.setattr(quantum, "_MAX_SWEEPS", 1)
        for theta in (None, 0.3):
            cut = seesaw_maximize(f, restarts=4, seed=2, theta=theta)
            assert (cut.sweeps, cut.row_sweeps, cut.converged) == (1, 4, 0)
    # CHSH at pi/4 converges on every restart, each in its own number of sweeps
    done = seesaw_maximize(catalog_get("CHSH").functional, restarts=4, seed=2,
                           theta=math.pi / 4)
    assert done.converged == 4
    assert done.sweeps <= done.row_sweeps <= 4 * done.sweeps


def _random_rows(rng, n, ma, mb, degenerate):
    """An init covering every row in effect coordinates: unit Bloch vectors,
    and with `degenerate` each setting's kind drawn from projector, identity
    and zero (r = 0)."""
    state = {"rows": np.arange(n)}
    for side, m in (("a", ma), ("b", mb)):
        kind = rng.choice([_PROJ, _ID, _ZERO] if degenerate else [_PROJ], size=(n, m))
        bloch = _random_bloch(rng, (n, m)) * (kind == _PROJ)[..., None]
        state["x" + side] = np.concatenate([kind[..., None].astype(float), bloch], axis=-1)
    return state


def _split(state):
    """The oracle's (akind, abloch, bkind, bbloch) from effect coordinates."""
    return state["xa"][..., 0], state["xa"][..., 1:], state["xb"][..., 0], state["xb"][..., 1:]


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
    if free:
        init["theta"] = rng.uniform(0.0, math.pi / 4, n)

    def run(rows):
        k = len(rows)
        sub = {key: v[rows] for key, v in init.items() if key != "rows"}
        return _seesaw_batch(np.tile(MA, (k, 1)), np.tile(MB, (k, 1)), C,
                             theta=None if free else 0.3, init={"rows": np.arange(k), **sub},
                             rng=np.random.default_rng(0), allow_degenerate=allow_degenerate)

    batch = run(np.arange(n))
    assert len(set(batch["row_sweeps"])) > 1  # the rows stop at different sweeps
    for i in range(n):
        alone = run(np.array([i]))
        assert alone["row_sweeps"][0] == batch["row_sweeps"][i]
        assert alone["converged"][0] == batch["converged"][i]
        for key in ("values", "theta"):
            assert np.max(np.abs(alone[key][0] - batch[key][i])) <= 1e-12, key
        for key in ("xa", "xb"):  # Bloch vectors to rounding, kinds exactly
            assert np.max(np.abs(alone[key][0, :, 1:] - batch[key][i, :, 1:])) <= 1e-12, key
            assert np.array_equal(alone[key][0, :, 0], batch[key][i, :, 0]), key


@pytest.mark.parametrize("name", ["I4322_2", "I4422_4"])
@pytest.mark.parametrize("free", [False, True])
def test_rows_are_bitwise_batch_invariant(name, free):
    # every product is stacked per row, so a row's arithmetic does not
    # depend on its batch: even where exact projector/identity ties and
    # ill-conditioned Schmidt frames amplify rounding, a row run alone
    # equals its batch row bit for bit.  An init covering every row (xa, xb
    # and, at free theta, theta) is the rows' whole state, so the rng that
    # would draw their random starts changes nothing
    MA, MB, C = _coefficient_arrays(catalog_get(name).functional)
    n = 6
    rng = np.random.default_rng(11)
    init = _random_rows(rng, n, MA.size, MB.size, degenerate=True)
    if free:
        init["theta"] = rng.uniform(0.0, math.pi / 4, n)

    def run(rows, seed=0):
        sub = {key: v[rows] for key, v in init.items() if key != "rows"}
        return _seesaw_batch(np.tile(MA, (len(rows), 1)), np.tile(MB, (len(rows), 1)), C,
                             theta=None if free else 0.3,
                             init={"rows": np.arange(len(rows)), **sub},
                             allow_degenerate=True, rng=np.random.default_rng(seed), record=True)

    batch = run(np.arange(n))
    other_rng = run(np.arange(n), seed=1)
    assert set(other_rng) == set(batch)
    for key in batch:
        assert np.array_equal(other_rng[key], batch[key]), key
    for i in range(n):
        alone = run(np.array([i]))
        for key in ("values", "theta", "xa", "xb", "row_sweeps", "converged"):
            assert np.array_equal(alone[key][0], batch[key][i]), key


@pytest.mark.parametrize("allow_degenerate", [False, True])
def test_zero_block_gives_unit_projectors(allow_degenerate):
    # an all-zero block ties the three effects at 0; the projector wins the
    # tie and, with g = 0, takes r = +z, not the r = 0 a degenerate effect holds
    n, m = 3, 2
    init = _random_rows(np.random.default_rng(1), n, m, m, degenerate=True)
    state = _seesaw_batch(np.zeros((n, m)), np.zeros((n, m)), np.zeros((m, m)),
                          theta=0.4, allow_degenerate=allow_degenerate, init=init,
                          rng=np.random.default_rng(0), max_sweeps=1)
    for side in "ab":
        assert np.all(state["x" + side][..., 0] == _PROJ)
        assert np.array_equal(state["x" + side][..., 1:], np.tile([0.0, 0.0, 1.0], (n, m, 1)))


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
    assert {_PROJ, _ID, _ZERO} <= set(np.unique(state["xa"][..., 0]))
    _check_values(f, state, w)


def test_free_degenerate_batch_values_match_model_oracle():
    f = catalog_get("I4422_4").functional
    MA, MB, C = _coefficient_arrays(f)
    n = 8
    rng = np.random.default_rng(9)
    state = _seesaw_batch(np.tile(MA, (n, 1)), np.tile(MB, (n, 1)), C,
                          allow_degenerate=True, rng=rng)
    assert np.any(state["xa"][..., 0] != _PROJ) or np.any(state["xb"][..., 0] != _PROJ)
    assert np.max(np.abs(_check_values(f, state, 1.0) - state["values"])) <= 1e-12


@pytest.mark.parametrize("w", [1.0, 0.7])
@pytest.mark.parametrize("theta", [0.0, 0.2, math.pi / 8, 0.6, math.pi / 4])
@pytest.mark.parametrize("allow_degenerate", [False, True])
def test_block_maxima_match_oracle(w, theta, allow_degenerate):
    # each half-sweep in effect coordinates against the oracle's algebra on
    # kinds and Bloch vectors: new kinds exactly, new Bloch vectors,
    # per-setting block maxima and values within 1e-12.  Inputs mix
    # projector, identity and zero effects; marginals differ per row, and
    # their noise keeps the three effects from tying exactly
    f = catalog_get("I4322_2").functional
    MA, MB, C = _coefficient_arrays(f)
    n = 40
    rng = np.random.default_rng(17)
    state = _random_rows(rng, n, MA.size, MB.size, degenerate=True)
    MA = MA + rng.normal(size=(n, MA.size))
    MB = MB + rng.normal(size=(n, MB.size))
    wc, ws = np.full(n, w * math.cos(2 * theta)), np.full(n, w * math.sin(2 * theta))
    omega, wc1 = _omega(np.array([theta]), w)
    ka, kb = _kernels(_kron_table(C), omega)
    xa, xb = state["xa"], state["xb"]
    got = _value(xa, _field(MA / 2, xb, ka, wc1), MB / 2, xb, wc1)
    oracle = _values(MA, MB, C, wc, ws, w, *_split(state))
    assert np.max(np.abs(got - oracle)) <= 1e-12
    for M, CC, K, other in ((MA, C, ka, xb), (MB, C.T, kb, xa)):
        x, best = _best_effects(_field(M / 2, other, K, wc1), allow_degenerate)
        kind, bloch, oracle_best = seesaw_oracle._update_party(
            M, CC, wc, ws, w, other[..., 0], other[..., 1:], allow_degenerate)
        assert np.array_equal(x[..., 0], kind)
        assert np.max(np.abs(x[..., 1:] - bloch)) <= 1e-12
        assert np.max(np.abs(best - oracle_best)) <= 1e-12


@pytest.mark.parametrize("degenerate", [False, True])
def test_schmidt_step_matches_oracle(degenerate):
    # the free-state update, a Bell operator from the correlation tensor and
    # SO(3) rotations, against the oracle's complex 2x2 effects.  The
    # angle and the new state's value agree on every row; the Bloch vectors
    # are unique, and compared, where the top eigenvalue is simple and the
    # Schmidt coefficients differ and are nonzero
    f = catalog_get("I4322_2").functional
    MA, MB, C = _coefficient_arrays(f)
    n = 90
    rng = np.random.default_rng(23)
    state = _random_rows(rng, n, MA.size, MB.size, degenerate)
    MA = MA + rng.normal(size=(n, MA.size))
    MB = MB + rng.normal(size=(n, MB.size))
    theta, xa, xb = _schmidt_form(_state_step(MA / 2, MB / 2, C, state["xa"], state["xb"]),
                                  state["xa"], state["xb"])
    akind, abloch, bkind, bbloch = _split(state)
    kinds = akind, bkind
    o_theta, o_abloch, o_bbloch = seesaw_oracle._update_state(
        MA, MB, C, kinds[0], abloch, kinds[1], bbloch)
    assert np.max(np.abs(theta - o_theta)) <= 1e-12
    assert np.array_equal(xa[..., 0], kinds[0]) and np.array_equal(xb[..., 0], kinds[1])

    def value(t, ab, bb):
        return _values(MA, MB, C, np.cos(2 * t), np.sin(2 * t), 1.0, kinds[0], ab, kinds[1], bb)

    assert np.max(np.abs(value(theta, xa[..., 1:], xb[..., 1:])
                         - value(o_theta, o_abloch, o_bbloch))) <= 1e-12
    spectrum = np.linalg.eigvalsh(seesaw_oracle._bell_operator(
        MA, MB, C, seesaw_oracle._effects(kinds[0], abloch),
        seesaw_oracle._effects(kinds[1], bbloch)))
    unique = ((spectrum[:, -1] - spectrum[:, -2] > 1e-6)
              & (o_theta > 1e-6) & (o_theta < math.pi / 4 - 1e-6))
    assert unique.sum() >= 8  # 90 of 90 rank-1 rows, 10 of 90 with degenerate effects
    assert np.max(np.abs(xa[unique, :, 1:] - o_abloch[unique])) <= 1e-12
    assert np.max(np.abs(xb[unique, :, 1:] - o_bbloch[unique])) <= 1e-12


def test_lab_frame_matches_schmidt_frame():
    # a free row keeps its state as the Bell operator's top eigenvector in
    # the frame of its effects and is put in Schmidt form only on output;
    # the same rows swept in Schmidt form, re-canonicalized every sweep,
    # agree to rounding on every sweep both ran.  Rows start from projectors,
    # as in seesaw_maximize: a start with identity or zero effects can give
    # the Bell operator a degenerate top eigenvalue, whose eigenvector, and
    # so the trajectory, is arbitrary in either frame
    rng = np.random.default_rng(31)
    for name, degenerate in (("I4422_2", False), ("AII2", False), ("I4422_18", False),
                             ("I4422_4", True)):
        MA, MB, C = _coefficient_arrays(catalog_get(name).functional)
        n = 8
        init = _random_rows(rng, n, MA.size, MB.size, degenerate=False)
        init["theta"] = rng.uniform(0.0, math.pi / 4, n)
        MA, MB = np.tile(MA, (n, 1)), np.tile(MB, (n, 1))
        lab = _seesaw_batch(MA, MB, C, init=init, allow_degenerate=degenerate,
                            rng=np.random.default_rng(0), record=True)
        schmidt, history = seesaw_oracle.schmidt_frame_batch(MA, MB, C, init, degenerate)
        if degenerate:  # the runs reach identity or zero effects
            assert np.any(lab["xa"][..., 0] != _PROJ) or np.any(lab["xb"][..., 0] != _PROJ)
        assert np.all(np.abs(lab["row_sweeps"] - schmidt["row_sweeps"]) <= 1), name
        lab_history = np.stack(lab["history"], axis=1)
        for row in range(n):
            both = 1 + min(lab["row_sweeps"][row], schmidt["row_sweeps"][row])
            assert np.max(np.abs(lab_history[row, :both] - history[row, :both])) <= 1e-12, name
        assert np.max(np.abs(lab["theta"] - schmidt["theta"])) <= 1e-9, name
    # the Schmidt vector's Omega is the Schmidt Omega
    theta = rng.uniform(0.0, math.pi / 4, 50)
    psi = np.zeros((50, 4), dtype=complex)
    psi[:, 0], psi[:, 3] = np.cos(theta), np.sin(theta)
    assert np.max(np.abs(_omega_state(psi) - _omega(theta, 1.0)[0])) <= 1e-15
    # the table product is the broadcast kron exactly, for any Omega
    for ma, mb in ((2, 3), (4, 4)):
        C = rng.integers(-3, 4, size=(ma, mb)).astype(float)
        omega = rng.normal(size=(7, 4, 4))
        ka, kb = _kernels(_kron_table(C), omega)
        kron = (C[:, None, :, None] * omega[:, None, :, None, :]).reshape(7, 4 * ma, 4 * mb)
        assert np.array_equal(kb, kron) and np.array_equal(ka, kron.transpose(0, 2, 1))


def _check_values(f, state, w):
    """Checks _values of every row against the model oracle; returns them."""
    MA, MB, C = _coefficient_arrays(f)
    n = len(state["theta"])
    got = _values(np.tile(MA, (n, 1)), np.tile(MB, (n, 1)), C,
                  w * np.cos(2 * state["theta"]), w * np.sin(2 * state["theta"]), w,
                  *_split(state))
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
