import copy
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bellscan import table
from bellscan.catalog import PRIMARY_NAMES, catalog_get
from bellscan.core import BellFunctional, StructuralError, evaluate
from bellscan import quantum, robustness
from bellscan.polytope import _bits, _strategy_table, local_bound
from bellscan.quantum import (
    _best_of_groups,
    _coefficient_arrays,
    _seesaw_batch,
    model_behavior,
    projector,
    QubitModel,
    seesaw_maximize,
)
from bellscan.robustness import (
    _POLISH_SWEEPS,
    _VIOLATION_MARGIN,
    DetectionModel,
    NoiseResult,
    _detection_tables,
    _eta_at_maximal_entanglement,
    _quadratic_at_maximal_entanglement,
    detected_behavior,
    eta_threshold_asymmetric,
    eta_threshold_symmetric,
    noise_floor,
    noise_threshold,
)
from mixed_state import noisy_value
from noclick_oracle import bit_algebra, eta_from_bit_algebra

ETA_CHSH = 2 / (math.sqrt(2) + 1)


def chsh_eta_at_margin():
    """Exact symmetric CHSH threshold at pi/4 at the bound plus the margin.

    With both no-click outputs "1" the detected value is k eta^2 - eta,
    where k = Q(pi/4) + 1 = 1/sqrt2 + 1/2 is the optimal correlation sum, so
    the smallest root at the margin t is (1 + sqrt(1 + 4 k t)) / (2 k);
    at t = 0 it is ETA_CHSH."""
    k = 1 / math.sqrt(2) + 0.5
    return (1 + math.sqrt(1 + 4 * k * _VIOLATION_MARGIN)) / (2 * k)


def halving(violated_at, width=1e-5):
    """Oracle: the smallest p in (0, 1] with violated_at(p), bisected to
    `width` after a first decision at p = 1; None when that one says no."""
    if not violated_at(1.0):
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if violated_at(mid):
            hi = mid
        else:
            lo = mid
    return hi


def bisected_eta(f, *, seed=1, restarts=8):
    """Oracle: the symmetric threshold at pi/4 bisected over the batched
    detected maximum of every no-click assignment (rank-1 effects)."""
    ma, mb = f.scenario.m_a, f.scenario.m_b
    MA, MB, C = _coefficient_arrays(f)
    bits = _bits(np.arange(1 << (ma + mb)), ma + mb).astype(float)
    rng = np.random.default_rng(seed)
    warm = None

    def violated_at(eta):
        nonlocal warm
        value, _, _, warm, _ = _best_of_groups(
            *_detection_tables(MA, MB, C, eta, eta, bits[:, :ma], bits[:, ma:]),
            restarts=restarts, warm=warm, theta=math.pi / 4, rng=rng)
        return value > float(f.bound) + 1e-9

    return halving(violated_at)


def bisected_noise_w(f, theta, *, seed, restarts):
    """Oracle: the degenerate visibility threshold, decided at w = 1 and then
    bisected, with every see-saw run to convergence or to its cap and one rng
    for all steps."""
    MA, MB, C = _coefficient_arrays(f)
    n = restarts
    rng = np.random.default_rng(seed)

    def violated_at(w):
        state = _seesaw_batch(
            np.broadcast_to(MA, (n, MA.size)), np.broadcast_to(MB, (n, MB.size)), C,
            theta=theta, w=w, allow_degenerate=True, rng=rng)
        return state["values"].max() > float(f.bound) + 1e-9

    return halving(violated_at)


def bisected_threshold(f, kind, theta, *, seed, restarts):
    """Oracle: an off-centre threshold bisected over decision batches, each
    stopped at its first row above bound + margin or by the reach rule:
    eta_B with eta_A = 1 and rank-1 effects, warm started from step to step
    (kind "asym"), or the degenerate visibility (kind "noise")."""
    MA, MB, C = _coefficient_arrays(f)
    target = float(f.bound) + _VIOLATION_MARGIN
    rng = np.random.default_rng(seed)
    sb = _bits(np.arange(1 << len(MB)), len(MB)).astype(float)
    sa = np.zeros((len(sb), len(MA)))
    warm = None

    def violated_at(p):
        nonlocal warm
        if kind == "noise":
            value, *_ = _best_of_groups(
                MA[None], MB[None], np.zeros(1), C, restarts=restarts, target=target,
                theta=theta, w=p, allow_degenerate=True, rng=rng)
        else:
            value, _, _, warm, _ = _best_of_groups(
                *_detection_tables(MA, MB, C, 1.0, p, sa, sb), restarts=restarts,
                warm=warm, target=target, theta=theta, rng=rng)
        return value > target

    return halving(violated_at)


def witness_value(f, r):
    """f on a threshold's returned witness at the returned threshold,
    through the behavior path."""
    if isinstance(r, NoiseResult):
        return float(noisy_value(f, r.model, r.w_threshold))
    d = DetectionModel(r.eta_a, r.eta_b, r.noclick_a, r.noclick_b)
    return float(evaluate(f, detected_behavior(model_behavior(r.model), d)))


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
    # the degenerate path decides w = 1 with the root-finder's first step
    assert noise_threshold(relaxed, math.pi / 4, allow_degenerate=True,
                           restarts=3, seed=1) is None


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


@pytest.mark.parametrize("make, message", [
    (lambda: DetectionModel(1.5, 1.0, (0,), (0,)), "efficiencies must lie in [0, 1]"),
    (lambda: DetectionModel(1.0, 1.0, (2,), (0,)), "no-click assignments must be bit vectors"),
    (lambda: detected_behavior(model_behavior(QubitModel(0.5, (projector((0, 0, 1)),) * 2,
                                                         (projector((0, 0, 1)),) * 2)),
                               DetectionModel(1.0, 1.0, (0,), (0, 0))),
     "no-click assignments do not match the behavior shape"),
])
def test_detection_validation(make, message):
    with pytest.raises(StructuralError) as err:
        make()
    assert str(err.value) == message


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
    r = eta_threshold_symmetric(catalog_get("CHSH").functional, seed=1)
    assert r is not None
    assert r.eta == pytest.approx(chsh_eta_at_margin(), abs=1e-12)
    assert chsh_eta_at_margin() - ETA_CHSH == pytest.approx(_VIOLATION_MARGIN, rel=1e-6)
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
        assert r.eta == pytest.approx(chsh_eta_at_margin(), abs=1e-12)


def assert_closed_form_matches_bit_algebra(f, best, *, witnessed=True):
    """The strategy-table quadratic and its threshold against the term-by-term
    oracle; a witnessed optimum's model and bits must beat the bound."""
    det, b, d = _quadratic_at_maximal_entanglement(f, best.value)
    det_ref, b_ref, d_ref = bit_algebra(f, best.value)
    assert det.tolist() == det_ref.tolist()
    assert np.abs(b - b_ref).max() <= 1e-12
    assert np.abs(d - d_ref).max() <= 1e-12
    r = _eta_at_maximal_entanglement(f, best)
    eta = eta_from_bit_algebra(f, best.value, float(f.bound) + _VIOLATION_MARGIN)
    if eta is None:
        assert r is None
        return
    assert abs(r.eta - eta) <= 1e-15
    if witnessed:
        detection = DetectionModel(r.eta, r.eta, r.noclick_a, r.noclick_b)
        value = float(evaluate(f, detected_behavior(model_behavior(r.model), detection)))
        assert value > float(f.bound)


@pytest.mark.parametrize("name", ["CHSH", "I3322", "I4422_2", "I4322_1"])
def test_eta_b_closed_form_matches_the_root_finder(name):
    # at pi/4 every rank-1 marginal is 1/2, so eta_B is linear in eta_B for
    # each no-click s_b, with the one optimum Q(pi/4): one see-saw batch.
    # The root-finder just off pi/4 finds the same threshold, and the
    # closed form's model and bits witness a violation at it.  I4322_1 has
    # m_a != m_b, so bits read from Alice's columns fail the witness check
    f = catalog_get(name).functional
    r = eta_threshold_asymmetric(f, math.pi / 4, seed=1)
    assert r.batches == 1 and r.eta_a == 1.0 and r.noclick_a == (0,) * f.scenario.m_a
    found = eta_threshold_asymmetric(f, math.pi / 4 - 1e-9, seed=1)
    assert found.batches > 1
    assert abs(r.eta - found.eta) <= 1e-6
    d = DetectionModel(1.0, r.eta, r.noclick_a, r.noclick_b)
    assert float(evaluate(f, detected_behavior(model_behavior(r.model), d))) > float(f.bound)


def test_closed_form_matches_bit_algebra_on_the_table():
    for name in PRIMARY_NAMES:
        if name in table.DEGENERATE_ROWS:
            continue
        f = catalog_get(name).functional
        best = seesaw_maximize(f, restarts=8, seed=1, theta=math.pi / 4)
        assert best.value > float(f.bound) + _VIOLATION_MARGIN
        assert_closed_form_matches_bit_algebra(f, best)


def test_closed_form_matches_bit_algebra_on_random_functionals():
    # random tables do not violate at pi/4, so past their own see-saw optimum
    # the quadratics are also compared at values above the bound; m_a != m_b
    # tells Alice's strategy axis from Bob's
    rng = random.Random(11)
    for m_a, m_b in ((1, 1), (2, 3), (4, 3), (4, 4)):
        for k in range(10):
            f = BellFunctional.build(
                [rng.randint(-3, 3) for _ in range(m_a)],
                [rng.randint(-3, 3) for _ in range(m_b)],
                [[rng.randint(-3, 3) for _ in range(m_b)] for _ in range(m_a)], 0)
            f = replace(f, bound=local_bound(f))
            best = seesaw_maximize(f, restarts=2, seed=k, theta=math.pi / 4)
            assert_closed_form_matches_bit_algebra(f, best)
            for above in (0.125, 1.0):
                assert_closed_form_matches_bit_algebra(
                    f, replace(best, value=float(f.bound) + above), witnessed=False)


def _count_table_calls(monkeypatch):
    """Route the table's see-saw and threshold calls through recorders."""
    calls = {"seesaw": [], "eta_threshold_symmetric": 0, "noise_threshold": 0}

    def seesaw(*args, **kwargs):
        res = seesaw_maximize(*args, **kwargs)
        calls["seesaw"].append((kwargs.get("theta"), res))
        return res

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(table, "seesaw_maximize", seesaw)
    monkeypatch.setattr(table, "eta_threshold_symmetric",
                        counted("eta_threshold_symmetric", eta_threshold_symmetric))
    monkeypatch.setattr(table, "noise_threshold",
                        counted("noise_threshold", noise_threshold))
    return calls


@pytest.mark.parametrize("name", ["CHSH", "I3322", "I4322_2"])
def test_table_row_reads_w_and_eta_from_one_optimum_at_pi_over_4(name, monkeypatch):
    # a rank-1 row runs the free see-saw and one at pi/4; w and eta are
    # closed forms of the second, with no see-saw of their own
    calls = _count_table_calls(monkeypatch)
    row = table.compute_row(name, seed=3)
    assert [theta for theta, _ in calls["seesaw"]] == [None, math.pi / 4]
    assert calls["eta_threshold_symmetric"] == calls["noise_threshold"] == 0
    f = catalog_get(name).functional
    flat = calls["seesaw"][1][1]
    floor = float(noise_floor(f))
    assert row.w == (float(f.bound) - floor) / (flat.value - floor)
    r = _eta_at_maximal_entanglement(f, flat)
    assert row.eta_symmetric == r.eta
    d = DetectionModel(r.eta, r.eta, r.noclick_a, r.noclick_b)
    value = float(evaluate(f, detected_behavior(model_behavior(flat.model), d)))
    assert value > float(f.bound)


def test_table_degenerate_row_bisects(monkeypatch):
    # I4422_4 needs identity/zero effects, where no closed form holds, so
    # its thresholds come from the root-finder.  Its visibility thresholds
    # at theta_max and at pi/4 are one seeded call when theta_max is pi/4
    # up to rounding: exactly at seed 0, 3e-16 below it at seed 2
    for seed, on_pi_over_4 in ((0, True), (2, False)):
        calls = _count_table_calls(monkeypatch)
        row = table.compute_row("I4422_4", seed=seed, restarts=8)
        assert [theta for theta, _ in calls["seesaw"]] == [None]
        theta_max = calls["seesaw"][0][1].theta_max
        assert (theta_max == math.pi / 4) == on_pi_over_4
        assert abs(theta_max - math.pi / 4) <= 1e-12
        assert calls["noise_threshold"] == 1
        assert calls["eta_threshold_symmetric"] == 1
        assert row.w is not None and row.eta_symmetric is not None
        assert row.w_max == row.w


def test_eta_matches_the_table_row_on_i4422_18():
    # eta at its default 8 restarts and the table1 --seed 0 row (50
    # restarts at the row's own seed) reach the same pi/4 optimum, so the
    # two closed-form thresholds agree far below the printed 4 decimals
    f = catalog_get("I4422_18").functional
    row = table.compute_table(["I4422_18"], seed=0)[0]
    assert abs(eta_threshold_symmetric(f, seed=0).eta - row.eta_symmetric) <= 1e-9


def test_table_starts_at_most_one_worker_per_row(monkeypatch):
    # a stand-in pool records its size and maps in this process, so no
    # worker process is ever started here
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(table, "ProcessPoolExecutor", RecordingPool)
    names = ["CHSH", "I3322"]
    serial = table.compute_table(names, seed=2, restarts=4)
    assert table.compute_table(names, seed=2, restarts=4, jobs=5000) == serial
    assert started == [2]
    assert table.compute_table(["CHSH"], seed=2, restarts=4, jobs=3) == serial[:1]
    for jobs in (0, -1):
        with pytest.raises(StructuralError, match="jobs must be >= 1"):
            table.compute_table(names, jobs=jobs)
    assert started == [2]


def test_table_defaults_to_every_primary_row_in_catalog_order(monkeypatch):
    monkeypatch.setattr(table, "compute_row", lambda name, **kwargs: name)
    assert table.compute_table() == list(PRIMARY_NAMES)


@pytest.mark.parametrize("make, message", [
    (lambda: table.compute_table(["I3322_TILDE"]),
     "not primary catalog entries: ['I3322_TILDE']"),
    (lambda: table.format_table([], "html"), "unknown table format 'html'"),
])
def test_table_validation(make, message):
    with pytest.raises(StructuralError) as err:
        make()
    assert str(err.value) == message


def test_degenerate_noise_threshold_decides_like_full_bisection(monkeypatch):
    # each decision batch of the root-finder stops at its first row above
    # bound + margin, or once no row can reach it.  Rerun from the same
    # random starts (drawn before the first sweep) with every row run to
    # convergence or the cap, each batch must decide the same; and w stays
    # within the bisection width of a bisection run to convergence
    f = catalog_get("I4422_4").functional
    theta = 0.2 * math.pi
    decisions = []

    def recorded(*args, target=None, **kwargs):
        if target is None:
            return _seesaw_batch(*args, **kwargs)
        full = _seesaw_batch(*args, **{**kwargs, "rng": copy.deepcopy(kwargs["rng"])})
        state = _seesaw_batch(*args, target=target, **kwargs)
        decisions.append((bool((state["values"] > target).any()),
                          bool((full["values"] > target).any())))
        return state

    monkeypatch.setattr(quantum, "_seesaw_batch", recorded)
    for seed in (1, 2):
        decisions.clear()
        r = noise_threshold(f, theta, allow_degenerate=True, restarts=3, seed=seed)
        assert decisions[0] == (True, True) and decisions[-1] == (False, False)
        assert all(early == full for early, full in decisions)
        assert r.w_threshold <= bisected_noise_w(f, theta, seed=seed, restarts=3) + 1e-5
        assert witness_value(f, r) > float(f.bound)


@pytest.mark.parametrize("seed", [1, 2])
def test_root_finder_within_bisection_on_offcentre_calls(seed):
    # the benchmark's five off-centre thresholds at their default restarts:
    # each answer is witnessed, lies at most the bisection width above the
    # bisected one, and costs fewer batches than the bisection's 18
    calls = (("asym", "I3322", 0.01), ("asym", "I3322", 0.05),
             ("asym", "I4422_3", 0.01), ("asym", "I4422_3", 0.05),
             ("noise", "I4422_4", 0.2))
    for kind, name, t in calls:
        f = catalog_get(name).functional
        theta = t * math.pi
        if kind == "noise":
            r = noise_threshold(f, theta, allow_degenerate=True, seed=seed)
            p, restarts = r.w_threshold, 50
        else:
            r = eta_threshold_asymmetric(f, theta, seed=seed)
            p, restarts = r.eta, 8
        assert p <= bisected_threshold(f, kind, theta, seed=seed, restarts=restarts) + 1e-5
        assert witness_value(f, r) > float(f.bound)
        assert r.batches < 18


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degenerate_i4422_4_thresholds_are_exact_at_pi_over_4(seed):
    # with identity/zero effects I4422_4 at pi/4 reduces to an embedded CHSH:
    # w = 1/sqrt2 and eta = 2/(sqrt2 + 1) exactly.  The root-finder returns
    # its witness's root at the bound plus twice the margin, so each answer
    # lies about 1e-9 above the exact value, and never below it
    f = catalog_get("I4422_4").functional
    w = noise_threshold(f, math.pi / 4, allow_degenerate=True, seed=seed)
    assert 1 / math.sqrt(2) <= w.w_threshold <= 1 / math.sqrt(2) + 1e-8
    eta = eta_threshold_symmetric(f, math.pi / 4, seed=seed, allow_degenerate=True)
    assert ETA_CHSH <= eta.eta <= ETA_CHSH + 1e-8
    for r in (w, eta):
        assert witness_value(f, r) > float(f.bound)


def test_detected_max_target_keeps_the_decision():
    # the per-row see-saw target is the detected target minus each row's
    # no-click constant: a reachable target is crossed early, and one above
    # the full run's best gives its "no" for fewer row-sweeps
    f = catalog_get("I3322").functional
    MA, MB, C = _coefficient_arrays(f)
    sb = _bits(np.arange(8), 3).astype(float)
    sa = np.zeros((8, 3))

    def detected(target):
        value, _, _, _, state = _best_of_groups(
            *_detection_tables(MA, MB, C, 1.0, 0.5, sa, sb), restarts=3,
            target=target, theta=0.05 * math.pi, rng=np.random.default_rng(4))
        return value, int(state["row_sweeps"].sum())

    full, full_work = detected(None)
    early, work = detected(full - 1e-3)
    assert full - 1e-3 < early <= full + 1e-12
    assert work < full_work
    for target in (full + 1e-3, full + 1.0):
        below, work = detected(target)
        assert below <= full + 1e-12
        assert work < full_work


def test_detection_tables_limits():
    # perfect detectors leave the table alone; dark ones leave only the
    # no-click outputs, whose value is f's strategy table at those bits
    for name in ("I3322", "I4322_2"):
        f = catalog_get(name).functional
        ma, mb = f.scenario.m_a, f.scenario.m_b
        MA, MB, C = _coefficient_arrays(f)
        bits = _bits(np.arange(1 << (ma + mb)), ma + mb).astype(float)
        sa, sb = bits[:, :ma], bits[:, ma:]
        MA_eff, MB_eff, const, C_eff = _detection_tables(MA, MB, C, 1.0, 1.0, sa, sb)
        assert (MA_eff == MA).all() and (MB_eff == MB).all()
        assert (const == 0).all() and (C_eff == C).all()
        MA_eff, MB_eff, const, C_eff = _detection_tables(MA, MB, C, 0.0, 0.0, sa, sb)
        assert not MA_eff.any() and not MB_eff.any() and not C_eff.any()
        assert const.tolist() == _strategy_table(f).tolist()


def counted_batches(monkeypatch, limit=None):
    """Record the keyword arguments of every see-saw batch the thresholds
    run; past `limit` batches a call fails instead of running."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        if limit is not None and len(calls) > limit:
            raise AssertionError(f"more than {limit} see-saw batches")
        return _best_of_groups(*args, **kwargs)

    monkeypatch.setattr(robustness, "_best_of_groups", recorded)
    return calls


def test_decisions_run_under_the_default_cap_and_polishes_under_their_own(monkeypatch):
    # every see-saw of a threshold goes through the root-finder's one call:
    # a decision (a target) under the engine's default cap, a capped
    # maximization (no target) at _POLISH_SWEEPS
    calls = counted_batches(monkeypatch)
    results = [
        noise_threshold(catalog_get("I4422_4").functional, 0.2 * math.pi,
                        allow_degenerate=True, restarts=3, seed=1),
        eta_threshold_asymmetric(catalog_get("I3322").functional, 0.05 * math.pi,
                                 restarts=3, seed=1),
        eta_threshold_symmetric(catalog_get("CHSH").functional, 0.2 * math.pi,
                                restarts=3, seed=1),
    ]
    assert len(calls) == sum(r.batches for r in results)
    decisions = [c for c in calls if c["target"] is not None]
    polishes = [c for c in calls if c["target"] is None]
    assert decisions and polishes
    assert all(c["max_sweeps"] is None for c in decisions)
    assert all(c["max_sweeps"] == _POLISH_SWEEPS for c in polishes)


# CH-form CHSH with its bound -1 below the local bound 0: every p violates
LOW_BOUND = BellFunctional.build([-1, 0], [-1, 0], [[1, 1], [1, -1]], -1)


def test_root_finder_returns_zero_when_every_p_violates(monkeypatch):
    # a decision that says "yes" at p = 0 ends the root-finder there
    counted_batches(monkeypatch, limit=10)
    w = noise_threshold(LOW_BOUND, math.pi / 4, allow_degenerate=True, restarts=3, seed=1)
    assert w.w_threshold == 0.0 and w.batches <= 4
    assert float(evaluate(LOW_BOUND, quantum._mixed_behavior(w.model, 0.0))) > -1
    for r in (eta_threshold_asymmetric(LOW_BOUND, 0.2 * math.pi, restarts=3, seed=1),
              eta_threshold_symmetric(LOW_BOUND, 0.2 * math.pi, restarts=3, seed=1)):
        assert r.eta == 0.0 and r.batches <= 4
        d = DetectionModel(r.eta_a, r.eta_b, r.noclick_a, r.noclick_b)
        assert float(evaluate(LOW_BOUND, detected_behavior(model_behavior(r.model), d))) > -1


def test_closed_form_visibility_is_never_negative():
    # the bound lies below the mixed-state value N = -1/2, so the closed
    # form (bound - N) / (Q - N) would be negative: w is 0 instead
    assert noise_floor(LOW_BOUND) == Fraction(-1, 2)
    r = noise_threshold(LOW_BOUND, math.pi / 4, restarts=3, seed=1)
    assert r.w_threshold == 0.0


@pytest.mark.parametrize("seed", [1, 2])
def test_reach_rule_keeps_thresholds(monkeypatch, seed):
    # oracle: a finite reach factor that no row falls short of switches the
    # rule off, so decision rows stop only on _TOL, the cap or a crossing;
    # the rule must find the same thresholds for fewer row-sweeps
    def thresholds():
        return (eta_threshold_asymmetric(catalog_get("I3322").functional,
                                         0.05 * math.pi, seed=seed, restarts=3),
                noise_threshold(catalog_get("I4422_4").functional, 0.2 * math.pi,
                                allow_degenerate=True, restarts=3, seed=seed))

    eta, w = thresholds()
    monkeypatch.setattr(quantum, "_REACH", 1e300)
    eta_off, w_off = thresholds()
    assert eta.eta == eta_off.eta and w.w_threshold == w_off.w_threshold
    assert eta.batches == eta_off.batches and w.batches == w_off.batches
    assert eta.row_sweeps < eta_off.row_sweeps
    assert w.row_sweeps < w_off.row_sweeps


def test_bisected_eta_rejects_restarts_below_one():
    # off the pi/4 closed form both eta thresholds run the root-finder, and
    # so does the degenerate noise threshold; an empty or negative batch
    # must be a structural error, not a numpy reshape failure
    chsh = catalog_get("CHSH").functional
    for restarts in (0, -2):
        with pytest.raises(StructuralError, match="restarts must be >= 1"):
            noise_threshold(chsh, math.pi / 4, allow_degenerate=True,
                            restarts=restarts)
        with pytest.raises(StructuralError, match="restarts must be >= 1"):
            eta_threshold_asymmetric(chsh, restarts=restarts)
        with pytest.raises(StructuralError, match="restarts must be >= 1"):
            eta_threshold_symmetric(chsh, 0.2 * math.pi, restarts=restarts)


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
    # the threshold must sit just below the first violating grid point
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
