"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s) and then
asserts.  The reference table below is the frozen six-column benchmark the
package reproduces.  Four of its cells were corrected because their own row,
or an explicit quantum model, shows them wrong: the I4422_4 violation
(0.2071 -> 2*CHSH_MAX = 0.4142), the I4422_18 w_max (0.9575 -> 0.9508), the
I4422_18 theta/pi (0.2498 -> 0.1680) and the I4422_14 theta/pi (0.3790 ->
0.2380).  The argument that refutes each old value sits in a comment beside
the cell, and criteria 4 and 5 re-check those arguments on every run.  A
reference cell changes only with such a written argument.  Run with

    pytest -s tests/test_acceptance.py
"""

import math
import random
from pathlib import Path

import numpy as np
import pytest

from bellscan.catalog import PRIMARY_NAMES, catalog_get, catalog_list
from bellscan.core import (
    BellFunctional,
    Scenario,
    evaluate,
    lift,
)
from bellscan.polytope import (
    facet_check,
    local_bound,
    ns_dimension,
)
from bellscan.quantum import (
    KIND_ALWAYS_ONE,
    Measurement,
    model_behavior,
    projector,
    QubitModel,
    seesaw_maximize,
)
from bellscan.robustness import (
    DetectionModel,
    detected_behavior,
    eta_threshold_asymmetric,
    eta_threshold_symmetric,
    noise_floor,
)
from bellscan.search import SearchConfig, run_search
from bellscan.symmetry import (
    apply_transformation,
    canonical_key,
    random_transformation,
    symmetric_representative,
)
from bellscan.table import DEGENERATE_ROWS, compute_row, format_table
from joint_prob_angles import _joint_prob_angles, _joint_prob_angles_grad
from reference_walks import (
    behavior_of_strategy,
    local_bound_bruteforce,
    relabel_behavior,
    strategies,
)

SEED = 0
CHSH_MAX = 1 / math.sqrt(2) - 0.5

# (violation, theta_max/pi, w_max, w, eta); violation is the raw maximum of
# the functional (identical to the violation for every bound-0 row).  The
# comments inside the table give the argument for each corrected cell.
REFERENCE = {
    "CHSH":     (CHSH_MAX, 0.2500, 1 / math.sqrt(2), 1 / math.sqrt(2),
                 2 / (math.sqrt(2) + 1)),
    "I3322":    (0.2500, 0.2500, 0.8000, 0.8000, 0.8284),
    "I4322_1":  (0.2361, 0.2668, 0.8640, 0.8660, 0.8761),
    "I4322_2":  (0.2596, 0.2749, 0.8280, 0.8333, 0.8685),
    "I4322_3":  (0.4365, 0.2500, 0.7746, 0.7746, 0.8514),
    "I4422_1":  (0.1970, 0.2644, 0.8988, 0.9000, 0.8571),
    "I4422_2":  (0.6214, 0.2479, 0.7630, 0.7630, 0.8443),
    "A5":       (0.4353, 0.2450, 0.7751, 0.7752, 0.8214),
    "A6":       (0.2321, 0.2500, 0.8829, 0.8829, 0.8373),
    "AS1":      (0.5412, 0.2500, 0.7348, 0.7348, 0.8472),
    "AS2":      (0.8785, 0.2500, 0.7400, 0.7400, 0.8506),
    "AII1":     (0.6055, 0.2564, 0.7676, 0.7679, 0.8323),
    "AII2":     (0.5000, 0.2500, 0.8000, 0.8000, 0.8508),
    "I4422_3":  (0.2380, 0.2257, 0.8630, 0.8660, 0.8761),
    # violation, was 0.2071: the value of one construction that forgets two
    # settings per side (test_i4422_4_forgetting_reduction_value).  This row
    # allows {projector, identity, zero} effects.  Zero effects on Alice's
    # settings 2 and 3, with Bob's b1 = b0 and b3 = -b2, reduce I4422_4
    # exactly to 2*CH, so 2*CHSH_MAX = 0.4142 is attained and 0.2071 is not
    # the maximum; criterion 4 evaluates that model.  The free-theta and the
    # fixed-pi/4 see-saw both return 0.4142.  Not settled: no certificate
    # yet excludes values above 0.4142.
    "I4422_4":  (2 * CHSH_MAX, 0.2500, 0.7071, 0.7071, 0.8284),
    "I4422_5":  (0.4365, 0.2500, 0.7746, 0.7746, 0.8514),
    "I4422_6":  (0.4495, 0.2500, 0.8165, 0.8165, 0.8697),
    "I4422_7":  (1.4548, 0.2622, 0.7937, 0.7949, 0.8405),
    "I4422_8":  (0.4206, 0.2457, 0.8560, 0.8561, 0.8858),
    "I4422_9":  (0.4617, 0.2648, 0.8441, 0.8455, 0.8392),
    "I4422_10": (0.6139, 0.2538, 0.8175, 0.8176, 0.8458),
    "I4422_11": (0.6384, 0.2444, 0.7790, 0.7792, 0.8474),
    "I4422_12": (0.6188, 0.2404, 0.7843, 0.7849, 0.8382),
    "I4422_13": (0.2500, 0.2500, 0.8889, 0.8889, 0.8944),
    # theta/pi, was 0.3790 (folded: 0.1210).  The violation, w_max and w
    # cells of this row agree with the pipeline.  A fixed-theta see-saw at
    # 0.121 pi reaches only 0.2284 over 200 restarts; a theta scan rises
    # steadily to a single peak of 0.41030 at 0.238 pi, and the free-theta
    # see-saw lands at 0.23796 from every seed.  The evidence is numerical
    # only: PAPER.md holds the abstract but not the paper's table, and no
    # upper certificate exists yet for fixed theta < pi/4.  Criterion 4
    # re-checks the value at both angles.
    "I4422_14": (0.4103, 0.2380, 0.8298, 0.8310, 0.8523),
    "I4422_15": (0.2500, 0.2500, 0.8889, 0.8889, 0.8944),
    "I4422_16": (0.2407, 0.2810, 0.8791, 0.8829, 0.9009),
    "I4422_17": (0.6714, 0.2503, 0.7883, 0.7883, 0.8611),
    # w_max, was 0.9575 (a copy of the eta cell).  For rank-1 projectors
    # w* = (L - N) / (Q - N) exactly (robustness.py), with L = 0 and
    # N = noise_floor = -7/2 here, so the row's own violation 0.1812 gives
    # 3.5 / 3.6812 = 0.9508.  Every other rank-1 row meets this formula
    # within 1e-4; criterion 5 checks it on the whole table.
    # theta/pi, was 0.2498.  The w cell, 0.9623 at pi/4, gives
    # Q(pi/4) = 3.5 / 0.9623 - 3.5 = 0.1372 by the same formula, while the
    # violation and theta cells claim Q(0.2498 pi) = 0.1812.  Each joint
    # probability moves by at most 1.5 per radian of theta and each marginal
    # by at most 1; the coefficients sum to 8 in absolute value over the
    # marginals and 28 over the correlations, so |dQ/dtheta| <= 50, and a
    # shift of 0.0002 pi changes Q by at most 0.032 < 0.044.  The row
    # contradicts itself.  A fixed-theta scan (200 restarts per angle) has a
    # single peak of 0.18124 at 0.168 pi, and Q(0.2498 pi) = 0.1372, in
    # line with the violation, w and eta cells; criterion 4 re-checks both.
    "I4422_18": (0.1812, 0.1680, 0.9508, 0.9623, 0.9575),
    "I4422_19": (0.4307, 0.2500, 0.8745, 0.8745, 0.8870),
    "I4422_20": (0.3056, 0.3036, 0.9075, 0.9231, 0.8990),
}

# theta/pi cells refuted above, as first frozen.  At each the see-saw falls
# short of the row's violation by more than REFUTATION_GAP.
REFUTED_THETA = {"I4422_14": 0.3790, "I4422_18": 0.2498}
REFUTATION_GAP = 1e-2

SYMMETRIC_MISSING = {"I4422_2", "AII2", "I4422_3", "I4422_5", "I4422_6", "I4422_7"}


def fold(theta_over_pi: float) -> float:
    """Schmidt angles t and 1/2 - t describe locally equivalent states."""
    return min(theta_over_pi, 0.5 - theta_over_pi)


def report(criterion: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {criterion}: {status}")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"{criterion}: {len(failures)} check(s) failed: {failures}"


@pytest.fixture(scope="session")
def table_rows():
    """One pipeline pass per catalog entry, shared by criteria 4-6."""
    return {name: compute_row(name, seed=SEED) for name in PRIMARY_NAMES}


def test_printed_rows_match_the_committed_csv(table_rows):
    # every printed cell of the fixture's rows; a change that moves one on
    # purpose updates the file and states its reason
    printed = format_table([table_rows[name] for name in PRIMARY_NAMES], "csv")
    assert printed == (Path(__file__).parent / "acceptance_rows_seed0.csv").read_text()


def random_functional(rng, scenario, lo=-3, hi=3):
    return BellFunctional.build(
        [rng.randint(lo, hi) for _ in range(scenario.m_a)],
        [rng.randint(lo, hi) for _ in range(scenario.m_b)],
        [[rng.randint(lo, hi) for _ in range(scenario.m_b)]
         for _ in range(scenario.m_a)],
        0)


def test_criterion_1_exact_bounds():
    failures = []
    for entry in catalog_list():
        if not entry.primary:
            continue
        expected = 1 if entry.name == "I4422_7" else 0
        lb = local_bound(entry.functional)
        if lb != expected:
            failures.append(f"{entry.name}: local bound {lb} != {expected}")
        if lb != local_bound_bruteforce(entry.functional):
            failures.append(f"{entry.name}: fast and brute-force bounds differ")
    rng = random.Random(12345)
    scenarios = [Scenario(2, 2), Scenario(3, 3), Scenario(4, 3), Scenario(4, 4)]
    for i in range(1000):
        f = random_functional(rng, scenarios[i % len(scenarios)])
        if local_bound(f) != local_bound_bruteforce(f):
            failures.append(f"random functional #{i}: bound mismatch")
    report("criterion 1 (exact local bounds)", failures)


def test_criterion_2_facets():
    failures = []
    for entry in catalog_list():
        if not entry.primary:
            continue
        rep = facet_check(entry.functional)
        if not rep.is_tight:
            failures.append(f"{entry.name}: not tight ({rep})")
        expected_dim = ns_dimension(entry.native_scenario) - 1
        if rep.affine_dim != expected_dim:
            failures.append(
                f"{entry.name}: affine dim {rep.affine_dim} != {expected_dim}")
    chsh = facet_check(catalog_get("CHSH").functional)
    if (chsh.affine_dim, chsh.ns_dim) != (7, 8):
        failures.append(f"CHSH dims {chsh.affine_dim}/{chsh.ns_dim} != 7/8")
    i3322 = facet_check(catalog_get("I3322").functional)
    if (i3322.affine_dim, i3322.ns_dim) != (14, 15):
        failures.append(f"I3322 dims {i3322.affine_dim}/{i3322.ns_dim} != 14/15")
    report("criterion 2 (facet dimensions)", failures)


def test_criterion_3_equivalence_classes():
    failures = []
    names_4422 = [e.name for e in catalog_list()
                  if e.primary and e.native_scenario == Scenario(4, 4)]
    keys = {name: canonical_key(catalog_get(name).functional)
            for name in names_4422}
    if len(set(keys.values())) != 26:
        failures.append(f"expected 26 distinct canonical forms, "
                        f"got {len(set(keys.values()))}")
    from bellscan.symmetry import equivalent
    if not equivalent(catalog_get("I3322").functional,
                      catalog_get("I3322_TILDE").functional):
        failures.append("I3322 and its symmetric form are not equivalent")
    missing = {name for name in names_4422
               if symmetric_representative(catalog_get(name).functional) is None}
    if missing != SYMMETRIC_MISSING:
        failures.append(f"asymmetric set {sorted(missing)} != "
                        f"{sorted(SYMMETRIC_MISSING)}")
    if len(names_4422) - len(missing) != 20:
        failures.append("symmetric representative count != 20")
    report("criterion 3 (equivalence classes)", failures)


def test_criterion_4_quantum_violations(table_rows):
    failures = []
    for name in PRIMARY_NAMES:
        row = table_rows[name]
        ref_v, ref_t = REFERENCE[name][0], REFERENCE[name][1]
        if abs(row.violation - ref_v) > 1e-3:
            failures.append(
                f"{name}: value {row.violation:.4f} vs reference {ref_v:.4f}")
        if abs(row.theta_max_over_pi - fold(ref_t)) > 5e-3:
            failures.append(
                f"{name}: theta/pi {row.theta_max_over_pi:.4f} vs "
                f"reference {fold(ref_t):.4f}")

    chsh = table_rows["CHSH"]
    if abs(chsh.violation - CHSH_MAX) > 1e-6:
        failures.append("CHSH value not within 1e-6 of the closed form")
    if abs(chsh.theta_max_over_pi - 0.25) > 1e-6:
        failures.append("CHSH theta not within 1e-6 of 1/4")

    f4 = catalog_get("I4422_4").functional
    rank1 = seesaw_maximize(f4, restarts=50, seed=SEED, theta=math.pi / 4).value
    if rank1 > 1e-6:
        failures.append(f"I4422_4 rank-1 value at pi/4 is {rank1:.2e} > 1e-6")
    # the model behind the I4422_4 violation cell: zero effects on Alice's
    # settings 2 and 3, Bob's b1 = b0 and b3 = -b2, CH-optimal projectors
    chsh_f = catalog_get("CHSH").functional
    ch = seesaw_maximize(chsh_f, restarts=20, seed=SEED, theta=math.pi / 4)
    (a0, a1), (b0, b2) = ch.model.alice_meas, ch.model.bob_meas
    off = Measurement(KIND_ALWAYS_ONE)
    double_ch = QubitModel(math.pi / 4, (a0, a1, off, off),
                           (b0, b0, b2, projector([-v for v in b2.bloch])))
    embedded = float(evaluate(f4, model_behavior(double_ch)))
    if abs(embedded - 2 * ch.value) > 1e-9:
        failures.append(f"I4422_4 double-CH model gives {embedded:.10f}, "
                        f"not 2*CH = {2 * ch.value:.10f}")
    if abs(embedded - REFERENCE["I4422_4"][0]) > 1e-4:
        failures.append(f"I4422_4 double-CH model gives {embedded:.4f}, "
                        f"reference {REFERENCE['I4422_4'][0]:.4f}")
    deg = seesaw_maximize(f4, restarts=50, seed=SEED, theta=math.pi / 4,
                          allow_degenerate=True).value
    if abs(deg - 2 * CHSH_MAX) > 1e-4:
        failures.append(
            f"I4422_4 degenerate value at pi/4 is {deg:.4f}, "
            f"not 2*CHSH = {2 * CHSH_MAX:.4f}")

    # the refuted theta cells: the paper's angle falls short of the row's
    # violation, the corrected angle reproduces it
    for name, paper_t in REFUTED_THETA.items():
        f = catalog_get(name).functional
        ref_v, ref_t = REFERENCE[name][0], REFERENCE[name][1]
        at_paper = seesaw_maximize(f, restarts=50, seed=SEED,
                                   theta=fold(paper_t) * math.pi).value
        if ref_v - at_paper <= REFUTATION_GAP:
            failures.append(
                f"{name}: value {at_paper:.4f} at the paper's theta/pi "
                f"{fold(paper_t):.4f} is within {REFUTATION_GAP} of the "
                f"violation {ref_v:.4f}; the paper's cell is not refuted")
        at_ref = seesaw_maximize(f, restarts=50, seed=SEED,
                                 theta=fold(ref_t) * math.pi).value
        if abs(at_ref - ref_v) > 1e-3:
            failures.append(
                f"{name}: value {at_ref:.4f} at reference theta/pi "
                f"{fold(ref_t):.4f} vs reference violation {ref_v:.4f}")
    report("criterion 4 (quantum violations)", failures)


def test_criterion_5_noise_thresholds(table_rows):
    failures = []
    for name in PRIMARY_NAMES:
        row = table_rows[name]
        ref_wmax, ref_w = REFERENCE[name][2], REFERENCE[name][3]
        if abs(row.w_max - ref_wmax) > 1e-3:
            failures.append(
                f"{name}: w_max {row.w_max:.4f} vs reference {ref_wmax:.4f}")
        if abs(row.w - ref_w) > 1e-3:
            failures.append(f"{name}: w {row.w:.4f} vs reference {ref_w:.4f}")
        if not row.w_max <= row.w + 1e-6:
            failures.append(f"{name}: w_max {row.w_max:.6f} > w {row.w:.6f}")
        if name in DEGENERATE_ROWS:
            continue
        # rank-1 rows: the w_max cell follows from the violation cell
        f = catalog_get(name).functional
        bound, floor = float(f.bound), float(noise_floor(f))
        closed = (bound - floor) / (REFERENCE[name][0] - floor)
        if abs(closed - ref_wmax) > 1e-3:
            failures.append(f"{name}: reference w_max {ref_wmax:.4f} vs "
                            f"{closed:.4f} from its own violation cell")
    if abs(table_rows["CHSH"].w - 1 / math.sqrt(2)) > 1e-9:
        failures.append("w(CHSH) not within 1e-9 of 1/sqrt(2)")
    if abs(table_rows["I3322"].w - 0.8) > 1e-9:
        failures.append("w(I3322) not within 1e-9 of 4/5")
    report("criterion 5 (noise thresholds)", failures)


def test_criterion_6_detection_thresholds(table_rows):
    failures = []
    for name in PRIMARY_NAMES:
        row = table_rows[name]
        ref_eta = REFERENCE[name][4]
        if abs(row.eta_symmetric - ref_eta) > 2e-3:
            failures.append(
                f"{name}: eta {row.eta_symmetric:.4f} vs reference {ref_eta:.4f}")

    fine = eta_threshold_symmetric(catalog_get("CHSH").functional, seed=SEED)
    if abs(fine.eta - 2 / (math.sqrt(2) + 1)) > 1e-6:
        failures.append("eta(CHSH) not within 1e-6 of 2/(sqrt(2)+1)")

    # asymmetric trend toward weak entanglement (limits are asymptotic and
    # deliberately not asserted as point values)
    i3322 = catalog_get("I3322").functional
    at_001 = eta_threshold_asymmetric(i3322, 0.01 * math.pi, seed=SEED).eta
    at_005 = eta_threshold_asymmetric(i3322, 0.05 * math.pi, seed=SEED).eta
    if not 0.43 <= at_001 <= 0.46:
        failures.append(f"I3322 eta_B at theta/pi=0.01 is {at_001:.4f}, "
                        "outside [0.43, 0.46]")
    if not at_001 < at_005:
        failures.append("I3322 eta_B is not decreasing toward weak entanglement")
    f3 = catalog_get("I4422_3").functional
    f3_001 = eta_threshold_asymmetric(f3, 0.01 * math.pi, seed=SEED).eta
    f3_005 = eta_threshold_asymmetric(f3, 0.05 * math.pi, seed=SEED).eta
    if not 0.425 <= f3_001 <= 0.46:
        failures.append(f"I4422_3 eta_B at theta/pi=0.01 is {f3_001:.4f}, "
                        "outside [0.425, 0.46]")
    if not f3_001 < f3_005:
        failures.append("I4422_3 eta_B is not decreasing toward weak entanglement")
    report("criterion 6 (detection thresholds)", failures)


def test_criterion_7_search():
    failures = []
    cfg = SearchConfig(Scenario(3, 3), corr_range=(-1, 1), marg_min=-2)
    rep = run_search(cfg)
    found = {canonical_key(f.functional) for f in rep.facets_found}
    expected = {
        canonical_key(lift(catalog_get("CHSH").functional, Scenario(3, 3))),
        canonical_key(catalog_get("I3322").functional),
    }
    if found != expected:
        failures.append(
            f"3322 exhaustive search found {len(found)} classes, expected "
            "exactly the CHSH lifting and the I3322 class")

    cfg = SearchConfig(Scenario(4, 4), mode="random", sample_count=10 ** 5, seed=SEED)
    rep = run_search(cfg)
    if rep.candidates_tested != 10 ** 5:
        failures.append("random search did not test the requested sample count")
    seen = set()
    for finding in rep.facets_found:
        if not facet_check(finding.functional).is_tight:
            failures.append(f"reported non-facet {finding.functional}")
        key = canonical_key(finding.functional)
        if key in seen:
            failures.append("duplicate canonical class in report")
        seen.add(key)
    report("criterion 7 (candidate search)", failures)


def test_criterion_8_properties():
    failures = []

    # exact invariance of value - bound under relabelings
    rng = random.Random(777)
    for _ in range(40):
        scenario = rng.choice([Scenario(2, 2), Scenario(3, 3), Scenario(3, 2)])
        f = random_functional(rng, scenario, -2, 2)
        t = random_transformation(scenario, rng)
        verts = list(strategies(scenario))
        p = behavior_of_strategy(rng.choice(verts))
        g = apply_transformation(f, t)
        q = relabel_behavior(p, t)
        if evaluate(f, p) - f.bound != evaluate(g, q) - g.bound:
            failures.append(f"relabeling changed value-bound for {f}")
    for name in ("CHSH", "I3322", "AS2", "I4422_7"):
        f = catalog_get(name).functional
        t = random_transformation(f.scenario, rng)
        if not facet_check(apply_transformation(f, t)).is_tight:
            failures.append(f"{name}: relabeling broke tightness")

    # see-saw sweeps never decrease the objective
    for name in ("CHSH", "I4422_2"):
        res = seesaw_maximize(catalog_get(name).functional, restarts=6,
                              seed=SEED, record_history=True)
        for row in res.history:
            if min(b - a for a, b in zip(row, row[1:])) < -1e-9:
                failures.append(f"{name}: objective decreased during a sweep")
                break

    # closed-form derivatives vs central finite differences
    rng2 = random.Random(4)
    worst = 0.0
    for _ in range(30):
        args = [rng2.uniform(0.05, math.pi / 4 - 0.05)] + \
               [rng2.uniform(0.1, math.pi - 0.1) for _ in range(4)]
        grads = _joint_prob_angles_grad(*args)
        for i in range(5):
            hi_args, lo_args = list(args), list(args)
            hi_args[i] += 1e-5
            lo_args[i] -= 1e-5
            fd = (_joint_prob_angles(*hi_args) - _joint_prob_angles(*lo_args)) / 2e-5
            worst = max(worst, abs(fd - grads[i]))
    if worst > 1e-6:
        failures.append(f"derivative mismatch {worst:.2e} > 1e-6")

    # detection maps keep behaviors inside the box constraints
    rng3 = random.Random(8)
    for _ in range(60):
        model = QubitModel(
            rng3.uniform(0, math.pi / 4),
            tuple(projector([rng3.gauss(0, 1) for _ in range(3)]) for _ in range(2)),
            tuple(projector([rng3.gauss(0, 1) for _ in range(3)]) for _ in range(2)))
        p = model_behavior(model)
        for ea in np.linspace(0, 1, 5):
            for eb in np.linspace(0, 1, 5):
                d = DetectionModel(float(ea), float(eb),
                                   (rng3.randrange(2), rng3.randrange(2)),
                                   (rng3.randrange(2), rng3.randrange(2)))
                try:
                    detected_behavior(p, d)
                except Exception as exc:  # Behavior validation raising = failure
                    failures.append(f"box constraint violated: {exc}")
    report("criterion 8 (properties)", failures)
