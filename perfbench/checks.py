"""Output checks for every benchmark workload.

Each check returns one (label, failures) pair per operation it judges; an
operation fails when its failure list is non-empty.  The checks take plain
result objects, so a test can hand them a corrupted result and see it
counted as failed.
"""

from __future__ import annotations

import math

from bellscan.catalog import catalog_get
from bellscan.core import Behavior, Scenario, evaluate, lift
from bellscan.polytope import facet_check
from bellscan.quantum import KIND_ALWAYS_ZERO, KIND_PROJECTOR, model_behavior
from bellscan.robustness import DetectionModel, detected_behavior
from bellscan.symmetry import canonical_key

CHSH_MAX = 1 / math.sqrt(2) - 0.5

# (violation, theta_max/pi, w_max, w, eta) for the rows the table workload
# computes, copied from the frozen reference table of the acceptance suite
# (tests/test_acceptance.py), together with its tolerances.
REFERENCE = {
    "CHSH":    (CHSH_MAX, 0.2500, 1 / math.sqrt(2), 1 / math.sqrt(2),
                2 / (math.sqrt(2) + 1)),
    "I3322":   (0.2500, 0.2500, 0.8000, 0.8000, 0.8284),
    "I4322_2": (0.2596, 0.2749, 0.8280, 0.8333, 0.8685),
    "I4422_2": (0.6214, 0.2479, 0.7630, 0.7630, 0.8443),
    "I4422_4": (0.2071, 0.2500, 0.7071, 0.7071, 0.8284),
    "A6":      (0.2321, 0.2500, 0.8829, 0.8829, 0.8373),
    "I4422_9": (0.4617, 0.2648, 0.8441, 0.8455, 0.8392),
}
COLUMNS = ("violation", "theta", "w_max", "w", "eta")
TOLERANCE = {"violation": 1e-3, "theta": 5e-3, "w_max": 1e-3, "w": 1e-3,
             "eta": 2e-3}

# The four reference cells the acceptance suite documents as defective.  A
# defective cell with a proven value is checked against that value; the
# others are not compared.  None of them counts as a program failure.
REFERENCE_DEFECTS = {
    ("I4422_4", "violation"):
        "reference 0.2071 is one suboptimal degenerate construction; the "
        "optimum over {projector, identity, zero} effects is 2*(1/sqrt2 - 1/2)",
    ("I4422_14", "theta"):
        "reference theta/pi 0.3790 is inconsistent with the other cells of its row",
    ("I4422_18", "theta"):
        "reference theta/pi 0.2498 is inconsistent with the other cells of its row",
    ("I4422_18", "w_max"):
        "reference w_max 0.9575 is inconsistent with the other cells of its row",
}
PROVEN = {("I4422_4", "violation"): (2 * CHSH_MAX, 1e-6)}

# criterion 6 of the acceptance suite: eta_B bands at theta/pi = 0.01
ASYMMETRIC_BANDS = {"I3322": (0.43, 0.46), "I4422_3": (0.425, 0.46)}


def fold(theta_over_pi: float) -> float:
    """Schmidt angles t and 1/2 - t describe locally equivalent states."""
    return min(theta_over_pi, 0.5 - theta_over_pi)


def _cells(row) -> dict:
    return {"violation": row.violation, "theta": row.theta_max_over_pi,
            "w_max": row.w_max, "w": row.w, "eta": row.eta_symmetric}


def check_table(rows) -> list[tuple[str, list[str]]]:
    """Every computed cell against the reference table, one operation per row."""
    out = []
    for row in rows:
        failures = []
        if row.name not in REFERENCE:
            out.append((row.name, [f"no reference for row {row.name}"]))
            continue
        cells = _cells(row)
        missing = [col for col, v in cells.items() if v is None]
        if missing:
            out.append((row.name, [f"empty cells {missing}"]))
            continue
        for col, ref in zip(COLUMNS, REFERENCE[row.name]):
            key = (row.name, col)
            if col == "theta":
                ref = fold(ref)
            if key in PROVEN:
                ref, tol = PROVEN[key]
            elif key in REFERENCE_DEFECTS:
                continue
            else:
                tol = TOLERANCE[col]
            if not abs(cells[col] - ref) <= tol:
                failures.append(f"{col} {cells[col]:.6f} vs {ref:.6f} (tol {tol:g})")
        if not row.w_max <= row.w + 1e-6:
            failures.append(f"w_max {row.w_max:.6f} > w {row.w:.6f}")
        if row.name == "CHSH":
            if abs(row.violation - CHSH_MAX) > 1e-6:
                failures.append("value not within 1e-6 of 1/sqrt2 - 1/2")
            if abs(row.theta_max_over_pi - 0.25) > 1e-6:
                failures.append("theta/pi not within 1e-6 of 1/4")
            if abs(row.w - 1 / math.sqrt(2)) > 1e-9:
                failures.append("w not within 1e-9 of 1/sqrt2")
        if row.name == "I3322" and abs(row.w - 0.8) > 1e-9:
            failures.append("w not within 1e-9 of 4/5")
        out.append((row.name, failures))
    return out


def _mixed_behavior(model) -> Behavior:
    """Statistics of the model's measurements on the maximally mixed state."""
    def marg(m):
        if m.kind == KIND_PROJECTOR:
            return 0.5
        return 1.0 if m.kind == KIND_ALWAYS_ZERO else 0.0
    p_a = [marg(m) for m in model.alice_meas]
    p_b = [marg(m) for m in model.bob_meas]
    return Behavior(p_a, p_b, [[a * b for b in p_b] for a in p_a])


def witness_value(kind: str, f, result) -> float:
    """Value of f on the returned model at the returned eta or w."""
    if kind == "noise":
        w = result.w_threshold
        return (w * evaluate(f, model_behavior(result.model))
                + (1 - w) * evaluate(f, _mixed_behavior(result.model)))
    d = DetectionModel(result.eta_a, result.eta_b, result.noclick_a, result.noclick_b)
    return evaluate(f, detected_behavior(model_behavior(result.model), d))


def check_thresholds(calls, results) -> list[tuple[str, list[str]]]:
    """Re-evaluate every returned witness; criterion 6 bands and trend.

    `calls` are (kind, name, theta_over_pi, seed) with kind one of "asym",
    "sym" and "noise"; `results` are the returned threshold objects.
    """
    found = {(kind, name, t): r for (kind, name, t, _), r in zip(calls, results)}
    out = []
    for (kind, name, t, _), result in zip(calls, results):
        label = f"{kind}:{name}@{t}"
        if result is None:
            out.append((label, ["no violation found"]))
            continue
        f = catalog_get(name).functional
        failures = []
        value = witness_value(kind, f, result)
        threshold = result.w_threshold if kind == "noise" else result.eta
        if not value > float(f.bound):
            failures.append(f"witness value {value!r} at {threshold:.6f} "
                            f"is not above the bound {f.bound}")
        if kind == "asym" and t == 0.01 and name in ASYMMETRIC_BANDS:
            lo, hi = ASYMMETRIC_BANDS[name]
            if not lo <= threshold <= hi:
                failures.append(f"eta_B {threshold:.4f} outside [{lo}, {hi}]")
            wider = found.get(("asym", name, 0.05))
            if wider is not None and not threshold < wider.eta:
                failures.append(f"eta_B {threshold:.4f} at 0.01 is not below "
                                f"{wider.eta:.4f} at 0.05")
        out.append((label, failures))
    return out


EXHAUSTIVE_3322_CLASSES = ("CHSH", "I3322")


def check_exhaustive(report) -> list[tuple[str, list[str]]]:
    """The 3322 space holds exactly the CHSH lifting and the I3322 class."""
    s = Scenario(3, 3)
    expected = {canonical_key(lift(catalog_get(n).functional, s))
                for n in EXHAUSTIVE_3322_CLASSES}
    found = [canonical_key(f.functional) for f in report.facets_found]
    failures = []
    if len(found) != len(set(found)) or set(found) != expected:
        failures.append(f"found {len(found)} classes, expected exactly "
                        "the CHSH lifting and the I3322 class")
    return [("run_search", failures)]


def check_random(cfg, report) -> list[tuple[str, list[str]]]:
    """Every finding tight, no class twice, every requested sample screened."""
    failures = []
    if report.candidates_tested != cfg.sample_count:
        failures.append(f"screened {report.candidates_tested} of "
                        f"{cfg.sample_count} requested candidates")
    seen = set()
    for finding in report.facets_found:
        if not facet_check(finding.functional).is_tight:
            failures.append(f"non-facet reported: {finding.functional}")
        key = canonical_key(finding.functional)
        if key in seen:
            failures.append(f"class reported twice: {finding.functional}")
        seen.add(key)
    return [("run_search", failures)]
