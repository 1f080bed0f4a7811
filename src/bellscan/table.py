"""Benchmark table: one row per catalog entry.

Columns: maximal quantum value over the Schmidt family (raw value of I),
the optimizing angle as theta/pi, the visibility threshold at that angle
(w_max), the visibility threshold for the maximally entangled state (w),
and the symmetric detection-efficiency threshold at maximal entanglement
(eta).  The I4422_4 row automatically allows degenerate measurements,
since rank-1 projectors cannot violate it at maximal entanglement; every
other row uses rank-1 projectors throughout.

A rank-1 row runs two see-saws: the free one gives the violation, the
angle and w_max; the one at theta = pi/4 gives both w and eta through the
closed forms in `robustness`.  Only the degenerate row runs the
witnessed root-finder of `robustness`: for the visibility at theta_max,
for the one at pi/4 (one call serves both when theta_max is within 1e-12
of pi/4), and for eta at `eta_threshold_symmetric`'s defaults.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .catalog import PRIMARY_NAMES, catalog_get
from .quantum import seesaw_maximize
from .robustness import (
    _VIOLATION_MARGIN,
    _eta_at_maximal_entanglement,
    _visibility_threshold,
    eta_threshold_symmetric,
    noise_threshold,
)
from .core import StructuralError

__all__ = ["ReportRow", "compute_row", "compute_table", "format_table"]

DEGENERATE_ROWS = ("I4422_4",)


@dataclass(frozen=True)
class ReportRow:
    name: str
    violation: float | None
    theta_max_over_pi: float | None
    w_max: float | None
    w: float | None
    eta_symmetric: float | None


def _row_seed(seed: int, index: int) -> int:
    return (seed * 1000003 + index * 7919 + 17) & 0x7FFFFFFF


def compute_row(name: str, *, seed: int = 0, restarts: int = 50) -> ReportRow:
    entry = catalog_get(name)
    f = entry.functional
    degenerate = name in DEGENERATE_ROWS
    bound = float(f.bound)

    qres = seesaw_maximize(f, restarts=restarts, seed=seed,
                           allow_degenerate=degenerate)
    if qres.value <= bound + _VIOLATION_MARGIN:
        return ReportRow(name, qres.value, qres.theta_max / math.pi,
                         None, None, None)

    theta_max = max(qres.theta_max, 1e-9)
    if degenerate:
        w_res = noise_threshold(f, math.pi / 4, allow_degenerate=True,
                                restarts=restarts, seed=seed)
        # at theta_max == pi/4, up to rounding, the two are one seeded call
        w_max_res = w_res if abs(theta_max - math.pi / 4) <= 1e-12 else noise_threshold(
            f, theta_max, allow_degenerate=True, restarts=restarts, seed=seed)
        w_max = w_max_res.w_threshold if w_max_res else None
        w = w_res.w_threshold if w_res else None
        eta_res = eta_threshold_symmetric(f, math.pi / 4, seed=seed,
                                          allow_degenerate=True)
    else:
        flat = seesaw_maximize(f, restarts=restarts, seed=seed, theta=math.pi / 4)
        w_max = _visibility_threshold(f, qres.value)
        w = _visibility_threshold(f, flat.value)
        eta_res = _eta_at_maximal_entanglement(f, flat)
    eta = eta_res.eta if eta_res else None
    return ReportRow(name, qres.value, qres.theta_max / math.pi, w_max, w, eta)


def _worker(args) -> ReportRow:
    name, kwargs = args
    return compute_row(name, **kwargs)


def compute_table(names=None, *, seed: int = 0, restarts: int = 50,
                  jobs: int = 1) -> list[ReportRow]:
    """Rows in catalog order; per-row seeds derive from (seed, catalog index)
    so the output is independent of the worker count (at most one per row)."""
    if names is None:
        names = PRIMARY_NAMES
    unknown = [n for n in names if n not in PRIMARY_NAMES]
    if unknown:
        raise StructuralError(f"not primary catalog entries: {unknown}")
    if restarts < 1:
        raise StructuralError("restarts must be >= 1")
    if jobs < 1:
        raise StructuralError("jobs must be >= 1")
    ordered = [n for n in PRIMARY_NAMES if n in set(names)]
    tasks = [
        (name, dict(seed=_row_seed(seed, PRIMARY_NAMES.index(name)),
                    restarts=restarts))
        for name in ordered
    ]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [_worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker, tasks))


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def format_table(rows: list[ReportRow], fmt: str) -> str:
    header = ["name", "violation", "theta_max_over_pi", "w_max", "w", "eta"]
    if fmt == "csv":
        lines = [",".join(header)]
        for r in rows:
            lines.append(",".join([r.name, _fmt(r.violation),
                                   _fmt(r.theta_max_over_pi), _fmt(r.w_max),
                                   _fmt(r.w), _fmt(r.eta_symmetric)]))
        return "\n".join(lines) + "\n"
    if fmt == "text":
        widths = [max(len(r.name) for r in rows) if rows else 8, 9, 9, 6, 6, 6]
        lines = ["  ".join(h.ljust(w) for h, w in zip(
            ["name", "violation", "theta/pi", "w_max", "w", "eta"], widths))]
        for r in rows:
            cells = [r.name, _fmt(r.violation), _fmt(r.theta_max_over_pi),
                     _fmt(r.w_max), _fmt(r.w), _fmt(r.eta_symmetric)]
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines) + "\n"
    raise StructuralError(f"unknown table format {fmt!r}")
