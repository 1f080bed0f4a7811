"""Outside-in spans around the public functions of each bellscan module.

The tracer replaces a function where a calling module binds it (for example
`bellscan.table.seesaw_maximize`), so every call through that binding
records one span: name, start, end, parent span and a few counts read from
the arguments or the result.  Nothing inside `src/` is changed; calls made
through other bindings are not seen.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, name, counts=None):
        """Trace calls through `module.attr`.

        `name` is a span name or a function of (args, kwargs) returning one;
        `counts(args, kwargs, result)` returns a dict of counts for the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name if isinstance(name, str) else name(args, kwargs),
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def install_bellscan(tracer: Tracer):
    """Wrap every layer boundary the workloads cross."""
    from bellscan import polytope, robustness, search, symmetry, table

    def seesaw_name(args, kwargs):
        free = kwargs.get("theta") is None
        return "quantum.seesaw_free" if free else "quantum.seesaw_fixed"

    def seesaw_counts(args, kwargs, result):
        return {"restarts": result.restarts_used}

    def facet_counts(args, kwargs, result):
        return {"saturating": result.saturating_count, "tight": int(result.is_tight)}

    def search_counts(args, kwargs, result):
        return {"screened": result.candidates_tested,
                "classes": len(result.facets_found),
                "trivial": result.trivial_count}

    tracer.wrap(table, "compute_table", "table.compute_table")
    tracer.wrap(table, "compute_row", lambda args, kwargs: f"table.row.{args[0]}")
    for module in (table, robustness):
        tracer.wrap(module, "seesaw_maximize", seesaw_name, seesaw_counts)
        tracer.wrap(module, "eta_threshold_symmetric", "robustness.eta_symmetric")
        tracer.wrap(module, "noise_threshold", "robustness.noise_threshold")
    tracer.wrap(robustness, "eta_threshold_asymmetric", "robustness.eta_asymmetric")
    tracer.wrap(search, "run_search", "search.run_search", search_counts)
    tracer.wrap(search, "facet_check", "polytope.facet_check", facet_counts)
    tracer.wrap(polytope, "local_bound", "polytope.local_bound")
    for module in (search, symmetry):
        tracer.wrap(module, "canonical_key", "symmetry.canonical_key")
    tracer.wrap(search, "canonical_form", "symmetry.canonical_form")


def _self_seconds(span: Span, children: dict) -> float:
    return span.seconds - sum(c.seconds for c in children.get(span.id, ()))


def layer_totals(spans: list[Span], row_names) -> dict:
    """Per-layer totals over some spans (inclusive times, in seconds).

    Every value adds up over operations; `layer_metrics` turns the sums
    into the reported metrics.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(name, key=None):
        group = by_name.get(name, [])
        if key is None:
            return sum((s.seconds for s in group), 0.0)
        return sum(s.counts.get(key, 0) for s in group)

    def self_total(name):
        return sum((_self_seconds(s, children) for s in by_name.get(name, [])), 0.0)

    out = {}
    for layer in ("quantum.seesaw_free", "quantum.seesaw_fixed",
                  "robustness.eta_symmetric", "robustness.eta_asymmetric",
                  "robustness.noise_threshold", "polytope.local_bound",
                  "polytope.facet_check", "symmetry.canonical_key",
                  "symmetry.canonical_form"):
        out[f"{layer}.calls"] = len(by_name.get(layer, []))
        out[f"{layer}.s"] = total(layer)
    for layer in ("quantum.seesaw_free", "quantum.seesaw_fixed"):
        out[f"{layer}.restarts"] = total(layer, "restarts")
    out["robustness.noise_threshold.self_s"] = self_total("robustness.noise_threshold")
    out["polytope.facet_check.saturating"] = total("polytope.facet_check", "saturating")
    out["polytope.facet_check.tight"] = total("polytope.facet_check", "tight")

    searches = by_name.get("search.run_search", [])
    ranked = [c for s in searches for c in children.get(s.id, [])
              if c.name == "polytope.facet_check"]
    out["search.s"] = total("search.run_search")
    out["search.screened"] = total("search.run_search", "screened")
    out["search.rank_tested"] = len(ranked)
    out["search.tight"] = sum(c.counts["tight"] for c in ranked)
    out["search.classes"] = total("search.run_search", "classes")
    out["search.trivial"] = total("search.run_search", "trivial")
    out["search.self_s"] = self_total("search.run_search")

    for row in row_names:
        out[f"table.row.{row}.s"] = total(f"table.row.{row}")
    out["table.self_s"] = self_total("table.compute_table")
    return out


def layer_metrics(totals: dict) -> dict:
    """The reported per-layer metrics: the totals plus two ratios."""
    out = dict(totals)
    search_s = out.pop("search.s")
    out["search.screened_per_s"] = out["search.screened"] / search_s if search_s > 0 else 0.0
    out["search.tight_per_rank_tested"] = (out["search.tight"] / out["search.rank_tested"]
                                           if out["search.rank_tested"] else 0.0)
    return out
