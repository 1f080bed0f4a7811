"""Candidate-table search for tight inequalities.

Coefficient tables are generated with correlations in a small integer
range and marginal columns ordered as

    marg_min <= M(0) < M(1) <= ... <= M(m-1) = 0

(the first "<" is configurable since the printed constraint is strict
there and "<=" later).  Every candidate's bound is its exact local bound,
so the facet test is the only filter that matters.  Screening runs in
bulk: the facet test's exact scoring helper values each chunk of candidates
at every deterministic strategy, a candidate's bound is its largest value,
and only candidates with at least d saturating strategies reach the rank
test.  Found facets are deduplicated by canonical form and matched against
the catalog (including zero-padded liftings of smaller-scenario entries);
single-cell positivity facets are counted separately as trivial.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, islice, product
from pathlib import Path
from typing import Iterator

import numpy as np

from .catalog import catalog_list
from .core import (
    BellFunctional,
    CapacityError,
    Scenario,
    StructuralError,
    functional_to_json,
    lift,
    serialize_functional,
)
from .polytope import _strategy_values, facet_check, ns_dimension
from .symmetry import canonical_form, canonical_key

__all__ = [
    "SearchConfig",
    "FacetFinding",
    "SearchReport",
    "run_search",
    "EXHAUSTIVE_CAP",
]

EXHAUSTIVE_CAP = 10 ** 8
_CHUNK = 4096


@dataclass(frozen=True)
class SearchConfig:
    scenario: Scenario
    corr_range: tuple[int, int] = (-2, 2)
    marg_min: int = -3
    mode: str = "exhaustive"
    sample_count: int = 10 ** 5
    seed: int = 0
    strict_first: bool = True

    def __post_init__(self):
        lo, hi = self.corr_range
        if lo > hi:
            raise StructuralError(f"empty correlation range {self.corr_range}")
        if self.mode not in ("exhaustive", "random"):
            raise StructuralError(f"unknown search mode {self.mode!r}")
        if self.mode == "random" and self.sample_count < 1:
            raise StructuralError("sample_count must be >= 1 in random mode")


@dataclass(frozen=True)
class FacetFinding:
    functional: BellFunctional
    canonical: BellFunctional
    known_as: str | None


@dataclass
class SearchReport:
    config: SearchConfig
    candidates_tested: int
    facets_found: list[FacetFinding] = field(default_factory=list)
    new_count: int = 0
    trivial_count: int = 0


def _marginal_tuples(m: int, marg_min: int, strict_first: bool) -> list[tuple[int, ...]]:
    if marg_min > 0:
        raise StructuralError("marg_min must be <= 0")
    if m == 1:
        return [(0,)]
    out = []
    for head in combinations_with_replacement(range(marg_min, 1), m - 1):
        tup = head + (0,)
        if strict_first and not tup[0] < tup[1]:
            continue
        out.append(tup)
    return out


def _raw_candidates(cfg: SearchConfig) -> Iterator[tuple]:
    """(alice_marg, bob_marg, corr_flat) triples under the cfg constraints."""
    a_tuples = _marginal_tuples(cfg.scenario.m_a, cfg.marg_min, cfg.strict_first)
    b_tuples = _marginal_tuples(cfg.scenario.m_b, cfg.marg_min, cfg.strict_first)
    lo, hi = cfg.corr_range
    cells = cfg.scenario.m_a * cfg.scenario.m_b
    if cfg.mode == "exhaustive":
        size = len(a_tuples) * len(b_tuples) * (hi - lo + 1) ** cells
        if size > EXHAUSTIVE_CAP:
            raise CapacityError(
                f"exhaustive space has {size} candidates (cap {EXHAUSTIVE_CAP}); "
                "use random mode")
        for am in a_tuples:
            for bm in b_tuples:
                for flat in product(range(lo, hi + 1), repeat=cells):
                    yield am, bm, flat
    else:
        rng = random.Random(cfg.seed)
        for _ in range(cfg.sample_count):
            am = a_tuples[rng.randrange(len(a_tuples))]
            bm = b_tuples[rng.randrange(len(b_tuples))]
            flat = tuple(rng.randint(lo, hi) for _ in range(cells))
            yield am, bm, flat


def _build(cfg: SearchConfig, am, bm, flat, bound) -> BellFunctional:
    mb = cfg.scenario.m_b
    corr = [flat[x * mb:(x + 1) * mb] for x in range(cfg.scenario.m_a)]
    return BellFunctional(cfg.scenario, am, bm, tuple(tuple(r) for r in corr),
                          Fraction(bound))


def _trivial_key(scenario: Scenario):
    corr = [[0] * scenario.m_b for _ in range(scenario.m_a)]
    corr[0][0] = -1
    positivity = BellFunctional.build(
        [0] * scenario.m_a, [0] * scenario.m_b, corr, 0)
    return canonical_key(positivity)


def _catalog_keys(scenario: Scenario) -> dict:
    keys = {}
    for entry in catalog_list():
        native = entry.native_scenario
        if native == scenario:
            keys.setdefault(canonical_key(entry.functional), entry.name)
        elif native.m_a <= scenario.m_a and native.m_b <= scenario.m_b:
            lifted = lift(entry.functional, scenario)
            keys.setdefault(canonical_key(lifted), entry.name)
    return keys


def run_search(cfg: SearchConfig, out_dir: str | Path | None = None) -> SearchReport:
    """Generate, bound, facet-test, canonicalize and dedupe candidates."""
    scenario = cfg.scenario
    d = ns_dimension(scenario)
    report = SearchReport(config=cfg, candidates_tested=0)
    trivial = _trivial_key(scenario)
    known = _catalog_keys(scenario)
    seen: dict = {}

    candidates = _raw_candidates(cfg)
    while chunk := list(islice(candidates, _CHUNK)):
        report.candidates_tested += len(chunk)
        scores = _strategy_values(scenario, [am + bm + flat for am, bm, flat in chunk])
        bounds = scores.max(axis=1)
        sat_counts = (scores == bounds[:, None]).sum(axis=1)
        del scores  # hold one chunk's values at a time, not two
        for idx in np.nonzero(sat_counts >= d)[0]:
            f = _build(cfg, *chunk[idx], int(bounds[idx]))
            if not facet_check(f).is_tight:
                continue
            key = canonical_key(f)
            if key == trivial:
                report.trivial_count += 1
                continue
            if key in seen:
                continue
            seen[key] = f
            name = known.get(key)
            report.facets_found.append(
                FacetFinding(functional=f, canonical=canonical_form(f), known_as=name))
            if name is None:
                report.new_count += 1

    if out_dir is not None:
        _write_report(report, Path(out_dir))
    return report


def report_to_json(report: SearchReport) -> dict:
    cfg = report.config
    return {
        "config": {
            "scenario": {"ma": cfg.scenario.m_a, "mb": cfg.scenario.m_b},
            "corr_range": list(cfg.corr_range),
            "marg_min": cfg.marg_min,
            "mode": cfg.mode,
            "sample_count": cfg.sample_count,
            "seed": cfg.seed,
            "strict_first": cfg.strict_first,
        },
        "candidates_tested": report.candidates_tested,
        "trivial_count": report.trivial_count,
        "new_count": report.new_count,
        "facets_found": [
            {
                "known_as": finding.known_as,
                "functional": functional_to_json(finding.functional),
                "canonical": functional_to_json(finding.canonical),
            }
            for finding in report.facets_found
        ],
    }


def _write_report(report: SearchReport, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, finding in enumerate(report.facets_found):
        label = finding.known_as or "new"
        path = out_dir / f"facet_{i:03d}_{label}.bell"
        path.write_text(serialize_functional(finding.canonical, name=label))
    (out_dir / "report.json").write_text(
        json.dumps(report_to_json(report), indent=2) + "\n")
