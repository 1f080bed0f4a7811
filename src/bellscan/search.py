"""Candidate-table search for tight inequalities.

Coefficient tables are generated with correlations in a small integer
range and marginal columns ordered as

    marg_min <= M(0) < M(1) <= ... <= M(m-1) = 0

(the first "<" is configurable since the printed constraint is strict
there and "<=" later).  Every candidate's bound is its exact local bound,
so the facet test is the only filter that matters.  Both halves of that
test run on whole chunks of candidates with the facet test's own helpers.
The screen values each chunk at every deterministic strategy, one GEMM
against the behavior matrix per sub-block of _BLOCK values (exact in
float64 while max|coefficient| * d < 2^53, in Python integers beyond); the
matrix is built once per run while it fits in _BLOCK elements.  A
candidate's bound is its largest value.  Candidates with at least d
saturating strategies are rank-tested together: their difference matrices
V[sat] - V[first] are stacked and ranked modulo as many primes as a
Hadamard bound asks for.  Only candidates of affine rank d-1 become
`BellFunctional`s.  Found facets are deduplicated by canonical form and
matched against the catalog (including zero-padded liftings of
smaller-scenario entries); single-cell positivity facets are counted
separately as trivial.

Candidates arrive as int64 numpy chunks of at most _CHUNK coefficient rows
(M_A, M_B, then C by rows), the layout the scoring helper takes.  The
exhaustive stream decodes an index range in mixed radix, in the order of
nested loops over Alice's marginal tuple, Bob's, and the correlation cells
with the last cell fastest; the random stream draws each chunk from
numpy's default generator seeded with `seed`.  The positivity key and the
catalog keys are computed on demand: the first at the first tight
candidate, the second at the first new class, so a run that finds no facet
canonicalizes nothing.  The report counts the funnel: candidates screened,
those with at least d saturating strategies (rank-tested), and those that
passed the facet test (tight, trivial ones and repeats included).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
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
from .polytope import _BLOCK, _affine_dims, _behaviors, _strategy_values, ns_dimension
from .polytope import facet_check  # noqa: F401  (perfbench traces search.facet_check)
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
_COEFF_LIMIT = 2 ** 62  # candidates are int64 rows; numpy's generator takes int64 bounds


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
        if max(abs(lo), abs(hi), abs(self.marg_min)) >= _COEFF_LIMIT:
            raise StructuralError(
                f"coefficient ranges must lie within +-(2^62 - 1), got corr_range "
                f"{self.corr_range} and marg_min {self.marg_min}")
        if self.mode == "random" and self.sample_count < 1:
            raise StructuralError("sample_count must be >= 1 in random mode")
        if self.mode == "random" and self.seed < 0:
            raise StructuralError(f"seed must be >= 0, got {self.seed}")


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
    rank_tested: int = 0  # candidates with at least d saturating strategies
    tight: int = 0  # rank-tested candidates that are facets, trivial and repeats included


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


def _raw_candidates(cfg: SearchConfig) -> Iterator[np.ndarray]:
    """Chunks of at most _CHUNK int64 coefficient rows (M_A, M_B, then C by
    rows) under the cfg constraints."""
    a_rows = np.array(_marginal_tuples(cfg.scenario.m_a, cfg.marg_min, cfg.strict_first),
                      dtype=np.int64).reshape(-1, cfg.scenario.m_a)
    b_rows = np.array(_marginal_tuples(cfg.scenario.m_b, cfg.marg_min, cfg.strict_first),
                      dtype=np.int64).reshape(-1, cfg.scenario.m_b)
    lo, hi = cfg.corr_range
    cells = cfg.scenario.m_a * cfg.scenario.m_b
    if cfg.mode == "exhaustive":
        radix = hi - lo + 1
        per_marginals = radix ** cells
        size = len(a_rows) * len(b_rows) * per_marginals
        if size > EXHAUSTIVE_CAP:
            raise CapacityError(
                f"exhaustive space has {size} candidates (cap {EXHAUSTIVE_CAP}); "
                "use random mode")
        # mixed radix: Alice's tuple outermost, then Bob's, the last cell fastest
        place = radix ** np.arange(cells - 1, -1, -1, dtype=np.int64)
        for start in range(0, size, _CHUNK):
            index = np.arange(start, min(start + _CHUNK, size), dtype=np.int64)
            marginals, corr = np.divmod(index, per_marginals)
            yield np.hstack([a_rows[marginals // len(b_rows)], b_rows[marginals % len(b_rows)],
                             lo + corr[:, None] // place % radix])
    else:
        if not (len(a_rows) and len(b_rows)):
            raise StructuralError(
                f"no marginal tuple satisfies marg_min {cfg.marg_min} with "
                f"strict_first={cfg.strict_first}; random mode has nothing to draw")
        rng = np.random.default_rng(cfg.seed)
        for start in range(0, cfg.sample_count, _CHUNK):
            n = min(_CHUNK, cfg.sample_count - start)
            yield np.hstack([a_rows[rng.integers(len(a_rows), size=n)],
                             b_rows[rng.integers(len(b_rows), size=n)],
                             rng.integers(lo, hi, size=(n, cells), endpoint=True)])


def _build(scenario: Scenario, row: np.ndarray, bound: int) -> BellFunctional:
    ma, mb = scenario.m_a, scenario.m_b
    coeffs = row.tolist()
    corr = [coeffs[ma + mb + x * mb:ma + mb + (x + 1) * mb] for x in range(ma)]
    return BellFunctional(scenario, coeffs[:ma], coeffs[ma:ma + mb], corr, Fraction(bound))


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
    trivial = known = None  # keyed on first use: most runs never need them
    seen = set()

    rows_per_gemm = max(1, _BLOCK >> (scenario.m_a + scenario.m_b))
    count = 1 << (scenario.m_a + scenario.m_b)
    behaviors = _behaviors(scenario, np.arange(count)) if count * d <= _BLOCK else None
    for rows in _raw_candidates(cfg):
        report.candidates_tested += len(rows)
        bounds, saturated = [], []
        for start in range(0, len(rows), rows_per_gemm):
            values = _strategy_values(scenario, rows[start:start + rows_per_gemm], behaviors)
            bounds.append(values.max(axis=1))
            saturated.append(values == bounds[-1][:, None])
        bounds, saturated = np.concatenate(bounds), np.concatenate(saturated)
        ranked = np.flatnonzero(saturated.sum(axis=1) >= d)
        report.rank_tested += len(ranked)
        for idx in ranked[_affine_dims(scenario, saturated[ranked]) == d - 1]:
            report.tight += 1
            f = _build(scenario, rows[idx], int(bounds[idx]))
            if trivial is None:
                trivial = _trivial_key(scenario)
            key = canonical_key(f)
            if key == trivial:
                report.trivial_count += 1
                continue
            if key in seen:
                continue
            seen.add(key)
            if known is None:
                known = _catalog_keys(scenario)
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
        "rank_tested": report.rank_tested,
        "tight": report.tight,
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
