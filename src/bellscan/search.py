"""Candidate-table search for tight inequalities.

Coefficient tables are generated with correlations in a small integer
range and marginal columns ordered as

    marg_min <= M(0) < M(1) <= ... <= M(m-1) = 0

(the first "<" is configurable since the printed constraint is strict
there and "<=" later).  Every candidate's bound is its exact local bound,
so the facet test is the only filter that matters.  The search screens and
ranks only what can change its report.

The exhaustive stream yields only candidates that come first in their
relabeling orbit.  Permuting settings with equal marginal values, and on
square scenarios swapping the parties, maps the nested-loop stream into
itself and keeps the bound, tightness and canonical key.  So the first
tight row of each class in stream order is the least image of its orbit,
and a least image has C's rows nondecreasing within each run of equal
Alice marginals, its columns nondecreasing within each run of equal Bob
marginals, and (square only) Alice's marginal tuple at most Bob's.  The
stream holds exactly the rows with these three properties, so the classes
found, their first rows and the new count are those of the nested loops;
only the funnel counts are smaller.  Random mode draws from the full space.

The screen scores each chunk by Bob's best response to each of Alice's
strategies (`polytope._best_responses`): a candidate's bound and its number
of saturating strategies come without its strategy table.  Candidates with
at least d saturating strategies are rank-tested, and only they are valued
at every deterministic strategy, for their saturating masks
(`polytope._strategy_values`, from the same fields as the best responses),
in blocks of _BLOCK values.  Both are exact (float64 while
max|coefficient| * d < 2^53, Python integers beyond).  Each chunk's
rank-tested candidates join a queue (coefficient row, bound and bit-packed
saturating mask, copied out of the chunk), and once it holds _RANK_QUEUE
candidates, or the stream ends, its distinct masks are taken once each
(exhaustive 3322: 834 rank-tested, 331 distinct).  A coordinate of the 0/1
behavior vector that is constant over a set is a zero column of
V[sat] - V[first], so the set's affine dimension is at most the number of
coordinates that vary over it (`_varying`); sets with fewer than d-1 are
settled without a rank (221 of the 331).  The rest are ranked as difference
matrices V[sat] - V[first] in size-sorted stacks modulo as many primes as a
Hadamard bound asks for.  The queue's candidates of affine rank d-1 then
become `BellFunctional`s in stream order, so the report does not depend on
where the queue is flushed; each is first divided by the gcd of its
coefficients and bound, because a positive multiple of a facet is the same
facet.  Found facets are deduplicated by canonical key and matched against
the catalog.  Every key is canonical_key(lift(g, scenario)): g is the 1x1
positivity table, whose class is counted separately as trivial, or a
catalog entry (lift to its own scenario is the identity).  Off the diagonal
(m_a != m_b) a key does not carry the party swap, so each entry is also
entered with its parties swapped, after every entry in its printed order.

Candidates arrive as int64 numpy chunks of 1 to _CHUNK coefficient rows
(M_A, M_B, then C by rows), the layout the scoring helper takes.  The
exhaustive stream visits the marginal pairs as nested loops, Alice's tuple
outer, and decodes each pair's correlation tables in _CHUNK-row slices of
mixed radix with the last cell fastest; each slice yields its least images,
if it has any.  The random stream draws each chunk from numpy's default
generator seeded with `seed`.  The positivity key and the catalog keys are
computed on demand: the first at the first tight candidate, the second at
the first new class, so a run that finds no facet canonicalizes nothing.
The report counts the funnel: candidates screened (the least images in
exhaustive mode), those with at least d saturating strategies
(rank-tested), and those that passed the facet test (tight, trivial ones
and repeats included); beside it, the distinct saturating sets and, of
those, the ones the support screen settled (the rank layer's work is the
difference).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
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
from .polytope import (
    _BLOCK,
    _affine_dims,
    _behaviors,
    _best_responses,
    _strategy_values,
    ns_dimension,
)
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
_RANK_QUEUE = _CHUNK  # rank-tested candidates held before their distinct sets are ranked
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
        if self.marg_min > 0:
            raise StructuralError("marg_min must be <= 0")
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
    candidates_tested: int  # rows screened: in exhaustive mode, the least images
    facets_found: list[FacetFinding] = field(default_factory=list)
    new_count: int = 0
    trivial_count: int = 0
    rank_tested: int = 0  # candidates with at least d saturating strategies
    tight: int = 0  # rank-tested candidates that are facets, trivial and repeats included
    rank_sets: int = 0  # distinct saturating sets, counted once per queue flush
    support_settled: int = 0  # of those, the sets too narrow to rank (see _varying)


def _marginal_tuples(m: int, marg_min: int, strict_first: bool) -> list[tuple[int, ...]]:
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
    """Chunks of 1 to _CHUNK int64 coefficient rows (M_A, M_B, then C by
    rows) under the cfg constraints.  In exhaustive mode they are the least
    images of the nested-loop stream, in its order: a square pair with
    Alice's tuple above Bob's is skipped, and of each _CHUNK-row slice of a
    pair's block, decoded as C - lo, only the tables whose tied lines are
    nondecreasing are kept."""
    ma, mb = cfg.scenario.m_a, cfg.scenario.m_b
    a_rows = np.array(_marginal_tuples(ma, cfg.marg_min, cfg.strict_first),
                      dtype=np.int64).reshape(-1, ma)
    b_rows = np.array(_marginal_tuples(mb, cfg.marg_min, cfg.strict_first),
                      dtype=np.int64).reshape(-1, mb)
    lo, hi = cfg.corr_range
    cells = ma * mb
    if cfg.mode == "exhaustive":
        radix = hi - lo + 1
        block = radix ** cells
        size = len(a_rows) * len(b_rows) * block
        if size > EXHAUSTIVE_CAP:
            raise CapacityError(
                f"exhaustive space has {size} candidates (cap {EXHAUSTIVE_CAP}); "
                "use random mode")
        for alice, bob in product(a_rows, b_rows):
            if ma == mb and alice.tolist() > bob.tolist():
                continue  # the pair with the parties swapped comes first
            a_ties = np.flatnonzero(alice[1:] == alice[:-1])
            b_ties = np.flatnonzero(bob[1:] == bob[:-1])
            for start in range(0, block, _CHUNK):
                # every digit is peeled off as c - c // radix * radix, which
                # equals c % radix here and costs far less in numpy
                index = np.arange(start, min(start + _CHUNK, block), dtype=np.int64)
                digits = np.empty((cells, len(index)), dtype=np.int64)
                for cell in range(cells - 1, -1, -1):
                    rest = index // radix
                    digits[cell] = index - rest * radix
                    index = rest
                grid = digits.reshape(ma, mb, -1)  # grid[x, y]: cell (x, y) of each row
                keep = np.ones(digits.shape[1], dtype=bool)
                for k in a_ties:
                    keep &= _code(grid[k], radix) <= _code(grid[k + 1], radix)
                for k in b_ties:
                    keep &= _code(grid[:, k], radix) <= _code(grid[:, k + 1], radix)
                kept = np.flatnonzero(keep)
                if len(kept):  # the scorers take no empty table
                    chunk = np.empty((len(kept), ma + mb + cells), dtype=np.int64)
                    chunk[:, :ma], chunk[:, ma:ma + mb] = alice, bob
                    chunk[:, ma + mb:] = digits[:, kept].T + lo
                    yield chunk
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


def _code(line: np.ndarray, radix: int) -> np.ndarray:
    """Horner's rule over a line's entries, one code per row.  Entries of
    C - lo lie in [0, radix), so the codes order the lines lexicographically,
    first entry most significant, and stay below radix^m, which the
    exhaustive cap keeps within int64."""
    code = line[0]
    for entry in line[1:]:
        code = code * radix + entry
    return code


def _build(scenario: Scenario, row: np.ndarray, bound: int) -> BellFunctional:
    ma, mb = scenario.m_a, scenario.m_b
    coeffs = row.tolist()
    corr = [coeffs[ma + mb + x * mb:ma + mb + (x + 1) * mb] for x in range(ma)]
    return BellFunctional(scenario, coeffs[:ma], coeffs[ma:ma + mb], corr, Fraction(bound))


def _screen(scenario: Scenario, rows: np.ndarray) -> tuple:
    """A chunk's candidates with at least d saturating strategies: their
    rows, bounds and bit-packed saturating masks.  Bounds and counts come
    from Bob's best responses; only the candidates that go on to the rank
    test are valued at every strategy, for their masks, a few rows at a time
    so that no value table holds more than _BLOCK values.  Fancy indexing
    copies them, so a queue of these keeps no chunk array alive."""
    bounds, counts = _best_responses(scenario, rows)
    ranked = np.flatnonzero(counts >= ns_dimension(scenario))
    rows, bounds = rows[ranked], bounds[ranked]
    saturated = np.empty((len(rows), 1 << (scenario.m_a + scenario.m_b)), dtype=bool)
    step = max(1, _BLOCK >> (scenario.m_a + scenario.m_b))
    for start in range(0, len(rows), step):
        values = _strategy_values(scenario, rows[start:start + step])
        saturated[start:start + step] = values == bounds[start:start + step, None]
    return rows, bounds, np.packbits(saturated, axis=1)


def _varying(scenario: Scenario, masks: np.ndarray) -> np.ndarray:
    """Per nonempty saturating set (a row of a (n, 2^(m_a+m_b)) mask), the
    number of coordinates of the 0/1 behavior vector that are not constant
    over it.  A constant coordinate is a zero column of V[sat] - V[first], so
    this count bounds the set's affine dimension.  Only the saturating
    strategies' vectors are built, as in the rank."""
    owner, index = np.nonzero(masks)
    sizes = np.bincount(owner, minlength=len(masks))
    ones = np.add.reduceat(_behaviors(scenario, index), np.cumsum(sizes) - sizes)
    return ((ones > 0) & (ones < sizes[:, None])).sum(axis=1)


def _trivial_key(scenario: Scenario):
    positivity = BellFunctional.build([0], [0], [[-1]], 0)
    return canonical_key(lift(positivity, scenario))


def _catalog_keys(scenario: Scenario) -> dict:
    tables = [(entry.name, entry.functional) for entry in catalog_list()]
    if scenario.m_a != scenario.m_b:  # keys carry the party swap only on the diagonal
        tables += [(name, BellFunctional.build(f.bob_marg, f.alice_marg, zip(*f.corr), f.bound))
                   for name, f in tables]
    keys = {}
    for name, f in tables:
        if f.scenario.m_a <= scenario.m_a and f.scenario.m_b <= scenario.m_b:
            keys.setdefault(canonical_key(lift(f, scenario)), name)
    return keys


def run_search(cfg: SearchConfig, out_dir: str | Path | None = None) -> SearchReport:
    """Generate, bound, facet-test, canonicalize and dedupe candidates."""
    scenario = cfg.scenario
    d = ns_dimension(scenario)
    report = SearchReport(config=cfg, candidates_tested=0)
    trivial = known = None  # keyed on first use: most runs never need them
    seen = set()

    def flush(queue):
        """Rank each distinct saturating set in the queue once, then take
        its tight candidates in stream order."""
        nonlocal trivial, known
        rows, bounds, packed = zip(*queue)
        packed = np.concatenate(packed)
        # one void item per mask: a byte-wise sort, far cheaper than axis=0
        keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
        sets, inverse = np.unique(keys, return_inverse=True)
        report.rank_sets += len(sets)
        masks = np.unpackbits(sets.view(np.uint8).reshape(len(sets), -1), axis=1,
                              count=count).astype(bool)
        # the affine dimension is at most the number of varying coordinates
        ranked = np.flatnonzero(_varying(scenario, masks) >= d - 1)
        report.support_settled += len(sets) - len(ranked)
        tight = np.zeros(len(sets), dtype=bool)
        tight[ranked] = _affine_dims(scenario, masks[ranked]) == d - 1
        tight = tight[inverse]
        # joined only after ranking, so the copy never meets the rank stacks
        rows, bounds = np.concatenate(rows)[tight], np.concatenate(bounds)[tight]
        for row, bound in zip(rows, bounds):
            report.tight += 1
            # a positive multiple of a facet is that facet: key its reduced row
            divisor = math.gcd(*row.tolist(), int(bound))
            f = _build(scenario, row // divisor, int(bound) // divisor)
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

    count = 1 << (scenario.m_a + scenario.m_b)
    queue, queued = [], 0  # one _screen result per chunk
    for rows in _raw_candidates(cfg):
        report.candidates_tested += len(rows)
        queue.append(_screen(scenario, rows))
        report.rank_tested += len(queue[-1][0])
        queued += len(queue[-1][0])
        if queued >= _RANK_QUEUE:
            flush(queue)
            queue, queued = [], 0
    if queued:
        flush(queue)

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
        "rank_sets": report.rank_sets,
        "support_settled": report.support_settled,
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
