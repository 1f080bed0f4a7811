"""The two benchmark workloads: operations from a seed, and their checks.

A workload is a fixed list of operations.  Each operation belongs to one
group; the groups are the four parts the benchmark was designed around
(`table`, `thresholds-offcentre`, `search-exhaustive-3322`,
`search-random-4422`), paired into two workloads so that each run can be
long.  Every call goes through the bellscan module attribute at call time,
so a tracer that replaced the attribute sees it.  See README.md for why
each group exists and which layer it stresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from bellscan import robustness, search, table
from bellscan.catalog import catalog_get
from bellscan.core import Scenario

import checks

TABLE_ROWS = ("CHSH", "I3322", "I4322_2", "I4422_2", "I4422_4")

# (kind, catalog name, theta/pi)
OFFCENTRE_CALLS = (
    ("asym", "I3322", 0.01),
    ("asym", "I3322", 0.05),
    ("asym", "I4422_3", 0.01),
    ("asym", "I4422_3", 0.05),
    ("noise", "I4422_4", 0.2),
)

GROUPS = ("table", "thresholds-offcentre", "search-exhaustive-3322",
          "search-random-4422")


def derive_seed(seed: int, index: int) -> int:
    return (seed * 1000003 + index * 7919 + 17) & 0x7FFFFFFF


@dataclass(frozen=True)
class Op:
    group: str
    label: str
    input: Any
    run: Callable[[Any], Any]


def _table_row(args):
    row, seed = args  # compute_table derives the row's seed from it
    return table.compute_table([row], seed=seed, jobs=1)


def _offcentre(call):
    kind, name, t, call_seed = call
    f = catalog_get(name).functional
    theta = t * math.pi
    if kind == "asym":
        return robustness.eta_threshold_asymmetric(f, theta, seed=call_seed)
    return robustness.noise_threshold(f, theta, allow_degenerate=True, seed=call_seed)


def _search(cfg):
    return search.run_search(cfg)


def thresholds_ops(seed: int) -> list[Op]:
    ops = [Op("table", f"table:{row}", (row, seed), _table_row) for row in TABLE_ROWS]
    for i, (kind, name, t) in enumerate(OFFCENTRE_CALLS):
        ops.append(Op("thresholds-offcentre", f"{kind}:{name}@{t}",
                      (kind, name, t, derive_seed(seed, i)), _offcentre))
    return ops


def search_ops(seed: int) -> list[Op]:
    # the 3322 space is enumerated whole, so the seed does not change it
    exhaustive = search.SearchConfig(Scenario(3, 3), corr_range=(-1, 1), marg_min=-2)
    sampled = search.SearchConfig(Scenario(4, 4), mode="random", sample_count=10 ** 5,
                                  seed=derive_seed(seed, 0))
    return [Op("search-exhaustive-3322", "run_search:3322", exhaustive, _search),
            Op("search-random-4422", "run_search:4422", sampled, _search)]


def warm_up():
    """Load the catalog and touch the numeric code once before timing."""
    table.compute_table(["CHSH"], seed=0, jobs=1)


def check(samples) -> list[tuple[str, list[str]]]:
    """One (label, failures) per executed operation; `samples` are (op, output)."""
    by_group: dict[str, list] = {}
    for op, out in samples:
        by_group.setdefault(op.group, []).append((op, out))
    outcomes = []
    for group, pairs in by_group.items():
        if group == "table":
            outcomes += checks.check_table([row for _, rows in pairs for row in rows])
        elif group == "thresholds-offcentre":
            outcomes += checks.check_thresholds([op.input for op, _ in pairs],
                                                [out for _, out in pairs])
        elif group == "search-exhaustive-3322":
            outcomes += [o for _, out in pairs for o in checks.check_exhaustive(out)]
        else:
            outcomes += [o for op, out in pairs for o in checks.check_random(op.input, out)]
    return outcomes


WORKLOADS = {"thresholds": thresholds_ops, "search": search_ops}
