"""Embedded catalog of tight two-outcome Bell inequalities.

31 primary entries: CHSH (the unique 2222 facet class), I3322, the three
4322 facet classes, and 26 pairwise inequivalent 4422 facets.  Each table
is stored in its printed orientation, byte-for-byte, in the package text
format; I3322_TILDE is a supplementary entry, the symmetric relabeling of
I3322.  Validity (local bound equals the stored bound, facet-ness) is
enforced by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import BellError, BellFunctional, Scenario, parse_functional

__all__ = [
    "CatalogEntry",
    "CatalogKeyError",
    "catalog_get",
    "catalog_list",
    "PRIMARY_NAMES",
    "SUPPLEMENTARY_NAMES",
]


class CatalogKeyError(BellError, KeyError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    functional: BellFunctional
    native_scenario: Scenario
    primary: bool


_TABLES: dict[str, str] = {
    "CHSH": """
        bell 2 2 0
        bob -1  0
        -1 |  1  1
         0 |  1 -1
    """,
    "I3322": """
        bell 3 3 0
        bob -1  0  0
        -2 |  1  1  1
        -1 |  1  1 -1
         0 |  1 -1  0
    """,
    "I3322_TILDE": """
        bell 3 3 0
        bob -1 -1  0
        -1 |  0  1  1
        -1 |  1 -1  1
         0 |  1  1 -1
    """,
    "I4322_1": """
        bell 4 3 0
        bob -1  0  0
        -2 |  1  1  1
        -1 |  1 -1  1
        -1 |  1  1 -1
         0 |  1 -1 -1
    """,
    "I4322_2": """
        bell 4 3 0
        bob -2 -1  0
        -1 |  1  1  1
         0 |  0  1 -1
         0 |  1 -1  0
         0 |  1  0 -1
    """,
    "I4322_3": """
        bell 4 3 0
        bob -1 -1  0
        -2 |  2  1  1
        -1 | -1  1  1
         0 |  0  1 -1
         0 |  1 -1 -1
    """,
    "I4422_1": """
        bell 4 4 0
        bob -1 -1 -1  0
        -1 |  0  0  1  1
        -1 |  0  1 -1  1
        -1 |  1 -1 -1  1
         0 |  1  1  1 -1
    """,
    "I4422_2": """
        bell 4 4 0
        bob -3 -1  0  0
        -2 |  2  1  2  0
        -1 |  1  1 -1  1
         0 |  2 -2 -1  0
         0 |  1  1 -1 -1
    """,
    "A5": """
        bell 4 4 0
        bob -1 -1 -1  0
        -1 |  0  1  1  1
        -1 |  1  1  1 -1
        -1 |  1  1 -1  0
         0 |  1 -1  0  0
    """,
    "A6": """
        bell 4 4 0
        bob -1 -1  0  0
        -1 |  1  1  0  1
        -1 |  1  0  1 -1
         0 |  0  1 -1 -1
         0 |  1 -1 -1 -1
    """,
    "AS1": """
        bell 4 4 0
        bob -2 -1  0  0
        -2 |  1  1  1  1
        -1 |  1  1  1 -1
         0 |  1  1 -2  0
         0 |  1 -1  0  0
    """,
    "AS2": """
        bell 4 4 0
        bob -3 -1 -1  0
        -3 |  1  1  2  2
        -1 |  1  2  1 -2
        -1 |  2  1 -2  1
         0 |  2 -2  1 -1
    """,
    "AII1": """
        bell 4 4 0
        bob -1 -1 -1  0
        -1 | -1  1  1  1
        -1 |  1  0  2 -1
        -1 |  1  2 -1 -1
         0 |  1 -1 -1  0
    """,
    "AII2": """
        bell 4 4 0
        bob -3 -1  0 -1
        -1 |  2  1  1 -1
        -1 |  1  2 -1  1
         0 |  1 -1 -1  1
         0 |  1 -1  0  0
    """,
    "I4422_3": """
        bell 4 4 0
        bob -2 -1 -1  0
        -1 |  1  1  1  1
         0 |  0  1  0 -1
         0 |  1 -1  1 -1
         0 |  1  0 -1  0
    """,
    "I4422_4": """
        bell 4 4 0
        bob -1 -1  0  0
        -1 |  1  1  1 -1
        -1 |  1  1 -1  1
         0 |  1 -1 -1 -1
         0 | -1  1 -1 -1
    """,
    "I4422_5": """
        bell 4 4 0
        bob -2 -1  0  0
        -1 |  1  0  1  0
        -1 |  1  1 -1  1
         0 |  1 -1  0  0
         0 |  1  1 -1 -1
    """,
    "I4422_6": """
        bell 4 4 0
        bob -2 -1 -1  0
        -1 |  1 -1  1  1
        -1 |  1  1 -1  1
         0 |  1 -1  1 -1
         0 |  1  1 -1 -1
    """,
    "I4422_7": """
        bell 4 4 1
        bob -1  0  0  0
        -1 |  2 -1 -1  1
         0 | -1 -1  0  1
         0 |  0  1 -1  0
         0 |  1  0  1 -1
    """,
    "I4422_8": """
        bell 4 4 0
        bob -2 -1 -1  0
        -2 |  1  1  2  1
        -1 |  1  2 -2  0
        -1 |  2 -2 -1  1
         0 |  1  0  1 -2
    """,
    "I4422_9": """
        bell 4 4 0
        bob -2 -1 -1  0
        -2 |  1  1  2  1
        -1 |  1  2 -2  0
        -1 |  2 -2 -2  1
         0 |  1  0  1 -1
    """,
    "I4422_10": """
        bell 4 4 0
        bob -2 -1 -1  0
        -2 |  1  1  1  2
        -1 |  1  1  2 -2
        -1 |  1  2 -2 -1
         0 |  2 -2 -1 -1
    """,
    "I4422_11": """
        bell 4 4 0
        bob -2 -1 -1  0
        -2 |  1  1  1  2
        -1 |  1  0  2 -1
        -1 |  1  2 -1 -1
         0 |  2 -1 -1 -1
    """,
    "I4422_12": """
        bell 4 4 0
        bob -2 -1 -1  0
        -2 |  1  1  1  2
        -1 |  1 -1  1  0
        -1 |  1  1  2 -2
         0 |  2  0 -2 -1
    """,
    "I4422_13": """
        bell 4 4 0
        bob -2 -1 -1  0
        -2 |  0  1  1  1
        -1 |  1 -2  1  1
        -1 |  1  1 -1  1
         0 |  1  1  1 -1
    """,
    "I4422_14": """
        bell 4 4 0
        bob -2 -1  0  0
        -2 |  2  2  0  1
        -1 |  2 -1  1 -1
         0 |  0  1 -1 -1
         0 |  1 -1 -1  0
    """,
    "I4422_15": """
        bell 4 4 0
        bob -2 -1  0  0
        -2 |  2  1  1  1
        -1 |  1 -1 -1  1
         0 |  1 -1  0 -1
         0 |  1  1 -1 -1
    """,
    "I4422_16": """
        bell 4 4 0
        bob -2 -1  0  0
        -2 |  2  0  1  1
        -1 |  0  1 -1  1
         0 |  1 -1 -1  0
         0 |  1  1  0 -1
    """,
    "I4422_17": """
        bell 4 4 0
        bob -2 -1 -1 -1
        -2 | -1  1  2  2
        -1 |  1 -1 -1  2
        -1 |  2 -1  2 -1
        -1 |  2  2 -1  0
    """,
    "I4422_18": """
        bell 4 4 0
        bob -2 -2  0  0
        -2 |  2  2  2 -1
        -2 |  2  1 -2  2
         0 |  2 -2 -2 -2
         0 | -1  2 -2 -1
    """,
    "I4422_19": """
        bell 4 4 0
        bob -3 -2  0  0
        -3 |  2  2  1  2
        -2 |  2 -1  2 -2
         0 |  1  2 -1 -1
         0 |  2 -2 -1  0
    """,
    "I4422_20": """
        bell 4 4 0
        bob -2 -2 -2  0
        -2 | -1  1  1  2
        -2 |  1 -1  1  2
        -2 |  1  1 -2  2
         0 |  2  2  2 -2
    """,
}

SUPPLEMENTARY_NAMES: tuple[str, ...] = ("I3322_TILDE",)
PRIMARY_NAMES: tuple[str, ...] = tuple(n for n in _TABLES if n not in SUPPLEMENTARY_NAMES)


@lru_cache(maxsize=None)
def catalog_get(name: str) -> CatalogEntry:
    """Look up a catalog entry by name; unknown names list the valid ones."""
    if name not in _TABLES:
        valid = ", ".join(PRIMARY_NAMES + SUPPLEMENTARY_NAMES)
        raise CatalogKeyError(f"unknown inequality {name!r}; valid names: {valid}")
    functional = parse_functional(_TABLES[name])
    return CatalogEntry(
        name=name,
        functional=functional,
        native_scenario=functional.scenario,
        primary=name in PRIMARY_NAMES,
    )


def catalog_list() -> list[CatalogEntry]:
    """All entries: the 31 primary ones in benchmark order, then supplementary."""
    return [catalog_get(name) for name in PRIMARY_NAMES + SUPPLEMENTARY_NAMES]
