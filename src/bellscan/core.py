"""Exact data model for two-outcome bipartite Bell functionals.

A functional is an integer coefficient table acting on "behaviors", the
probability points

    (P(a=0|x), P(b=0|y), P(a=0,b=0|x,y)),

where x and y label the measurement settings of the two parties and the
tables weight the outcome "0" throughout.  The value of a functional on a
behavior is the linear form

    I(p) = sum_x M_A(x) p_a(x) + sum_y M_B(y) p_b(y)
         + sum_{x,y} C(x,y) p_ab(x,y).

Coefficients are arbitrary-precision integers and bounds exact rationals,
so every downstream computation that needs exactness (local bounds, facet
ranks, canonical forms) stays exact.  All objects are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "BellError",
    "StructuralError",
    "CapacityError",
    "FunctionalParseError",
    "Scenario",
    "BellFunctional",
    "DeterministicStrategy",
    "Behavior",
    "evaluate",
    "strategy_from_index",
    "lift",
    "parse_functional",
    "serialize_functional",
    "functional_to_json",
    "functional_from_json",
]

_BOX_TOL = 1e-9  # slack for float-valued behaviors; exact inputs pass exactly


class BellError(Exception):
    """Base class for errors raised by this package."""


class StructuralError(BellError, ValueError):
    """Objects whose shapes, labels or preconditions do not fit together."""


class CapacityError(BellError, ValueError):
    """Requested computation exceeds a configured size guard."""


class FunctionalParseError(BellError, ValueError):
    """Malformed functional text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_int(value, what: str):
    if isinstance(value, bool) or not isinstance(value, int):
        raise StructuralError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """Setting counts (m_a, m_b); outcomes are binary and fixed."""

    m_a: int
    m_b: int

    def __post_init__(self):
        _check_int(self.m_a, "m_a")
        _check_int(self.m_b, "m_b")
        if self.m_a < 1 or self.m_b < 1:
            raise StructuralError(f"setting counts must be >= 1, got {self}")

    @property
    def num_strategies(self) -> int:
        return 1 << (self.m_a + self.m_b)


@dataclass(frozen=True)
class BellFunctional:
    """Integer coefficient table (marginals + correlations) with a rational bound."""

    scenario: Scenario
    alice_marg: tuple[int, ...]
    bob_marg: tuple[int, ...]
    corr: tuple[tuple[int, ...], ...]
    bound: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alice_marg", tuple(self.alice_marg))
        object.__setattr__(self, "bob_marg", tuple(self.bob_marg))
        object.__setattr__(self, "corr", tuple(tuple(row) for row in self.corr))
        object.__setattr__(self, "bound", Fraction(self.bound))
        ma, mb = self.scenario.m_a, self.scenario.m_b
        if len(self.alice_marg) != ma:
            raise StructuralError(f"alice_marg has length {len(self.alice_marg)}, expected {ma}")
        if len(self.bob_marg) != mb:
            raise StructuralError(f"bob_marg has length {len(self.bob_marg)}, expected {mb}")
        if len(self.corr) != ma or any(len(row) != mb for row in self.corr):
            raise StructuralError(f"corr must be a {ma}x{mb} table")
        for c in self.alice_marg + self.bob_marg + tuple(v for row in self.corr for v in row):
            _check_int(c, "coefficient")

    @classmethod
    def build(cls, alice_marg: Sequence[int], bob_marg: Sequence[int],
              corr: Sequence[Sequence[int]], bound) -> "BellFunctional":
        """Construct a functional, inferring the scenario from the table shape."""
        scenario = Scenario(len(alice_marg), len(bob_marg))
        return cls(scenario, tuple(alice_marg), tuple(bob_marg),
                   tuple(tuple(row) for row in corr), Fraction(bound))


@dataclass(frozen=True)
class DeterministicStrategy:
    """Local deterministic strategy; bit 1 means the party outputs "0" for that setting."""

    s_a: tuple[int, ...]
    s_b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "s_a", tuple(self.s_a))
        object.__setattr__(self, "s_b", tuple(self.s_b))
        if not all(v in (0, 1) for v in self.s_a + self.s_b):
            raise StructuralError("strategy entries must be bits")


@dataclass(frozen=True)
class Behavior:
    """No-signaling point (P(a=0|x), P(b=0|y), P(00|xy)).

    No-signaling is built into the parametrization; the only constraints are
    the four joint-outcome nonnegativity conditions per setting pair.
    """

    p_a: tuple
    p_b: tuple
    p_ab: tuple

    def __post_init__(self):
        object.__setattr__(self, "p_a", tuple(self.p_a))
        object.__setattr__(self, "p_b", tuple(self.p_b))
        object.__setattr__(self, "p_ab", tuple(tuple(row) for row in self.p_ab))
        ma, mb = len(self.p_a), len(self.p_b)
        if len(self.p_ab) != ma or any(len(row) != mb for row in self.p_ab):
            raise StructuralError("p_ab shape does not match marginals")
        for v in self.p_a + self.p_b:
            if not -_BOX_TOL <= v <= 1 + _BOX_TOL:
                raise StructuralError(f"marginal probability {v} outside [0, 1]")
        for x in range(ma):
            for y in range(mb):
                j = self.p_ab[x][y]
                lo = max(0, self.p_a[x] + self.p_b[y] - 1)
                hi = min(self.p_a[x], self.p_b[y])
                if not lo - _BOX_TOL <= j <= hi + _BOX_TOL:
                    raise StructuralError(
                        f"joint probability {j} at ({x},{y}) violates box constraints")


def evaluate(f: BellFunctional, p: Behavior):
    """Value of the linear form; exact (rational) whenever the behavior is."""
    ma, mb = f.scenario.m_a, f.scenario.m_b
    if len(p.p_a) != ma or len(p.p_b) != mb:
        raise StructuralError(
            f"behavior shape ({len(p.p_a)},{len(p.p_b)}) does not match scenario ({ma},{mb})")
    total = 0
    for x in range(ma):
        total += f.alice_marg[x] * p.p_a[x]
    for y in range(mb):
        total += f.bob_marg[y] * p.p_b[y]
    for x in range(ma):
        row = f.corr[x]
        prow = p.p_ab[x]
        for y in range(mb):
            total += row[y] * prow[y]
    return total


def strategy_from_index(scenario: Scenario, index: int) -> DeterministicStrategy:
    """Strategy numbering: Alice bits in the low m_a positions, Bob above."""
    ma, mb = scenario.m_a, scenario.m_b
    if not 0 <= index < scenario.num_strategies:
        raise StructuralError(f"strategy index {index} out of range")
    s_a = tuple((index >> x) & 1 for x in range(ma))
    s_b = tuple((index >> (ma + y)) & 1 for y in range(mb))
    return DeterministicStrategy(s_a, s_b)


def lift(f: BellFunctional, scenario: Scenario) -> BellFunctional:
    """Zero-pad a functional into a larger scenario (extra settings unused)."""
    if scenario.m_a < f.scenario.m_a or scenario.m_b < f.scenario.m_b:
        raise StructuralError("target scenario is smaller than the functional's")
    extra_a = scenario.m_a - f.scenario.m_a
    extra_b = scenario.m_b - f.scenario.m_b
    corr = [tuple(row) + (0,) * extra_b for row in f.corr]
    corr += [(0,) * scenario.m_b] * extra_a
    return BellFunctional.build(
        f.alice_marg + (0,) * extra_a,
        f.bob_marg + (0,) * extra_b,
        corr,
        f.bound,
    )


# ---------------------------------------------------------------------------
# Text format.  One functional per file:
#   line 1:  bell <m_a> <m_b> <bound>        (bound integer or p/q)
#   line 2:  bob <m_b integers>
#   then m_a lines:  <alice marginal> | <m_b correlation integers>
# '#' starts a comment, blank lines are ignored.
# ---------------------------------------------------------------------------

def _parse_token_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FunctionalParseError(f"{what} must be an integer, got {token!r}", line) from None


def parse_functional(text: str) -> BellFunctional:
    entries: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            entries.append((lineno, content))
    if not entries:
        raise FunctionalParseError("no content lines found")

    lineno, header = entries[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "bell":
        raise FunctionalParseError("expected header 'bell <m_a> <m_b> <bound>'", lineno)
    ma = _parse_token_int(parts[1], lineno, "m_a")
    mb = _parse_token_int(parts[2], lineno, "m_b")
    try:
        bound = Fraction(parts[3])
    except (ValueError, ZeroDivisionError):
        raise FunctionalParseError(f"bad bound {parts[3]!r}", lineno) from None
    if ma < 1 or mb < 1:
        raise FunctionalParseError("setting counts must be >= 1", lineno)

    if len(entries) != 2 + ma:
        raise FunctionalParseError(
            f"expected {2 + ma} content lines for a {ma}x{mb} table, got {len(entries)}",
            entries[-1][0])

    lineno, bob_line = entries[1]
    parts = bob_line.split()
    if not parts or parts[0] != "bob":
        raise FunctionalParseError("expected 'bob <marginals>'", lineno)
    if len(parts) != 1 + mb:
        raise FunctionalParseError(f"expected {mb} marginals after 'bob'", lineno)
    bob_marg = tuple(_parse_token_int(t, lineno, "marginal") for t in parts[1:])

    alice_marg = []
    corr = []
    for lineno, row_line in entries[2:]:
        if "|" not in row_line:
            raise FunctionalParseError("expected '<marginal> | <correlations>'", lineno)
        left, _, right = row_line.partition("|")
        left_tokens = left.split()
        if len(left_tokens) != 1:
            raise FunctionalParseError("expected a single marginal before '|'", lineno)
        alice_marg.append(_parse_token_int(left_tokens[0], lineno, "marginal"))
        row_tokens = right.split()
        if len(row_tokens) != mb:
            raise FunctionalParseError(
                f"expected {mb} correlation coefficients, got {len(row_tokens)}", lineno)
        corr.append(tuple(_parse_token_int(t, lineno, "coefficient") for t in row_tokens))

    return BellFunctional.build(alice_marg, bob_marg, corr, bound)


def serialize_functional(f: BellFunctional, name: str | None = None) -> str:
    """Text form; parse(serialize(f)) == f exactly."""
    lines = []
    if name:
        lines.append(f"# {name}")
    lines.append(f"bell {f.scenario.m_a} {f.scenario.m_b} {f.bound}")
    lines.append("bob " + " ".join(str(v) for v in f.bob_marg))
    width = max(len(str(v)) for v in f.alice_marg)
    for x in range(f.scenario.m_a):
        row = " ".join(f"{v:>2}" for v in f.corr[x])
        lines.append(f"{f.alice_marg[x]:>{width}} | {row}")
    return "\n".join(lines) + "\n"


def functional_to_json(f: BellFunctional, name: str | None = None) -> dict:
    obj = {
        "scenario": {"ma": f.scenario.m_a, "mb": f.scenario.m_b},
        "alice_marg": list(f.alice_marg),
        "bob_marg": list(f.bob_marg),
        "corr": [list(row) for row in f.corr],
        "bound": {"num": f.bound.numerator, "den": f.bound.denominator},
    }
    if name is not None:
        obj["name"] = name
    return obj


def functional_from_json(obj: dict) -> BellFunctional:
    try:
        scenario = Scenario(int(obj["scenario"]["ma"]), int(obj["scenario"]["mb"]))
        bound = Fraction(int(obj["bound"]["num"]), int(obj["bound"]["den"]))
        return BellFunctional(
            scenario,
            tuple(int(v) for v in obj["alice_marg"]),
            tuple(int(v) for v in obj["bob_marg"]),
            tuple(tuple(int(v) for v in row) for row in obj["corr"]),
            bound,
        )
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"malformed functional object: {exc}") from None
