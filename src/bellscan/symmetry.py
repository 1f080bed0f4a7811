"""Relabeling symmetries of Bell functionals and canonical forms.

The group is generated by per-setting output flips, setting permutations on
each side, and (for square scenarios) the party swap; its order for (4,4)
is 4! * 4! * 2^8 * 2 = 294912.  Flipping the output of Alice's setting x
rewrites the table as

    M'(A_x) = -M(A_x),   M'(B_y) += C(x,y),   C'(x,y) = -C(x,y),
    bound'  = bound - M(A_x),

which leaves I(p) - bound invariant under the corresponding relabeling of
behaviors; Bob flips are symmetric.  A transformation applies flips first
(indexed by original settings), then permutations, then the swap.

Two functionals are equivalent iff their orbits coincide; the canonical
form is the lexicographically minimal table over the orbit, ordered by
(bound, alice_marg, bob_marg, corr row-major).  Orbit minimization prunes
on the bound (flip-determined) and on sorted marginals, so a canonical
form costs far less than the full 294912-element scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator

from .core import BellFunctional, Scenario, StructuralError

__all__ = [
    "Transformation",
    "random_transformation",
    "apply_transformation",
    "canonical_form",
    "canonical_key",
    "equivalent",
    "symmetric_representative",
]


@dataclass(frozen=True)
class Transformation:
    """Group element: setting permutations, output-flip masks, optional swap."""

    alice_perm: tuple[int, ...]
    bob_perm: tuple[int, ...]
    alice_flips: tuple[int, ...]
    bob_flips: tuple[int, ...]
    swap_parties: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alice_perm", tuple(self.alice_perm))
        object.__setattr__(self, "bob_perm", tuple(self.bob_perm))
        object.__setattr__(self, "alice_flips", tuple(self.alice_flips))
        object.__setattr__(self, "bob_flips", tuple(self.bob_flips))
        ma, mb = len(self.alice_perm), len(self.bob_perm)
        if sorted(self.alice_perm) != list(range(ma)):
            raise StructuralError(f"alice_perm {self.alice_perm} is not a permutation")
        if sorted(self.bob_perm) != list(range(mb)):
            raise StructuralError(f"bob_perm {self.bob_perm} is not a permutation")
        if len(self.alice_flips) != ma or len(self.bob_flips) != mb:
            raise StructuralError("flip masks must match the permutation lengths")
        if not all(v in (0, 1) for v in self.alice_flips + self.bob_flips):
            raise StructuralError("flip masks must be bit vectors")
        if self.swap_parties and ma != mb:
            raise StructuralError("party swap requires m_a == m_b")


def random_transformation(s: Scenario, rng: random.Random,
                          allow_swap: bool = True) -> Transformation:
    aperm = list(range(s.m_a))
    bperm = list(range(s.m_b))
    rng.shuffle(aperm)
    rng.shuffle(bperm)
    swap = allow_swap and s.m_a == s.m_b and rng.random() < 0.5
    return Transformation(
        tuple(aperm), tuple(bperm),
        tuple(rng.randrange(2) for _ in range(s.m_a)),
        tuple(rng.randrange(2) for _ in range(s.m_b)),
        swap)


# ---------------------------------------------------------------------------
# Source maps: a transformation is determined by where each relabeled
# (party, setting) reads from, together with a flip bit.
# ---------------------------------------------------------------------------

def _source_map(t: Transformation) -> dict[tuple[int, int], tuple[int, int, int]]:
    out = {}
    perms = (t.alice_perm, t.bob_perm)
    flips = (t.alice_flips, t.bob_flips)
    sizes = (len(t.alice_perm), len(t.bob_perm))
    for party in (0, 1):
        src_party = 1 - party if t.swap_parties else party
        perm = perms[src_party]
        flip = flips[src_party]
        for i in range(sizes[party]):
            j = perm[i]
            out[(party, i)] = (src_party, j, flip[j])
    return out


# ---------------------------------------------------------------------------
# Actions on tables and behaviors.
# ---------------------------------------------------------------------------

def _check_compatible(f: BellFunctional, t: Transformation):
    if len(t.alice_perm) != f.scenario.m_a or len(t.bob_perm) != f.scenario.m_b:
        raise StructuralError("transformation does not match the functional's scenario")


def _flip_table(bound, am, bm, corr, amask: int, bmask: int):
    """Apply output flips (masks over original setting indices) to a raw table."""
    am = list(am)
    bm = list(bm)
    corr = [list(row) for row in corr]
    ma, mb = len(am), len(bm)
    for x in range(ma):
        if (amask >> x) & 1:
            bound = bound - am[x]
            am[x] = -am[x]
            row = corr[x]
            for y in range(mb):
                bm[y] += row[y]
                row[y] = -row[y]
    for y in range(mb):
        if (bmask >> y) & 1:
            bound = bound - bm[y]
            bm[y] = -bm[y]
            for x in range(ma):
                am[x] += corr[x][y]
                corr[x][y] = -corr[x][y]
    return bound, am, bm, corr


def apply_transformation(f: BellFunctional, t: Transformation) -> BellFunctional:
    """Relabeled functional; I(p) - bound is preserved on relabeled behaviors."""
    _check_compatible(f, t)
    amask = sum(1 << x for x in range(f.scenario.m_a) if t.alice_flips[x])
    bmask = sum(1 << y for y in range(f.scenario.m_b) if t.bob_flips[y])
    bound, am, bm, corr = _flip_table(
        f.bound, f.alice_marg, f.bob_marg, f.corr, amask, bmask)
    am = [am[t.alice_perm[x]] for x in range(f.scenario.m_a)]
    bm = [bm[t.bob_perm[y]] for y in range(f.scenario.m_b)]
    corr = [[corr[t.alice_perm[x]][t.bob_perm[y]] for y in range(f.scenario.m_b)]
            for x in range(f.scenario.m_a)]
    if t.swap_parties:
        am, bm = bm, am
        corr = [list(col) for col in zip(*corr)]
    return BellFunctional.build(am, bm, corr, bound)


# ---------------------------------------------------------------------------
# Canonical forms.
# ---------------------------------------------------------------------------

def _sorting_perms(values) -> Iterator[tuple[int, ...]]:
    """Index permutations that arrange `values` in nondecreasing order."""
    groups: dict = {}
    for i, v in enumerate(values):
        groups.setdefault(v, []).append(i)
    blocks = [groups[v] for v in sorted(groups)]
    for choice in product(*(permutations(b) for b in blocks)):
        yield tuple(i for block in choice for i in block)


def canonical_key(f: BellFunctional) -> tuple:
    """Lexicographically minimal (bound, alice_marg, bob_marg, corr-flat) over the orbit."""
    ma, mb = f.scenario.m_a, f.scenario.m_b
    bases = [(f.bound, f.alice_marg, f.bob_marg, f.corr)]
    if ma == mb:
        bases.append((f.bound, f.bob_marg, f.alice_marg,
                      tuple(tuple(col) for col in zip(*f.corr))))
    best = None
    for base in bases:
        for amask in range(1 << ma):
            for bmask in range(1 << mb):
                bound, am, bm, corr = _flip_table(*base, amask, bmask)
                sa = tuple(sorted(am))
                sb = tuple(sorted(bm))
                if best is not None and (bound, sa, sb) > best[:3]:
                    continue
                for rp in _sorting_perms(am):
                    rows = [corr[i] for i in rp]
                    for cp in _sorting_perms(bm):
                        flat = tuple(rows[x][y] for x in range(ma) for y in cp)
                        cand = (bound, sa, sb, flat)
                        if best is None or cand < best:
                            best = cand
    return best


def canonical_form(f: BellFunctional) -> BellFunctional:
    """Orbit representative with the minimal serialization; idempotent."""
    bound, am, bm, flat = canonical_key(f)
    mb = f.scenario.m_b
    corr = [flat[x * mb:(x + 1) * mb] for x in range(f.scenario.m_a)]
    return BellFunctional.build(am, bm, corr, bound)


def equivalent(f: BellFunctional, g: BellFunctional) -> bool:
    if f.scenario != g.scenario:
        raise StructuralError(
            f"cannot compare functionals of scenarios {f.scenario} and {g.scenario}")
    return canonical_key(f) == canonical_key(g)


def _is_symmetric(f: BellFunctional) -> bool:
    if f.alice_marg != f.bob_marg:
        return False
    m = f.scenario.m_a
    return all(f.corr[x][y] == f.corr[y][x] for x in range(m) for y in range(x + 1, m))


def _matching_perms(values, target) -> Iterator[tuple[int, ...]]:
    """Index permutations cp with values[cp[j]] == target[j] for all j."""
    positions: dict = {}
    for i, v in enumerate(values):
        positions.setdefault(v, []).append(i)
    slots: dict = {}
    for j, v in enumerate(target):
        slots.setdefault(v, []).append(j)
    if set(positions) != set(slots) or any(
            len(positions[v]) != len(slots[v]) for v in positions):
        return
    keys = sorted(positions)
    for choice in product(*(permutations(positions[v]) for v in keys)):
        cp = [0] * len(values)
        for v, perm in zip(keys, choice):
            for j, i in zip(slots[v], perm):
                cp[j] = i
        yield tuple(cp)


def symmetric_representative(f: BellFunctional) -> BellFunctional | None:
    """Orbit element invariant under the party swap, if one exists.

    The swap generator itself is not needed in the scan: if g in the orbit
    is symmetric then g is also reachable by flips and permutations alone,
    because conjugating its expression by the swap exchanges the two sides.
    """
    if f.scenario.m_a != f.scenario.m_b:
        raise StructuralError("symmetric representatives require m_a == m_b")
    if _is_symmetric(f):
        return f
    m = f.scenario.m_a
    base = (f.bound, f.alice_marg, f.bob_marg, f.corr)
    for amask in range(1 << m):
        for bmask in range(1 << m):
            bound, am, bm, corr = _flip_table(*base, amask, bmask)
            if sorted(am) != sorted(bm):
                continue
            for rp in permutations(range(m)):
                target = [am[i] for i in rp]
                for cp in _matching_perms(bm, target):
                    sym = all(
                        corr[rp[i]][cp[j]] == corr[rp[j]][cp[i]]
                        for i in range(m) for j in range(i + 1, m))
                    if sym:
                        new_corr = [[corr[rp[i]][cp[j]] for j in range(m)]
                                    for i in range(m)]
                        return BellFunctional.build(target, target, new_corr, bound)
    return None
