"""Finite posets and their upset Heyting algebras.

Every other module evaluates into a `HeytingAlg`.  Carrier elements are
plain integer indices; index 0 is bottom and the last index is top.  For
upset algebras the indices follow the upset bit patterns, so enumeration
order is reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from .formula import read_json

MAX_POINTS = 16
# Up(P) has up to 2^|P| elements and three operation tables of that size
# squared; the 10-point antichain, at this cap, takes 1.5 s and 40 MB on
# a 2-core x86 host
MAX_ELEMENTS = 1024


class AlgebraError(ValueError):
    """Raised for malformed posets, tables, or unknown elements."""


@dataclass(frozen=True)
class FinPoset:
    """A finite poset: labels, and for each point the bit mask of the
    points above it (bit j of `up[i]` says elements[i] <= elements[j])."""

    elements: tuple[str, ...]
    up: tuple[int, ...]

    def __post_init__(self):
        els, up = self.elements, self.up
        for i, e in enumerate(els):
            if not up[i] >> i & 1:
                raise AlgebraError(f"reflexivity fails at {e!r}")
        pairs = [(i, j) for i, m in enumerate(up) for j in range(len(els)) if m >> j & 1]  # i <= j
        for i, j in pairs:
            if i != j and up[j] >> i & 1:
                raise AlgebraError(f"antisymmetry fails at pair ({els[i]!r}, {els[j]!r})")
        for i, j in pairs:
            missing = up[j] & ~up[i]
            if missing:
                k = (missing & -missing).bit_length() - 1
                raise AlgebraError(f"transitivity fails at triple ({els[i]!r}, {els[j]!r}, {els[k]!r})")

    @staticmethod
    def from_covers(elements: list[str], covers: list[tuple[str, str]]) -> "FinPoset":
        """Build a poset as the reflexive-transitive closure of cover pairs."""
        elems = tuple(elements)
        if not all(isinstance(e, str) for e in elems):
            raise AlgebraError("poset elements must be strings")
        known = set(elems)
        if len(known) != len(elems):
            raise AlgebraError("poset elements must be distinct")
        for cover in covers:
            if len(cover) != 2:
                raise AlgebraError(f"cover {list(cover)!r} is not a pair of elements")
            a, b = cover
            if not (isinstance(a, str) and a in known and isinstance(b, str) and b in known):
                raise AlgebraError(f"cover ({a!r}, {b!r}) mentions unknown element")
        # one Warshall pass: bit j of up[i] says elems[i] <= elems[j]
        idx = {e: i for i, e in enumerate(elems)}
        up = [1 << i for i in range(len(elems))]
        for a, b in covers:
            up[idx[a]] |= 1 << idx[b]
        for k in range(len(elems)):
            for i in range(len(elems)):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        return FinPoset(elems, tuple(up))

    @staticmethod
    def chain(n: int) -> "FinPoset":
        _check_count(n)
        labels = [f"q{i}" for i in range(n)]
        return FinPoset.from_covers(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])

    @staticmethod
    def antichain(n: int) -> "FinPoset":
        _check_count(n)
        return FinPoset.from_covers([f"a{i}" for i in range(n)], [])


def _check_count(n: int) -> None:
    if n < 0:
        raise AlgebraError(f"a poset cannot have {n} points")


def check_poset_size(n: int) -> None:
    """Refuse a poset too large for `upset_algebra`, which scans all
    2^n point sets.  The loaders call this before they build the poset;
    `FinPoset` itself takes any size."""
    if n > MAX_POINTS:
        raise AlgebraError(f"poset of {n} points exceeds the {MAX_POINTS}-point cap")


def load_poset(path: str) -> FinPoset:
    """Read a poset from a JSON file with `elements` and `covers` keys."""
    return poset_from_json(read_json(path, AlgebraError), path)


def poset_from_json(data, source: str) -> FinPoset:
    """Build a poset from a decoded JSON object with `elements` and
    `covers` keys, read from `source`: a poset file or a model file."""
    if not isinstance(data, dict) or "elements" not in data or "covers" not in data:
        raise AlgebraError(f"{source}: a poset needs 'elements' and 'covers' keys")
    elements, covers = data["elements"], data["covers"]
    if not (isinstance(elements, list) and isinstance(covers, list) and all(isinstance(c, list) for c in covers)):
        raise AlgebraError(f"{source}: 'elements' must be a list and 'covers' a list of pairs")
    check_poset_size(len(elements))
    return FinPoset.from_covers(elements, [tuple(c) for c in covers])


@dataclass(frozen=True)
class HeytingAlg:
    """A finite Heyting algebra with explicit operation tables.

    `carrier` is range(n); `names[i]` is a printable label.  `meet`,
    `join`, `imp` are n x n tables of indices.  Bottom is 0, top is n-1.
    """

    names: tuple[str, ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    imp: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def carrier(self) -> range:
        return range(len(self.names))

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.names) - 1

    def le(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    def check_element(self, a: int) -> None:
        if not 0 <= a < self.size:
            raise AlgebraError(f"unknown element id {a} (carrier size {self.size})")

    def meet_all(self, xs) -> int:
        acc = self.top
        for x in xs:
            acc = self.meet[acc][x]
        return acc

    def join_all(self, xs) -> int:
        acc = self.bottom
        for x in xs:
            acc = self.join[acc][x]
        return acc


def neg(h: HeytingAlg, a: int) -> int:
    """Pseudocomplement: imp(a, bottom)."""
    h.check_element(a)
    return h.imp[a][h.bottom]


def upset_algebra(p: FinPoset) -> HeytingAlg:
    """The Heyting algebra of upward-closed subsets of `p`.

    Carrier order is ascending upset bitmask (bit i = element i of the
    poset), so bottom (empty set) comes first and top (everything) last.
    meet/join are intersection/union; imp(U, V) is the largest upset
    whose intersection with U lies in V.
    """
    n = len(p.elements)
    check_poset_size(n)
    up = p.up

    def is_upset(mask: int) -> bool:
        for i in range(n):
            if mask & (1 << i) and (mask & up[i]) != up[i]:
                return False
        return True

    masks = [m for m in range(2 ** n) if is_upset(m)]  # ascending
    if len(masks) > MAX_ELEMENTS:
        raise AlgebraError(f"the {n}-point poset has {len(masks)} up-sets, "
                           f"over the {MAX_ELEMENTS}-element algebra cap")
    pos = {m: i for i, m in enumerate(masks)}
    full = (1 << n) - 1

    def imp_mask(u: int, v: int) -> int:
        # largest upset contained in complement(u) | v
        allowed = (full & ~u) | v
        out = 0
        for i in range(n):
            if (up[i] & allowed) == up[i]:
                out |= 1 << i
        return out

    size = len(masks)
    meet = tuple(tuple(pos[masks[a] & masks[b]] for b in range(size)) for a in range(size))
    join = tuple(tuple(pos[masks[a] | masks[b]] for b in range(size)) for a in range(size))
    imp = tuple(tuple(pos[imp_mask(masks[a], masks[b])] for b in range(size)) for a in range(size))
    names = tuple("{" + ",".join(p.elements[i] for i in range(n) if m & (1 << i)) + "}" for m in masks)
    return HeytingAlg(names, meet, join, imp)
