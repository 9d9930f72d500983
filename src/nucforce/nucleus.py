"""Nuclei (local operators) on a finite Heyting algebra.

A nucleus is an inflationary, idempotent endomap that preserves binary
meets.  This module recognises and enumerates them, reads their pointwise
order, denseness and equality off their fixed-point sets, and builds
frames (finite sets of nuclei used as Kripke-style worlds by the forcing
translation).

Enumeration is in closed form.  On a finite Heyting algebra a nucleus is
fixed by its set of fixed points, and every fixed-point set is the
meet-closure of the meet-irreducibles it contains; so each subset T of
the meet-irreducibles M gives exactly one nucleus,
j_T(a) = meet {m in T : a <= m}, and there are 2^|M| of them.  On an
upset algebra Up(P) the meet-irreducibles are the complements of the
principal down-sets, one per point, so Up(P) has 2^|P| nuclei: one per
subspace of the finite Alexandrov space P (Picado & Pultr, *Frames and
Locales*, 2012).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import AlgebraError, HeytingAlg, neg
from .formula import FormulaError, read_numeral

ENUM_SIZE_CAP = 64


class NucleusError(ValueError):
    pass


@dataclass(frozen=True)
class Nucleus:
    """A nucleus j, applied, printed and sorted by `table`.  `fixed` is Fix(j)
    as a bit mask (bit a set when j(a) = a); order, denseness (bottom fixed)
    and equality read it alone.  j <= k iff Fix(k) is within Fix(j): if j <= k
    and k(a) = a, then a <= j(a) <= k(a) = a; if Fix(k) is within Fix(j), then
    j(a) <= j(k(a)) = k(a).  As j(a) is the least fixed point >= a, the mask determines j."""

    algebra: HeytingAlg
    table: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        ok, witness = is_nucleus(self.algebra, self.table)
        if not ok:
            raise NucleusError(f"not a nucleus: {witness}")
        object.__setattr__(self, "fixed", sum(1 << a for a, v in enumerate(self.table) if a == v))

    def __call__(self, a: int) -> int:
        return self.table[a]

    def __eq__(self, other):
        return isinstance(other, Nucleus) and self.fixed == other.fixed and self.algebra is other.algebra

    def __hash__(self):
        return hash(self.fixed)

    def __repr__(self):
        label = self.name or "nucleus"
        return f"<{label} {list(self.table)}>"


@dataclass(frozen=True)
class LopFrame:
    """A finite set of nuclei on a shared algebra, in a fixed order.

    Besides a frame of the forcing translation, it serves as the basis
    of `hmodel.SceneEval`'s vectors: entry i belongs to `members[i]`."""

    algebra: HeytingAlg
    members: tuple[Nucleus, ...]

    def __post_init__(self):
        masks = [m.fixed for m in self.members]
        if len(set(masks)) != len(masks):
            raise NucleusError("duplicate nucleus table in frame")
        for m in self.members:
            if m.algebra is not self.algebra:
                raise NucleusError("frame member on a different algebra")
        # frames key memos: hash the member masks once, not the algebra per lookup
        object.__setattr__(self, "_hash", hash(tuple(masks)))

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.members)


def is_nucleus(h: HeytingAlg, t) -> tuple[bool, str | None]:
    """Check the three nucleus clauses pointwise; returns (ok, witness)."""
    t = tuple(t)
    if len(t) != h.size or any(not 0 <= v < h.size for v in t):
        raise NucleusError(f"table not total over carrier of size {h.size}")
    for a in h.carrier:
        if not h.le(a, t[a]):
            return False, f"not inflationary at {a}"
        if not h.le(t[t[a]], t[a]):
            return False, f"not idempotent at {a}"
    for a, b in product(h.carrier, h.carrier):
        if t[h.meet[a][b]] != h.meet[t[a]][t[b]]:
            return False, f"binary meets not preserved at ({a}, {b})"
    return True, None


def _meet_irreducibles(h: HeytingAlg) -> list[int]:
    """Elements (below top) that are not proper meets of larger elements."""
    out = []
    for a in h.carrier:
        if a == h.top:
            continue
        strictly_above = [b for b in h.carrier if h.le(a, b) and b != a]
        if h.meet_all(strictly_above) != a:
            out.append(a)
    return out


def enumerate_nuclei(h: HeytingAlg) -> list[Nucleus]:
    """All nuclei on `h` in lexicographic table order.

    Each subset T of the meet-irreducibles gives the nucleus
    j_T(a) = meet {m in T : a <= m}.  Every nucleus has this form (T is
    the set of meet-irreducible fixed points, whose meets are all the
    fixed points), and different subsets give different tables, so the
    list has 2^|meet-irreducibles| entries and none is missed.
    """
    n = h.size
    if n > ENUM_SIZE_CAP:
        raise AlgebraError(f"carrier size {n} exceeds the nucleus enumeration cap {ENUM_SIZE_CAP}")
    irr = _meet_irreducibles(h)
    tables = []
    for bits in range(2 ** len(irr)):
        kept = [m for i, m in enumerate(irr) if bits >> i & 1]
        tables.append(tuple(h.meet_all(m for m in kept if h.le(a, m)) for a in h.carrier))
    return [Nucleus(h, t) for t in sorted(tables)]


def nucleus_le(j: Nucleus, k: Nucleus) -> bool:
    """Pointwise order j <= k, read as Fix(k) within Fix(j) (see `Nucleus`)."""
    if j.algebra is not k.algebra:
        raise NucleusError("nucleus order needs a shared algebra")
    return not k.fixed & ~j.fixed


def identity_nucleus(h: HeytingAlg) -> Nucleus:
    return Nucleus(h, tuple(h.carrier), name="id")


def double_negation(h: HeytingAlg) -> Nucleus:
    return Nucleus(h, tuple(neg(h, neg(h, a)) for a in h.carrier), name="notnot")


def closed_nucleus(h: HeytingAlg, u: int) -> Nucleus:
    h.check_element(u)
    return Nucleus(h, tuple(h.join[u][a] for a in h.carrier), name=f"closed:{u}")


def open_nucleus(h: HeytingAlg, u: int) -> Nucleus:
    h.check_element(u)
    return Nucleus(h, tuple(h.imp[u][a] for a in h.carrier), name=f"open:{u}")


def top_nucleus(h: HeytingAlg) -> Nucleus:
    return Nucleus(h, tuple(h.top for _ in h.carrier), name="top")


def is_dense(j: Nucleus) -> bool:
    """Dense means bottom is fixed (equivalently j below double negation)."""
    return bool(j.fixed >> j.algebra.bottom & 1)


def frame_up(frame: LopFrame, j: Nucleus) -> list[Nucleus]:
    """Frame members above `j` in the pointwise order, frame order kept."""
    if frame.algebra is not j.algebra:
        raise NucleusError("frame and nucleus on different algebras")
    return [k for k in frame.members if nucleus_le(j, k)]


def named_nucleus(h: HeytingAlg, spec: str) -> Nucleus:
    """Resolve 'id', 'notnot', 'top', 'closed:<elt>', 'open:<elt>', or an index."""
    named = {"id": identity_nucleus, "notnot": double_negation, "top": top_nucleus}
    if spec in named:
        return named[spec](h)
    try:
        for prefix, build in (("closed:", closed_nucleus), ("open:", open_nucleus)):
            if spec.startswith(prefix):
                return build(h, read_numeral(spec[len(prefix):]))
        i = read_numeral(spec)
    except FormulaError as exc:
        raise NucleusError(f"unknown nucleus spec {spec!r}: {exc}") from None
    inventory = enumerate_nuclei(h)
    if i >= len(inventory):
        raise NucleusError(f"nucleus index {i} out of range ({len(inventory)} enumerated)")
    return inventory[i]
