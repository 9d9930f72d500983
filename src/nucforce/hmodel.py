"""Lattice-valued evaluation and the named property suites.

A model is a finite Heyting algebra, a finite domain, and a total table
for each uninterpreted relation symbol.  Formulas evaluate to carrier
elements; the modal language evaluates through nucleus tables, with
guarded quantification realized as a meet over the frame members above
the current nucleus.  `eval_m` is the plain recursive definition, one
nucleus at a time.  The modal language extends first-order logic, so
`eval_m` with nothing bound is the plain semantics too (`eval_formula`).
`SceneEval` evaluates the output of each translation at every nucleus of
a basis at once, one memoized table per compiled node over all of its
environments, and is what the suites and the countermodel search read.

Each suite checks one property family.  `run_suite` is the one walk over
a generated corpus of models: per scene it builds one `SceneEval` and
hands it, with the frames the suite reads, to the suite's per-scene
checks, which record failures with witnesses in a `SuiteReport`.

Quantifiers over truth values and over nuclei are instantiated at the
carrier and at the enumerated nuclei respectively, so every suite
verdict is a necessary condition of the corresponding general fact;
a failure is a genuine bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import combinations, islice, permutations, product
from math import comb

from .algebra import FinPoset, HeytingAlg, poset_from_json, upset_algebra
from .formula import (
    And,
    Atom,
    Bot,
    Eq,
    Exists,
    Forall,
    Formula,
    GuardAll,
    Imp,
    Mod,
    Or,
    Pi,
    PiOrPi,
    STEP_HALT,
    Sigma,
    Var,
    free_vars,
    neg,
    parse,
    print_formula,
    read_json,
    scheme,
    universal_closure,
)
from .nucleus import (
    LopFrame,
    Nucleus,
    enumerate_nuclei,
    frame_up,
    identity_nucleus,
    is_dense,
    named_nucleus,
    nucleus_le,
)
from .translate import TRANSLATIONS


class HModelError(ValueError):
    pass


# Environments grow as (domain size)^(free variables) and the sheaf
# evaluator ranges over carrier^(domain size) subsets, so a model's
# domain is bounded.
MAX_DOMAIN_SIZE = 16


@dataclass(eq=False)
class HModel:
    """Finite algebra-valued model with a constant domain."""

    algebra: HeytingAlg
    domain_size: int
    atom_val: dict[str, dict[tuple[int, ...], int]]
    nuclei: tuple[Nucleus, ...]
    name: str = ""

    def __post_init__(self):
        n = self.domain_size
        if n < 1:
            raise HModelError("domain must be nonempty")
        if n > MAX_DOMAIN_SIZE:
            raise HModelError(f"domain of {n} points exceeds the {MAX_DOMAIN_SIZE}-point cap")
        h = self.algebra
        for rel, table in self.atom_val.items():
            for key, v in table.items():
                h.check_element(v)
                if any(not 0 <= d < n for d in key):
                    raise HModelError(f"atom table for {rel} mentions unknown domain point {key}")
            # entries are distinct in-range tuples, so one arity and
            # n^arity of them means every tuple has a value
            arities = {len(key) for key in table}
            if len(arities) != 1 or len(table) != n ** arities.pop():
                raise HModelError(f"atom table for {rel} is not total over the {n}-point domain")

    @property
    def domain(self) -> range:
        return range(self.domain_size)

    def atom(self, rel: str, args: tuple[int, ...]) -> int:
        table = self.atom_val.get(rel)
        if table is None:
            raise HModelError(f"relation {rel} is not declared in the model")
        try:
            return table[args]
        except KeyError:
            raise HModelError(f"atom table for {rel} is missing entry {args}") from None


HSubset = tuple  # a map domain -> carrier, as a tuple of carrier elements

Env = tuple  # sorted tuple of (variable, domain point)


def env_get(env: Env, var: str) -> int:
    for name, d in env:
        if name == var:
            return d
    raise HModelError(f"unbound variable {var}")


def env_set(env: Env, var: str, d: int) -> Env:
    items = [(n, v) for n, v in env if n != var] + [(var, d)]
    return tuple(sorted(items))


def eval_formula(phi: Formula, m: HModel, env: Env = ()) -> int:
    """Standard algebra-valued semantics with meets/joins for quantifiers:
    `eval_m` with no nucleus or frame bound."""
    return eval_m(phi, m, env, {}, {})


def eval_m(mphi: Formula, m: HModel, env: Env, nbind: dict[str, Nucleus], fbind: dict[str, LopFrame]) -> int:
    """Evaluate a modal formula under nucleus and frame bindings."""
    h = m.algebra
    if isinstance(mphi, Mod):
        j = nbind.get(mphi.nvar)
        if j is None:
            raise HModelError(f"unbound nucleus variable {mphi.nvar}")
        return j(eval_m(mphi.body, m, env, nbind, fbind))
    if isinstance(mphi, GuardAll):
        frame = fbind.get(mphi.frame)
        j = nbind.get(mphi.above)
        if frame is None or j is None:
            raise HModelError(f"unbound modal variable in guard over {mphi.frame}")
        acc = h.top
        for k in frame_up(frame, j):
            inner = dict(nbind)
            inner[mphi.kvar] = k
            acc = h.meet[acc][eval_m(mphi.body, m, env, inner, fbind)]
        return acc
    if isinstance(mphi, Bot):
        return h.bottom
    if isinstance(mphi, Eq) or (isinstance(mphi, Atom) and mphi.rel == STEP_HALT):
        raise HModelError("arithmetic atoms are not supported by the lattice backend")
    if isinstance(mphi, Atom):
        args = []
        for t in mphi.args:
            if not isinstance(t, Var):
                raise HModelError("lattice models only evaluate variable arguments")
            args.append(env_get(env, t.name))
        return m.atom(mphi.rel, tuple(args))
    if isinstance(mphi, And):
        return h.meet[eval_m(mphi.left, m, env, nbind, fbind)][eval_m(mphi.right, m, env, nbind, fbind)]
    if isinstance(mphi, Or):
        return h.join[eval_m(mphi.left, m, env, nbind, fbind)][eval_m(mphi.right, m, env, nbind, fbind)]
    if isinstance(mphi, Imp):
        return h.imp[eval_m(mphi.left, m, env, nbind, fbind)][eval_m(mphi.right, m, env, nbind, fbind)]
    if isinstance(mphi, Forall):
        return h.meet_all(eval_m(mphi.body, m, env_set(env, mphi.var, d), nbind, fbind) for d in m.domain)
    if isinstance(mphi, Exists):
        return h.join_all(eval_m(mphi.body, m, env_set(env, mphi.var, d), nbind, fbind) for d in m.domain)
    raise HModelError(f"cannot evaluate node {mphi!r}")


MAX_BASIS_NUCLEI = 32  # scene bases refuse more; 2^5, the most nuclei of any poset on 5 points

# Bounds of the process-wide caches of compiled translations, which hold
# no model, basis or budget; all suites and searches on builtin:default
# compile 181 roots from 403 distinct nodes
COMPILE_CACHE_SIZE = 1024
NODE_CACHE_SIZE = 4096


class _Node:
    """One distinct node of a translated formula, interned by `_node`.

    `kind` is the formula class (Atom for every leaf, which `arg` then
    holds; `arg` is the bound variable of a quantifier and the frame
    variable of a guard).  `kids` are interned nodes, and `fv` the node's
    sorted free first-order variables.  Nucleus variable names are
    dropped: each node has one free nucleus variable, the current one."""

    __slots__ = ("kind", "arg", "kids", "fv")

    def __init__(self, kind: type, arg, kids: tuple, fv: tuple[str, ...]):
        self.kind, self.arg, self.kids, self.fv = kind, arg, kids, fv


def _fv(phi: Formula) -> tuple[str, ...]:
    """phi's free variables, sorted: the order of every environment."""
    return tuple(sorted(free_vars(phi)))


@lru_cache(maxsize=NODE_CACHE_SIZE)
def _node(kind: type, arg, *kids: _Node) -> _Node:
    """The interned node: equal arguments give the same object while it is
    cached.  Children compare by identity, so a child evicted and interned
    again makes a new parent, never a wrong one."""
    if kind is Atom:
        fv = _fv(arg)
    elif kind is Forall or kind is Exists:
        fv = tuple(v for v in kids[0].fv if v != arg)
    else:
        fv = tuple(sorted({v for kid in kids for v in kid.fv}))
    return _Node(kind, arg, kids, fv)


def _build(t: Formula) -> _Node:
    kind = type(t)
    if kind is Mod:
        return _node(Mod, None, _build(t.body))
    if kind is GuardAll:
        return _node(GuardAll, t.frame, _build(t.body))
    if kind is And or kind is Or or kind is Imp:
        return _node(kind, None, _build(t.left), _build(t.right))
    if kind is Forall or kind is Exists:
        body = _build(t.body)
        # over a nonempty domain a vacuous quantifier is its body
        return _node(kind, t.var, body) if t.var in body.fv else body
    if kind is Atom or kind is Bot or kind is Eq:
        return _node(Atom, t)
    raise HModelError(f"cannot evaluate node {t!r}")


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _compiled(translate, phi: Formula) -> _Node:
    """The interned root of `translate(phi)`, keyed by the translation
    function itself, so a replaced entry of `TRANSLATIONS` is a miss."""
    return _build(translate(phi))


@lru_cache(maxsize=1024)
def _project(fv: tuple[str, ...], sub: tuple[str, ...], n: int) -> tuple[int, ...]:
    """For each environment over fv, in product order over an n-point
    domain, the index of its restriction to sub, a subset of fv."""
    at = [fv.index(v) for v in sub]
    out = []
    for point in product(range(n), repeat=len(fv)):
        i = 0
        for p in at:
            i = i * n + point[p]
        out.append(i)
    return tuple(out)


class SceneEval:
    """Evaluator of translated formulas for one model: one table per
    node, one vector per environment, one entry per nucleus of a basis.

    `table(style, phi, basis, frame)` evaluates `TRANSLATIONS[style](phi)`
    at every nucleus of the basis and every environment at once, one row
    per environment in `envs(phi)` order: the root's free variables are
    phi's, as translations keep them and a vacuous quantifier is compiled
    away.  Entry i of row x is the value at `envs(phi)[x]` with the
    nucleus variable j bound to `basis.members[i]` and the frame variable
    P bound to `frame`, the number `eval_m` computes; a dedicated test
    compares every entry.  A basis is a `LopFrame`, whose hash is
    computed once.  Suites that range over a scene's nuclei use `nuclei`,
    every nucleus of the model, built on first use and refused past
    `MAX_BASIS_NUCLEI`; frame predicates and the countermodel search use
    the frame itself, so a basis is no larger than what its caller reads.

    Over (frame, frame), entry i of a `forcing` row is component i of gg
    on the monotone families over the frame, by the induction stated in
    `forcing_translate`; `tests/frame_algebra_reference.py` checks it.

    A translation is compiled once per process: `_compiled` maps the
    translation function and phi to a root in an intern table (`_node`)
    that holds one node per distinct translated subformula, compared by
    structure (Filliatre & Conchon, "Type-safe modular hash-consing",
    2006).  Both caches hold no model, basis or budget, and both are
    bounded LRU caches (`COMPILE_CACHE_SIZE`, `NODE_CACHE_SIZE`).

    Every node of a translated formula has at most one free nucleus
    variable, the current nucleus: j at the root, rebound to the guard's
    k throughout a GuardAll body.  A node's value therefore depends only
    on the node, the basis, the frame and the assignment of its own free
    variables.  Its table holds one basis vector per assignment, in
    product order over its sorted free variables (`envs` order), and is
    built once per (basis, frame): the memo is one dict per (basis,
    frame), keyed by the node object, so an evicted and re-interned node
    can only miss.  `node_evals` counts the tables built.  This is the
    bottom-up labelling of explicit-state model checking (Clarke, Emerson
    & Sistla, TOPLAS 8(2), 1986), with the nuclei as states.  A leaf
    table holds the atom's `eval_formula` value at each environment, and
    is the evaluator's only memo of atom values.  Mod looks each entry up
    in its nucleus table.  One cached index map, `_project`, sends each
    environment of a node to its restriction to a subset of the node's
    free variables: And, Or and Imp combine the rows of their children
    through it, and Forall and Exists fold each body row into the row of
    its restriction, which takes the extensions of an environment in
    domain order.  A quantifier whose body does not mention its variable
    is compiled to its body.  A GuardAll body is in
    k, which ranges over the frame, so its table is built over the frame
    as basis; entry i of a guard row is then the meet of the body entries
    at the frame members above `basis.members[i]`, which `ups` lists once
    per (frame, basis).

    `trp_val` returns a matrix over a pair of bases and `cl_val` one over
    a single basis, built from gg tables, one pass per environment.
    Tables, matrices and the lists `envs` and `ups` return are shared:
    callers must not mutate them.
    """

    def __init__(self, model: HModel):
        self.m = model
        self.h = model.algebra
        self._vec: dict = {}
        self._ups: dict = {}
        self._envs: dict = {}
        self.node_evals = 0

    # -------------------------------------------------- base evaluators
    @cached_property
    def nuclei(self) -> LopFrame:
        """The scene basis: every nucleus of the model, one object per
        evaluator (memos key on it), refused past `MAX_BASIS_NUCLEI`."""
        count = len(self.m.nuclei)
        if count > MAX_BASIS_NUCLEI:
            raise HModelError(f"{self.m.name}: {count} nuclei exceed the scene basis bound of {MAX_BASIS_NUCLEI}")
        return LopFrame(self.h, self.m.nuclei)

    def ups(self, frame: LopFrame, basis: LopFrame) -> list[list[int]]:
        """For each basis entry, the indices of the frame members above it
        in the pointwise order, frame order kept."""
        key = (frame, basis)
        got = self._ups.get(key)
        if got is None:
            got = self._ups[key] = [
                [x for x, k in enumerate(frame.members) if nucleus_le(j, k)] for j in basis.members
            ]
        return got

    def rows(self, shapes, *reads) -> list:
        """(phi, env, vector, ...) for each shape and each of its
        environments, one vector per read (style, basis, frame)."""
        return [(phi, *got) for phi in shapes for got in
                zip(self.envs(phi), *(self.table(style, phi, basis, frame) for style, basis, frame in reads))]

    def table(self, style: str, phi: Formula, basis: LopFrame, frame: LopFrame | None = None) -> list[list[int]]:
        """The named translation of phi at every nucleus of the basis, one
        vector per environment in `envs(phi)` order."""
        return self._table(_compiled(TRANSLATIONS[style], phi), basis, frame, self._memo(basis, frame))

    def _memo(self, basis: LopFrame, frame: LopFrame | None) -> dict:
        """The tables over one basis with one frame bound, by node."""
        got = self._vec.get((basis, frame))
        if got is None:
            got = self._vec[(basis, frame)] = {}
        return got

    def _table(self, node: _Node, basis: LopFrame, frame: LopFrame | None, memo: dict) -> list[list[int]]:
        got = memo.get(node)
        if got is not None:
            return got
        self.node_evals += 1
        kind, kids, h, n = node.kind, node.kids, self.h, self.m.domain_size
        if kind is Mod:
            tables = [j.table for j in basis.members]
            t = [[tab[a] for tab, a in zip(tables, row)] for row in self._table(kids[0], basis, frame, memo)]
        elif kind is And or kind is Or or kind is Imp:
            op = h.meet if kind is And else h.join if kind is Or else h.imp
            left, right = (self._table(kid, basis, frame, memo) for kid in kids)
            t = [[op[a][b] for a, b in zip(left[x], right[y])]
                 for x, y in zip(_project(node.fv, kids[0].fv, n), _project(node.fv, kids[1].fv, n))]
        elif kind is Forall or kind is Exists:
            op = h.meet if kind is Forall else h.join
            # body rows come in product order, so each environment folds
            # its extensions by the bound variable in domain order
            t = [None] * n ** len(node.fv)
            for x, row in zip(_project(kids[0].fv, node.fv, n), self._table(kids[0], basis, frame, memo)):
                acc = t[x]
                t[x] = row if acc is None else [op[a][b] for a, b in zip(acc, row)]
        elif kind is GuardAll:
            if frame is None:
                raise HModelError(f"guard over {node.arg} needs a frame")
            body = self._table(kids[0], frame, frame, self._memo(frame, frame))
            meet, top, ups = h.meet, h.top, self.ups(frame, basis)
            t = []
            for row in body:
                vec = []
                for up in ups:
                    acc = top
                    for x in up:
                        acc = meet[acc][row[x]]
                    vec.append(acc)
                t.append(vec)
        else:  # a leaf
            width = len(basis)
            t = [[eval_formula(node.arg, self.m, env)] * width for env in self.envs(node.arg)]
        memo[node] = t
        return t

    # ------------------------------------------------ derived operators
    def biimp(self, a: int, b: int) -> int:
        h = self.h
        return h.meet[h.imp[a][b]][h.imp[b][a]]

    def envs(self, phi: Formula) -> list[Env]:
        """Every environment over phi's free variables, in sorted-variable
        product order."""
        got = self._envs.get(phi)
        if got is None:
            fv = _fv(phi)
            got = self._envs[phi] = [tuple(zip(fv, point)) for point in product(self.m.domain, repeat=len(fv))]
        return got

    def le_val(self, j: Nucleus, k: Nucleus) -> int:
        """Carrier value of the pointwise order formula between nuclei."""
        h = self.h
        return h.meet_all(h.imp[j(p)][k(p)] for p in h.carrier)

    # ------------------------------------------------- named predicates
    # Each reads the whole tables of the translation over the frame, or
    # over the given bases.
    def equiv_val(self, phi: Formula, frame: LopFrame) -> int:
        meet, biimp, acc = self.h.meet, self.biimp, self.h.top
        for fc, gg in zip(self.table("forcing", phi, frame, frame), self.table("gg", phi, frame)):
            for a, b in zip(fc, gg):
                acc = meet[acc][biimp(a, b)]
        return acc

    def mono_val(self, phi: Formula, frame: LopFrame) -> int:
        return self._up_val(phi, frame, False)

    def nono_val(self, phi: Formula, frame: LopFrame) -> int:
        return self._up_val(phi, frame, True)

    def _up_val(self, phi: Formula, frame: LopFrame, down: bool) -> int:
        """Meet over j in the frame, env and k above j of gg(phi) at j
        implies gg(phi) at k (at k implies at j when `down`)."""
        h = self.h
        meet, imp, acc = h.meet, h.imp, h.top
        ups = self.ups(frame, frame)
        for gg in self.table("gg", phi, frame):
            for a, up in zip(gg, ups):
                for x in up:
                    acc = meet[acc][imp[gg[x]][a] if down else imp[a][gg[x]]]
        return acc

    def trp_val(self, phi: Formula, rows: LopFrame, cols: LopFrame | None = None) -> list[list[int]]:
        """Transfer matrix: entry [i][l] is the meet over env of
        k(gg(phi) at j) <-> gg(phi) at k, for j = rows.members[i] and
        k = cols.members[l]; cols defaults to rows."""
        return self._matrix(True, phi, rows, rows if cols is None else cols)

    def cl_val(self, phi: Formula, basis: LopFrame) -> list[list[int]]:
        """Closure matrix over basis: entry [i][l] is the meet over env of
        gg(phi) at j <-> k(gg(phi) at j), with j and k as in `trp_val`."""
        return self._matrix(False, phi, basis, basis)

    def _matrix(self, trp: bool, phi: Formula, rows: LopFrame, cols: LopFrame) -> list[list[int]]:
        h = self.h
        meet, imp, top = h.meet, h.imp, h.top
        tables = [k.table for k in cols.members]
        got = [[top] * len(tables) for _ in rows.members]
        at_js = self.table("gg", phi, rows)
        at_ks = self.table("gg", phi, cols) if cols is not rows else at_js
        for at_j, at_k in zip(at_js, at_ks):
            for row, a in zip(got, at_j):
                for l, t in enumerate(tables):
                    c, b = t[a], at_k[l] if trp else a  # k(gg at j), and gg at k or at j
                    row[l] = meet[row[l]][meet[imp[c][b]][imp[b][c]]]
        return got


class ForcingLEval:
    """Evaluator for the sheaf-term variant of the forcing translation.

    Environments assign algebra-valued subsets of the domain (tuples
    over the carrier) to variables; quantifiers range over all such
    subsets, weighted by membership in the local sheaf predicate.
    """

    def __init__(self, model: HModel, frame: LopFrame):
        self.m = model
        self.h = model.algebra
        self.frame = frame
        self._memo: dict = {}
        self._lmemo: dict = {}

    def singleton(self, d: int) -> HSubset:
        h = self.h
        return tuple(h.top if x == d else h.bottom for x in self.m.domain)

    def unit(self, j: Nucleus, u: HSubset) -> HSubset:
        return tuple(j(v) for v in u)

    def subset_eq(self, u: HSubset, v: HSubset) -> int:
        h = self.h
        return h.meet_all(h.meet[h.imp[a][b]][h.imp[b][a]] for a, b in zip(u, v))

    def lmember(self, j: Nucleus, u: HSubset) -> int:
        """Membership value of u in the j-local subsets."""
        key = (j, u)
        got = self._lmemo.get(key)
        if got is None:
            h = self.h
            got = j(h.join_all(self.subset_eq(u, self.unit(j, self.singleton(d))) for d in self.m.domain))
            self._lmemo[key] = got
        return got

    def all_subsets(self):
        return product(self.h.carrier, repeat=self.m.domain_size)

    def value(self, phi: Formula, j: Nucleus, uenv: tuple) -> int:
        """uenv is a sorted tuple of (variable, HSubset)."""
        key = (phi, j, uenv)
        got = self._memo.get(key)
        if got is not None:
            return got
        h = self.h
        if isinstance(phi, Bot):
            v = j(h.bottom)
        elif isinstance(phi, Atom):
            subsets = []
            for t in phi.args:
                if not isinstance(t, Var):
                    raise HModelError("lattice models only evaluate variable arguments")
                subsets.append(dict(uenv)[t.name])
            v = h.top
            for point in product(self.m.domain, repeat=len(subsets)):
                guard = h.meet_all(subsets[i][point[i]] for i in range(len(point)))
                v = h.meet[v][h.imp[guard][j(self.m.atom(phi.rel, point))]]
        elif isinstance(phi, And):
            v = h.meet[self.value(phi.left, j, uenv)][self.value(phi.right, j, uenv)]
        elif isinstance(phi, Or):
            v = j(h.join[self.value(phi.left, j, uenv)][self.value(phi.right, j, uenv)])
        elif isinstance(phi, Imp):
            v = h.top
            for k in frame_up(self.frame, j):
                shifted = tuple((name, self.unit(k, u)) for name, u in uenv)
                v = h.meet[v][h.imp[self.value(phi.left, k, shifted)][self.value(phi.right, k, shifted)]]
        elif isinstance(phi, Exists):
            acc = h.bottom
            for w in self.all_subsets():
                inner = tuple(sorted([(n, u) for n, u in uenv if n != phi.var] + [(phi.var, w)]))
                acc = h.join[acc][h.meet[self.lmember(j, w)][self.value(phi.body, j, inner)]]
            v = j(acc)
        elif isinstance(phi, Forall):
            v = h.top
            for k in frame_up(self.frame, j):
                shifted = [(name, self.unit(k, u)) for name, u in uenv if name != phi.var]
                for w in self.all_subsets():
                    inner = tuple(sorted(shifted + [(phi.var, w)]))
                    v = h.meet[v][h.imp[self.lmember(k, w)][self.value(phi.body, k, inner)]]
        else:
            raise HModelError(f"cannot evaluate node {phi!r}")
        self._memo[key] = v
        return v


# ------------------------------------------------------------- corpus

def all_posets(max_points: int) -> list[FinPoset]:
    """All posets with up to max_points elements, one per isomorphism
    class, in a canonical deterministic order.

    Level n is built from the classes at level n-1 by adding a new
    maximal point above exactly one down-set (Brinkmann & McKay,
    "Posets on up to 16 points", Order 19, 2002).  Every poset has a
    maximal point and removing it leaves a poset on n-1 points, so every
    class is reached.  A class is kept once, under its canonical form:
    the least sorted list of strict pairs over all relabellings.  Each
    level is listed in canonical-form order with labels p0..p(n-1).
    """
    out = []
    level = [()]  # canonical strict-pair lists of the classes on n-1 points
    for n in range(1, max_points + 1):
        new = n - 1  # index of the added point, above the points 0..new-1
        seen = set()
        for rel in level:
            for down in range(2 ** new):
                if any(down >> b & 1 and not down >> a & 1 for a, b in rel):
                    continue
                grown = list(rel) + [(a, new) for a in range(new) if down >> a & 1]
                seen.add(min(tuple(sorted((p[a], p[b]) for a, b in grown)) for p in permutations(range(n))))
        level = sorted(seen)
        labels = tuple(f"p{i}" for i in range(n))
        for canon in level:  # strict pairs, transitively closed already
            up = tuple(sum((1 << b for a, b in canon if a == i), 1 << i) for i in range(n))
            out.append(FinPoset(labels, up))
    return out


@dataclass
class Scene:
    model: HModel
    frames: list[LopFrame]
    two_valued: bool


@dataclass
class Corpus:
    scenes: list[Scene]
    seed: int


# shared relation signature for the generated corpus
CORPUS_RELS = (("R", 1), ("Q", 1))

MAX_FRAME_ENUM_NUCLEI = 6  # enumerate all small frames below this inventory size
DOMAIN_BOUND = 3  # scene domains cycle through sizes 1..DOMAIN_BOUND
FRAME_BOUND = 3  # frames hold 1..FRAME_BOUND nuclei


def _sample_valuation(h: HeytingAlg, domain_size: int, rng: random.Random, two_valued: bool):
    values = (h.bottom, h.top) if two_valued else tuple(h.carrier)
    table = {}
    for rel, arity in CORPUS_RELS:
        table[rel] = {
            point: rng.choice(values)
            for point in product(range(domain_size), repeat=arity)
        }
    return table


def _frames_for(h: HeytingAlg, nuclei: tuple[Nucleus, ...], rng: random.Random, max_frames: int) -> list[LopFrame]:
    idx = list(range(len(nuclei)))
    subsets = []
    every = sum(comb(len(idx), size) for size in range(1, FRAME_BOUND + 1))
    # sampling draws distinct frames until it has max_frames of them, so
    # it would never stop if there were no more than that: take them all
    if len(idx) <= MAX_FRAME_ENUM_NUCLEI or max_frames >= every:
        for size in range(1, FRAME_BOUND + 1):
            subsets.extend(combinations(idx, size))
    else:
        ident = nuclei.index(identity_nucleus(h))
        picks = {(ident,)}
        while len(picks) < max_frames:
            size = rng.randint(1, FRAME_BOUND)
            picks.add(tuple(sorted(rng.sample(idx, size))))
        subsets = sorted(picks)
    frames = [LopFrame(h, tuple(nuclei[i] for i in s)) for s in subsets]
    if len(frames) > max_frames:
        ident = identity_nucleus(h)
        keep = [f for f in frames if f.members == (ident,)]
        rest = [f for f in frames if f.members != (ident,)]
        frames = keep + rng.sample(rest, max_frames - len(keep))
        frames.sort(key=lambda f: tuple(m.table for m in f.members))
    return frames


def build_corpus(point_bound: int = 4, scenes_per_poset: int = 5, max_frames: int = 6, seed: int = 0) -> Corpus:
    """Deterministic model corpus: every poset up to the point bound, a
    cycle of domain sizes up to `DOMAIN_BOUND`, sampled valuations (some
    two-valued), and a bounded family of frames of up to `FRAME_BOUND`
    nuclei per algebra including the identity singleton.

    Both generators are closed forms, so the corpus holds every poset
    class (`all_posets`) and, per algebra, all 2^|P| nuclei
    (`enumerate_nuclei`), each in a fixed canonical order.  The frame
    sampling and the per-poset RNG seeds depend on those orders."""
    if max_frames < 1:
        raise HModelError(f"max_frames is {max_frames}; a scene needs at least the identity frame")
    scenes = []
    posets = all_posets(point_bound)
    for pidx, p in enumerate(posets):
        h = upset_algebra(p)
        nuclei = tuple(enumerate_nuclei(h))
        rng = random.Random(seed * 1000003 + pidx)
        frames = _frames_for(h, nuclei, rng, max_frames)
        for s in range(scenes_per_poset):
            domain_size = 1 + (pidx + s) % DOMAIN_BOUND
            two_valued = s % 2 == 1
            atom_val = _sample_valuation(h, domain_size, rng, two_valued)
            model = HModel(h, domain_size, atom_val, nuclei, name=f"poset{pidx}-scene{s}")
            scenes.append(Scene(model, frames, two_valued))
    return Corpus(scenes, seed)


def builtin_corpus(name: str, seed: int = 0) -> Corpus:
    if name == "builtin:default":
        return build_corpus(seed=seed)
    if name == "builtin:small":
        return build_corpus(point_bound=3, scenes_per_poset=3, max_frames=4, seed=seed)
    raise HModelError(f"unknown builtin corpus {name!r} (want builtin:default or builtin:small)")


def load_model(path: str) -> Scene:
    """Read one model file: poset, domain size, atom tables, frame specs."""
    data = read_json(path, HModelError)
    try:
        poset = data["poset"]
        domain_size = data["domain_size"]
        raw_atoms = data["atoms"]
        frame_specs = data.get("frames", [["id"]])
    except (KeyError, TypeError) as exc:
        raise HModelError(f"{path}: malformed model file ({exc})") from exc
    if type(domain_size) is not int:  # not bool, float or str
        raise HModelError(f"{path}: domain_size is {domain_size!r}, not an integer")
    if not isinstance(raw_atoms, dict):
        raise HModelError(f"{path}: atoms must map relation names to nested lists of elements")
    if not (isinstance(frame_specs, list)
            and all(isinstance(spec, list) and all(isinstance(n, str) for n in spec) for spec in frame_specs)):
        raise HModelError(f"{path}: frames must be a list of lists of nucleus names")
    h = upset_algebra(poset_from_json(poset, path))
    atom_val = {}
    for rel, nested in raw_atoms.items():
        table = {}

        def walk(node, prefix):
            if isinstance(node, list):
                for i, sub in enumerate(node):
                    walk(sub, prefix + (i,))
            elif type(node) is int:
                table[prefix] = node
            else:
                raise HModelError(f"{path}: atom {rel} entry {list(prefix)} is {node!r}, not an integer")

        walk(nested, ())
        atom_val[rel] = table
    nuclei = tuple(enumerate_nuclei(h))
    model = HModel(h, domain_size, atom_val, nuclei, name=path)
    frames = [LopFrame(h, tuple(named_nucleus(h, s) for s in spec)) for spec in frame_specs]
    two_valued = all(v in (h.bottom, h.top) for table in atom_val.values() for v in table.values())
    return Scene(model, frames, two_valued)


def corpus_from_spec(spec: str, seed: int = 0) -> Corpus:
    if spec.startswith("builtin:"):
        return builtin_corpus(spec, seed=seed)
    scene = load_model(spec)
    return Corpus([scene], seed=seed)


# ------------------------------------------------------- formula stock

GENERAL_SHAPES = [parse(s) for s in [
    "R(x)",
    "~R(x)",
    "R(x) \\/ Q(x)",
    "R(x) /\\ Q(x)",
    "R(x) -> Q(x)",
    "~~R(x)",
    "R(x) \\/ ~R(x)",
    "~~R(x) -> R(x)",
    "forall x. R(x)",
    "exists x. R(x)",
    "forall x. (R(x) -> Q(x))",
    "exists x. (R(x) /\\ Q(x))",
    "R(y) -> exists x. Q(x)",
    "(R(x) -> Q(x)) -> Q(x)",
    "bot",
    "bot -> R(x)",
]]

SMALL_SHAPES = [parse(s) for s in [
    "R(x)",
    "~R(x)",
    "R(x) \\/ Q(x)",
    "R(x) -> Q(x)",
    "forall x. R(x)",
    "exists x. R(x)",
    "forall x. (R(x) -> Q(x))",
]]

IMPFREE_SHAPES = [parse(s) for s in [
    "R(x)",
    "R(x) \\/ Q(x)",
    "R(x) /\\ Q(x)",
    "exists x. R(x)",
    "forall x. R(x)",
    "forall x. exists y. (R(x) \\/ Q(y))",
    "exists x. (R(x) /\\ Q(y))",
]]

LITERAL_SHAPES = [parse(s) for s in [
    "R(x)",
    "~R(x)",
    "R(x) /\\ ~Q(x)",
    "forall x. R(x)",
    "forall x. (R(x) /\\ ~Q(x))",
    "forall x. forall y. (R(x) /\\ Q(y))",
]]

SIGMA1_SHAPES = [parse(s) for s in [
    "exists x. R(x)",
    "exists x. (R(x) /\\ ~Q(x))",
    "exists x. (R(x) -> Q(x))",
]]

PI1_SHAPES = [parse(s) for s in [
    "forall x. R(x)",
    "forall x. ~R(x)",
    "forall x. (R(x) \\/ Q(x))",
    "forall x. (R(x) -> Q(x))",
]]

SIGMA2_SHAPES = [parse(s) for s in [
    "exists x. forall y. (R(x) \\/ Q(y))",
    "exists x. forall y. (R(x) -> Q(y))",
]]

PIORPI1_SHAPES = [
    Or(parse("forall x. ~R(x)"), parse("forall x. Q(x)")),
]

MIXED_SHAPES = [parse(s) for s in [
    "R(x) -> Q(x)",
    "~R(x)",
    "~~R(x) -> R(x)",
    "R(x) \\/ ~R(x)",
    "forall x. (R(x) -> Q(x))",
    "(R(x) -> Q(x)) -> Q(x)",
]]

IQC_AXIOMS = [parse(s) for s in [
    "R(x) -> R(x) \\/ Q(x)",
    "R(x) /\\ Q(x) -> R(x)",
    "R(x) \\/ R(x) -> R(x)",
    "R(x) -> R(x) /\\ R(x)",
    "R(x) \\/ Q(x) -> Q(x) \\/ R(x)",
    "R(x) /\\ Q(x) -> Q(x) /\\ R(x)",
    "bot -> R(x)",
    "(forall x. R(x)) -> R(y)",
    "R(y) -> exists x. R(x)",
]]


# (premises, conclusion, their conjunction) for the connective rules: a
# rule's environments range over the free variables of all its formulas,
# which are those of the conjunction
IQC_RULES = [(premises, conclusion, reduce(And, premises + [conclusion])) for premises, conclusion in [
    ([parse("R(x)"), parse("R(x) -> Q(x)")], parse("Q(x)")),
    ([parse("R(x) -> Q(x)"), parse("Q(x) -> R(y)")], parse("R(x) -> R(y)")),
    ([parse("R(x) /\\ Q(x) -> Q(y)")], parse("R(x) -> (Q(x) -> Q(y))")),
    ([parse("R(x) -> (Q(x) -> Q(y))")], parse("R(x) /\\ Q(x) -> Q(y)")),
    ([parse("R(x) -> Q(x)")], parse("R(x) \\/ Q(y) -> Q(x) \\/ Q(y)")),
]]

# the quantifier rules, with the side formula closed: (premise with y
# free, met over the domain; conclusion binding y)
IQC_QUANTIFIER_RULES = [
    (parse("(exists z. R(z)) -> Q(y)"), parse("(exists z. R(z)) -> forall y. Q(y)")),
    (parse("Q(y) -> exists z. R(z)"), parse("(exists y. Q(y)) -> exists z. R(z)")),
]

CLOSED_SHAPES = [(phi, universal_closure(phi)) for phi in GENERAL_SHAPES if free_vars(phi)]

# (phi, ~phi, ~~phi) for the mixed shapes, and what emn and mndneg add
NEGATIONS = [(phi, neg(phi), neg(neg(phi))) for phi in MIXED_SHAPES]
EMN_SHAPES = [(phi, np, nnp, Imp(nnp, phi)) for phi, np, nnp in NEGATIONS]
MNDNEG_SHAPES = [(phi, np, nnp, scheme(Sigma(2), "LEM", phi), scheme(Sigma(2), "DNE", phi))
                 for phi, np, nnp in NEGATIONS]

# (phi, psi, and the compounds whose transfer trp-closure bounds)
TRP_ATOM = parse("R(x)")
TRP_SHAPES = [(phi, psi, And(phi, psi), Or(phi, psi), Exists("x", phi), Imp(phi, psi), Forall("x", phi))
              for phi, psi in [
                  (parse("R(x)"), parse("Q(x)")),
                  (parse("~R(x)"), parse("Q(x) \\/ R(x)")),
                  (parse("R(x) -> Q(x)"), parse("R(x)")),
                  (parse("exists x. R(x)"), parse("forall x. Q(x)")),
              ]]

DNE_ATOM = scheme(Sigma(0), "DNE", parse("R(x)"))
DNE_SHAPES = [(phi, scheme(Sigma(2), "DNE", phi)) for phi in MIXED_SHAPES]

# (class label, phi, its DNE instance, its LEM instance) for sufcon
SUFCON_INSTANCES = [(label, phi, scheme(cls, "DNE", phi), scheme(cls, "LEM", phi))
                    for label, cls, shapes in [("Sigma1", Sigma(1), SIGMA1_SHAPES), ("Pi1", Pi(1), PI1_SHAPES[:2]),
                                               ("PiOrPi1", PiOrPi(1), PIORPI1_SHAPES),
                                               ("Sigma2", Sigma(2), SIGMA2_SHAPES[:1])]
                    for phi in shapes]


# --------------------------------------------------------- suite runner

MAX_FAILURES = 20  # failures recorded per report; later ones are only counted as checks


@dataclass
class SuiteReport:
    """The outcome of one suite, and the bookkeeping its checks share.

    `run_suite` points the report at each scene it keeps: `scene`, its
    algebra `h`, and the corpus `seed`.  A check gets its two values and
    the raw witness fields (nuclei, frames, formulas, environments).
    Only a failure that is recorded, at most `MAX_FAILURES` of them, is
    turned into a printable entry by `_wit`, so a passing check costs a
    comparison and a count.
    """

    suite: str
    checks: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    scene: Scene | None = field(default=None, init=False, repr=False)
    h: HeytingAlg | None = field(default=None, init=False, repr=False)
    seed: int = field(default=0, init=False, repr=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": self.checks,
            "passed": self.passed,
            "failures": self.failures,
            "notes": self.notes,
        }

    def check_le(self, lhs: int, rhs: int, **witness):
        self.checks += 1
        if not self.h.le(lhs, rhs):
            self._fail(lhs, rhs, "<=", witness)

    def check_eq(self, lhs: int, rhs: int, **witness):
        self.checks += 1
        if lhs != rhs:
            self._fail(lhs, rhs, "==", witness)

    def _fail(self, lhs, rhs, relation, witness):
        if len(self.failures) < MAX_FAILURES:
            entry = {"lhs": lhs, "rhs": rhs, "relation": relation}
            entry.update(_wit(self.scene, **witness))
            self.failures.append(entry)


def _wit(scene: Scene, **extra) -> dict:
    out = {"model": scene.model.name}
    for k, v in extra.items():
        if isinstance(v, Nucleus):
            out[k] = list(v.table)
        elif isinstance(v, LopFrame):
            out[k] = [list(m.table) for m in v.members]
        elif isinstance(v, Formula):
            out[k] = print_formula(v)
        elif isinstance(v, tuple):  # environments and subsets
            out[k] = list(v)
        else:
            out[k] = v
    return out


# Each suite is a function of one scene: `run_suite` owns the walk over the
# corpus and hands it the report, a fresh `SceneEval` and the frames it reads.
# The formulas a suite derives from the shapes (negations, closures,
# compounds of a pair) are built once, at import, so the evaluator's memo
# tables find each one by identity instead of comparing fresh trees.  Per
# frame, a suite reads the tables of its formulas over a basis once, then
# walks them in the order of its checks: nucleus, then formula, then
# environment, so check counts and the recorded failures follow that order.

def _suite_loplem(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    m, h = ev.m, ev.h
    rng = random.Random(f"{report.seed}:{m.name}:loplem")
    subsets = [tuple(rng.choice(tuple(h.carrier)) for _ in m.domain) for _ in range(4)]
    for j in ev.nuclei.members:
        for p in h.carrier:
            for q in h.carrier:
                report.check_eq(h.imp[p][j(q)], j(h.imp[p][j(q)]), item=1, j=j, p=p, q=q)
                report.check_eq(j(h.join[p][q]), j(h.join[j(p)][j(q)]), item=3, j=j, p=p, q=q)
        for v in subsets:
            report.check_le(j(h.meet_all(v)), h.meet_all(j(a) for a in v), item=2, j=j, subset=v)
            report.check_le(h.join_all(j(a) for a in v), j(h.join_all(v)), item=4, j=j, subset=v)


def _suite_maximal_collapse(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    h = ev.h
    for frame in frames:
        rows = ev.rows(SMALL_SHAPES, ("forcing", frame, frame), ("gg", frame, None))
        for i, (j, up) in enumerate(zip(frame.members, ev.ups(frame, frame))):
            # for k >= j, j <-> k is k <= j
            ante = h.meet_all(ev.le_val(frame.members[x], j) for x in up)
            for phi, env, fc, gg in rows:
                report.check_le(ante, ev.biimp(fc[i], gg[i]), frame=frame, j=j, formula=phi, env=env)


def _suite_jclosed(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    basis = ev.nuclei
    for frame in frames:
        rows = ev.rows(GENERAL_SHAPES, ("forcing", basis, frame))
        for i, j in enumerate(basis.members):
            for phi, env, vec in rows:
                v = vec[i]
                report.check_eq(j(v), v, frame=frame, j=j, formula=phi, env=env)


def _suite_monotonicity(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    basis = ev.nuclei
    for frame in frames:
        rows = ev.rows(GENERAL_SHAPES, ("forcing", basis, frame), ("forcing", frame, frame))
        for i, (j, up) in enumerate(zip(basis.members, ev.ups(frame, basis))):
            for phi, env, vj, vk in rows:
                for x in up:
                    report.check_le(vj[i], vk[x], frame=frame, j=j, k=frame.members[x], formula=phi, env=env)


def _suite_jinp_monotonicity(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    h = ev.h
    for frame in frames:
        rows = ev.rows(GENERAL_SHAPES, ("forcing", frame, frame))
        for i, (j, up) in enumerate(zip(frame.members, ev.ups(frame, frame))):
            for phi, env, vec in rows:
                report.check_eq(vec[i], h.meet_all(vec[x] for x in up), frame=frame, j=j, formula=phi, env=env)


def _suite_constant_domain(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    h = ev.h
    for frame in frames:
        rows = [(phi, ev.table("forcing", phi, frame, frame), ev.table("forcing", closed, frame, frame)[0])
                for phi, closed in CLOSED_SHAPES]
        for i, j in enumerate(frame.members):
            for phi, vecs, closed in rows:
                report.check_eq(h.meet_all(v[i] for v in vecs), closed[i], frame=frame, j=j, formula=phi)


def _suite_iqc_soundness(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    h, basis, n = ev.h, ev.nuclei, ev.m.domain_size
    # a rule's formulas are read at the environments of the whole rule
    rules = [(conclusion, whole, [(f, _project(_fv(whole), _fv(f), n)) for f in premises + [conclusion]])
             for premises, conclusion, whole in IQC_RULES]
    for frame in frames:
        axioms = ev.rows(IQC_AXIOMS, ("forcing", basis, frame))
        for i, j in enumerate(basis.members):
            for phi, env, vec in axioms:
                report.check_eq(vec[i], h.top, frame=frame, j=j, formula=phi, env=env)
        # rule closure needs both monotonicity directions, so the
        # lower nucleus must itself be a frame member
        rule_rows = []
        for conclusion, whole, reads in rules:
            tables = [(ev.table("forcing", f, frame, frame), at) for f, at in reads]
            rule_rows += [(conclusion, env, *(t[at[x]] for t, at in tables)) for x, env in enumerate(ev.envs(whole))]
        quantifier_rows = [(conclusion, ev.table("forcing", premise, frame, frame),
                            ev.table("forcing", conclusion, frame, frame)[0])
                           for premise, conclusion in IQC_QUANTIFIER_RULES]
        for i, j in enumerate(frame.members):
            for conclusion, env, *premises, concl in rule_rows:
                report.check_le(h.meet_all(v[i] for v in premises), concl[i],
                                frame=frame, j=j, formula=conclusion, env=env)
            for conclusion, premises, concl in quantifier_rows:
                report.check_le(h.meet_all(v[i] for v in premises), concl[i], frame=frame, j=j, formula=conclusion)


def _suite_literal_class(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    h, basis = ev.h, ev.nuclei
    ident = identity_nucleus(h)
    if all(f.members != (ident,) for f in frames):
        frames = [*frames, LopFrame(h, (ident,))]  # a copy: the scene's own list stays as it is
    for phi, env, *vecs in ev.rows(LITERAL_SHAPES, *(("forcing", basis, frame) for frame in frames)):
        rhs = h.meet_all(v for vec in vecs for v in vec)
        report.check_eq(eval_formula(phi, ev.m, env), rhs, formula=phi, env=env)


def _suite_forcingL_equiv(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    for frame in frames:
        evl = ForcingLEval(ev.m, frame)
        rows = ev.rows(SMALL_SHAPES, ("forcing", frame, frame))
        for i, j in enumerate(frame.members):
            for phi, env, vec in rows:
                uenv = tuple(sorted(
                    (name, evl.unit(j, evl.singleton(d))) for name, d in env
                ))
                report.check_eq(evl.value(phi, j, uenv), vec[i], frame=frame, j=j, formula=phi, env=env)


def _suite_kuroda_gg(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    basis = ev.nuclei
    for frame in frames:
        rows = ev.rows(GENERAL_SHAPES, ("kuroda-wrapped", basis, frame), ("forcing", basis, frame))
        for i, j in enumerate(basis.members):
            for phi, env, kv, fv in rows:
                report.check_eq(kv[i], fv[i], frame=frame, j=j, formula=phi, env=env)


def _suite_impfree_equiv(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    for frame in frames:
        for phi in IMPFREE_SHAPES:
            report.check_eq(ev.equiv_val(phi, frame), ev.h.top, frame=frame, formula=phi)


def _suite_emn(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    h = ev.h
    for frame in frames:
        for phi, np, nnp, dne in EMN_SHAPES:
            e, e_np, e_nnp = (ev.equiv_val(x, frame) for x in (phi, np, nnp))
            m_np, m_nnp, m_dne = (ev.mono_val(x, frame) for x in (np, nnp, dne))
            n_nnp = ev.nono_val(nnp, frame)
            report.check_le(n_nnp, m_np, item=1, frame=frame, formula=phi)
            report.check_le(h.meet[e][m_np], e_np, item=2, frame=frame, formula=phi)
            report.check_le(h.meet_all([e, m_np, m_nnp]), e_nnp, item=3, frame=frame, formula=phi)
            report.check_le(h.meet[e][n_nnp], m_dne, item=4, frame=frame, formula=phi)


def _suite_mndneg(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    h = ev.h
    for frame in frames:
        for phi, np, nnp, lem, dne in MNDNEG_SHAPES:
            e = ev.equiv_val(phi, frame)
            report.check_le(h.meet[e][ev.mono_val(np, frame)], ev.equiv_val(lem, frame),
                            item=1, frame=frame, formula=phi)
            report.check_le(h.meet_all([e, ev.mono_val(nnp, frame), ev.nono_val(nnp, frame)]),
                            ev.equiv_val(dne, frame), item=2, frame=frame, formula=phi)


def _suite_trp_closure(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    h, basis = ev.h, ev.nuclei
    t_atom = ev.trp_val(TRP_ATOM, basis)
    mats = [(phi, ev.trp_val(phi, basis), ev.trp_val(psi, basis), ev.trp_val(conj, basis),
             ev.trp_val(disj, basis), ev.trp_val(ex, basis), ev.cl_val(psi, basis),
             ev.trp_val(imp, basis), ev.cl_val(phi, basis), ev.trp_val(univ, basis))
            for phi, psi, conj, disj, ex, imp, univ in TRP_SHAPES]
    for i, j in enumerate(basis.members):
        for l, k in enumerate(basis.members):
            le = ev.le_val(j, k)
            report.check_le(le, t_atom[i][l], item=1, j=j, k=k)
            for phi, t_phi, t_psi, t_conj, t_disj, t_ex, cl_psi, t_imp, cl_phi, t_univ in mats:
                tp = t_phi[i][l]
                both = h.meet[tp][t_psi[i][l]]
                report.check_le(both, t_conj[i][l], item=2, j=j, k=k, formula=phi)
                report.check_le(h.meet[both][le], t_disj[i][l], item=3, j=j, k=k, formula=phi)
                report.check_le(h.meet[both][le], t_ex[i][l], item="3-exists", j=j, k=k, formula=phi)
                report.check_le(h.meet[both][cl_psi[i][l]], t_imp[i][l], item=4, j=j, k=k, formula=phi)
                report.check_le(h.meet[tp][cl_phi[i][l]], t_univ[i][l], item="4-forall", j=j, k=k, formula=phi)


def _dense_basis(ev: SceneEval) -> LopFrame:
    """The dense nuclei of the scene basis, in basis order."""
    return LopFrame(ev.h, tuple(j for j in ev.nuclei.members if is_dense(j)))


def _suite_dense_dne(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    dense = _dense_basis(ev)
    plain, at_j = eval_formula(DNE_ATOM, ev.m), ev.table("gg", DNE_ATOM, dense)[0]
    rows = [(phi, ev.table("gg", dne, dense)[0], ev.cl_val(phi, dense)) for phi, dne in DNE_SHAPES]
    for i, j in enumerate(dense.members):
        report.check_le(plain, at_j[i], item=1, j=j)
        for l, k in enumerate(dense.members):
            for phi, dv, cl in rows:
                report.check_le(dv[i], cl[i][l], item=2, j=j, k=k, formula=phi)


def _suite_trp_imp_mn(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    h, basis = ev.h, ev.nuclei
    for frame in frames:
        # row i of the matrix: j = basis entry i, k over the frame
        rows = [(phi, ev.trp_val(phi, basis, frame), h.meet[ev.mono_val(nnp, frame)][ev.nono_val(nnp, frame)])
                for phi, _, nnp in NEGATIONS]
        for i, j in enumerate(basis.members):
            for phi, trp, rhs in rows:
                report.check_le(h.meet_all(trp[i]), rhs, frame=frame, j=j, formula=phi)


def _suite_trp_ladder(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    dense = _dense_basis(ev)
    mats = [(phi, ev.trp_val(phi, dense)) for phi in PI1_SHAPES + SIGMA1_SHAPES]
    for i, j in enumerate(dense.members):
        for l, k in enumerate(dense.members):
            le = ev.le_val(j, k)
            for phi, trp in mats:
                report.check_le(le, trp[i][l], j=j, k=k, formula=phi)


def _suite_sufcon(report: SuiteReport, ev: SceneEval, frames: list[LopFrame]) -> None:
    h = ev.h
    for frame in frames:
        for j in frame.members:
            ante = h.meet_all(ev.le_val(j, k) for k in frame.members)
            for label, phi, dne, lem in SUFCON_INSTANCES:
                report.check_le(ante, ev.equiv_val(dne, frame), cls=label, ax="DNE", frame=frame, j=j, formula=phi)
                report.check_le(ante, ev.equiv_val(lem, frame), cls=label, ax="LEM", frame=frame, j=j, formula=phi)


SUITES = {
    "loplem": _suite_loplem,
    "maximal-collapse": _suite_maximal_collapse,
    "jclosed": _suite_jclosed,
    "monotonicity": _suite_monotonicity,
    "jinP-monotonicity": _suite_jinp_monotonicity,
    "constant-domain": _suite_constant_domain,
    "iqc-soundness": _suite_iqc_soundness,
    "literal-class": _suite_literal_class,
    "forcingL-equiv": _suite_forcingL_equiv,
    "kuroda-gg": _suite_kuroda_gg,
    "impfree-equiv": _suite_impfree_equiv,
    "emn": _suite_emn,
    "mndneg": _suite_mndneg,
    "trp-closure": _suite_trp_closure,
    "dense-dne": _suite_dense_dne,
    "trp-imp-mn": _suite_trp_imp_mn,
    "trp-ladder": _suite_trp_ladder,
    "sufcon": _suite_sufcon,
}


def _dense_frames(scene: Scene) -> list[LopFrame]:
    return [f for f in scene.frames if all(is_dense(k) for k in f.members)]


# Suites that check only some scenes or frames: scene -> the frames read (None: skip it), and the note
FORCINGL_FRAMES = 3  # the sheaf-term evaluator is costly, so forcingL-equiv reads only the first frames
SUITE_READS = {
    "forcingL-equiv": (lambda scene: list(islice(scene.frames, FORCINGL_FRAMES))
                       if scene.model.algebra.size <= 8 and scene.model.domain_size <= 2 else None,
                       "restricted to algebras with <= 8 elements and domains <= 2, "
                       f"and to the first {FORCINGL_FRAMES} frames of each"),
    "trp-imp-mn": (_dense_frames, "on frames whose members are all dense"),
    "trp-ladder": (lambda scene: scene.frames if scene.two_valued else None,
                   "level-0 ladder on two-valued-atom models"),
    "sufcon": (lambda scene: _dense_frames(scene) if scene.two_valued else None,
               "level-0 condition on dense frames and two-valued-atom models"),
}


def run_suite(suite: str, corpus: Corpus) -> SuiteReport:
    """Run the named suite, one `SceneEval` per scene, on the frames its
    `SUITE_READS` reader picks, or on all; the note counts the scenes kept
    and, if some of their frames were left out, the frames read.  A suite
    that reads a scene's nuclei reads all of them or refuses the scene."""
    check = SUITES.get(suite)
    if check is None:
        raise HModelError(f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}")
    read, note = SUITE_READS.get(suite, (lambda scene: scene.frames, None))
    report = SuiteReport(suite)
    report.seed = corpus.seed
    kept = [(scene, frames) for scene in corpus.scenes if (frames := read(scene)) is not None]
    for scene, frames in kept:
        report.scene, report.h = scene, scene.model.algebra
        check(report, SceneEval(scene.model), frames)
    if note is not None:
        read_count, total = sum(len(frames) for _, frames in kept), sum(len(scene.frames) for scene, _ in kept)
        frame_count = f", {read_count} of {total} frames" if read_count < total else ""
        report.notes.append(f"{note} ({len(kept)} scenes{frame_count})")
    return report


# -------------------------------------------------- countermodel search

# the value in the algebra that each target's search scans for, in the
# order the targets are listed
SEARCH_TARGETS = {
    "equiv": SceneEval.equiv_val,
    "trp": lambda ev, phi, frame: ev.h.meet_all(x for row in ev.trp_val(phi, frame) for x in row),
    "mono": SceneEval.mono_val,
    "nono": SceneEval.nono_val,
}

FORMULA_SETS = {
    "implicational": MIXED_SHAPES,
    "imp-free": IMPFREE_SHAPES,
    "all": GENERAL_SHAPES,
}


def search_countermodel(target: str, corpus: Corpus, formula_set: str) -> dict:
    """First witness, in canonical corpus order, where the named
    predicate is not top; or an exhaustion report."""
    value = SEARCH_TARGETS.get(target)
    if value is None:
        raise HModelError(f"unknown target {target!r}; available: {', '.join(SEARCH_TARGETS)}")
    shapes = FORMULA_SETS.get(formula_set)
    if shapes is None:
        raise HModelError(f"unknown formula set {formula_set!r}")
    scanned = 0
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        top = ev.h.top
        for frame in scene.frames:
            for phi in shapes:
                scanned += 1
                v = value(ev, phi, frame)
                if v != top:
                    return {
                        "found": True,
                        "target": target,
                        "value": v,
                        "witness": _wit(scene, frame=frame, formula=phi),
                        "scanned": scanned,
                    }
    return {"found": False, "target": target, "scanned": scanned}
