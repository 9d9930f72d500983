"""Lattice-valued evaluation and the named property suites.

A model is a finite Heyting algebra, a finite domain, and a table for
each uninterpreted relation symbol.  Formulas evaluate to carrier
elements; the modal language evaluates through nucleus tables, with
guarded quantification realized as a meet over the frame members above
the current nucleus.  `eval_m` is the plain recursive definition;
`SceneEval` evaluates the output of each translation with one memo
table and is what the suites use.  The suite registry checks each
property family over a generated corpus of models and reports failures
with witnesses.

Quantifiers over truth values and over nuclei are instantiated at the
carrier and at the enumerated nuclei respectively, so every suite
verdict is a necessary condition of the corresponding general fact;
a failure is a genuine bug.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import permutations, product

from .algebra import FinPoset, HeytingAlg, upset_algebra
from .formula import (
    And,
    Atom,
    Bot,
    BOT,
    Eq,
    Exists,
    Forall,
    Formula,
    GuardAll,
    Imp,
    Mod,
    Or,
    STEP_HALT,
    Var,
    free_vars,
    neg,
    parse,
    print_formula,
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


@dataclass(eq=False)
class HModel:
    """Finite algebra-valued model with a constant domain."""

    algebra: HeytingAlg
    domain_size: int
    atom_val: dict[str, dict[tuple[int, ...], int]]
    nuclei: tuple[Nucleus, ...]
    name: str = ""

    def __post_init__(self):
        if self.domain_size < 1:
            raise HModelError("domain must be nonempty")
        h = self.algebra
        for rel, table in self.atom_val.items():
            for key, v in table.items():
                h.check_element(v)
                if any(not 0 <= d < self.domain_size for d in key):
                    raise HModelError(f"atom table for {rel} mentions unknown domain point {key}")

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
    """Standard algebra-valued semantics with meets/joins for quantifiers."""
    h = m.algebra
    if isinstance(phi, Bot):
        return h.bottom
    if isinstance(phi, Eq) or (isinstance(phi, Atom) and phi.rel == STEP_HALT):
        raise HModelError("arithmetic atoms are not supported by the lattice backend")
    if isinstance(phi, Atom):
        args = []
        for t in phi.args:
            if not isinstance(t, Var):
                raise HModelError("lattice models only evaluate variable arguments")
            args.append(env_get(env, t.name))
        return m.atom(phi.rel, tuple(args))
    if isinstance(phi, And):
        return h.meet[eval_formula(phi.left, m, env)][eval_formula(phi.right, m, env)]
    if isinstance(phi, Or):
        return h.join[eval_formula(phi.left, m, env)][eval_formula(phi.right, m, env)]
    if isinstance(phi, Imp):
        return h.imp[eval_formula(phi.left, m, env)][eval_formula(phi.right, m, env)]
    if isinstance(phi, Forall):
        return h.meet_all(eval_formula(phi.body, m, env_set(env, phi.var, d)) for d in m.domain)
    if isinstance(phi, Exists):
        return h.join_all(eval_formula(phi.body, m, env_set(env, phi.var, d)) for d in m.domain)
    raise HModelError(f"cannot evaluate node {phi!r}")


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
    if isinstance(mphi, Atom):
        return eval_formula(mphi, m, env)
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


class SceneEval:
    """Memoized evaluator of translated formulas for one model.

    `value(style, phi, j, env, frame)` is the value of
    `TRANSLATIONS[style](phi)` with the nucleus variable j bound to `j`
    and the frame P bound to `frame`, the same number `eval_m` computes;
    a dedicated test compares the two.

    Every node of a translated formula has at most one free nucleus
    variable, the current nucleus: j at the root, rebound to the guard's
    k throughout a GuardAll body.  A node's value therefore depends only
    on the node, the current nucleus, the frame, and the environment, and
    that tuple is the memo key.  Formula nodes cache their structural
    hash, so hashing a key does not walk the formula.  Mod is not
    memoized: it is one table lookup on a memoized child.

    `envs(phi)` lists the environments over phi's free variables once
    per formula and hands back the same list on later calls, since the
    suites ask for the same few shapes over and over.
    """

    def __init__(self, model: HModel):
        self.m = model
        self.h = model.algebra
        self._plain: dict = {}
        self._memo: dict = {}
        self._translated: dict = {}
        self._up: dict = {}
        self._envs: dict = {}

    # -------------------------------------------------- base evaluators
    def up(self, frame: LopFrame, j: Nucleus) -> list[Nucleus]:
        key = (frame, j)
        got = self._up.get(key)
        if got is None:
            got = frame_up(frame, j)
            self._up[key] = got
        return got

    def plain(self, phi: Formula, env: Env = ()) -> int:
        key = (phi, env)
        got = self._plain.get(key)
        if got is None:
            got = eval_formula(phi, self.m, env)
            self._plain[key] = got
        return got

    def value(self, style: str, phi: Formula, j: Nucleus, env: Env = (), frame: LopFrame | None = None) -> int:
        """Value of the named translation of phi at j (over the frame)."""
        return self._eval(self.translated(style, phi), j, frame, env)

    def translated(self, style: str, phi: Formula) -> Formula:
        """`TRANSLATIONS[style](phi)`, built once per evaluator."""
        key = (style, phi)
        t = self._translated.get(key)
        if t is None:
            t = self._translated[key] = TRANSLATIONS[style](phi)
        return t

    def _eval(self, node: Formula, j: Nucleus, frame: LopFrame | None, env: Env) -> int:
        if type(node) is Mod:
            return j.table[self._eval(node.body, j, frame, env)]
        if type(node) is Atom or type(node) is Bot:
            return self.plain(node, env)
        key = (node, j, frame, env)
        got = self._memo.get(key)
        if got is not None:
            return got
        h = self.h
        if isinstance(node, And):
            v = h.meet[self._eval(node.left, j, frame, env)][self._eval(node.right, j, frame, env)]
        elif isinstance(node, Or):
            v = h.join[self._eval(node.left, j, frame, env)][self._eval(node.right, j, frame, env)]
        elif isinstance(node, Imp):
            v = h.imp[self._eval(node.left, j, frame, env)][self._eval(node.right, j, frame, env)]
        elif isinstance(node, GuardAll):
            if frame is None:
                raise HModelError(f"guard over {node.frame} needs a frame")
            v = h.meet_all(self._eval(node.body, k, frame, env) for k in self.up(frame, j))
        elif isinstance(node, Forall):
            v = h.meet_all(self._eval(node.body, j, frame, env_set(env, node.var, d)) for d in self.m.domain)
        elif isinstance(node, Exists):
            v = h.join_all(self._eval(node.body, j, frame, env_set(env, node.var, d)) for d in self.m.domain)
        else:
            raise HModelError(f"cannot evaluate node {node!r}")
        self._memo[key] = v
        return v

    # ------------------------------------------------ derived operators
    def biimp(self, a: int, b: int) -> int:
        h = self.h
        return h.meet[h.imp[a][b]][h.imp[b][a]]

    def envs(self, phi: Formula) -> list[Env]:
        """Every environment over phi's free variables, in sorted-variable
        product order; the list is shared, so callers must not mutate it."""
        got = self._envs.get(phi)
        if got is None:
            fv = sorted(free_vars(phi))
            got = self._envs[phi] = [tuple(zip(fv, point)) for point in product(self.m.domain, repeat=len(fv))]
        return got

    def le_val(self, j: Nucleus, k: Nucleus) -> int:
        """Carrier value of the pointwise order formula between nuclei."""
        h = self.h
        return h.meet_all(h.imp[j(p)][k(p)] for p in h.carrier)

    def eq_val(self, j: Nucleus, k: Nucleus) -> int:
        h = self.h
        return h.meet_all(self.biimp(j(p), k(p)) for p in h.carrier)

    # ------------------------------------------------- named predicates
    # Each translates phi once and evaluates the tree per nucleus and env.
    def equiv_val(self, phi: Formula, frame: LopFrame) -> int:
        h, fc, gg = self.h, self.translated("forcing", phi), self.translated("gg", phi)
        return h.meet_all(
            self.biimp(self._eval(fc, j, frame, env), self._eval(gg, j, None, env))
            for j in frame.members
            for env in self.envs(phi)
        )

    def mono_val(self, phi: Formula, frame: LopFrame) -> int:
        h, gg = self.h, self.translated("gg", phi)
        return h.meet_all(
            h.imp[self._eval(gg, j, None, env)][self._eval(gg, k, None, env)]
            for j in frame.members
            for env in self.envs(phi)
            for k in self.up(frame, j)
        )

    def nono_val(self, phi: Formula, frame: LopFrame) -> int:
        h, gg = self.h, self.translated("gg", phi)
        return h.meet_all(
            h.imp[self._eval(gg, k, None, env)][self._eval(gg, j, None, env)]
            for j in frame.members
            for env in self.envs(phi)
            for k in self.up(frame, j)
        )

    def trp_val(self, phi: Formula, j: Nucleus, k: Nucleus) -> int:
        h, gg = self.h, self.translated("gg", phi)
        return h.meet_all(self.biimp(k(self._eval(gg, j, None, env)), self._eval(gg, k, None, env)) for env in self.envs(phi))

    def cl_val(self, phi: Formula, j: Nucleus, k: Nucleus) -> int:
        h, gg = self.h, self.translated("gg", phi)
        return h.meet_all(self.biimp(self._eval(gg, j, None, env), k(self._eval(gg, j, None, env))) for env in self.envs(phi))


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


def eval_forcing_L(phi: Formula, m: HModel, j: Nucleus, frame: LopFrame, uenv: dict[str, HSubset]) -> int:
    ev = ForcingLEval(m, frame)
    return ev.value(phi, j, tuple(sorted(uenv.items())))


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
        labels = [f"p{i}" for i in range(n)]
        for canon in level:
            out.append(FinPoset.from_covers(labels, [(labels[a], labels[b]) for a, b in canon]))
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
    description: str = ""


# shared relation signature for the generated corpus
CORPUS_RELS = (("R", 1), ("Q", 1))

MAX_FRAME_ENUM_NUCLEI = 6  # enumerate all small frames below this inventory size


def _sample_valuation(h: HeytingAlg, domain_size: int, rng: random.Random, two_valued: bool):
    values = (h.bottom, h.top) if two_valued else tuple(h.carrier)
    table = {}
    for rel, arity in CORPUS_RELS:
        table[rel] = {
            point: rng.choice(values)
            for point in product(range(domain_size), repeat=arity)
        }
    return table


def _frames_for(h: HeytingAlg, nuclei: tuple[Nucleus, ...], rng: random.Random, frame_bound: int, max_frames: int) -> list[LopFrame]:
    idx = list(range(len(nuclei)))
    subsets = []
    if len(nuclei) <= MAX_FRAME_ENUM_NUCLEI:
        for size in range(1, frame_bound + 1):
            from itertools import combinations

            subsets.extend(combinations(idx, size))
    else:
        ident = nuclei.index(identity_nucleus(h))
        picks = {(ident,)}
        while len(picks) < max_frames:
            size = rng.randint(1, frame_bound)
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


def build_corpus(
    point_bound: int = 4,
    domain_bound: int = 3,
    frame_bound: int = 3,
    scenes_per_poset: int = 5,
    max_frames: int = 6,
    seed: int = 0,
) -> Corpus:
    """Deterministic model corpus: every poset up to the point bound, a
    cycle of domain sizes, sampled valuations (some two-valued), and a
    bounded family of frames per algebra including the identity
    singleton.

    Both generators are closed forms, so the corpus holds every poset
    class (`all_posets`) and, per algebra, all 2^|P| nuclei
    (`enumerate_nuclei`), each in a fixed canonical order.  The frame
    sampling and the per-poset RNG seeds depend on those orders."""
    scenes = []
    posets = all_posets(point_bound)
    for pidx, p in enumerate(posets):
        h = upset_algebra(p)
        nuclei = tuple(enumerate_nuclei(h))
        rng = random.Random(seed * 1000003 + pidx)
        frames = _frames_for(h, nuclei, rng, frame_bound, max_frames)
        for s in range(scenes_per_poset):
            domain_size = 1 + (pidx + s) % domain_bound
            two_valued = s % 2 == 1
            atom_val = _sample_valuation(h, domain_size, rng, two_valued)
            model = HModel(h, domain_size, atom_val, nuclei, name=f"poset{pidx}-scene{s}")
            scenes.append(Scene(model, frames, two_valued))
    return Corpus(scenes, seed, description=f"posets<={point_bound}, {scenes_per_poset} scenes each")


def builtin_corpus(name: str, seed: int = 0) -> Corpus:
    if name == "builtin:default":
        return build_corpus(seed=seed)
    if name == "builtin:small":
        return build_corpus(point_bound=3, scenes_per_poset=3, max_frames=4, seed=seed)
    raise HModelError(f"unknown builtin corpus {name!r} (want builtin:default or builtin:small)")


def load_model(path: str) -> Scene:
    """Read one model file: poset, domain size, atom tables, frame specs."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        elements = list(data["poset"]["elements"])
        covers = [tuple(c) for c in data["poset"]["covers"]]
        raw_domain = data["domain_size"]
        raw_atoms = data["atoms"]
        frame_specs = data.get("frames", [["id"]])
    except (KeyError, TypeError) as exc:
        raise HModelError(f"{path}: malformed model file ({exc})") from exc
    try:
        domain_size = int(raw_domain)
    except (TypeError, ValueError):
        raise HModelError(f"{path}: domain_size is {raw_domain!r}, not an integer") from None
    if not isinstance(raw_atoms, dict):
        raise HModelError(f"{path}: atoms must map relation names to nested lists of elements")
    if not (isinstance(frame_specs, list)
            and all(isinstance(spec, list) and all(isinstance(n, str) for n in spec) for spec in frame_specs)):
        raise HModelError(f"{path}: frames must be a list of lists of nucleus names")
    h = upset_algebra(FinPoset.from_covers(elements, covers))
    atom_val = {}
    for rel, nested in raw_atoms.items():
        table = {}

        def walk(node, prefix):
            if isinstance(node, list):
                for i, sub in enumerate(node):
                    walk(sub, prefix + (i,))
            else:
                try:
                    table[prefix] = int(node)
                except (TypeError, ValueError):
                    raise HModelError(f"{path}: atom {rel} entry {list(prefix)} is {node!r}, not an integer") from None

        walk(nested, ())
        atom_val[rel] = table
    nuclei = tuple(enumerate_nuclei(h))
    model = HModel(h, domain_size, atom_val, nuclei, name=path)
    frames = [LopFrame(h, tuple(named_nucleus(h, s) for s in spec)) for spec in frame_specs]
    return Scene(model, frames, two_valued=False)


def corpus_from_spec(spec: str, seed: int = 0) -> Corpus:
    if spec.startswith("builtin:"):
        return builtin_corpus(spec, seed=seed)
    scene = load_model(spec)
    return Corpus([scene], seed=seed, description=spec)


# ------------------------------------------------------- formula stock

def _p(text: str) -> Formula:
    return parse(text)


GENERAL_SHAPES = [_p(s) for s in [
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

SMALL_SHAPES = [_p(s) for s in [
    "R(x)",
    "~R(x)",
    "R(x) \\/ Q(x)",
    "R(x) -> Q(x)",
    "forall x. R(x)",
    "exists x. R(x)",
    "forall x. (R(x) -> Q(x))",
]]

IMPFREE_SHAPES = [_p(s) for s in [
    "R(x)",
    "R(x) \\/ Q(x)",
    "R(x) /\\ Q(x)",
    "exists x. R(x)",
    "forall x. R(x)",
    "forall x. exists y. (R(x) \\/ Q(y))",
    "exists x. (R(x) /\\ Q(y))",
]]

LITERAL_SHAPES = [_p(s) for s in [
    "R(x)",
    "~R(x)",
    "R(x) /\\ ~Q(x)",
    "forall x. R(x)",
    "forall x. (R(x) /\\ ~Q(x))",
    "forall x. forall y. (R(x) /\\ Q(y))",
]]

QF_SHAPES = [_p(s) for s in [
    "R(x)",
    "~R(x)",
    "R(x) -> Q(x)",
    "R(x) \\/ Q(x)",
    "R(x) /\\ ~Q(x)",
]]

SIGMA1_SHAPES = [_p(s) for s in [
    "exists x. R(x)",
    "exists x. (R(x) /\\ ~Q(x))",
    "exists x. (R(x) -> Q(x))",
]]

PI1_SHAPES = [_p(s) for s in [
    "forall x. R(x)",
    "forall x. ~R(x)",
    "forall x. (R(x) \\/ Q(x))",
    "forall x. (R(x) -> Q(x))",
]]

SIGMA2_SHAPES = [_p(s) for s in [
    "exists x. forall y. (R(x) \\/ Q(y))",
    "exists x. forall y. (R(x) -> Q(y))",
]]

PIORPI1_SHAPES = [
    Or(_p("forall x. ~R(x)"), _p("forall x. Q(x)")),
]

MIXED_SHAPES = [_p(s) for s in [
    "R(x) -> Q(x)",
    "~R(x)",
    "~~R(x) -> R(x)",
    "R(x) \\/ ~R(x)",
    "forall x. (R(x) -> Q(x))",
    "(R(x) -> Q(x)) -> Q(x)",
]]

IQC_AXIOMS = [_p(s) for s in [
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

# (premises, conclusion) pairs for the connective rules
IQC_RULES = [
    ([_p("R(x)"), _p("R(x) -> Q(x)")], _p("Q(x)")),
    ([_p("R(x) -> Q(x)"), _p("Q(x) -> R(y)")], _p("R(x) -> R(y)")),
    ([_p("R(x) /\\ Q(x) -> Q(y)")], _p("R(x) -> (Q(x) -> Q(y))")),
    ([_p("R(x) -> (Q(x) -> Q(y))")], _p("R(x) /\\ Q(x) -> Q(y)")),
    ([_p("R(x) -> Q(x)")], _p("R(x) \\/ Q(y) -> Q(x) \\/ Q(y)")),
]


# --------------------------------------------------------- suite runner

@dataclass
class SuiteReport:
    suite: str
    checks: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

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


class _Run:
    """Bookkeeping shared by the suite implementations.

    A check gets its scene and the raw witness fields (nuclei, frames,
    formulas, environments).  Only a failure that is recorded, at most
    `max_failures` of them, is turned into a printable entry by `_wit`,
    so a passing check costs a comparison and a count.
    """

    def __init__(self, suite: str, max_failures: int = 20):
        self.report = SuiteReport(suite)
        self.max_failures = max_failures

    def check_le(self, h: HeytingAlg, lhs: int, rhs: int, scene: Scene, **witness):
        self.report.checks += 1
        if not h.le(lhs, rhs):
            self._fail(lhs, rhs, "<=", scene, witness)

    def check_eq(self, h: HeytingAlg, lhs: int, rhs: int, scene: Scene, **witness):
        self.report.checks += 1
        if lhs != rhs:
            self._fail(lhs, rhs, "==", scene, witness)

    def _fail(self, lhs, rhs, relation, scene, witness):
        if len(self.report.failures) < self.max_failures:
            entry = {"lhs": lhs, "rhs": rhs, "relation": relation}
            entry.update(_wit(scene, **witness))
            self.report.failures.append(entry)


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


def _scene_nuclei(scene: Scene, cap: int = 16) -> tuple[Nucleus, ...]:
    return scene.model.nuclei[:cap]


def _dne(phi: Formula) -> Formula:
    return universal_closure(Imp(neg(neg(phi)), phi))


# The suites build every derived formula (negations, closures, compounds
# of a pair) once, before the scene loop: the evaluator's memo tables
# then find each one by identity instead of comparing fresh trees.

def _suite_loplem(corpus: Corpus) -> SuiteReport:
    run = _Run("loplem")
    for scene in corpus.scenes:
        m = scene.model
        h = m.algebra
        rng = random.Random(f"{corpus.seed}:{m.name}:loplem")
        subsets = [tuple(rng.choice(tuple(h.carrier)) for _ in m.domain) for _ in range(4)]
        for j in _scene_nuclei(scene):
            for p in h.carrier:
                for q in h.carrier:
                    run.check_eq(h, h.imp[p][j(q)], j(h.imp[p][j(q)]), scene, item=1, j=j, p=p, q=q)
                    run.check_eq(h, j(h.join[p][q]), j(h.join[j(p)][j(q)]), scene, item=3, j=j, p=p, q=q)
            for v in subsets:
                run.check_le(h, j(h.meet_all(v)), h.meet_all(j(a) for a in v), scene, item=2, j=j, subset=v)
                run.check_le(h, h.join_all(j(a) for a in v), j(h.join_all(v)), scene, item=4, j=j, subset=v)
    return run.report


def _suite_maximal_collapse(corpus: Corpus) -> SuiteReport:
    run = _Run("maximal-collapse")
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for frame in scene.frames:
            for j in frame.members:
                ante = h.meet_all(ev.eq_val(j, k) for k in ev.up(frame, j))
                for phi in SMALL_SHAPES:
                    for env in ev.envs(phi):
                        run.check_le(h, ante,
                                     ev.biimp(ev.value("forcing", phi, j, env, frame), ev.value("gg", phi, j, env)),
                                     scene, frame=frame, j=j, formula=phi, env=env)
    return run.report


def _suite_jclosed(corpus: Corpus) -> SuiteReport:
    run = _Run("jclosed")
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for frame in scene.frames:
            for j in _scene_nuclei(scene):
                for phi in GENERAL_SHAPES:
                    for env in ev.envs(phi):
                        v = ev.value("forcing", phi, j, env, frame)
                        run.check_eq(h, j(v), v, scene, frame=frame, j=j, formula=phi, env=env)
    return run.report


def _suite_monotonicity(corpus: Corpus) -> SuiteReport:
    run = _Run("monotonicity")
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for frame in scene.frames:
            for j in _scene_nuclei(scene):
                ups = ev.up(frame, j)
                if not ups:
                    continue
                for phi in GENERAL_SHAPES:
                    for env in ev.envs(phi):
                        vj = ev.value("forcing", phi, j, env, frame)
                        for k in ups:
                            run.check_le(h, vj, ev.value("forcing", phi, k, env, frame),
                                         scene, frame=frame, j=j, k=k, formula=phi, env=env)
    return run.report


def _suite_jinp_monotonicity(corpus: Corpus) -> SuiteReport:
    run = _Run("jinP-monotonicity")
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for frame in scene.frames:
            for j in frame.members:
                for phi in GENERAL_SHAPES:
                    for env in ev.envs(phi):
                        lhs = ev.value("forcing", phi, j, env, frame)
                        rhs = h.meet_all(ev.value("forcing", phi, k, env, frame) for k in ev.up(frame, j))
                        run.check_eq(h, lhs, rhs, scene, frame=frame, j=j, formula=phi, env=env)
    return run.report


def _suite_constant_domain(corpus: Corpus) -> SuiteReport:
    run = _Run("constant-domain")
    shapes = [(phi, universal_closure(phi)) for phi in GENERAL_SHAPES if free_vars(phi)]
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for frame in scene.frames:
            for j in frame.members:
                for phi, closed in shapes:
                    lhs = h.meet_all(ev.value("forcing", phi, j, env, frame) for env in ev.envs(phi))
                    run.check_eq(h, lhs, ev.value("forcing", closed, j, (), frame), scene, frame=frame, j=j, formula=phi)
    return run.report


def _suite_iqc_soundness(corpus: Corpus) -> SuiteReport:
    run = _Run("iqc-soundness")
    # a rule's environments range over the free variables of all its
    # formulas, which are those of their conjunction
    rules = [(premises, conclusion, reduce(And, premises + [conclusion])) for premises, conclusion in IQC_RULES]
    # quantifier rules, with the side formula closed: (premise with y
    # free, met over the domain; conclusion binding y)
    psi, body = _p("exists z. R(z)"), _p("Q(y)")
    quantifier_rules = [
        (Imp(psi, body), Imp(psi, Forall("y", body))),
        (Imp(body, psi), Imp(Exists("y", body), psi)),
    ]
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for frame in scene.frames:
            for j in _scene_nuclei(scene):
                for phi in IQC_AXIOMS:
                    for env in ev.envs(phi):
                        run.check_eq(h, ev.value("forcing", phi, j, env, frame), h.top,
                                     scene, frame=frame, j=j, formula=phi, env=env)
            # rule closure needs both monotonicity directions, so the
            # lower nucleus must itself be a frame member
            for j in frame.members:
                for premises, conclusion, whole in rules:
                    for env in ev.envs(whole):
                        pv = h.meet_all(ev.value("forcing", f, j, env, frame) for f in premises)
                        run.check_le(h, pv, ev.value("forcing", conclusion, j, env, frame),
                                     scene, frame=frame, j=j, formula=conclusion, env=env)
                for premise, conclusion in quantifier_rules:
                    lhs = h.meet_all(ev.value("forcing", premise, j, env, frame) for env in ev.envs(premise))
                    run.check_le(h, lhs, ev.value("forcing", conclusion, j, (), frame),
                                 scene, frame=frame, j=j, formula=conclusion)
    return run.report


def _suite_literal_class(corpus: Corpus) -> SuiteReport:
    run = _Run("literal-class")
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        ident = identity_nucleus(h)
        id_frame = LopFrame(h, (ident,))
        frames = list(scene.frames)
        if all(f.members != (ident,) for f in frames):
            frames.append(id_frame)
        for phi in LITERAL_SHAPES:
            for env in ev.envs(phi):
                rhs = h.meet_all(
                    ev.value("forcing", phi, j, env, frame)
                    for frame in frames
                    for j in _scene_nuclei(scene)
                )
                run.check_eq(h, ev.plain(phi, env), rhs, scene, formula=phi, env=env)
    return run.report


def _suite_forcingL_equiv(corpus: Corpus) -> SuiteReport:
    run = _Run("forcingL-equiv")
    kept = 0
    for scene in corpus.scenes:
        m = scene.model
        if m.algebra.size > 8 or m.domain_size > 2:
            continue
        kept += 1
        ev = SceneEval(m)
        h = ev.h
        for frame in scene.frames[:3]:
            evl = ForcingLEval(m, frame)
            for j in frame.members:
                for phi in SMALL_SHAPES:
                    for env in ev.envs(phi):
                        uenv = tuple(sorted(
                            (name, evl.unit(j, evl.singleton(d))) for name, d in env
                        ))
                        run.check_eq(h, evl.value(phi, j, uenv), ev.value("forcing", phi, j, env, frame),
                                     scene, frame=frame, j=j, formula=phi, env=env)
    run.report.notes.append(
        f"restricted to algebras with <= 8 elements and domains <= 2 ({kept} scenes)")
    return run.report


def _suite_kuroda_gg(corpus: Corpus) -> SuiteReport:
    run = _Run("kuroda-gg")
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for frame in scene.frames:
            for j in _scene_nuclei(scene):
                for phi in GENERAL_SHAPES:
                    for env in ev.envs(phi):
                        run.check_eq(h, j(ev.value("kuroda", phi, j, env, frame)), ev.value("forcing", phi, j, env, frame),
                                     scene, frame=frame, j=j, formula=phi, env=env)
    return run.report


def _suite_impfree_equiv(corpus: Corpus) -> SuiteReport:
    run = _Run("impfree-equiv")
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for frame in scene.frames:
            for phi in IMPFREE_SHAPES:
                run.check_eq(h, ev.equiv_val(phi, frame), h.top, scene, frame=frame, formula=phi)
    return run.report


def _suite_emn(corpus: Corpus) -> SuiteReport:
    run = _Run("emn")
    shapes = []
    for phi in MIXED_SHAPES:
        np, nnp = neg(phi), neg(neg(phi))
        shapes.append((phi, np, nnp, Imp(nnp, phi)))
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for frame in scene.frames:
            for phi, np, nnp, dne in shapes:
                e = ev.equiv_val(phi, frame)
                run.check_le(h, ev.nono_val(nnp, frame), ev.mono_val(np, frame),
                             scene, item=1, frame=frame, formula=phi)
                run.check_le(h, h.meet[e][ev.mono_val(np, frame)], ev.equiv_val(np, frame),
                             scene, item=2, frame=frame, formula=phi)
                run.check_le(h, h.meet_all([e, ev.mono_val(np, frame), ev.mono_val(nnp, frame)]),
                             ev.equiv_val(nnp, frame),
                             scene, item=3, frame=frame, formula=phi)
                run.check_le(h, h.meet[e][ev.nono_val(nnp, frame)], ev.mono_val(dne, frame),
                             scene, item=4, frame=frame, formula=phi)
    return run.report


def _suite_mndneg(corpus: Corpus) -> SuiteReport:
    run = _Run("mndneg")
    shapes = []
    for phi in MIXED_SHAPES:
        np, nnp = neg(phi), neg(neg(phi))
        shapes.append((phi, np, nnp, universal_closure(Or(phi, np)), _dne(phi)))
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for frame in scene.frames:
            for phi, np, nnp, lem, dne in shapes:
                e = ev.equiv_val(phi, frame)
                run.check_le(h, h.meet[e][ev.mono_val(np, frame)], ev.equiv_val(lem, frame),
                             scene, item=1, frame=frame, formula=phi)
                run.check_le(h, h.meet_all([e, ev.mono_val(nnp, frame), ev.nono_val(nnp, frame)]),
                             ev.equiv_val(dne, frame),
                             scene, item=2, frame=frame, formula=phi)
    return run.report


TRP_PAIRS = [
    (_p("R(x)"), _p("Q(x)")),
    (_p("~R(x)"), _p("Q(x) \\/ R(x)")),
    (_p("R(x) -> Q(x)"), _p("R(x)")),
    (_p("exists x. R(x)"), _p("forall x. Q(x)")),
]


def _suite_trp_closure(corpus: Corpus) -> SuiteReport:
    run = _Run("trp-closure")
    atom = _p("R(x)")
    pairs = [(phi, psi, And(phi, psi), Or(phi, psi), Exists("x", phi), Imp(phi, psi), Forall("x", phi))
             for phi, psi in TRP_PAIRS]
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for j in _scene_nuclei(scene):
            for k in _scene_nuclei(scene):
                le = ev.le_val(j, k)
                run.check_le(h, le, ev.trp_val(atom, j, k), scene, item=1, j=j, k=k)
                for phi, psi, conj, disj, ex, imp, univ in pairs:
                    tp, tq = ev.trp_val(phi, j, k), ev.trp_val(psi, j, k)
                    both = h.meet[tp][tq]
                    run.check_le(h, both, ev.trp_val(conj, j, k), scene, item=2, j=j, k=k, formula=phi)
                    run.check_le(h, h.meet[both][le], ev.trp_val(disj, j, k), scene, item=3, j=j, k=k, formula=phi)
                    run.check_le(h, h.meet[both][le], ev.trp_val(ex, j, k),
                                 scene, item="3-exists", j=j, k=k, formula=phi)
                    run.check_le(h, h.meet[both][ev.cl_val(psi, j, k)], ev.trp_val(imp, j, k),
                                 scene, item=4, j=j, k=k, formula=phi)
                    run.check_le(h, h.meet[tp][ev.cl_val(phi, j, k)], ev.trp_val(univ, j, k),
                                 scene, item="4-forall", j=j, k=k, formula=phi)
    return run.report


def _suite_dense_dne(corpus: Corpus) -> SuiteReport:
    run = _Run("dense-dne")
    dne_atom = _dne(_p("R(x)"))
    shapes = [(phi, _dne(phi)) for phi in MIXED_SHAPES]
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        dense = [j for j in _scene_nuclei(scene) if is_dense(j)]
        for j in dense:
            run.check_le(h, ev.plain(dne_atom, ()), ev.value("gg", dne_atom, j), scene, item=1, j=j)
            for k in dense:
                for phi, dne in shapes:
                    run.check_le(h, ev.value("gg", dne, j), ev.cl_val(phi, j, k), scene, item=2, j=j, k=k, formula=phi)
    return run.report


def _suite_trp_imp_mn(corpus: Corpus) -> SuiteReport:
    run = _Run("trp-imp-mn")
    shapes = [(phi, neg(neg(phi))) for phi in MIXED_SHAPES]
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        dense_frames = [f for f in scene.frames if all(is_dense(k) for k in f.members)]
        for frame in dense_frames:
            for j in _scene_nuclei(scene):
                for phi, nnp in shapes:
                    ante = h.meet_all(ev.trp_val(phi, j, k) for k in frame.members)
                    run.check_le(h, ante, h.meet[ev.mono_val(nnp, frame)][ev.nono_val(nnp, frame)],
                                 scene, frame=frame, j=j, formula=phi)
    return run.report


def _suite_trp_ladder(corpus: Corpus) -> SuiteReport:
    run = _Run("trp-ladder")
    kept = 0
    for scene in corpus.scenes:
        if not scene.two_valued:
            continue
        kept += 1
        ev = SceneEval(scene.model)
        h = ev.h
        dense = [j for j in _scene_nuclei(scene) if is_dense(j)]
        for j in dense:
            for k in dense:
                le = ev.le_val(j, k)
                for phi in PI1_SHAPES + SIGMA1_SHAPES:
                    run.check_le(h, le, ev.trp_val(phi, j, k), scene, j=j, k=k, formula=phi)
    run.report.notes.append(f"level-0 ladder on two-valued-atom models ({kept} scenes)")
    return run.report


def _suite_sufcon(corpus: Corpus) -> SuiteReport:
    run = _Run("sufcon")
    kept = 0
    classes = [
        ("Sigma1", SIGMA1_SHAPES),
        ("Pi1", PI1_SHAPES[:2]),
        ("PiOrPi1", PIORPI1_SHAPES),
        ("Sigma2", SIGMA2_SHAPES[:1]),
    ]
    instances = [(label, phi, _dne(phi), universal_closure(Or(phi, neg(phi))))
                 for label, shapes in classes for phi in shapes]
    for scene in corpus.scenes:
        if not scene.two_valued:
            continue
        kept += 1
        ev = SceneEval(scene.model)
        h = ev.h
        dense_frames = [f for f in scene.frames if all(is_dense(k) for k in f.members)]
        for frame in dense_frames:
            for j in frame.members:
                ante = h.meet_all(ev.le_val(j, k) for k in frame.members)
                for label, phi, dne, lem in instances:
                    run.check_le(h, ante, ev.equiv_val(dne, frame),
                                 scene, cls=label, ax="DNE", frame=frame, j=j, formula=phi)
                    run.check_le(h, ante, ev.equiv_val(lem, frame),
                                 scene, cls=label, ax="LEM", frame=frame, j=j, formula=phi)
    run.report.notes.append(f"level-0 condition on dense frames and two-valued-atom models ({kept} scenes)")
    return run.report


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


def run_suite(suite: str, corpus: Corpus) -> SuiteReport:
    fn = SUITES.get(suite)
    if fn is None:
        raise HModelError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    return fn(corpus)


# -------------------------------------------------- countermodel search

SEARCH_TARGETS = ("equiv", "trp", "mono", "nono")


def search_countermodel(target: str, corpus: Corpus, formula_set: str = "implicational") -> dict:
    """First witness, in canonical corpus order, where the named
    predicate is not top; or an exhaustion report."""
    if target not in SEARCH_TARGETS:
        raise HModelError(f"unknown search target {target!r}; known: {', '.join(SEARCH_TARGETS)}")
    shapes = {
        "implicational": MIXED_SHAPES,
        "imp-free": IMPFREE_SHAPES,
        "all": GENERAL_SHAPES,
    }.get(formula_set)
    if shapes is None:
        raise HModelError(f"unknown formula set {formula_set!r}")
    scanned = 0
    for scene in corpus.scenes:
        ev = SceneEval(scene.model)
        h = ev.h
        for frame in scene.frames:
            for phi in shapes:
                scanned += 1
                if target == "equiv":
                    v = ev.equiv_val(phi, frame)
                elif target == "mono":
                    v = ev.mono_val(phi, frame)
                elif target == "nono":
                    v = ev.nono_val(phi, frame)
                else:
                    v = h.meet_all(
                        ev.trp_val(phi, j, k)
                        for j in frame.members
                        for k in frame.members
                    )
                if v != h.top:
                    return {
                        "found": True,
                        "target": target,
                        "value": v,
                        "witness": _wit(scene, frame=frame, formula=phi),
                        "scanned": scanned,
                    }
    return {"found": False, "target": target, "scanned": scanned}
