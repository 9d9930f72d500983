"""Bounded combinatory machine and oracle-relative realizability.

The machine is a small combinatory calculus (S, K, pairing, successor,
case split, fixed point, an oracle hook, and a bounded halting test)
whose values are numerals.  Every term has a Goedel code via Cantor
pairing, every natural number decodes to a term, and numerals in head
position apply as the code they denote, so the reduct of an application
is always available as a number again.  Reduction is one loop: the
strict arguments of a combinator wait on an explicit stack, not in
nested calls, so a deeply nested code runs until its fuel is spent.

One checker runs on the machine: realizability over a poset of oracles
ordered by extension.  Implications and universals, the two connectives
the forcing translation guards, share one clause that quantifies over
the larger oracles: at each, the code applied to every antecedent
realizer, or to every numeral below the universe, realizes the
consequent, or the instance.  Plain realizability relative to one oracle
is its case on the one-point frame, and the standard-frame entry point
first validates the extension/reducibility agreement and then defers to
the same clauses.  The frame memoizes what every check on it repeats:
the antecedent realizers an implication scans, the checker's machine
applications (one for every input of a code that ignores it), its
closed-atom verdicts and its verdicts on universals, each decided once
per frame.

All verdicts are budgeted: Realized is certified only for the supplied
fuel, universe, and candidate bounds; Refuted carries a concrete
replayable counter-witness, absolute unless it applies the code to an
antecedent realizer, whose own verdict is only certified within the
candidate bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

from .formula import (
    And,
    Atom,
    Bot,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Imp,
    MAX_NESTING,
    Monus,
    NumLit,
    Or,
    Parser,
    PiOrPi,
    Plus,
    STEP_HALT,
    Sigma,
    Succ,
    Times,
    Var,
    free_vars,
    has_abstract,
    neg,
    numeral_text,
    parse,
    print_formula,
    read_json,
    read_numeral,
    scheme,
    subst,
    universal_instance,
)


class RealizabilityError(ValueError):
    pass


# ------------------------------------------------------------- pairing

def pair(n: int, m: int) -> int:
    """Cantor pairing, bijective on pairs of naturals."""
    return (n + m) * (n + m + 1) // 2 + m


def unpair(c: int) -> tuple[int, int]:
    w = (isqrt(8 * c + 1) - 1) // 2
    m = c - w * (w + 1) // 2
    return w - m, m


# ------------------------------------------------------ terms and codes

# leaf tags 0..7, then Num=8, Ora=9, Halt=10, App=11
LEAVES = ("S", "K", "PAIR", "FST", "SND", "SUCC", "CASE", "FIX")
TAG_NUM = 8
TAG_ORA = 9
TAG_HALT = 10
TAG_APP = 11
ARITY = {"S": 3, "K": 2, "PAIR": 2, "FST": 1, "SND": 1, "SUCC": 1,
         "CASE": 3, "FIX": 2, "ORA": 1, "HALT": 3}
_LEAF_TAG = {name: i for i, name in enumerate(LEAVES)}
_LEAF_TAG["ORA"] = TAG_ORA
_LEAF_TAG["HALT"] = TAG_HALT
_TAG_LEAF = {tag: name for name, tag in _LEAF_TAG.items()}


def app(*terms):
    """Left-associated application of machine terms."""
    t = terms[0]
    for u in terms[1:]:
        t = ("app", t, u)
    return t


def numt(n: int):
    return ("num", n)


# Term codes are bit strings read left to right: a four-bit tag per
# node, an Elias-gamma payload after a numeral tag, and the two
# subterm codes in sequence after an application tag.  The whole
# string is prefixed with a marker 1 bit and read as an integer.
# This keeps code size linear in term size; coding nested terms
# through the quadratic pairing function instead would blow up
# doubly exponentially in term depth.  The pairing function itself
# remains the machine's runtime pairing operation.

def _gamma(m: int) -> str:
    """Elias gamma code of a positive integer."""
    b = bin(m)[2:]
    return "0" * (len(b) - 1) + b


def encode(t) -> int:
    """Goedel code of a closed machine term; decode(encode(t)) == t."""
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(format(_LEAF_TAG[u], "04b"))
        elif u[0] == "num":
            out.append("1000" + _gamma(u[1] + 1))
        elif u[0] == "app":
            out.append("1011")
            stack.append(u[2])
            stack.append(u[1])
        else:
            raise RealizabilityError(f"cannot encode open term {u!r}")
    return int("1" + "".join(out), 2)


def decode(c: int):
    """Total decoding; malformed or truncated codes fall back to the
    zero numeral, trailing bits are ignored."""
    if c <= 0:
        return ("num", 0)
    s = bin(c)[3:]
    n = len(s)
    i = 0
    nodes = []  # the term in preorder: a leaf, a numeral, or None for an application
    open_slots = 1  # subterms still to be read
    while open_slots:
        if i + 4 > n:
            return ("num", 0)
        tag = int(s[i:i + 4], 2)
        i += 4
        if tag in _TAG_LEAF:
            nodes.append(_TAG_LEAF[tag])
        elif tag == TAG_NUM:
            z = s.find("1", i) - i  # the gamma payload's leading zeros
            if z < 0 or i + 2 * z + 1 > n:
                return ("num", 0)
            nodes.append(("num", int(s[i + z:i + 2 * z + 1], 2) - 1))
            i += 2 * z + 1
        elif tag == TAG_APP:
            nodes.append(None)
            open_slots += 2
        else:
            return ("num", 0)
        open_slots -= 1
    stack = []
    for v in reversed(nodes):
        # an application's function sits on top of its argument
        stack.append(v if v is not None else ("app", stack.pop(), stack.pop()))
    return stack[0]


def term_str(t) -> str:
    """Fully parenthesised rendering, built without recursion so that
    normal forms of any depth print."""
    out = []
    stack = [t]  # terms still to print, and the literal text between them
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif u[0] == "app":
            out.append("(")
            stack += (")", u[2], " ", u[1])
        else:  # a numeral or a variable
            out.append(u[1] if u[0] == "var" else numeral_text(u[1]))
    return "".join(out)


def read_code(text: str) -> int:
    """The code a text names: a lone numeral is the code itself, other text
    a term of combinators and numerals applied to the left, with brackets,
    read with the formula parser's tokens and cursor."""
    p = Parser(text)
    if len(p.tokens) == 1 and p.peek() not in ARITY:
        return read_numeral(text)

    def atom(depth):
        if p.peek() != "(":
            return p.take() if p.peek() in ARITY else numt(p.numeral("a combinator, a numeral or '('"))
        if depth == MAX_NESTING:
            p.fail(f"code term nests deeper than {MAX_NESTING} levels")
        p.take("(")
        t = expr(depth + 1)
        p.take(")")
        return t

    def expr(depth):
        t = atom(depth)
        while p.peek() not in (None, ")"):
            t = ("app", t, atom(depth))
        return t

    t = expr(0)
    if p.peek() is not None:
        p.fail(f"unexpected trailing token {p.peek()!r}")
    # a chain of applications nests in the tree without nesting in the text
    depth, level = -1, [t]
    while level:
        depth += 1
        level = [u for node in level if node[0] == "app" for u in node[1:]]
    if depth > MAX_NESTING:
        p.fail(f"code term nests deeper than {MAX_NESTING} levels")
    code = encode(t)
    try:
        str(code)  # reports print the code in decimal
    except ValueError:
        raise RealizabilityError("code term is too long: its code has more digits than Python prints") from None
    return code


# -------------------------------------------------- bracket abstraction

def _free_in(v: str, t) -> bool:
    if isinstance(t, str):
        return False
    if t[0] == "var":
        return t[1] == v
    if t[0] == "app":
        return _free_in(v, t[1]) or _free_in(v, t[2])
    return False


def lam(v: str, t):
    """Abstract the variable v out of t using S and K."""
    if t == ("var", v):
        return app("S", "K", "K")
    if not _free_in(v, t):
        return ("app", "K", t)
    return app("S", lam(v, t[1]), lam(v, t[2]))


# -------------------------------------------------------------- oracles

@dataclass(frozen=True)
class Oracle:
    """Finite partial function on the naturals."""

    label: str
    table: tuple[tuple[int, int], ...]  # sorted; keys memos and equality
    _map: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_map", dict(self.table))

    @staticmethod
    def from_dict(label: str, mapping: dict) -> "Oracle":
        """The oracle with this table.  Its keys are naturals, or their
        decimal numerals as JSON object keys are, and name distinct
        numbers; its values are naturals."""
        if not isinstance(label, str):
            raise RealizabilityError(f"oracle label {label!r} is not a string")
        if not isinstance(mapping, dict):
            raise RealizabilityError(f"oracle {label!r}: the table must map naturals to naturals")
        table, keys = {}, {}
        for key, value in mapping.items():
            n = read_numeral(key, RealizabilityError) if isinstance(key, str) else key
            if not _is_natural(n):
                raise RealizabilityError(f"oracle {label!r}: key {key!r} is not a natural number")
            if not _is_natural(value):
                raise RealizabilityError(f"oracle {label!r}: value {value!r} at key {key!r} is not a natural number")
            if n in keys:
                raise RealizabilityError(f"oracle {label!r}: keys {keys[n]!r} and {key!r} name the same number")
            table[n], keys[n] = value, key
        return Oracle(label, tuple(sorted(table.items())))

    def get(self, n: int) -> int | None:
        return self._map.get(n)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.table)

    def extends(self, other: "Oracle") -> bool:
        return all(self._map.get(k) == v for k, v in other.table)


def _is_natural(x) -> bool:
    return type(x) is int and x >= 0  # not bool, float or str


def _require_natural(what: str, x) -> None:
    if not _is_natural(x):
        raise RealizabilityError(f"{what} {x!r} is not a natural number")


EMPTY_ORACLE = Oracle("empty", ())


@dataclass(frozen=True)
class OraclePoset:
    """Finite set of oracles ordered by extension."""

    oracles: tuple[Oracle, ...]
    # member table -> the members extending it
    _up: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # budgets -> the `check_assumption_A` report, built on the first `preal_standard`
    _agreement: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # The checker's memos: every check on this frame shares them, for as
    # long as the frame lives.
    # (budgets, formula, member table) -> the antecedent realizers `_members`
    # found; for falsum or an atom, every code or none, decided without a scan
    _members: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (code, input, member table, fuel) -> the verdict of `_code_apply`; a
    # code `K B` never reads its input, so it is keyed with None for it
    _apps: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (closed atom, fuel) -> its verdict and detail
    _atoms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (code, universal, member table, budgets) -> its verdict and detail; only
    # universals are kept, as the negations an implication entry would hold
    # are each met once
    _verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for g in self.oracles:
            self._up[g.table] = [h for h in self.oracles if h.extends(g)]
        if len(self._up) != len(self.oracles):
            raise RealizabilityError("duplicate oracle table in poset")

    def __contains__(self, f: Oracle) -> bool:
        return f.table in self._up

    def up(self, f: Oracle) -> list[Oracle]:
        """The members that extend the member f, f included, in poset order."""
        got = self._up.get(f.table)
        if got is None:
            raise RealizabilityError(f"oracle {f.label} is not a member of the poset")
        return got


def load_oracle(path: str) -> Oracle:
    data = read_json(path, RealizabilityError)
    if not isinstance(data, dict):
        raise RealizabilityError(f"{path}: an oracle file holds a JSON object")
    # {"label": ..., "table": {...}}, or a bare table that may carry a label
    rest = dict(data)
    label = rest.pop("label", path)
    try:
        return Oracle.from_dict(label, rest.pop("table", rest))
    except (RealizabilityError, FormulaError) as exc:
        raise RealizabilityError(f"{path}: {exc}") from None


def load_oracle_poset(path: str) -> OraclePoset:
    """Poset file: {"oracles": [{label, table}...], "edges": [[i, j]...]}.

    Declared edges are validated against the actual extension relation.
    """
    data = read_json(path, RealizabilityError)
    if not isinstance(data, dict) or not isinstance(data.get("oracles"), list):
        raise RealizabilityError(f"{path}: an oracle poset file needs an 'oracles' list")
    if not all(isinstance(o, dict) and "table" in o for o in data["oracles"]):
        raise RealizabilityError(f"{path}: every oracle needs a 'table'")
    try:
        oracles = tuple(Oracle.from_dict(o.get("label", f"o{i}"), o["table"]) for i, o in enumerate(data["oracles"]))
        poset = OraclePoset(oracles)
    except (RealizabilityError, FormulaError) as exc:
        raise RealizabilityError(f"{path}: {exc}") from None
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise RealizabilityError(f"{path}: 'edges' must be a list of oracle index pairs")
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 2
                and all(type(i) is int and 0 <= i < len(oracles) for i in edge)):
            raise RealizabilityError(f"{path}: edge {edge!r} is not a pair of oracle indices")
        a, b = edge
        if not oracles[b].extends(oracles[a]):
            raise RealizabilityError(f"{path}: declared edge ({a}, {b}) is not an extension")
    return poset


# -------------------------------------------------------------- machine

REALIZED = "realized"
REFUTED = "refuted"
EXHAUSTED = "exhausted"


class _Stuck(Exception):
    pass


class _Exhausted(Exception):
    pass


def _rebuild(head, args):
    for a in reversed(args):
        head = ("app", head, a)
    return head


# the leading arguments each strict combinator reduces to numerals
_STRICT = {"CASE": 1, "PAIR": 2, "FST": 1, "SND": 1, "SUCC": 1, "ORA": 1, "HALT": 3}

# decode is pure and its terms are immutable, so numerals in head
# position share one bounded memo: the checker applies the same
# realizer to every input it tries
_decode_head = lru_cache(maxsize=1024)(decode)


def _reduce(t, oracle: Oracle, fuel: list, consulted: set):
    """Leftmost-outermost reduction to a normal form.

    One loop over an explicit stack: a strict combinator pushes a frame
    holding its head, its argument terms, the numerals its strict
    arguments reduced to so far, and the argument spine around it; each
    strict argument is then reduced in turn with an empty spine, and its
    numeral is handed back to the frame.  Code depth costs list entries,
    not Python frames.

    fuel is a single-cell list so budget is shared with the halting
    test.  It is checked at the top of every iteration and charged one
    unit per combinator step and per head-numeral decode.  Raises
    _Stuck for definite failure and _Exhausted when fuel runs out.
    """
    args = []
    frames = []  # (head, argument terms, numerals so far, outer spine)
    while True:
        if fuel[0] <= 0:
            raise _Exhausted()
        if type(t) is str:
            arity = ARITY[t]
            if len(args) < arity:
                nf = _rebuild(t, args)
                if frames:
                    raise _Stuck(f"expected a numeral, got {term_str(nf)}")
                return nf
            fuel[0] -= 1
            if t == "K":
                t = args.pop()
                args.pop()
            elif t == "S":
                x = args.pop()
                y = args.pop()
                z = args.pop()
                t = ("app", ("app", x, z), ("app", y, z))
            elif t == "FIX":
                f = args.pop()
                t = ("app", ("app", f, ("app", "FIX", f)), args.pop())
            else:
                a = args[-arity:]
                a.reverse()
                del args[-arity:]
                frames.append((t, a, [], args))
                args = []
                t = a[0]
            continue
        tag = t[0]
        if tag == "app":
            args.append(t[2])
            t = t[1]
            continue
        if tag != "num":
            raise _Stuck(f"free variable {t[1]} in machine term")
        if args:
            # a numeral in head position applies as the code it denotes;
            # code 0 decodes to itself, so applying it provably diverges
            fuel[0] -= 1
            decoded = _decode_head(t[1])
            if decoded == t:
                raise _Stuck("application of the zero code diverges")
            t = decoded
            continue
        if not frames:
            return t
        head, a, vals, outer = frames[-1]
        vals.append(t[1])
        if len(vals) < _STRICT[head]:
            t = a[len(vals)]
            continue
        frames.pop()
        args = outer
        n = vals[0]
        if head == "CASE":
            t = a[1] if n == 0 else ("app", a[2], ("num", n - 1))
        elif head == "PAIR":
            t = ("num", pair(n, vals[1]))
        elif head == "FST":
            t = ("num", unpair(n)[0])
        elif head == "SND":
            t = ("num", unpair(n)[1])
        elif head == "SUCC":
            t = ("num", n + 1)
        elif head == "ORA":
            consulted.add(n)
            v = oracle.get(n)
            if v is None:
                raise _Stuck(f"oracle {oracle.label} undefined at {numeral_text(n)}")
            t = ("num", v)
        else:  # HALT
            t = ("num", 1 if step_halts(n, vals[1], vals[2], fuel) else 0)


def _run(e: int, n: int, oracle: Oracle, fuel: list, consulted: set):
    """Code e applied to input n relative to the oracle, the one way the
    machine is started: (REALIZED, normal form), (REFUTED, why it is
    stuck) or (EXHAUSTED, "fuel").  The fuel cell is charged the steps
    taken and `consulted` collects the oracle points asked."""
    try:
        return REALIZED, _reduce(("app", ("num", e), ("num", n)), oracle, fuel, consulted)
    except _Stuck as exc:
        return REFUTED, str(exc)
    except _Exhausted:
        return EXHAUSTED, "fuel"


def _is_numeral(t) -> bool:
    return type(t) is tuple and t[0] == "num"


@lru_cache(maxsize=4096)
def _halts(e: int, x: int, w: int) -> tuple[bool, int]:
    """Whether code e on input x reaches a numeral within w steps, and the
    steps it took.  It is pure, so one bounded memo serves every run and
    a replay after an eviction charges the same fuel."""
    inner = [w]
    verdict, nf = _run(e, x, EMPTY_ORACLE, inner, set())
    return verdict == REALIZED and _is_numeral(nf), w - inner[0]


def step_halts(e: int, x: int, w: int, fuel: list | None = None) -> bool:
    """Whether code e on input x reaches a numeral within w steps.

    Runs without an oracle; this is the decidable halting surrogate used
    by the StepHalt atom.  When an outer fuel cell is supplied, it must
    hold w + 1 units, and the inner steps plus one are charged to it.
    """
    if fuel is not None and fuel[0] < w + 1:
        raise _Exhausted()
    halted, cost = _halts(e, x, w)
    if fuel is not None:
        fuel[0] -= cost + 1
    return halted


# -------------------------------------------------------------- budgets

@dataclass(frozen=True)
class Budgets:
    fuel: int = 2000          # machine reduction steps per application
    witness: int = 24         # numeric scan bound (halting search, assumption A)
    universe: int = 8         # numerals checked under a universal quantifier
    candidates: int = 32      # antecedent realizer codes scanned per implication

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (_is_natural(value) and value >= 1):
                raise RealizabilityError(f"budget {name} {value!r} is not a positive integer")

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields, in declaration order


DEFAULT_BUDGETS = Budgets()
DEMO_BUDGETS = Budgets(fuel=100000, witness=64, universe=64, candidates=256)


@dataclass
class Outcome:
    verdict: str
    detail: str = ""
    value: int | None = None
    budgets: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)

    @property
    def realized(self) -> bool:
        return self.verdict == REALIZED

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "detail": self.detail, "value": self.value,
                "budgets": self.budgets, "trace": self.trace}


def apply(e: int, n: int, f: Oracle, fuel: int = DEFAULT_BUDGETS.fuel) -> Outcome:
    """Apply code e to input n relative to oracle f.

    Realized carries the numeral value; a non-numeral normal form or a
    stuck oracle call is Refuted; running out of fuel is Exhausted.
    """
    if fuel < 1:
        raise RealizabilityError("fuel must be at least 1")
    _require_natural("code", e)
    _require_natural("input", n)
    cell = [fuel]
    consulted: set = set()
    verdict, got = _run(e, n, f, cell, consulted)
    trace = {"consulted": sorted(consulted)}
    if verdict == REALIZED:
        trace["steps"] = fuel - cell[0]
        if _is_numeral(got):
            return Outcome(REALIZED, value=got[1], budgets={"fuel": fuel}, trace=trace)
        verdict, got = REFUTED, f"non-numeral normal form {term_str(got)}"
    return Outcome(verdict, detail=got, budgets={"fuel": fuel}, trace=trace)


def _code_apply(e: int, n: int, f: Oracle, fuel: int):
    """Internal application used by the checker.

    Unlike `apply`, a non-numeral normal form is returned as its own
    code, so partially applied combinators can be passed along as
    higher-type realizers.  Returns (verdict, value or detail).
    """
    verdict, got = _run(e, n, f, [fuel], set())
    if verdict != REALIZED:
        return verdict, got
    return REALIZED, got[1] if _is_numeral(got) else encode(got)


# --------------------------------------------------- arithmetic helpers

def eval_term(t, env: dict | None = None) -> int:
    env = env or {}
    if isinstance(t, NumLit):
        return t.value
    if isinstance(t, Var):
        if t.name not in env:
            raise RealizabilityError(f"unbound variable {t.name} in arithmetic term")
        return env[t.name]
    if isinstance(t, Succ):
        return eval_term(t.arg, env) + 1
    if isinstance(t, Plus):
        return eval_term(t.left, env) + eval_term(t.right, env)
    if isinstance(t, Times):
        return eval_term(t.left, env) * eval_term(t.right, env)
    if isinstance(t, Monus):
        return max(0, eval_term(t.left, env) - eval_term(t.right, env))
    raise RealizabilityError(f"unknown term {t!r}")


def _atom_true(phi: Formula, fuel: int) -> bool:
    """The truth of a closed atom.  A StepHalt atom runs on a fresh cell of
    the given fuel, so a bound it cannot cover raises _Exhausted before
    any step."""
    if isinstance(phi, Eq):
        return eval_term(phi.left) == eval_term(phi.right)
    if isinstance(phi, Atom) and phi.rel == STEP_HALT:
        e, x, w = (eval_term(a) for a in phi.args)
        return step_halts(e, x, w, [fuel])
    raise RealizabilityError(f"not a decidable atom: {phi!r}")


def _require_checkable(e, phi: Formula):
    _require_natural("code", e)
    if free_vars(phi):
        raise RealizabilityError(f"formula must be closed: {phi!r}")
    if has_abstract(phi):
        raise RealizabilityError("abstract relation atoms are not supported by the machine backend")


# ------------------------------------------------------------- checker

# A quantifier's instance at a numeral is pure, so one bounded memo
# shares each instance between the universe scan, the antecedent scans
# and every frame, and the frame memos key on the same formula object.
@lru_cache(maxsize=4096)
def _instance(phi: Formula, m: int) -> Formula:
    """The body of the quantifier phi with the numeral m for its variable."""
    return subst(phi.body, {phi.var: NumLit(m)})


def _frame_apply(e: int, n: int, g: Oracle, T: OraclePoset, fuel: int):
    """`_code_apply` run once per application on the frame T.  A code that
    decodes to `K B` reduces to B in two fuel units whatever its input, so
    its fuel checks, normal form and stuck detail never depend on n: it runs
    once for every input.  `lam` compiles a body without its variable to
    that form, as in `halting_code` and `mp_realizer(e, x)`."""
    head = _decode_head(e)
    key = (e, None if head[0] == "app" and head[1] == "K" else n, g.table, fuel)
    got = T._apps.get(key)
    if got is None:
        got = T._apps[key] = _code_apply(e, n, g, fuel)
    return got


def _atom_status(phi: Formula, T: OraclePoset, fuel: int):
    """The verdict and detail of a closed atom, decided once on the frame T:
    any code realizes a true atom, none a false one."""
    key = (phi, fuel)
    got = T._atoms.get(key)
    if got is None:
        try:
            got = (REALIZED, "") if _atom_true(phi, fuel) else (REFUTED, f"atom {print_formula(phi)} is false")
        except _Exhausted:
            got = (EXHAUSTED, "fuel")
        T._atoms[key] = got
    return got


def _status(e: int, phi: Formula, f: Oracle, T: OraclePoset, cfg: Budgets):
    """Whether e realizes phi at the member f of the frame T: REALIZED,
    REFUTED or EXHAUSTED (out of budget), with a detail for REFUTED.

    Implications and universals, the connectives the forcing translation
    guards, are one clause, `_guarded`, over every extension of f in T,
    which applies codes with that extension available; the other clauses
    behave as at f.  On a one-point frame this is plain realizability
    relative to the oracle, with the consequent-side modality absorbed into
    oracle application (the guarded form of the relative implication).
    """
    if isinstance(phi, Bot):
        return REFUTED, "falsum has no realizers"
    if isinstance(phi, (Eq, Atom)):
        return _atom_status(phi, T, cfg.fuel)
    if isinstance(phi, And):
        n, m = unpair(e)
        st1, d1 = _status(n, phi.left, f, T, cfg)
        if st1 == REFUTED:
            return REFUTED, f"left component {numeral_text(n)}: {d1}"
        st2, d2 = _status(m, phi.right, f, T, cfg)
        if st2 == REFUTED:
            return REFUTED, f"right component {numeral_text(m)}: {d2}"
        return (EXHAUSTED, "budget") if EXHAUSTED in (st1, st2) else (REALIZED, "")
    if isinstance(phi, Or):
        tag, n = unpair(e)
        if tag == 0:
            return _status(n, phi.left, f, T, cfg)
        if tag == 1:
            return _status(n, phi.right, f, T, cfg)
        return REFUTED, f"disjunction tag {numeral_text(tag)} is neither 0 nor 1"
    if isinstance(phi, Exists):
        w, r = unpair(e)
        st, d = _status(r, _instance(phi, w), f, T, cfg)
        if st == REFUTED:
            return REFUTED, f"witness {numeral_text(w)}: {d}"
        return st, d
    if isinstance(phi, Forall):
        key = (e, phi, f.table, cfg)
        got = T._verdicts.get(key)
        if got is None:
            got = T._verdicts[key] = _guarded(
                e, phi, f, T, cfg, lambda phi, g, T, cfg: (range(cfg.universe), False), _instance,
                "application fails at {} over {}: {}", "instance {} fails at {}: {}")
        return got
    if isinstance(phi, Imp):
        return _guarded(e, phi, f, T, cfg, lambda phi, g, T, cfg: _members(phi.left, g, T, cfg),
                        lambda phi, n: phi.right,
                        "application fails on realizer {} at {}: {}", "consequent fails for realizer {} at {}: {}")
    raise RealizabilityError(f"cannot check node {phi!r}")


def _guarded(e: int, phi: Formula, f: Oracle, T: OraclePoset, cfg: Budgets, scan, body,
             fails_apply: str, fails_body: str):
    """The one clause of the guarded node phi: at every extension g of f in
    T, e applied to each input n that `scan(phi, g, T, cfg)` yields (with
    whether the scan ran out of budget) gives, with g available, a realizer
    of `body(phi, n)` at g.  Refutations fill `fails_apply` or `fails_body`
    with n, g's label and the failure.  The scan and body take phi rather
    than close over it, so `_status` keeps no cell variables."""
    pending = False
    for g in T.up(f):
        inputs, exhausted = scan(phi, g, T, cfg)
        pending = pending or exhausted
        for n in inputs:
            st, v = _frame_apply(e, n, g, T, cfg.fuel)
            if st == REFUTED:
                return REFUTED, fails_apply.format(n, g.label, v)
            if st == EXHAUSTED:
                pending = True
                continue
            st2, d2 = _status(v, body(phi, n), g, T, cfg)
            if st2 == REFUTED:
                return REFUTED, fails_body.format(n, g.label, d2)
            if st2 == EXHAUSTED:
                pending = True
    return (EXHAUSTED, "budget") if pending else (REALIZED, "")


def _members(phi: Formula, f: Oracle, T: OraclePoset, cfg: Budgets):
    """The codes below the candidate bound that realize phi at f, and
    whether any of them ran out of budget; kept in the frame's memo.  The
    verdict on falsum or an atom does not read the code, so one `_status`
    call gives every code or none."""
    key = (cfg, phi, f.table)
    got = T._members.get(key)
    if got is None:
        if isinstance(phi, (Bot, Eq, Atom)):
            verdicts = [_status(0, phi, f, T, cfg)[0]] * cfg.candidates
        else:
            verdicts = [_status(c, phi, f, T, cfg)[0] for c in range(cfg.candidates)]
        got = T._members[key] = ([c for c, st in enumerate(verdicts) if st == REALIZED], EXHAUSTED in verdicts)
    return got


def _check(e: int, phi: Formula, f: Oracle, T: OraclePoset, cfg: Budgets, trace: dict) -> Outcome:
    verdict, detail = _status(e, phi, f, T, cfg)
    return Outcome(verdict, detail=detail, budgets=cfg.to_dict(), trace=trace)


def realizes(e: int, phi: Formula, f: Oracle, cfg: Budgets = DEFAULT_BUDGETS) -> Outcome:
    """Budgeted realizability of a closed arithmetic sentence relative to f.

    This is the one-point case of `djg_realizes`: over the frame {f}
    implications and universals apply codes with f alone available.
    """
    _require_checkable(e, phi)
    return _check(e, phi, f, OraclePoset((f,)), cfg, {"oracle": f.label, "code": e})


def djg_realizes(e: int, phi: Formula, f: Oracle, T: OraclePoset,
                 cfg: Budgets = DEFAULT_BUDGETS) -> Outcome:
    """Extension-poset realizability of phi at the node f of T."""
    _require_checkable(e, phi)
    if f not in T:
        raise RealizabilityError(f"oracle {f.label} is not a member of the poset")
    return _check(e, phi, f, T, cfg, {"oracle": f.label, "code": e,
                                      "poset": [o.label for o in T.oracles]})


def check_assumption_A(T: OraclePoset, bound: int = DEFAULT_BUDGETS.witness,
                       cfg: Budgets = DEFAULT_BUDGETS) -> dict:
    """Agreement of oracle extension with bounded-scan reducibility.

    For extension pairs the oracle-query code witnesses reducibility
    outright.  For non-extension pairs, a code below the candidate
    bound that reproduces f on dom(f) below the scan bound is flagged
    as a possible violation.
    """
    ora_code = encode("ORA")
    extension_pairs = []
    flagged = []
    for f in T.oracles:
        for g in T.oracles:
            if f.table == g.table:
                continue
            points = [n for n in f.domain if n < bound]

            def reproduces(e):
                # code e, run over g, returns f's value at every point
                return all(_run(e, n, g, [cfg.fuel], set()) == (REALIZED, ("num", f.get(n))) for n in points)

            if g.extends(f):
                extension_pairs.append({"from": f.label, "to": g.label, "witnessed": reproduces(ora_code)})
            elif points:
                e = next((e for e in range(cfg.candidates) if reproduces(e)), None)
                if e is not None:
                    flagged.append({"from": f.label, "to": g.label, "code": e})
    return {
        "passed": not flagged and all(p["witnessed"] for p in extension_pairs),
        "extension_pairs": extension_pairs,
        "flagged": flagged,
        "scan_bound": bound,
    }


def preal_standard(e: int, phi: Formula, f: Oracle, S: OraclePoset,
                   cfg: Budgets = DEFAULT_BUDGETS) -> Outcome:
    """Standard-frame realizability at f, reduced to the extension clauses.

    The extension/reducibility agreement is validated first, once per
    poset and budgets; failure is an error carrying the offending pair.
    """
    _require_natural("code", e)
    report = S._agreement.get(cfg)
    if report is None:
        report = S._agreement[cfg] = check_assumption_A(S, bound=cfg.witness, cfg=cfg)
    if not report["passed"]:
        bad = report["flagged"] or [p for p in report["extension_pairs"] if not p["witnessed"]]
        raise RealizabilityError(f"extension/reducibility agreement fails: {bad[0]}")
    out = djg_realizes(e, phi, f, S, cfg)
    out.trace["reduction"] = "standard frame reduced to extension-poset clauses"
    return out


# ------------------------------------------------ canonical realizers

def identity_code() -> int:
    return encode(app("S", "K", "K"))


def _search_body(e_term, x_term):
    """FIX-driven search for the least halting step count."""
    found = app("K", app("PAIR", ("var", "w"), numt(0)))
    body = app("CASE", app("HALT", e_term, x_term, ("var", "w")),
               app(("var", "s"), app("SUCC", ("var", "w"))),
               found)
    return lam("s", lam("w", body))


def mp_realizer(e: int | None = None, x: int | None = None) -> int:
    """Realizer for double-negation elimination on halting searches.

    With e and x supplied, the returned code ignores its argument and
    searches for the least w such that code e on input x halts within w
    steps, yielding the witness pair.  Without arguments the code takes
    e and x first, for the doubly universally quantified form.
    """
    if e is not None and x is not None:
        t = lam("n", app("FIX", _search_body(numt(e), numt(x)), numt(0)))
        return encode(t)
    t = lam("e", lam("x", lam("n", app("FIX", _search_body(("var", "e"), ("var", "x")), numt(0)))))
    return encode(t)


def induction_realizer(psi: Formula | None = None) -> int:
    """Primitive-recursion code for the induction axiom.

    Takes a base realizer, a step realizer, then a numeral, and folds
    the step down to the base.  The formula argument is only validated;
    the code itself is uniform.
    """
    if psi is not None and has_abstract(psi):
        raise RealizabilityError("induction is checked on arithmetic formulas only")
    step = lam("y", app(app(("var", "s"), ("var", "y")),
                        app(("var", "r"), ("var", "y"))))
    body = lam("r", lam("x", app("CASE", ("var", "x"), ("var", "b"), step)))
    t = lam("b", lam("s", app("FIX", body)))
    return encode(t)


def induction_axiom(psi: Formula, var: str = "x") -> Formula:
    """base -> (step -> every numeral), for the given one-variable formula."""
    base = subst(psi, {var: NumLit(0)})
    step = Forall(var, Imp(psi, subst(psi, {var: Succ(Var(var))})))
    return Imp(base, Imp(step, Forall(var, psi)))


def not_not_lift(phi: Formula, T: OraclePoset, g: Oracle, r: int, at: Oracle,
                 cfg: Budgets = DEFAULT_BUDGETS) -> dict:
    """Lift a realizer at an extension to a double-negation realizer below.

    Preconditions (checked): r realizes phi at g, and above every
    extension of `at` there is a node where phi is realizable (g itself
    covers the nodes it extends).  Returns a report with the canonical
    identity-like code and the cofinality witnesses the lift rests on.
    """
    _require_checkable(r, phi)
    if at not in T or g not in T:
        raise RealizabilityError("both the target and the extension must belong to the poset")
    st, d = _status(r, phi, g, T, cfg)
    if st != REALIZED:
        raise RealizabilityError(f"supplied code {numeral_text(r)} does not realize the formula at {g.label}: {d}")
    # Cofinality: above every extension of the target there is a node
    # carrying a realizer of phi.  The supplied (g, r) covers the nodes g
    # extends; elsewhere the candidate scan must find one.
    cofinal = {}
    for k in T.up(at):
        witness = None
        if g.extends(k):
            witness = (g.label, r)
        else:
            for ell in T.up(k):
                found, _ = _members(phi, ell, T, cfg)
                if found:
                    witness = (ell.label, found[0])
                    break
        if witness is None:
            raise RealizabilityError(f"no extension of {k.label} realizes the formula (cofinality fails)")
        cofinal[k.label] = {"node": witness[0], "realizer": witness[1]}
    # With a phi-realizer above every k, no code can realize the negation
    # at any k (it would have to send that realizer to a realizer of
    # falsum), so the identity-like code realizes the double negation at
    # the target: its implication clause ranges over an empty realizer
    # set at every extension.  This justification is exact, not a scan.
    return {
        "code": identity_code(),
        "verdict": REALIZED,
        "detail": "negation has no realizers at any extension; witnesses recorded",
        "cofinal_witnesses": cofinal,
        "caveat": "the realizer at the extension is verified within the stated budgets",
    }


# ------------------------------------------------------ separation demo

def diverging_code() -> int:
    """A code that loops on every input."""
    d = lam("s", lam("x", app(("var", "s"), ("var", "x"))))
    return encode(app("FIX", d))


def halting_code(value: int = 0) -> int:
    """A code that immediately returns a constant on every input."""
    return encode(app("K", numt(value)))


def bounded_halting_oracle(code_bound: int, fuel: int, extra: dict | None = None) -> Oracle:
    """Self-application halting facts for codes below the bound, plus
    any explicitly supplied facts."""
    table = {n: 1 if step_halts(n, n, fuel) else 0 for n in range(code_bound)}
    table.update(extra or {})
    return Oracle.from_dict("halting", table)


def default_candidates() -> list[int]:
    return [encode("K"), encode("S"), encode("FST"), halting_code(3), 0, 1, 7]


def separation_demo(cfg: Budgets | None = None, candidates: list[int] | None = None) -> dict:
    """Desk-scale version of the level-0 separation experiment.

    Builds the two-node oracle chain (empty below a bounded halting
    table), then reports: (i) halting-search double-negation
    elimination realized at the root; (ii) every supplied candidate
    refuted on a concrete disjunctive instance at the root; (iii) the
    double negation of that instance realized at the root by lifting
    its oracle-backed realizer from the top node; (iv) the companion
    limitation check that double negations of realized sentences stay
    realized over the singleton frame.
    """
    cfg = cfg or DEMO_BUDGETS
    if candidates is None:
        candidates = default_candidates()
    e_div = diverging_code()
    e_halt = halting_code(0)
    f0 = EMPTY_ORACLE
    f1 = bounded_halting_oracle(64, cfg.fuel // 4,
                                extra={e_div: 0, e_halt: 1})
    chain = OraclePoset((f0, f1))
    report = {
        "header": {
            "budgets": cfg.to_dict(),
            "caveats": [
                "Realized verdicts are relative to the stated budgets",
                "Refuted verdicts exhibit a definite failure; one through an antecedent realizer"
                " is relative to the candidate bound",
                "non-realizability is shown by refuting the supplied candidates only",
                "the top oracle is a finite bounded-halting table, not a true jump",
            ],
            "oracles": {"root": f0.label, "top": f1.label},
        },
        "sections": {},
    }

    # (i) double-negation elimination on halting searches, at the root
    pairs = []
    for k in range(6):
        code = halting_code(k)
        if step_halts(code, 0, cfg.fuel // 4):
            pairs.append((code, 0))
        if len(pairs) >= 3:
            break
    entries = []
    for e, x in pairs:
        formula = scheme(Sigma(1), "DNE", universal_instance(Sigma(1), e, x))
        out = djg_realizes(mp_realizer(e, x), formula, f0, chain, cfg)
        entries.append({"formula": print_formula(formula), "verdict": out.verdict})
    report["sections"]["i"] = {
        "label": "halting-search DNE realized at the root",
        "green": bool(entries) and all(en["verdict"] == REALIZED for en in entries),
        "instances": entries,
    }

    # (ii) candidate refutation on a disjunctive instance at the root
    target = scheme(PiOrPi(1), "DNE", universal_instance(PiOrPi(1), e_div, e_div, e_halt, e_halt))
    entries = []
    for c in candidates:
        out = djg_realizes(c, target, f0, chain, cfg)
        entries.append({"candidate": c, "verdict": out.verdict, "detail": out.detail})
    report["sections"]["ii"] = {
        "label": "supplied candidates refuted on the disjunctive DNE instance",
        "green": (not candidates) or all(en["verdict"] == REFUTED for en in entries),
        "vacuous": not candidates,
        "formula": print_formula(target),
        "candidates": entries,
    }

    # (iii) double negation of the instance realized at the root by lifting;
    # the lift's checked precondition is the top-node check, so the top
    # verdict is computed again only to report why the lift was refused
    picker = lam("n", app("CASE", app("ORA", numt(e_div)),
                          app("PAIR", numt(0), numt(halting_code(0))),
                          lam("u", app("PAIR", numt(1), numt(halting_code(0))))))
    r_top = encode(picker)
    try:
        lift_report = not_not_lift(target, chain, f1, r_top, f0, cfg)
        top_verdict = REALIZED
        green = lift_report["verdict"] == REALIZED
    except RealizabilityError as exc:
        lift_report = {"error": str(exc)}
        top_verdict = djg_realizes(r_top, target, f1, chain, cfg).verdict
        green = False
    report["sections"]["iii"] = {
        "label": "double negation of the instance realized at the root via the lift",
        "green": green,
        "top_verdict": top_verdict,
        "lift": lift_report,
    }

    # (iv) limitation companion: over a singleton frame, the double
    # negation of anything realized stays realized with the canonical code
    samples = [
        (pair(0, 0), parse("exists w. w = 0")),
        (0, parse("0 = 0")),
        (pair(3, pair(0, 0)), parse("exists w. (w = S(S(S(0))) /\\ exists v. v = 0)")),
    ]
    singleton = OraclePoset((f0,))
    entries = []
    ok = True
    for e, phi in samples:
        base = djg_realizes(e, phi, f0, singleton, cfg)
        if not base.realized:
            entries.append({"formula": print_formula(phi), "skipped": base.verdict})
            continue
        lifted = djg_realizes(identity_code(), neg(neg(phi)), f0, singleton, cfg)
        entries.append({"formula": print_formula(phi), "verdict": lifted.verdict})
        ok = ok and lifted.realized
    report["sections"]["iv"] = {
        "label": "double negations of realized sentences stay realized (singleton frame)",
        "green": ok,
        "samples": entries,
    }
    report["all_green"] = all(sec.get("green") for sec in report["sections"].values())
    return report
