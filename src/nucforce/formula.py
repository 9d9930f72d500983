"""First-order formula ASTs, the surface parser, and hierarchy classifiers.

The term signature is {0, S, +, *, -.} plus numerals.  Atoms are either
uninterpreted relation symbols (used by the lattice-model backend) or
the arithmetic atoms t = t and StepHalt(e, x, w) (used by the machine
backend).  `~p` is sugar for `p -> bot` and `bot` is falsum.

The same AST carries the modal language that the translations target:
Mod(j, phi), printed `[j]phi`, applies the nucleus named j to the value
of phi, and GuardAll(k, P, j, phi), printed `all k>=j in P. phi`,
quantifies k over the members of frame P above j.  The printer,
`free_vars` and `subst` handle both; the plain parser rejects them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass


# ---------------------------------------------------------------- terms

class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Zero(Term):
    def __repr__(self):
        return "0"


@dataclass(frozen=True)
class NumLit(Term):
    value: int

    def __repr__(self):
        return numeral_text(self.value)


def numeral_text(n: int) -> str:
    """The decimal text of n, or, for a number of more digits than Python
    converts (4,300 by default), a placeholder naming its bit length."""
    try:
        return str(n)
    except ValueError:
        return f"<numeral of {n.bit_length()} bits>"


@dataclass(frozen=True)
class Succ(Term):
    arg: Term

    def __repr__(self):
        return f"S({self.arg!r})"


@dataclass(frozen=True)
class Plus(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Times(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Monus(Term):
    left: Term
    right: Term


# ------------------------------------------------------------- formulas

class Formula:
    def __repr__(self):
        return print_formula(self)


@dataclass(frozen=True, repr=False)
class Bot(Formula):
    pass


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    rel: str
    args: tuple[Term, ...]


@dataclass(frozen=True, repr=False)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, repr=False)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, repr=False)
class Mod(Formula):
    """Modal node: the nucleus bound to `nvar` applied to the body's value."""

    nvar: str
    body: Formula


@dataclass(frozen=True, repr=False)
class GuardAll(Formula):
    """Modal node: for every member `kvar` of frame `frame` above `above`, body."""

    kvar: str
    frame: str
    above: str
    body: Formula


def _node_hash(self) -> int:
    """Structural hash, computed on first use and kept on the node.

    Memo tables key on translated formulas, so a node is hashed many
    times; caching turns each later hash into one attribute read (a light
    form of hash-consing).  Equality stays the dataclass field compare.
    """
    try:
        return self._hash
    except AttributeError:
        h = hash((type(self).__name__,) + tuple(getattr(self, f) for f in self.__dataclass_fields__))
        object.__setattr__(self, "_hash", h)
        return h


for _node in (Bot, Atom, Eq, And, Or, Imp, Forall, Exists, Mod, GuardAll):
    _node.__hash__ = _node_hash


BOT = Bot()
STEP_HALT = "StepHalt"
FIXED_ARITIES = {STEP_HALT: 3}


def neg(phi: Formula) -> Formula:
    return Imp(phi, BOT)


def num(n: int) -> Term:
    return Zero() if n == 0 else NumLit(n)


# --------------------------------------------------------------- parser

class FormulaError(ValueError):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# Deepest nesting the parsers accept, in the text (brackets, negations,
# quantifiers, implications, successors) and in the parsed tree.  The
# printer, the translations and the machine checker recurse once or twice
# per level, well inside Python's default limit of 1,000 frames.
MAX_NESTING = 100

KEYWORDS = {"forall", "exists", "bot", "S"}
_SYMBOLS = ["/\\", "\\/", "->", "-.", ">=", "(", ")", "[", "]", ",", ".", "=", "+", "*", "~"]
# a run of digits of any script is one token, which `read_numeral` reads
_TOKEN_RE = re.compile(
    "|".join(re.escape(s) for s in _SYMBOLS) + r"|\d+|[A-Za-z][A-Za-z0-9_']*"
)


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            tokens.append(Token(m.group(), lineno, m.start() + 1))
            pos = m.end()
    return tokens


class Parser:
    """Recursive-descent parser for the surface grammar.

    Connective precedence, loosest first: ->, \\/, /\\, ~.  Implication
    is right-associative; quantifier bodies extend as far right as they
    can.  Relation symbols start with an uppercase letter; variables are
    lowercase identifiers.  Relation arities must be used consistently.
    """

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.arities: dict[str, int] = dict(FIXED_ARITIES)

    def peek(self) -> str | None:
        return self.tokens[self.pos].text if self.pos < len(self.tokens) else None

    def here(self) -> tuple[int, int]:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            return t.line, t.col
        if self.tokens:
            t = self.tokens[-1]
            return t.line, t.col + len(t.text)
        return 1, 1

    def fail(self, message: str):
        raise ParseError(message, *self.here())

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input" + (f", expected {expected!r}" if expected else ""))
        if expected is not None and tok != expected:
            self.fail(f"expected {expected!r} but found {tok!r}")
        self.pos += 1
        return tok

    def numeral(self, what: str) -> int:
        """The next token read by `read_numeral`, refused at its position."""
        line, col = self.here()
        tok = self.take()
        try:
            return read_numeral(tok)
        except FormulaError as exc:
            raise ParseError(f"expected {what}: {exc}", line, col) from None

    def nested(self, parse_part):
        """parse_part() one level deeper, refusing more than MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse_part()
        finally:
            self.depth -= 1

    def parse(self) -> Formula:
        if not self.tokens:
            self.fail("empty input")
        phi = self.formula()
        if self.peek() is not None:
            self.fail(f"unexpected trailing token {self.peek()!r}")
        if _tree_depth(phi) > MAX_NESTING:  # chains of connectives and operators nest only in the tree
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        return phi

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.take("->")
            return Imp(left, self.nested(self.formula))
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek() == "\\/":
            self.take("\\/")
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek() == "/\\":
            self.take("/\\")
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.take("~")
            return neg(self.nested(self.unary))
        if tok in ("forall", "exists"):
            kind = self.take()
            var = self.variable()
            self.take(".")
            body = self.nested(self.formula)
            return Forall(var, body) if kind == "forall" else Exists(var, body)
        return self.atom()

    def variable(self) -> str:
        tok = self.peek()
        if tok is None or not tok[0].islower() or tok in KEYWORDS:
            self.fail(f"expected a variable, found {tok!r}")
        return self.take()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok is None:
            self.fail("expected a formula")
        if tok == "bot":
            self.take()
            return BOT
        if tok == "(":
            # could open a grouped formula or a parenthesized term of an
            # equation; snapshot and retry as a term on failure
            saved = self.pos
            self.take("(")
            try:
                inner = self.nested(self.formula)
                self.take(")")
                return inner
            except ParseError:
                self.pos = saved
                return self.equation()
        if tok[0].isupper() and tok != "S":
            return self.relation()
        return self.equation()

    def relation(self) -> Formula:
        line, col = self.here()
        name = self.take()
        self.take("(")
        args = [self.term()]
        while self.peek() == ",":
            self.take(",")
            args.append(self.term())
        self.take(")")
        known = self.arities.get(name)
        if known is not None and known != len(args):
            raise ParseError(f"relation {name} used with {len(args)} arguments, expected {known}", line, col)
        self.arities[name] = len(args)
        return Atom(name, tuple(args))

    def equation(self) -> Formula:
        left = self.term()
        self.take("=")
        return Eq(left, self.term())

    def term(self) -> Term:
        left = self.mul_term()
        while self.peek() in ("+", "-."):
            op = self.take()
            right = self.mul_term()
            left = Plus(left, right) if op == "+" else Monus(left, right)
        return left

    def mul_term(self) -> Term:
        left = self.prim_term()
        while self.peek() == "*":
            self.take("*")
            left = Times(left, self.prim_term())
        return left

    def prim_term(self) -> Term:
        tok = self.peek()
        if tok == "S":
            self.take()
            self.take("(")
            inner = self.nested(self.term)
            self.take(")")
            return Succ(inner)
        if tok == "(":
            self.take()
            inner = self.nested(self.term)
            self.take(")")
            return inner
        if tok and tok[0].islower() and tok not in KEYWORDS:
            self.take()
            return Var(tok)
        return num(self.numeral("a term"))


def parse(text: str) -> Formula:
    return Parser(text).parse()


def read_numeral(text: str, error: type[Exception] = FormulaError) -> int:
    """The value of a numeral, the one rule by which nucforce reads a number
    from text: ASCII digits only, no sign, space or underscore, and no more
    digits than Python converts (4,300 by default); else `error` is raised."""
    if not (text.isascii() and text.isdigit()):
        raise error(f"{text!r} is not a numeral of ASCII digits")
    try:
        return int(text)
    except ValueError:
        raise error(f"numeral of {len(text)} digits is too long") from None


def _json_object(pairs: list) -> dict:
    """A decoded JSON object, refusing a key that it repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise KeyError(key)
        obj[key] = value
    return obj


def read_json(path: str, error: type[Exception]):
    """The JSON document in the file at path.  A file that is not valid JSON,
    repeats a key in an object, nests deeper than the decoder recurses, is
    not text, or holds an integer longer than Python converts (4,300 digits
    by default) is refused with `error`, its message led by the path."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_json_object)
        except KeyError as exc:
            raise error(f"{path}: key {exc.args[0]!r} is repeated in one object") from None
        except RecursionError:
            raise error(f"{path}: JSON nests too deeply to read") from None
        except json.JSONDecodeError as exc:
            raise error(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not a text file ({exc.reason} at byte {exc.start})") from None
        except ValueError:  # the only other ValueError the decoder raises
            raise error(f"{path}: a JSON integer has more digits than Python converts") from None


# -------------------------------------------------------------- printer

def print_term(t: Term, level: int = 0) -> str:
    if isinstance(t, (Var, Zero, NumLit)):
        return repr(t)
    if isinstance(t, Succ):
        return f"S({print_term(t.arg)})"
    if isinstance(t, Times):
        s = f"{print_term(t.left, 1)}*{print_term(t.right, 2)}"
        return f"({s})" if level > 1 else s
    op = "+" if isinstance(t, Plus) else "-."
    s = f"{print_term(t.left, 0)}{op}{print_term(t.right, 1)}"
    return f"({s})" if level > 0 else s


def print_formula(phi: Formula, level: int = 0) -> str:
    """Render with minimal parentheses; parse(print_formula(x)) == x.

    Levels: 0 implication/quantifier/guard, 1 disjunction, 2 conjunction,
    3 negation, modality and atoms.  Modal output round-trips through
    the modal parser of the test suite instead.
    """
    if isinstance(phi, Bot):
        return "bot"
    if isinstance(phi, Atom):
        return f"{phi.rel}({', '.join(print_term(a) for a in phi.args)})"
    if isinstance(phi, Eq):
        return f"{print_term(phi.left)} = {print_term(phi.right)}"
    if isinstance(phi, Imp):
        if phi.right == BOT:
            return "~" + print_formula(phi.left, 3)
        s = f"{print_formula(phi.left, 1)} -> {print_formula(phi.right, 0)}"
        return f"({s})" if level > 0 else s
    if isinstance(phi, Or):
        s = f"{print_formula(phi.left, 1)} \\/ {print_formula(phi.right, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(phi, And):
        s = f"{print_formula(phi.left, 2)} /\\ {print_formula(phi.right, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(phi, (Forall, Exists)):
        q = "forall" if isinstance(phi, Forall) else "exists"
        s = f"{q} {phi.var}. {print_formula(phi.body, 0)}"
        return f"({s})" if level > 0 else s
    if isinstance(phi, Mod):
        return f"[{phi.nvar}]" + print_formula(phi.body, 3)
    if isinstance(phi, GuardAll):
        s = f"all {phi.kvar}>={phi.above} in {phi.frame}. {print_formula(phi.body, 0)}"
        return f"({s})" if level > 0 else s
    raise FormulaError(f"cannot print node of type {type(phi).__name__}")


# ------------------------------------------------- structural utilities

def _tree_depth(phi: Formula | Term) -> int:
    """Edges on the longest path down from the root, counted without recursion."""
    depth, level = -1, [phi]
    while level:
        depth += 1
        # getattr, not vars(): a node's __dict__, once made, slows every later attribute read
        level = [child for node in level for name in node.__dataclass_fields__
                 for child in _children(getattr(node, name))]
    return depth


def _children(value) -> tuple:
    if isinstance(value, (Formula, Term)):
        return (value,)
    return value if isinstance(value, tuple) else ()


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Succ):
        return term_vars(t.arg)
    if isinstance(t, (Plus, Times, Monus)):
        return term_vars(t.left) | term_vars(t.right)
    return set()


def free_vars(phi: Formula) -> set[str]:
    if isinstance(phi, Bot):
        return set()
    if isinstance(phi, Atom):
        out = set()
        for a in phi.args:
            out |= term_vars(a)
        return out
    if isinstance(phi, Eq):
        return term_vars(phi.left) | term_vars(phi.right)
    if isinstance(phi, (And, Or, Imp)):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, (Forall, Exists)):
        return free_vars(phi.body) - {phi.var}
    if isinstance(phi, (Mod, GuardAll)):
        return free_vars(phi.body)
    raise FormulaError(f"unknown formula node of type {type(phi).__name__}")


def subst_term(t: Term, env: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return env.get(t.name, t)
    if isinstance(t, Succ):
        return Succ(subst_term(t.arg, env))
    if isinstance(t, (Plus, Times, Monus)):
        return type(t)(subst_term(t.left, env), subst_term(t.right, env))
    return t


def subst(phi: Formula, env: dict[str, Term]) -> Formula:
    """Capture-avoiding substitution of terms for free variables.

    Substituted terms must not contain variables bound at the point of
    substitution (the corpus only substitutes closed terms, so this is
    checked rather than renamed around).
    """
    if not env:
        return phi
    if isinstance(phi, Bot):
        return phi
    if isinstance(phi, Atom):
        return Atom(phi.rel, tuple(subst_term(a, env) for a in phi.args))
    if isinstance(phi, Eq):
        return Eq(subst_term(phi.left, env), subst_term(phi.right, env))
    if isinstance(phi, (And, Or, Imp)):
        return type(phi)(subst(phi.left, env), subst(phi.right, env))
    if isinstance(phi, (Forall, Exists)):
        inner = {k: v for k, v in env.items() if k != phi.var}
        for v in inner.values():
            if phi.var in term_vars(v):
                raise FormulaError(f"substitution would capture variable {phi.var}")
        return type(phi)(phi.var, subst(phi.body, inner))
    if isinstance(phi, Mod):
        return Mod(phi.nvar, subst(phi.body, env))
    if isinstance(phi, GuardAll):
        return GuardAll(phi.kvar, phi.frame, phi.above, subst(phi.body, env))
    raise FormulaError(f"unknown formula node of type {type(phi).__name__}")


def has_abstract(phi: Formula) -> bool:
    """True if the formula uses an uninterpreted relation symbol."""
    if isinstance(phi, Atom):
        return phi.rel != STEP_HALT
    if isinstance(phi, (And, Or, Imp)):
        return has_abstract(phi.left) or has_abstract(phi.right)
    if isinstance(phi, (Forall, Exists)):
        return has_abstract(phi.body)
    return False


# ---------------------------------------------------------- classifiers

@dataclass(frozen=True)
class FormulaClass:
    kind: str  # "sigma" | "pi" | "pi-or-pi"
    n: int

    def __repr__(self):
        name = {"sigma": "Sigma", "pi": "Pi", "pi-or-pi": "PiOrPi"}[self.kind]
        return f"{name}({self.n})"


def Sigma(n: int) -> FormulaClass:
    return FormulaClass("sigma", n)


def Pi(n: int) -> FormulaClass:
    return FormulaClass("pi", n)


def PiOrPi(n: int) -> FormulaClass:
    return FormulaClass("pi-or-pi", n)


def is_quantifier_free(phi: Formula) -> bool:
    if isinstance(phi, (Forall, Exists)):
        return False
    if isinstance(phi, (And, Or, Imp)):
        return is_quantifier_free(phi.left) and is_quantifier_free(phi.right)
    return True


def in_sigma(phi: Formula, n: int) -> bool:
    """Cumulative prenex class: an existential block (possibly empty)
    over a Pi(n-1) formula."""
    if n == 0:
        return is_quantifier_free(phi)
    while isinstance(phi, Exists):
        phi = phi.body
    return in_pi(phi, n - 1)


def in_pi(phi: Formula, n: int) -> bool:
    if n == 0:
        return is_quantifier_free(phi)
    while isinstance(phi, Forall):
        phi = phi.body
    return in_sigma(phi, n - 1)


def in_class(phi: Formula, cls: FormulaClass) -> bool:
    if cls.kind == "sigma":
        return in_sigma(phi, cls.n)
    if cls.kind == "pi":
        return in_pi(phi, cls.n)
    if cls.kind == "pi-or-pi":
        return isinstance(phi, Or) and in_pi(phi.left, cls.n) and in_pi(phi.right, cls.n)
    raise FormulaError(f"unknown class kind {cls.kind!r}")


# ------------------------------------------------------------- schemes

def universal_closure(phi: Formula) -> Formula:
    for v in sorted(free_vars(phi), reverse=True):
        phi = Forall(v, phi)
    return phi


def scheme(cls: FormulaClass, ax: str, instance: Formula) -> Formula:
    """The DNE or LEM axiom instance for a formula of the given class."""
    if not in_class(instance, cls):
        raise FormulaError(f"instance is not in class {cls!r}")
    if ax == "DNE":
        return universal_closure(Imp(neg(neg(instance)), instance))
    if ax == "LEM":
        return universal_closure(Or(instance, neg(instance)))
    raise FormulaError(f"unknown scheme kind {ax!r} (want DNE or LEM)")


def universal_instance(cls: FormulaClass, e: int, x: int, e2: int | None = None, x2: int | None = None) -> Formula:
    """Machine-backed instance formulas of the low hierarchy classes."""
    def sigma1(code, arg):
        return Exists("w", Atom(STEP_HALT, (num(code), num(arg), Var("w"))))

    def pi1(code, arg):
        return Forall("w", neg(Atom(STEP_HALT, (num(code), num(arg), Var("w")))))

    if cls == Sigma(1):
        return sigma1(e, x)
    if cls == Pi(1):
        return pi1(e, x)
    if cls == PiOrPi(1):
        if e2 is None or x2 is None:
            raise FormulaError("PiOrPi(1) instance needs two code/input pairs")
        return Or(pi1(e, x), pi1(e2, x2))
    raise FormulaError(f"no universal instance family for class {cls!r}")
