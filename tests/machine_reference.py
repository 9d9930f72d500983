"""Recursive reference for the bounded combinatory machine.

An independent restatement of `apply`: leftmost-outermost reduction in
which every strict argument (of CASE, PAIR, FST, SND, SUCC, ORA and
HALT) is reduced by a nested call, two Python frames per level, with an
uncached halting test, its own term printer and its own decoder, which
hangs each subterm into a stack of open applications as it is read.  It shares only the code format (`ARITY` and the
tag numbers) and the pairing functions with the code under test.  Fuel is a single-cell list shared across nested
evaluations: it is checked at the top of every iteration and charged
one unit per combinator step and per head-numeral decode.

Deep codes need one pair of Python frames per level of strict nesting,
so keep the inputs small.
"""

from nucforce.realizability import (
    ARITY,
    EMPTY_ORACLE,
    EXHAUSTED,
    LEAVES,
    REALIZED,
    REFUTED,
    TAG_APP,
    TAG_HALT,
    TAG_NUM,
    TAG_ORA,
    pair,
    unpair,
)


class Stuck(Exception):
    pass


class Exhausted(Exception):
    pass


def term_str(t) -> str:
    if isinstance(t, str):
        return t
    if t[0] == "num":
        return str(t[1])
    if t[0] == "var":
        return t[1]
    return f"({term_str(t[1])} {term_str(t[2])})"


def decode(c: int):
    """Total decoding; malformed or truncated codes fall back to the
    zero numeral, trailing bits are ignored."""
    if c <= 0:
        return ("num", 0)
    s = bin(c)[3:]
    n = len(s)
    i = 0
    stack = []  # pending applications, each a one-slot frame

    def settle(v):
        while stack:
            frame = stack[-1]
            if frame[0] is None:
                frame[0] = v
                return None
            stack.pop()
            v = ("app", frame[0], v)
        return v

    while True:
        if i + 4 > n:
            return ("num", 0)
        tag = int(s[i:i + 4], 2)
        i += 4
        if tag < len(LEAVES):
            v = LEAVES[tag]
        elif tag == TAG_ORA:
            v = "ORA"
        elif tag == TAG_HALT:
            v = "HALT"
        elif tag == TAG_NUM:
            z = 0
            while i + z < n and s[i + z] == "0":
                z += 1
            if i + 2 * z + 1 > n:
                return ("num", 0)
            v = ("num", int(s[i + z:i + 2 * z + 1], 2) - 1)
            i += 2 * z + 1
        elif tag == TAG_APP:
            stack.append([None])
            continue
        else:
            return ("num", 0)
        v = settle(v)
        if v is not None:
            return v


def _rebuild(head, args):
    for a in reversed(args):
        head = ("app", head, a)
    return head


def reduce(t, oracle, fuel: list, consulted: set):
    """Normal form of t; raises Stuck on definite failure and Exhausted
    when the fuel cell runs out."""
    args = []
    while True:
        if fuel[0] <= 0:
            raise Exhausted()
        if isinstance(t, tuple) and t[0] == "app":
            args.append(t[2])
            t = t[1]
            continue
        if isinstance(t, tuple) and t[0] == "num":
            if not args:
                return t
            fuel[0] -= 1
            decoded = decode(t[1])
            if decoded == t:
                raise Stuck("application of the zero code diverges")
            t = decoded
            continue
        if isinstance(t, tuple) and t[0] == "var":
            raise Stuck(f"free variable {t[1]} in machine term")
        arity = ARITY[t]
        if len(args) < arity:
            return _rebuild(t, args)
        a = [args.pop() for _ in range(arity)]
        fuel[0] -= 1
        if t == "K":
            t = a[0]
        elif t == "S":
            t = ("app", ("app", a[0], a[2]), ("app", a[1], a[2]))
        elif t == "FIX":
            t = ("app", ("app", a[0], ("app", "FIX", a[0])), a[1])
        elif t == "CASE":
            n = eval_num(a[0], oracle, fuel, consulted)
            t = a[1] if n == 0 else ("app", a[2], ("num", n - 1))
        elif t == "PAIR":
            t = ("num", pair(eval_num(a[0], oracle, fuel, consulted),
                             eval_num(a[1], oracle, fuel, consulted)))
        elif t == "FST":
            t = ("num", unpair(eval_num(a[0], oracle, fuel, consulted))[0])
        elif t == "SND":
            t = ("num", unpair(eval_num(a[0], oracle, fuel, consulted))[1])
        elif t == "SUCC":
            t = ("num", eval_num(a[0], oracle, fuel, consulted) + 1)
        elif t == "ORA":
            n = eval_num(a[0], oracle, fuel, consulted)
            consulted.add(n)
            v = oracle.get(n)
            if v is None:
                raise Stuck(f"oracle {oracle.label} undefined at {n}")
            t = ("num", v)
        else:  # HALT
            e = eval_num(a[0], oracle, fuel, consulted)
            x = eval_num(a[1], oracle, fuel, consulted)
            w = eval_num(a[2], oracle, fuel, consulted)
            t = ("num", 1 if step_halts(e, x, w, fuel) else 0)


def eval_num(t, oracle, fuel, consulted) -> int:
    nf = reduce(t, oracle, fuel, consulted)
    if isinstance(nf, tuple) and nf[0] == "num":
        return nf[1]
    raise Stuck(f"expected a numeral, got {term_str(nf)}")


def step_halts(e: int, x: int, w: int, fuel: list) -> bool:
    """Whether code e on input x reaches a numeral within w steps, with
    no oracle; the w inner steps plus one are charged to the outer cell."""
    if fuel[0] < w + 1:
        raise Exhausted()
    inner = [w]
    try:
        nf = reduce(("app", ("num", e), ("num", x)), EMPTY_ORACLE, inner, set())
        halted = isinstance(nf, tuple) and nf[0] == "num"
    except (Stuck, Exhausted):
        halted = False
    fuel[0] -= w - inner[0] + 1
    return halted


def reference_apply(e: int, n: int, f, fuel: int) -> dict:
    """Verdict, value, detail, steps and consulted oracle points of code e
    applied to n relative to f, in the shape of `apply`'s outcome."""
    cell = [fuel]
    consulted: set = set()
    out = {"value": None, "detail": "", "steps": None}
    try:
        nf = reduce(("app", ("num", e), ("num", n)), f, cell, consulted)
    except Stuck as exc:
        out.update(verdict=REFUTED, detail=str(exc))
    except Exhausted:
        out.update(verdict=EXHAUSTED, detail="fuel")
    else:
        out["steps"] = fuel - cell[0]
        if isinstance(nf, tuple) and nf[0] == "num":
            out.update(verdict=REALIZED, value=nf[1])
        else:
            out.update(verdict=REFUTED, detail=f"non-numeral normal form {term_str(nf)}")
    out["consulted"] = sorted(consulted)
    return out
