"""Verdict-only Kleene realizability relative to one oracle, and over a
frame of oracles.

An independent reference for `realizes` and for `djg_realizes`:
`kleene_verdict` on a one-point frame, `frame_verdict` on a frame of any
size, where implications and universals range over the members whose
tables contain the current one.  Both share the machine (`_code_apply`),
the pairing inverse and substitution with the code under test and restate
every clause, and the equality atoms, here.  Verdicts are "R" (realized
within the budgets), "F" (refuted) and "E" (a budget ran out).
"""

from nucforce.formula import And, Bot, Eq, Exists, Forall, Imp, Monus, NumLit, Or, Plus, Succ, Times, Zero, subst
from nucforce.realizability import EXHAUSTED, REALIZED, REFUTED, _code_apply, unpair

VERDICT_OF = {"R": REALIZED, "F": REFUTED, "E": EXHAUSTED}
LETTER_OF = {verdict: letter for letter, verdict in VERDICT_OF.items()}


def _value(t) -> int:
    if isinstance(t, Zero):
        return 0
    if isinstance(t, NumLit):
        return t.value
    if isinstance(t, Succ):
        return _value(t.arg) + 1
    if isinstance(t, Plus):
        return _value(t.left) + _value(t.right)
    if isinstance(t, Times):
        return _value(t.left) * _value(t.right)
    if isinstance(t, Monus):
        return max(0, _value(t.left) - _value(t.right))
    raise ValueError(f"no value for term {t!r}")


def _worst(verdicts) -> str:
    """F if any verdict is F, else E if any is E, else R."""
    pending = False
    for v in verdicts:
        if v == "F":
            return "F"
        pending = pending or v == "E"
    return "E" if pending else "R"


def kleene_verdict(e: int, phi, f, cfg) -> str:
    """Whether code e realizes the closed sentence phi relative to oracle f."""

    def verdict(e, phi):
        if isinstance(phi, Bot):
            return "F"
        if isinstance(phi, Eq):
            return "R" if _value(phi.left) == _value(phi.right) else "F"
        if isinstance(phi, And):
            n, m = unpair(e)
            return _worst((verdict(n, phi.left), verdict(m, phi.right)))
        if isinstance(phi, Or):
            tag, n = unpair(e)
            return verdict(n, (phi.left, phi.right)[tag]) if tag in (0, 1) else "F"
        if isinstance(phi, Exists):
            w, r = unpair(e)
            return verdict(r, subst(phi.body, {phi.var: NumLit(w)}))
        if isinstance(phi, Forall):
            return _worst(applied(e, m, subst(phi.body, {phi.var: NumLit(m)}))
                          for m in range(cfg.universe))
        if isinstance(phi, Imp):
            antecedent = [verdict(c, phi.left) for c in range(cfg.candidates)]
            body = _worst(applied(e, n, phi.right) for n, v in enumerate(antecedent) if v == "R")
            return "E" if body == "R" and "E" in antecedent else body
        raise ValueError(f"no clause for {phi!r}")

    def applied(e, n, psi):
        # apply e to n, then check the result against psi
        got, v = _code_apply(e, n, f, cfg.fuel)
        st = LETTER_OF[got]
        return st if st != "R" else verdict(v, psi)

    return verdict(e, phi)


def frame_verdict(e: int, phi, f, oracles, cfg, above=None) -> str:
    """Whether code e realizes the closed sentence phi at the member f of
    the frame `oracles`.  Implications and universals are checked at every
    extension: each member whose table holds every entry of the current
    one, read off the tables.  `above`, given a member, replaces that list
    of extensions."""

    def extensions(g):
        return [h for h in oracles if set(g.table) <= set(h.table)]

    above = above or extensions

    def verdict(e, phi, g):
        if isinstance(phi, Bot):
            return "F"
        if isinstance(phi, Eq):
            return "R" if _value(phi.left) == _value(phi.right) else "F"
        if isinstance(phi, And):
            n, m = unpair(e)
            return _worst((verdict(n, phi.left, g), verdict(m, phi.right, g)))
        if isinstance(phi, Or):
            tag, n = unpair(e)
            return verdict(n, (phi.left, phi.right)[tag], g) if tag in (0, 1) else "F"
        if isinstance(phi, Exists):
            w, r = unpair(e)
            return verdict(r, subst(phi.body, {phi.var: NumLit(w)}), g)
        if isinstance(phi, Forall):
            return _worst(applied(e, m, subst(phi.body, {phi.var: NumLit(m)}), h)
                          for h in above(g) for m in range(cfg.universe))
        if isinstance(phi, Imp):
            return _worst(implied(e, phi, h) for h in above(g))
        raise ValueError(f"no clause for {phi!r}")

    def implied(e, phi, h):
        # the implication's clause at the one extension h
        antecedent = [verdict(c, phi.left, h) for c in range(cfg.candidates)]
        body = _worst(applied(e, n, phi.right, h) for n, v in enumerate(antecedent) if v == "R")
        return "E" if body == "R" and "E" in antecedent else body

    def applied(e, n, psi, h):
        # apply e to n relative to h, then check the result against psi at h
        got, v = _code_apply(e, n, h, cfg.fuel)
        st = LETTER_OF[got]
        return st if st != "R" else verdict(v, psi, h)

    return verdict(e, phi, f)
