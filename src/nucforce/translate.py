"""Syntactic translations into the modal formula language.

The target language is the first-order AST of `formula` with its two
modal nodes: Mod(j, phi) applies the nucleus named j to the truth value
of phi, and GuardAll(k, P, j, phi) quantifies k over the members of the
frame P that lie above j.  `formula.print_formula` and `formula.subst`
handle both.  Three translations are provided: the plain nucleus
translation (atoms, disjunctions, and existentials get Mod), the
forcing translation (implications and universals additionally guard
over the frame), and the Kuroda-style variant (atoms untouched, the
modality lands on consequents and under universals).

The current nucleus is named by guard depth (`_nucleus`: j, then k, k2,
...) and the frame is always P, so the output is deterministic.  In
every output each node has at most one free nucleus variable: j at the
root, and the guard's k throughout a GuardAll body.
`hmodel.SceneEval` relies on this to evaluate a node at every nucleus of
a basis and every environment as one table, and a GuardAll body over the
frame.
"""

from __future__ import annotations

from .formula import (
    And,
    Atom,
    Bot,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaError,
    GuardAll,
    Imp,
    Mod,
    Or,
)


def _nucleus(depth: int) -> str:
    """The name of the current nucleus at a guard depth: j at the root,
    then k, k2, k3, ... inside nested guards."""
    return "j" if depth == 0 else "k" if depth == 1 else f"k{depth}"


def gg_translate(phi: Formula) -> Formula:
    """Nucleus translation: Mod at atoms, \\/ and exists; the rest commutes."""
    if isinstance(phi, (Atom, Eq, Bot)):
        return Mod("j", phi)
    if isinstance(phi, And):
        return And(gg_translate(phi.left), gg_translate(phi.right))
    if isinstance(phi, Or):
        return Mod("j", Or(gg_translate(phi.left), gg_translate(phi.right)))
    if isinstance(phi, Imp):
        return Imp(gg_translate(phi.left), gg_translate(phi.right))
    if isinstance(phi, Exists):
        return Mod("j", Exists(phi.var, gg_translate(phi.body)))
    if isinstance(phi, Forall):
        return Forall(phi.var, gg_translate(phi.body))
    raise FormulaError(f"cannot translate node {phi!r}")


def forcing_translate(phi: Formula, _depth: int = 0) -> Formula:
    """Forcing translation over the frame P.

    Implications and universals quantify over all frame members above
    the current nucleus.

    Over a frame P = k_1 ... k_n on H it is gg on the algebra A_P of
    monotone families (a_i <= a_x when k_i <= k_x), with meet and join
    componentwise, (a -> b)_i = meet over k_i <= k_x of (a_x -> b_x), and
    the nucleus J(a)_i = k_i(a_i), monotone as k <= k' and a <= a' give
    k(a) <= k(a') <= k'(a'): with j bound to k_i, the translation's value
    is component i of gg on (A_P, J), atoms read as constant families.
    Proof by induction: atoms, /\\, \\/ and exists are componentwise on
    both sides, -> is the guard by definition, and the guard of forall is
    idle on monotone families (meet over k_i <= k_x of a_x is a_i).
    """
    j, k = _nucleus(_depth), _nucleus(_depth + 1)
    if isinstance(phi, (Atom, Eq, Bot)):
        return Mod(j, phi)
    if isinstance(phi, And):
        return And(forcing_translate(phi.left, _depth), forcing_translate(phi.right, _depth))
    if isinstance(phi, Or):
        return Mod(j, Or(forcing_translate(phi.left, _depth), forcing_translate(phi.right, _depth)))
    if isinstance(phi, Imp):
        body = Imp(forcing_translate(phi.left, _depth + 1), forcing_translate(phi.right, _depth + 1))
        return GuardAll(k, "P", j, body)
    if isinstance(phi, Exists):
        return Mod(j, Exists(phi.var, forcing_translate(phi.body, _depth)))
    if isinstance(phi, Forall):
        return GuardAll(k, "P", j, Forall(phi.var, forcing_translate(phi.body, _depth + 1)))
    raise FormulaError(f"cannot translate node {phi!r}")


def kuroda_forcing_translate(phi: Formula, _depth: int = 0) -> Formula:
    """Kuroda-style variant: atoms stay bare, \\/ and exists commute, the
    modality is applied to implication consequents and under universals."""
    j, k = _nucleus(_depth), _nucleus(_depth + 1)
    if isinstance(phi, (Atom, Eq, Bot)):
        return phi
    if isinstance(phi, And):
        return And(kuroda_forcing_translate(phi.left, _depth), kuroda_forcing_translate(phi.right, _depth))
    if isinstance(phi, Or):
        return Or(kuroda_forcing_translate(phi.left, _depth), kuroda_forcing_translate(phi.right, _depth))
    if isinstance(phi, Imp):
        body = Imp(kuroda_forcing_translate(phi.left, _depth + 1),
                   Mod(k, kuroda_forcing_translate(phi.right, _depth + 1)))
        return GuardAll(k, "P", j, body)
    if isinstance(phi, Exists):
        return Exists(phi.var, kuroda_forcing_translate(phi.body, _depth))
    if isinstance(phi, Forall):
        body = Forall(phi.var, Mod(k, kuroda_forcing_translate(phi.body, _depth + 1)))
        return GuardAll(k, "P", j, body)
    raise FormulaError(f"cannot translate node {phi!r}")


def kuroda_wrapped_translate(phi: Formula) -> Formula:
    return Mod("j", kuroda_forcing_translate(phi))


TRANSLATIONS = {
    "gg": gg_translate,
    "forcing": forcing_translate,
    "kuroda": kuroda_forcing_translate,
    "kuroda-wrapped": kuroda_wrapped_translate,
}
