"""Tests for the syntactic translations and their printer/parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucforce.formula import BOT, And, Formula, FormulaError, Imp, NumLit, Or, free_vars, parse, print_formula, subst
from nucforce.translate import (
    TRANSLATIONS,
    GuardAll,
    Mod,
    forcing_translate,
    gg_translate,
    kuroda_forcing_translate,
    kuroda_wrapped_translate,
)

from modal_parser_reference import parse_mformula

GG_GOLDENS = [
    ("R(x)", "[j]R(x)"),
    ("R(x) \\/ Q(x)", "[j]([j]R(x) \\/ [j]Q(x))"),
    ("R(x) -> Q(x)", "[j]R(x) -> [j]Q(x)"),
    ("forall x. R(x)", "forall x. [j]R(x)"),
    ("exists x. R(x)", "[j](exists x. [j]R(x))"),
    ("bot", "[j]bot"),
    ("x = 0", "[j]x = 0"),
]

FORCING_GOLDENS = [
    ("R(x)", "[j]R(x)"),
    ("R(x) \\/ Q(x)", "[j]([j]R(x) \\/ [j]Q(x))"),
    ("R(x) -> Q(x)", "all k>=j in P. [k]R(x) -> [k]Q(x)"),
    ("forall x. R(x)", "all k>=j in P. forall x. [k]R(x)"),
    ("exists x. R(x)", "[j](exists x. [j]R(x))"),
]

KURODA_GOLDENS = [
    ("R(x)", "R(x)"),
    ("R(x) \\/ Q(x)", "R(x) \\/ Q(x)"),
    ("R(x) -> Q(x)", "all k>=j in P. R(x) -> [k]Q(x)"),
    ("forall x. R(x)", "all k>=j in P. forall x. [k]R(x)"),
    ("exists x. R(x)", "exists x. R(x)"),
    ("bot", "bot"),
]

WRAPPED_GOLDENS = [
    ("R(x)", "[j]R(x)"),
    ("R(x) -> Q(x)", "[j](all k>=j in P. R(x) -> [k]Q(x))"),
    ("forall x. R(x)", "[j](all k>=j in P. forall x. [k]R(x))"),
]


@pytest.mark.parametrize("src,expected", GG_GOLDENS)
def test_gg_clauses(src, expected):
    assert print_formula(gg_translate(parse(src))) == expected


@pytest.mark.parametrize("src,expected", FORCING_GOLDENS)
def test_forcing_clauses(src, expected):
    assert print_formula(forcing_translate(parse(src))) == expected


@pytest.mark.parametrize("src,expected", KURODA_GOLDENS)
def test_kuroda_clauses(src, expected):
    assert print_formula(kuroda_forcing_translate(parse(src))) == expected


@pytest.mark.parametrize("src,expected", WRAPPED_GOLDENS)
def test_kuroda_wrapped_clauses(src, expected):
    assert print_formula(kuroda_wrapped_translate(parse(src))) == expected


def test_nested_guards_get_fresh_names():
    t = forcing_translate(parse("(R(x) -> Q(x)) -> R(x)"))
    assert print_formula(t) == (
        "all k>=j in P. (all k2>=k in P. [k2]R(x) -> [k2]Q(x)) -> [k]R(x)"
    )


def test_translation_registry():
    assert set(TRANSLATIONS) == {"gg", "forcing", "kuroda", "kuroda-wrapped"}


def test_mformula_parser_round_trip_on_goldens():
    for style in TRANSLATIONS.values():
        for src, _ in GG_GOLDENS:
            t = style(parse(src))
            assert parse_mformula(print_formula(t)) == t


def test_subst_commutes_with_translation():
    cases = [
        ("forall y. R(x) -> Q(y)", {"x": NumLit(2)}),
        ("exists y. R(x) \\/ Q(y)", {"x": NumLit(0)}),
        ("R(x) /\\ (Q(x) -> R(x))", {"x": NumLit(1)}),
    ]
    for src, env in cases:
        phi = parse(src)
        for style in TRANSLATIONS.values():
            assert subst(style(phi), env) == style(subst(phi, env))
            assert free_vars(style(phi)) == free_vars(phi)


def _size(phi) -> int:
    if isinstance(phi, (And, Or, Imp)):
        return 1 + _size(phi.left) + _size(phi.right)
    if hasattr(phi, "body"):
        return 1 + _size(phi.body)
    return 1


def test_size_bound_linear_in_source():
    # every clause adds a constant number of nodes, so the translated
    # size stays within a fixed multiple of the source size
    for src in ["R(x)", "(R(x) -> Q(x)) -> R(x)", "forall x. exists y. R(x) /\\ Q(y)",
                "~ ~ (R(x) \\/ Q(x))"]:
        phi = parse(src)
        base = _size(phi)
        for style in TRANSLATIONS.values():
            assert _size(style(phi)) <= 4 * base + 2


@st.composite
def plain_formulas(draw, depth=3):
    from nucforce.formula import And, Atom, BOT, Eq, Exists, Forall, Imp, Or, Var
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(["atom", "eq", "bot"]))
        if kind == "atom":
            return Atom("R", (Var(draw(st.sampled_from("xy"))),))
        if kind == "eq":
            return Eq(Var(draw(st.sampled_from("xy"))), NumLit(draw(st.integers(0, 2))))
        return BOT
    kind = draw(st.sampled_from(["and", "or", "imp", "forall", "exists"]))
    left = draw(plain_formulas(depth=depth - 1))
    if kind == "and":
        return And(left, draw(plain_formulas(depth=depth - 1)))
    if kind == "or":
        return Or(left, draw(plain_formulas(depth=depth - 1)))
    if kind == "imp":
        return Imp(left, draw(plain_formulas(depth=depth - 1)))
    ctor = Forall if kind == "forall" else Exists
    return ctor(draw(st.sampled_from("xy")), left)


@settings(max_examples=80, deadline=None)
@given(plain_formulas())
def test_print_parse_round_trip_on_random_translations(phi):
    for style in TRANSLATIONS.values():
        t = style(phi)
        back = parse_mformula(print_formula(t))
        assert back == t and hash(back) == hash(t)


def test_modal_nodes_print_instead_of_recursing():
    assert repr(Mod("j", BOT)) == "[j]bot"
    assert str(forcing_translate(parse("R(x) -> Q(x)"))) == "all k>=j in P. [k]R(x) -> [k]Q(x)"
    assert repr(GuardAll("k", "P", "j", Mod("k", BOT))) == "all k>=j in P. [k]bot"
    # the modal syntax is an extension: only parse_mformula reads it back
    for text in ("[j]bot", "all k>=j in P. [k]bot"):
        with pytest.raises(FormulaError):
            parse(text)


def test_unknown_node_raises_formula_error():
    class Stray(Formula):
        pass

    for fn in (print_formula, free_vars, lambda phi: subst(phi, {"x": NumLit(0)})):
        with pytest.raises(FormulaError, match="Stray"):
            fn(Stray())
    with pytest.raises(FormulaError, match="Stray"):
        repr(And(Stray(), BOT))
