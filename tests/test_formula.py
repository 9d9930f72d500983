"""Tests for the formula AST, parser, printer, and class tags."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucforce.formula import (
    Atom,
    BOT,
    Eq,
    Exists,
    Forall,
    FormulaError,
    Imp,
    MAX_NESTING,
    Monus,
    NumLit,
    Or,
    ParseError,
    Plus,
    Pi,
    PiOrPi,
    Sigma,
    STEP_HALT,
    Succ,
    Times,
    Var,
    free_vars,
    in_class,
    neg,
    parse,
    print_formula,
    print_term,
    scheme,
    subst,
    universal_closure,
    universal_instance,
)

ROUND_TRIP_CASES = [
    "bot",
    "R(x)",
    "R(x) /\\ Q(y)",
    "R(x) \\/ Q(y)",
    "R(x) -> Q(y)",
    "~ R(x)",
    "forall x. R(x)",
    "exists x. exists y. R(x) /\\ Q(y)",
    "x = 0",
    "S(S(0)) = x + y",
    "x * S(y) = z",
    "x -. y = 0",
    "forall x. (R(x) -> Q(x)) -> R(x)",
    "R(x) \\/ Q(y) \\/ R(z)",
    "R(x) -> Q(y) -> R(z)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_parse_print_round_trip(text):
    phi = parse(text)
    again = parse(print_formula(phi))
    assert again == phi


def test_printer_precedence_against_reference():
    assert print_formula(parse("(R(x) \\/ Q(y)) /\\ R(z)")) == "(R(x) \\/ Q(y)) /\\ R(z)"
    assert print_formula(parse("R(x) \\/ (Q(y) /\\ R(z))")) == "R(x) \\/ Q(y) /\\ R(z)"
    assert print_formula(parse("(R(x) -> Q(y)) -> R(z)")) == "(R(x) -> Q(y)) -> R(z)"
    assert print_formula(parse("R(x) -> (Q(y) -> R(z))")) == "R(x) -> Q(y) -> R(z)"


def test_negation_sugar():
    assert parse("~ R(x)") == Imp(Atom("R", (Var("x"),)), BOT)
    assert neg(Atom("R", (Var("x"),))) == parse("~ R(x)")


def test_numeral_literals_print_in_decimal():
    assert print_formula(Eq(NumLit(3), Var("x"))) == "3 = x"
    assert parse("3 = x") == Eq(NumLit(3), Var("x"))
    # successor applications stay structural; only digit literals collapse
    assert parse("S(S(0)) = x") == Eq(Succ(Succ(NumLit(0))), Var("x"))


def test_every_numeral_is_one_node_zero_included():
    assert parse("0 = 0") == Eq(NumLit(0), NumLit(0))
    zero = NumLit(0)
    assert universal_instance(Sigma(1), 0, 0) == Exists("w", Atom(STEP_HALT, (zero, zero, Var("w"))))
    assert universal_instance(Pi(1), 0, 0) == Forall("w", neg(Atom(STEP_HALT, (zero, zero, Var("w")))))


def test_a_term_prints_the_same_through_repr_and_print_term():
    cases = [
        (Var("x"), "x"),
        (NumLit(0), "0"),
        (Succ(NumLit(12)), "S(12)"),
        (Plus(NumLit(1), Succ(Var("x"))), "1+S(x)"),
        (Times(Plus(Var("x"), NumLit(2)), Var("y")), "(x+2)*y"),
        (Monus(Var("x"), Monus(Var("y"), NumLit(3))), "x-.(y-.3)"),
    ]
    for term, text in cases:
        assert print_term(term) == text
        assert repr(term) == text, type(term).__name__


def test_numerals_past_the_conversion_limit_print_their_bit_length():
    limit = sys.get_int_max_str_digits()  # 4,300 unless the interpreter is told otherwise
    widest = 10 ** limit - 1
    assert print_formula(Eq(NumLit(widest), Var("x"))) == "9" * limit + " = x"
    assert print_formula(Eq(NumLit(widest + 1), Var("x"))) == f"<numeral of {(widest + 1).bit_length()} bits> = x"


def test_parse_errors():
    for bad in ["", "R(", "forall . R(x)", "R(x) ->", "x = = y", "R(x))"]:
        with pytest.raises(ParseError):
            parse(bad)


# One formula per way to nest, k levels deep: brackets, negations,
# quantifiers, implications and successors nest in the parser, chains of
# binary connectives and operators only in the tree.
NESTED = {
    "negations": lambda k: "~" * k + "bot",
    "brackets": lambda k: "(" * k + "bot" + ")" * k,
    "term-brackets": lambda k: "(" * k + "0" + ")" * k + " = 0",
    "quantifiers": lambda k: "forall x. " * k + "bot",
    "implications": lambda k: "bot -> " * k + "bot",
    "successors": lambda k: "S(" * (k - 1) + "0" + ")" * (k - 1) + " = 0",
    "disjunctions": lambda k: " \\/ ".join(["bot"] * (k + 1)),
    "sums": lambda k: " + ".join(["0"] * k) + " = 0",
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_parser_refuses_nesting_past_the_cap(shape):
    parse(NESTED[shape](MAX_NESTING))
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
        parse(NESTED[shape](MAX_NESTING + 1))


def test_fixed_arity_atom_checked():
    with pytest.raises(FormulaError):
        parse("StepHalt(0, 1)")
    parse("StepHalt(0, 1, w)")  # arity three is fine


def test_free_vars():
    assert free_vars(parse("forall x. R(x) -> Q(y)")) == {"y"}
    assert free_vars(parse("exists x. x = y + z")) == {"y", "z"}
    assert free_vars(parse("bot")) == set()


def test_subst_replaces_only_free_occurrences():
    phi = parse("R(x) /\\ forall x. Q(x)")
    out = subst(phi, {"x": NumLit(2)})
    assert out == parse("R(2) /\\ forall x. Q(x)")


def test_subst_refuses_capture():
    phi = parse("forall x. R(x) -> Q(y)")
    with pytest.raises(FormulaError):
        subst(phi, {"y": Var("x")})


def test_quantifier_free_classifies_at_level_zero():
    phi = parse("R(x) /\\ ~ Q(y)")
    assert in_class(phi, Sigma(0)) and in_class(phi, Pi(0))


def test_sigma_pi_levels():
    assert in_class(parse("exists x. R(x)"), Sigma(1))
    assert not in_class(parse("exists x. R(x)"), Pi(0))
    assert in_class(parse("forall x. R(x)"), Pi(1))
    assert in_class(parse("exists x. forall y. R(x)"), Sigma(2))
    assert in_class(parse("forall x. exists y. R(x)"), Pi(2))
    # cumulativity: a Sigma(1) formula is also Sigma(2) and Pi(2)
    assert in_class(parse("exists x. R(x)"), Sigma(2))
    assert in_class(parse("exists x. R(x)"), Pi(2))


def _brute_min_sigma(phi, cap=5):
    for n in range(cap):
        if in_class(phi, Sigma(n)):
            return n
    return None


@pytest.mark.parametrize("text,expected", [
    ("R(x)", 0),
    ("exists x. R(x)", 1),
    ("forall x. R(x)", 2),
    ("exists x. forall y. R(y)", 2),
    ("forall x. exists y. R(y)", 3),
])
def test_min_sigma_level_oracle(text, expected):
    assert _brute_min_sigma(parse(text)) == expected


def test_pi_or_pi_tag():
    phi = parse("(forall x. R(x)) \\/ (forall y. Q(y))")
    assert in_class(phi, PiOrPi(1))
    assert not in_class(parse("forall x. R(x)"), PiOrPi(1))


def test_universal_closure_binds_free_variables():
    phi = parse("R(x) -> Q(y)")
    closed = universal_closure(phi)
    assert free_vars(closed) == set()
    assert closed == parse("forall x. forall y. (R(x) -> Q(y))")


def test_scheme_builders():
    inst = parse("exists w. StepHalt(3, 5, w)")
    dne = scheme(Sigma(1), "DNE", inst)
    assert free_vars(dne) == set()
    assert dne == parse("~ ~ (exists w. StepHalt(3, 5, w)) -> exists w. StepHalt(3, 5, w)")
    lem = scheme(Sigma(1), "LEM", inst)
    assert lem == parse("(exists w. StepHalt(3, 5, w)) \\/ ~ exists w. StepHalt(3, 5, w)")
    with pytest.raises(FormulaError):
        scheme(Pi(0), "DNE", inst)
    with pytest.raises(FormulaError):
        scheme(Sigma(1), "XYZ", inst)


def test_universal_instance_families():
    s1 = universal_instance(Sigma(1), 3, 5)
    assert s1 == parse("exists w. StepHalt(3, 5, w)")
    p1 = universal_instance(Pi(1), 3, 5)
    assert p1 == parse("forall w. ~ StepHalt(3, 5, w)")
    disj = universal_instance(PiOrPi(1), 3, 5, 4, 6)
    assert isinstance(disj, Or) and in_class(disj, PiOrPi(1))
    with pytest.raises(FormulaError):
        universal_instance(PiOrPi(1), 3, 5)
    with pytest.raises(FormulaError):
        universal_instance(Sigma(2), 3, 5)


@st.composite
def small_formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(["atom", "eq", "bot"]))
        if kind == "atom":
            return Atom("R", (Var(draw(st.sampled_from("xyz"))),))
        if kind == "eq":
            return Eq(Var(draw(st.sampled_from("xyz"))), NumLit(draw(st.integers(0, 3))))
        return BOT
    kind = draw(st.sampled_from(["and", "or", "imp", "forall", "exists"]))
    if kind in ("and", "or", "imp"):
        cls = {"and": "And", "or": "Or", "imp": "Imp"}[kind]
        left = draw(small_formulas(depth=depth - 1))
        right = draw(small_formulas(depth=depth - 1))
        from nucforce import formula as F
        return getattr(F, cls)(left, right)
    body = draw(small_formulas(depth=depth - 1))
    ctor = Forall if kind == "forall" else Exists
    return ctor(draw(st.sampled_from("xyz")), body)


@settings(max_examples=120, deadline=None)
@given(small_formulas())
def test_round_trip_on_random_formulas(phi):
    assert parse(print_formula(phi)) == phi
