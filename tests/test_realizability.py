"""Tests for the combinatory machine, coding, and realizability checkers."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucforce.formula import Imp, neg, parse, print_formula
from nucforce.realizability import (
    Budgets,
    DEFAULT_BUDGETS,
    DEMO_BUDGETS,
    EMPTY_ORACLE,
    EXHAUSTED,
    Oracle,
    OraclePoset,
    REALIZED,
    REFUTED,
    RealizabilityError,
    app,
    apply,
    bounded_halting_oracle,
    check_assumption_A,
    decode,
    default_candidates,
    diverging_code,
    djg_realizes,
    encode,
    eval_term,
    halting_code,
    identity_code,
    induction_axiom,
    induction_realizer,
    lam,
    load_oracle,
    load_oracle_poset,
    mp_realizer,
    not_not_lift,
    numt,
    pair,
    preal_standard,
    realizes,
    separation_demo,
    step_halts,
    term_str,
    unpair,
)
from nucforce.formula import PiOrPi, Sigma, universal_instance

from kleene_reference import VERDICT_OF, frame_verdict, kleene_verdict
from machine_reference import decode as reference_decode, reference_apply, step_halts as reference_step_halts


# ------------------------------------------------------------- pairing

def test_pairing_base_values():
    assert pair(0, 0) == 0
    assert pair(1, 0) == 1
    assert pair(0, 1) == 2


def test_pairing_is_a_bijection_on_a_grid():
    seen = set()
    for n in range(100):
        for m in range(100):
            c = pair(n, m)
            assert unpair(c) == (n, m)
            assert c not in seen
            seen.add(c)


def test_unpair_total_on_initial_segment():
    # every natural decodes to exactly one pair
    assert sorted(pair(*unpair(c)) for c in range(500)) == list(range(500))


# -------------------------------------------------------------- coding

def _random_term(rng, depth=4):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return ("num", rng.randrange(0, 50))
        return rng.choice(["S", "K", "PAIR", "FST", "SND", "SUCC", "CASE", "FIX", "ORA", "HALT"])
    return ("app", _random_term(rng, depth - 1), _random_term(rng, depth - 1))


def test_code_round_trip_on_random_terms():
    rng = random.Random(12345)
    for _ in range(300):
        t = _random_term(rng)
        assert decode(encode(t)) == t


def test_term_str_prints_terms_nested_10000_deep():
    left, right = "K", numt(0)
    for _ in range(10000):
        left = app(left, numt(1))
        right = app("SUCC", right)
    assert term_str(left) == "(" * 10000 + "K" + " 1)" * 10000
    assert term_str(right) == "(SUCC " * 10000 + "0" + ")" * 10000


def test_decode_is_total():
    for c in range(300):
        t = decode(c)
        assert isinstance(t, (str, tuple))
        term_str(t)  # printable


def test_decode_agrees_with_the_reference_decoder():
    rng = random.Random(2024)
    codes = list(range(1 << 16))
    codes += [rng.getrandbits(rng.randrange(20, 401)) for _ in range(5000)]
    for _ in range(1000):
        # well-formed codes, cut short or followed by stray bits
        c = encode(_random_term(rng, depth=6))
        codes += [c, c >> rng.randrange(1, c.bit_length()), (c << 7) | rng.getrandbits(7)]
    for c in codes:
        assert decode(c) == reference_decode(c), c


def test_zero_decodes_to_the_zero_numeral():
    assert decode(0) == ("num", 0)


def test_deep_terms_stay_codable():
    t = numt(3)
    for _ in range(40):
        t = app("SUCC", t)
    c = encode(t)
    assert decode(c) == t
    assert c.bit_length() < 5000  # linear, not exponential, in depth


def test_lambda_abstraction_eliminates_the_variable():
    t = lam("x", app("SUCC", ("var", "x")))
    assert "var" not in term_str(t)
    out = apply(encode(t), 4, EMPTY_ORACLE)
    assert out.realized and out.value == 5


# ------------------------------------------------------------- machine

def test_identity_code():
    out = apply(identity_code(), 5, EMPTY_ORACLE)
    assert out.realized and out.value == 5


def test_k_discards_its_second_argument():
    e = encode(app("K", numt(3)))
    out = apply(e, 9, EMPTY_ORACLE)
    assert out.realized and out.value == 3


def test_s_combinator_law():
    # S K K is the identity
    out = apply(encode(app("S", "K", "K")), 4, EMPTY_ORACLE)
    assert out.realized and out.value == 4


def test_successor():
    out = apply(encode("SUCC"), 5, EMPTY_ORACLE)
    assert out.realized and out.value == 6


def test_pair_projections():
    p = app("PAIR", numt(3), numt(4))
    assert apply(encode(app("K", app("FST", p))), 0, EMPTY_ORACLE).value == 3
    assert apply(encode(app("K", app("SND", p))), 0, EMPTY_ORACLE).value == 4


def test_case_analysis():
    zero_branch = encode(app("K", app("CASE", numt(0), numt(7), "SUCC")))
    assert apply(zero_branch, 0, EMPTY_ORACLE).value == 7
    succ_branch = encode(app("K", app("CASE", numt(3), numt(7), "SUCC")))
    # CASE (n+1) a f reduces to f n
    assert apply(succ_branch, 0, EMPTY_ORACLE).value == 3


def test_numeral_in_head_position_decodes_to_its_term():
    # applying the code of SUCC as a bare numeral works like SUCC
    e = encode(app("K", app(numt(encode("SUCC")), numt(8))))
    assert apply(e, 0, EMPTY_ORACLE).value == 9


def test_application_of_the_zero_code_is_refuted():
    out = apply(0, 0, EMPTY_ORACLE)
    assert out.verdict == REFUTED and "zero code" in out.detail


def test_non_numeral_normal_form_is_refuted():
    out = apply(encode("K"), 5, EMPTY_ORACLE)
    assert out.verdict == REFUTED and "normal form" in out.detail


def test_diverging_code_exhausts_fuel():
    out = apply(diverging_code(), 0, EMPTY_ORACLE, fuel=500)
    assert out.verdict == EXHAUSTED


def test_oracle_calls_and_consultation_trace():
    f = Oracle.from_dict("f", {2: 5})
    out = apply(encode("ORA"), 2, f)
    assert out.realized and out.value == 5
    assert 2 in out.trace["consulted"]
    out = apply(encode("ORA"), 3, f)
    assert out.verdict == REFUTED


def test_oracle_tables_map_naturals_to_naturals():
    # Python callers give int keys, JSON files decimal numerals
    assert Oracle.from_dict("f", {2: 5, "3": 0, "010": 1}).table == ((2, 5), (3, 0), (10, 1))
    for table in ({True: 1}, {-1: 0}, {1.0: 0}, {0: -1}, {0: False}, {0: 2.0}, {2: 5, "2": 6}, {"+2": 0}, {" 2": 0}):
        with pytest.raises(RealizabilityError):
            Oracle.from_dict("f", table)


def test_apply_requires_positive_fuel():
    with pytest.raises(RealizabilityError):
        apply(identity_code(), 0, EMPTY_ORACLE, fuel=0)


ENTRY_POINTS = {
    "apply": lambda e, phi, f, T: apply(e, 0, f),
    "realizes": lambda e, phi, f, T: realizes(e, phi, f),
    "djg_realizes": lambda e, phi, f, T: djg_realizes(e, phi, f, T),
    "preal_standard": lambda e, phi, f, T: preal_standard(e, phi, f, T),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("code", [-1, True, 1.0])
def test_codes_that_are_not_naturals_are_refused_before_any_step(entry, code, monkeypatch):
    # unchecked, -1 would reach isqrt through unpair, and apply would call it the zero code
    from nucforce import realizability

    def no_step(*args):
        raise AssertionError("the machine ran")

    monkeypatch.setattr(realizability, "_run", no_step)
    f0, _, T = _chain_poset()
    with pytest.raises(RealizabilityError, match=f"^code {code!r} is not a natural number$"):
        ENTRY_POINTS[entry](code, parse("0 = 0 /\\ 0 = 0"), f0, T)


def test_apply_refuses_an_input_that_is_not_a_natural():
    with pytest.raises(RealizabilityError, match="^input -1 is not a natural number$"):
        apply(identity_code(), -1, EMPTY_ORACLE)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 60), st.integers(0, 10), st.integers(5, 60))
def test_fuel_monotonicity(e, n, fuel):
    """A realized application stays realized with the same value when
    given more fuel; exhaustion can only turn into a definite verdict."""
    lo = apply(e, n, EMPTY_ORACLE, fuel=fuel)
    hi = apply(e, n, EMPTY_ORACLE, fuel=fuel + 200)
    if lo.realized:
        assert hi.realized and hi.value == lo.value
    if lo.verdict == REFUTED:
        assert hi.verdict == REFUTED


# FIX (\s.\x. CASE x 0 (\y. SUCC (s y))): the identity by recursion, whose
# successor waits on the recursive call, so input n nests n strict arguments
FIX_IDENTITY = encode(app("FIX", lam("s", lam("x", app("CASE", ("var", "x"), numt(0),
                                                      lam("y", app("SUCC", app(("var", "s"), ("var", "y")))))))))


def test_deeply_nested_strict_arguments_cost_fuel_not_stack():
    out = apply(FIX_IDENTITY, 1000, EMPTY_ORACLE, 200000)
    assert out.realized and out.value == 1000 and out.trace["steps"] == 30012
    # deeper still, the code runs until its fuel is spent
    assert apply(FIX_IDENTITY, 100000, EMPTY_ORACLE, 200000).verdict == EXHAUSTED


MACHINE_TERMS = st.recursive(
    st.one_of(st.sampled_from(["S", "K", "PAIR", "FST", "SND", "SUCC", "CASE", "FIX", "ORA", "HALT"]),
              st.builds(numt, st.integers(0, 12))),
    lambda inner: st.tuples(st.just("app"), inner, inner), max_leaves=8)
CANONICAL_CODES = [identity_code(), *(halting_code(k) for k in range(4)), mp_realizer(),
                   mp_realizer(halting_code(1), 0), mp_realizer(diverging_code(), 0), diverging_code(),
                   induction_realizer(), FIX_IDENTITY, encode("ORA")]
SMALL_ORACLES = [EMPTY_ORACLE, Oracle.from_dict("f", {0: 3, 1: 1, 2: 5}),
                 Oracle.from_dict("g", {k: k + 1 for k in range(8)})]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(0, 4095), st.sampled_from(CANONICAL_CODES), MACHINE_TERMS.map(encode)),
       st.integers(0, 7), st.sampled_from(SMALL_ORACLES), st.integers(1, 2000))
def test_machine_agrees_with_the_recursive_reference(e, n, f, fuel):
    """The one-loop machine and the recursive reference reach the same
    verdict, value and detail, charge the same steps and consult the
    same oracle points."""
    out = apply(e, n, f, fuel)
    got = {"verdict": out.verdict, "value": out.value, "detail": out.detail,
           "steps": out.trace.get("steps"), "consulted": out.trace["consulted"]}
    assert got == reference_apply(e, n, f, fuel)


def test_replay_is_deterministic():
    f = Oracle.from_dict("f", {0: 3, 1: 1})
    phi = parse("exists x. x = 2")
    a = realizes(pair(2, 0), phi, f).to_dict()
    b = realizes(pair(2, 0), phi, f).to_dict()
    assert a == b


# ------------------------------------------------------ halting surrogate

def test_step_halts_on_constant_code():
    assert step_halts(halting_code(7), 0, 20)


def test_step_halts_false_for_diverging_code():
    assert not step_halts(diverging_code(), 0, 80)


def test_step_halts_monotone_in_the_step_bound():
    codes = [halting_code(0), halting_code(9), identity_code(), encode("SUCC")]
    for e in codes:
        history = [step_halts(e, 1, w) for w in range(1, 40)]
        # once true, stays true
        assert history == sorted(history)


def test_halting_memo_is_bounded_and_an_evicted_entry_charges_the_same_fuel():
    from nucforce.realizability import _halts

    e, x, w = FIX_IDENTITY, 20, 1000
    want = [w + 1]
    assert reference_step_halts(e, x, w, want)
    first = [w + 1]
    assert step_halts(e, x, w, first)
    assert first == want and first[0] < w - 100
    bound = _halts.cache_info().maxsize
    for k in range(bound + 10):
        step_halts(0, k, 1)  # distinct entries, each stuck at once
    info = _halts.cache_info()
    assert info.currsize == bound
    again = [w + 1]
    assert step_halts(e, x, w, again)
    assert _halts.cache_info().misses == info.misses + 1  # evicted, so run again
    assert again == want


def test_step_halt_atom_bound_is_charged_to_the_fuel_budget():
    """A StepHalt bound the fuel cannot cover is exhausted before any step
    runs, however large; one it covers gets the reference's verdict."""
    cfg = Budgets(fuel=10)
    for w in (10, 2_000_000):
        phi = parse(f"StepHalt({diverging_code()}, 0, {w})")
        assert realizes(0, phi, EMPTY_ORACLE, cfg).verdict == EXHAUSTED
    for e in (diverging_code(), halting_code(0)):
        want = REALIZED if reference_step_halts(e, 0, 9, [cfg.fuel]) else REFUTED
        assert realizes(0, parse(f"StepHalt({e}, 0, 9)"), EMPTY_ORACLE, cfg).verdict == want


# -------------------------------------------------------------- budgets

def test_budget_validation():
    with pytest.raises(RealizabilityError):
        Budgets(fuel=0)
    with pytest.raises(RealizabilityError):
        Budgets(witness=-1)
    assert DEFAULT_BUDGETS.fuel > 0


# -------------------------------------------------------------- oracles

def test_oracle_extension_order():
    f0 = Oracle.from_dict("f0", {})
    f1 = Oracle.from_dict("f1", {2: 5})
    f2 = Oracle.from_dict("f2", {2: 5, 3: 0})
    g = Oracle.from_dict("g", {2: 6})
    assert f1.extends(f0) and f2.extends(f1) and f2.extends(f0)
    assert not f1.extends(f2) and not g.extends(f1)
    assert f1.domain == (2,) and f1.get(2) == 5 and f1.get(9) is None


def test_oracle_poset_rejects_duplicates():
    f = Oracle.from_dict("a", {1: 1})
    g = Oracle.from_dict("b", {1: 1})
    with pytest.raises(RealizabilityError):
        OraclePoset((f, g))


def test_oracle_poset_up_set():
    f0 = Oracle.from_dict("f0", {})
    f1 = Oracle.from_dict("f1", {2: 5})
    g = Oracle.from_dict("g", {3: 1})
    T = OraclePoset((f0, f1, g))
    assert [o.label for o in T.up(f0)] == ["f0", "f1", "g"]
    assert [o.label for o in T.up(f1)] == ["f1"]
    assert f1 in T and Oracle.from_dict("x", {9: 9}) not in T


def test_oracle_loaders(tmp_path):
    opath = tmp_path / "oracle.json"
    opath.write_text(json.dumps({"label": "f", "table": {"2": 5}}))
    f = load_oracle(str(opath))
    assert f.label == "f" and f.get(2) == 5

    ppath = tmp_path / "poset.json"
    ppath.write_text(json.dumps({
        "oracles": [{"label": "f0", "table": {}}, {"label": "f1", "table": {"2": 5}}],
        "edges": [[0, 1]],
    }))
    T = load_oracle_poset(str(ppath))
    assert len(T.oracles) == 2 and T.oracles[1].extends(T.oracles[0])

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "oracles": [{"table": {"1": 1}}, {"table": {"2": 2}}],
        "edges": [[0, 1]],
    }))
    with pytest.raises(RealizabilityError):
        load_oracle_poset(str(bad))


# ---------------------------------------------------------- arithmetic

def test_eval_term():
    from nucforce.formula import Monus, NumLit, Plus, Times, Var
    assert eval_term(Plus(NumLit(2), NumLit(3))) == 5
    assert eval_term(Times(NumLit(2), NumLit(3))) == 6
    assert eval_term(Monus(NumLit(2), NumLit(5))) == 0
    assert eval_term(Var("x"), {"x": 7}) == 7
    with pytest.raises(RealizabilityError):
        eval_term(Var("x"))


# ------------------------------------------------------ plain realizability

def test_true_atoms_are_realized_by_any_code():
    assert realizes(0, parse("0 = 0"), EMPTY_ORACLE).realized
    assert realizes(17, parse("2 * 3 = 6"), EMPTY_ORACLE).realized


def test_false_atoms_are_refuted():
    assert realizes(0, parse("0 = S(0)"), EMPTY_ORACLE).verdict == REFUTED


def test_falsum_has_no_realizers():
    assert realizes(0, parse("bot"), EMPTY_ORACLE).verdict == REFUTED


def test_conjunction_realizer_is_a_pair():
    phi = parse("0 = 0 /\\ 1 = 1")
    assert realizes(pair(0, 0), phi, EMPTY_ORACLE).realized
    bad = parse("0 = 0 /\\ 0 = 1")
    assert realizes(pair(0, 0), bad, EMPTY_ORACLE).verdict == REFUTED


def test_disjunction_realizer_carries_a_tag():
    phi = parse("0 = 0 \\/ bot")
    assert realizes(pair(0, 0), phi, EMPTY_ORACLE).realized
    assert realizes(pair(1, 0), phi, EMPTY_ORACLE).verdict == REFUTED
    assert realizes(pair(2, 0), phi, EMPTY_ORACLE).verdict == REFUTED


def test_existential_realizer_carries_its_witness():
    phi = parse("exists x. x = 2")
    assert realizes(pair(2, 0), phi, EMPTY_ORACLE).realized
    assert realizes(pair(3, 0), phi, EMPTY_ORACLE).verdict == REFUTED


def test_universal_realizer_is_applied_to_each_numeral():
    phi = parse("forall x. x + 0 = x")
    assert realizes(encode(app("K", numt(0))), phi, EMPTY_ORACLE).realized
    assert realizes(encode(app("K", numt(0))), parse("forall x. x = 1"), EMPTY_ORACLE).verdict == REFUTED


def test_vacuous_implication_is_realized():
    assert realizes(0, parse("bot -> bot"), EMPTY_ORACLE).realized


def test_implication_maps_antecedent_realizers():
    phi = parse("0 = 0 -> 1 = 1")
    assert realizes(identity_code(), phi, EMPTY_ORACLE).realized
    bad = parse("0 = 0 -> 0 = 1")
    assert realizes(identity_code(), bad, EMPTY_ORACLE).verdict == REFUTED


def test_open_or_abstract_formulas_are_rejected():
    with pytest.raises(RealizabilityError):
        realizes(0, parse("x = 0"), EMPTY_ORACLE)
    with pytest.raises(RealizabilityError):
        realizes(0, parse("R(0) -> R(0)"), EMPTY_ORACLE)


# -------------------------------------------------- canonical realizers

def test_mp_realizer_on_a_halting_instance():
    e, x = halting_code(0), 0
    inst = universal_instance(Sigma(1), e, x)
    phi = Imp(neg(neg(inst)), inst)
    out = realizes(mp_realizer(e, x), phi, EMPTY_ORACLE)
    assert out.realized, out.detail


def test_induction_realizer_on_a_simple_scheme():
    cfg = Budgets(fuel=20000, witness=16, universe=11, candidates=8)
    psi = parse("x + 0 = x")
    out = realizes(induction_realizer(), induction_axiom(psi, "x"), EMPTY_ORACLE, cfg)
    assert out.realized, out.detail


def test_induction_check_refutes_wrong_codes_once_the_scan_reaches_a_step_realizer():
    # Criterion 6's candidate bound 8 is below every realizer of the step
    # (S is 16, K 17), so its step clause ranges over nothing and K and the
    # identity pass too; from 17 on, the scan finds K and they are refuted
    cfg = Budgets(fuel=20000, witness=16, universe=11, candidates=17)
    axiom = induction_axiom(parse("x + 0 = x"), "x")
    want = {induction_realizer(): REALIZED, encode("K"): REFUTED, identity_code(): REFUTED}
    assert encode("K") == 17
    for code, verdict in want.items():
        assert VERDICT_OF[kleene_verdict(code, axiom, EMPTY_ORACLE, cfg)] == verdict, code
        assert realizes(code, axiom, EMPTY_ORACLE, cfg).verdict == verdict, code


# ------------------------------------------- extension-poset realizability

def _chain_poset():
    f0 = Oracle.from_dict("f0", {})
    f1 = Oracle.from_dict("f1", {0: 1, 1: 0})
    return f0, f1, OraclePoset((f0, f1))


def test_djg_requires_membership():
    f0, f1, T = _chain_poset()
    with pytest.raises(RealizabilityError):
        djg_realizes(0, parse("0 = 0"), Oracle.from_dict("x", {5: 5}), T)


def test_djg_on_singleton_frame_agrees_with_plain_realizes():
    sentences = [parse(s) for s in [
        "0 = 0", "0 = 1", "bot", "0 = 0 /\\ 1 = 1", "0 = 0 \\/ bot",
        "exists x. x = 1", "forall x. x + 0 = x", "0 = 0 -> 1 = 1",
        "bot -> bot", "~ 0 = 1",
    ]]
    cfg = Budgets(fuel=300, witness=8, universe=4, candidates=8)
    oracles = [EMPTY_ORACLE, Oracle.from_dict("g", {0: 2})]
    for f in oracles:
        T = OraclePoset((f,))
        for e in range(12):
            for phi in sentences:
                want = VERDICT_OF[kleene_verdict(e, phi, f, cfg)]
                assert realizes(e, phi, f, cfg).verdict == want, (e, phi)
                assert djg_realizes(e, phi, f, T, cfg).verdict == want, (e, phi)


def test_singleton_frame_matches_kleene_reference_on_applicable_codes():
    # every code below 16 decodes to the zero numeral, so applying it
    # fails at once; these codes apply, and so reach the consequent of
    # an implication and every instance of a universal
    sentences = [parse(s) for s in [
        "0 = 0 -> bot", "0 = 0 -> 0 = 0", "forall x. ~ x = 3", "forall x. x = x",
        "forall x. (x = 0 -> x = 0)", "~ ~ 0 = 0", "(0 = 0 -> 0 = 0) -> 0 = 0",
        "forall x. exists y. y = x",
    ]]
    codes = list(range(16, 27)) + [identity_code(), halting_code(0), diverging_code(),
                                   encode(app("K", "K")), encode(app("K", app("K", numt(0))))]
    cfg = Budgets(fuel=300, witness=8, universe=4, candidates=8)
    verdicts = set()
    for f in [EMPTY_ORACLE, Oracle.from_dict("g", {0: 2})]:
        T = OraclePoset((f,))
        for e in codes:
            for phi in sentences:
                want = VERDICT_OF[kleene_verdict(e, phi, f, cfg)]
                assert realizes(e, phi, f, cfg).verdict == want, (e, phi)
                assert djg_realizes(e, phi, f, T, cfg).verdict == want, (e, phi)
                verdicts.add(want)
    assert verdicts == {REALIZED, REFUTED, EXHAUSTED}


def test_djg_implication_quantifies_over_extensions():
    # ORA is only total on the top oracle, so a sentence forcing an
    # oracle call is exhausted/refuted lower down but fine at the top
    f0, f1, T = _chain_poset()
    phi = parse("0 = 0 -> exists x. x = 1")
    e = encode(app("K", app("PAIR", numt(1), numt(0))))
    assert djg_realizes(e, phi, f1, T).realized
    # at the root the checker must also survive the f1 node
    assert djg_realizes(e, phi, f0, T).realized


# frames of two, three and four members: a chain whose top answers ORA
# at 0, 1 and 2, a fork, and the diamond over that fork
_F0 = Oracle.from_dict("f0", {})
_G1, _G2 = Oracle.from_dict("g1", {0: 2}), Oracle.from_dict("g2", {1: 1})
REFERENCE_FRAMES = [(_F0, Oracle.from_dict("a", {0: 0, 1: 0, 2: 0})), (_F0, _G1, _G2),
                    (_F0, _G1, _G2, Oracle.from_dict("g12", {0: 2, 1: 1}))]
REFERENCE_STOCK = [parse(s) for s in [
    "0 = 0", "0 = 1", "bot", "0 = 0 /\\ 1 = 1", "0 = 0 \\/ bot", "exists x. x = 2",
    "forall x. x + 0 = x", "forall x. x = 1", "0 = 0 -> 1 = 1", "0 = 0 -> bot", "~ 0 = 1",
    "forall x. exists y. y = x", "forall x. exists y. y = 0", "~ ~ 0 = 0", "(0 = 0 -> 0 = 0) -> 0 = 0",
    "forall x. (x = 0 -> x = 0)", "(forall x. exists y. y = 0) -> forall x. exists y. y = 0",
    "~ forall x. exists y. y = 0",
]]
# codes below 16 decode to the zero numeral; ORA (25) and the codes built
# on it apply only where the oracle answers
REFERENCE_CODES = [0, 1, 2, 16, 17, 18, 19, 20, 21, encode("ORA"), identity_code(), halting_code(0),
                   diverging_code(), encode(app("K", "ORA")), encode(app("K", app("K", numt(0)))),
                   encode(lam("x", app("PAIR", app("ORA", ("var", "x")), numt(0)))), encode(app("K", "K"))]


def _frame_rows(reference, frames, sentences, codes, cfg, at_root=False):
    """Every (code, sentence, member) row of the frames, with the verdicts of
    `djg_realizes` and of the reference."""
    rows = []
    for frame in frames:
        T = OraclePoset(frame)
        for f in frame[:1] if at_root else frame:
            for e in codes:
                for phi in sentences:
                    got = djg_realizes(e, phi, f, T, cfg).verdict
                    rows.append((e, print_formula(phi), f.label, got, VERDICT_OF[reference(e, phi, f, frame, cfg)]))
    return rows


def test_multi_node_frames_match_the_frame_reference():
    cfg = Budgets(fuel=300, witness=8, universe=3, candidates=26)
    rows = _frame_rows(frame_verdict, REFERENCE_FRAMES, REFERENCE_STOCK, REFERENCE_CODES, cfg)
    assert len(rows) == 2754
    assert [r for r in rows if r[3] != r[4]] == []
    assert {r[3] for r in rows} == {REALIZED, REFUTED, EXHAUSTED}


def test_a_reference_checking_only_at_the_node_misses_the_extensions():
    # at the root of the chain no code realizes the antecedent, while ORA
    # (25) does at the top; the codes below 32 all fail on it there, so
    # a check at the root alone finds them vacuously realized
    def only_at_f(e, phi, f, oracles, cfg):
        return frame_verdict(e, phi, f, oracles, cfg, above=lambda g: [g])

    cfg = Budgets(fuel=400, witness=8, universe=3, candidates=26)
    phi = parse("(forall x. exists y. y = 0) -> forall x. exists y. y = 0")
    rows = _frame_rows(only_at_f, REFERENCE_FRAMES[:1], [phi], range(32), cfg, at_root=True)
    assert {(r[3], r[4]) for r in rows} == {(REFUTED, REALIZED)}
    rows = _frame_rows(frame_verdict, REFERENCE_FRAMES[:1], [phi], range(32), cfg, at_root=True)
    assert {(r[3], r[4]) for r in rows} == {(REFUTED, REFUTED)}


def test_check_assumption_a_on_an_extension_chain():
    _, _, T = _chain_poset()
    report = check_assumption_A(T, bound=8)
    assert report["passed"] is True
    assert all(p["witnessed"] for p in report["extension_pairs"])


def test_preal_standard_reduces_to_extension_clauses():
    f0, f1, T = _chain_poset()
    out = preal_standard(pair(1, 0), parse("exists x. x = 1"), f0, T)
    assert out.realized
    assert "reduction" in out.trace


def test_preal_standard_checks_agreement_once_per_poset_and_budgets(monkeypatch):
    from nucforce import realizability

    calls = []

    def counted(T, bound, cfg):
        calls.append(cfg)
        return check_assumption_A(T, bound=bound, cfg=cfg)

    monkeypatch.setattr(realizability, "check_assumption_A", counted)
    f0, f1, T = _chain_poset()
    phi = parse("exists x. x = 1")
    first = preal_standard(pair(1, 0), phi, f0, T)
    second = preal_standard(pair(1, 0), phi, f1, T)
    assert first.realized and second.realized
    assert len(calls) == 1
    preal_standard(pair(1, 0), phi, f0, T, Budgets(witness=8))
    assert len(calls) == 2


def test_preal_standard_raises_on_every_call_when_agreement_fails():
    # a small code reproduces f1 = {0: 0} without extending it
    T = OraclePoset((Oracle.from_dict("f0", {}), Oracle.from_dict("f1", {0: 0})))
    assert not check_assumption_A(T, bound=DEFAULT_BUDGETS.witness)["passed"]
    for _ in range(2):
        with pytest.raises(RealizabilityError, match="agreement fails"):
            preal_standard(pair(1, 0), parse("exists x. x = 1"), T.oracles[0], T)


@pytest.mark.parametrize("order", [(4, 8), (8, 4)])
def test_frame_memo_keeps_budgets_apart(order):
    # below 4 no code realizes the antecedent, so the implication holds
    # vacuously; below 8 code 6 = pair(3, 0) does, and code 0 cannot
    # be applied to it
    T = OraclePoset((EMPTY_ORACLE,))
    phi = parse("(exists x. x = 3) -> 0 = 0")
    want = {4: REALIZED, 8: REFUTED}
    for candidates in order:
        assert djg_realizes(0, phi, EMPTY_ORACLE, T, Budgets(candidates=candidates)).verdict == want[candidates]


def test_repeated_check_on_a_frame_scans_no_antecedent_again(monkeypatch):
    from nucforce import realizability

    calls = []
    status = realizability._status

    def counted(*args):
        calls.append(args[:2])
        return status(*args)

    monkeypatch.setattr(realizability, "_status", counted)
    T = OraclePoset((EMPTY_ORACLE,))
    phi = parse("(exists x. x = 3) -> 0 = 0")
    cfg = Budgets(candidates=8)
    first = djg_realizes(0, phi, EMPTY_ORACLE, T, cfg)
    scanned = len(calls)
    assert scanned > cfg.candidates
    again = djg_realizes(0, phi, EMPTY_ORACLE, T, cfg)
    assert again.to_dict() == first.to_dict()
    assert calls[scanned:] == [(0, phi)]


def _counted_applications(monkeypatch):
    """The (code, input, oracle, fuel) of every machine run the checker starts."""
    from nucforce import realizability

    calls = []
    code_apply = realizability._code_apply

    def counted(e, n, f, fuel):
        calls.append((e, n, f.label, fuel))
        return code_apply(e, n, f, fuel)

    monkeypatch.setattr(realizability, "_code_apply", counted)
    return calls


def test_repeated_check_on_a_frame_runs_no_application_again(monkeypatch):
    calls = _counted_applications(monkeypatch)
    T = OraclePoset((EMPTY_ORACLE,))
    # K I applied to each numeral gives I, which is then applied to every
    # realizer of each antecedent x = 0
    phi = parse("forall x. (x = 0 -> x = 0)")
    e, cfg = halting_code(identity_code()), Budgets(universe=4, candidates=8)
    first = djg_realizes(e, phi, EMPTY_ORACLE, T, cfg)
    assert first.realized and len(calls) == len(set(calls)) > cfg.universe
    applied = len(calls)
    again = djg_realizes(e, phi, EMPTY_ORACLE, T, cfg)
    assert again.to_dict() == first.to_dict()
    assert len(calls) == applied


@pytest.mark.parametrize("order", [(1, 300), (300, 1)])
@pytest.mark.parametrize("e, text", [
    # K 0 needs two steps on any input: its decode and the K step
    (halting_code(0), "forall x. 0 = 0"),
    # the StepHalt bound needs 6 units of fuel before any step
    (0, f"StepHalt({halting_code(0)}, 0, 5)"),
])
def test_frame_memo_keeps_fuel_apart(order, e, text):
    T = OraclePoset((EMPTY_ORACLE,))
    phi = parse(text)
    verdicts = {}
    for fuel in order:
        cfg = Budgets(fuel=fuel)
        verdicts[fuel] = djg_realizes(e, phi, EMPTY_ORACLE, T, cfg).verdict
        assert verdicts[fuel] == djg_realizes(e, phi, EMPTY_ORACLE, OraclePoset((EMPTY_ORACLE,)), cfg).verdict
    assert verdicts == {1: EXHAUSTED, 300: REALIZED}


def test_two_realizes_calls_share_nothing(monkeypatch):
    # each call checks on a one-point frame of its own, so the second
    # runs every application the first did
    calls = _counted_applications(monkeypatch)
    phi = parse("forall x. (x = 0 -> x = 0)")
    e, cfg = halting_code(identity_code()), Budgets(universe=4, candidates=8)
    first = realizes(e, phi, EMPTY_ORACLE, cfg)
    applied = list(calls)
    assert applied
    assert realizes(e, phi, EMPTY_ORACLE, cfg).to_dict() == first.to_dict()
    assert calls == applied + applied


def test_an_exhausted_instance_or_consequent_leaves_the_verdict_pending():
    """The application succeeds and returns the diverging code, whose own
    applications run out of fuel: an instance of the outer universal, and
    the consequent of the implication, are exhausted, not refuted."""
    e = halting_code(diverging_code())
    cfg = Budgets(fuel=300, universe=2, candidates=2)
    for m in range(cfg.universe):
        assert reference_apply(e, m, EMPTY_ORACLE, cfg.fuel)["value"] == diverging_code()
    for text in ("forall x. forall y. y = y", "0 = 0 -> forall y. y = y"):
        phi = parse(text)
        assert VERDICT_OF[kleene_verdict(e, phi, EMPTY_ORACLE, cfg)] == EXHAUSTED
        assert realizes(e, phi, EMPTY_ORACLE, cfg).verdict == EXHAUSTED, text


def test_an_exhausted_antecedent_candidate_leaves_the_implication_pending():
    """No candidate realizes the antecedent, but with 2 steps of fuel some
    run out trying, so the implication is not vacuously realized; with
    enough fuel every candidate is refuted and it is."""
    ante = parse("forall x. 0 = 1")
    phi = Imp(ante, parse("0 = 0"))
    for fuel, want in ((2, EXHAUSTED), (300, REALIZED)):
        cfg = Budgets(fuel=fuel, universe=2, candidates=32)
        scan = {VERDICT_OF[kleene_verdict(c, ante, EMPTY_ORACLE, cfg)] for c in range(cfg.candidates)}
        assert REALIZED not in scan and (EXHAUSTED in scan) == (want == EXHAUSTED)
        assert VERDICT_OF[kleene_verdict(0, phi, EMPTY_ORACLE, cfg)] == want
        assert realizes(0, phi, EMPTY_ORACLE, cfg).verdict == want


def _forked_frame():
    """A root f0 with two incompatible extensions, f1 and f2."""
    f0, f1, f2 = (Oracle.from_dict(label, table) for label, table in (("f0", {}), ("f1", {0: 1}), ("f2", {0: 0})))
    return f0, f1, f2, OraclePoset((f0, f1, f2))


def test_not_not_lift_scans_above_the_extensions_the_supplied_node_misses():
    # f1 covers f0 and itself; f2 is maximal, so its scan is Kleene
    # realizability relative to f2
    f0, f1, f2, T = _forked_frame()
    phi, r, cfg = parse("exists x. x = 1"), pair(1, 5), DEFAULT_BUDGETS
    first = next(c for c in range(cfg.candidates) if kleene_verdict(c, phi, f2, cfg) == "R")
    report = not_not_lift(phi, T, f1, r, f0, cfg)
    assert report["cofinal_witnesses"] == {"f0": {"node": "f1", "realizer": r}, "f1": {"node": "f1", "realizer": r},
                                           "f2": {"node": "f2", "realizer": first}}


def test_not_not_lift_refuses_when_an_extension_has_no_realizer():
    # the supplied code reads the oracle at 0, which only f1 answers with
    # 1; below the candidate bound nothing realizes phi at f2
    f0, f1, f2, T = _forked_frame()
    phi, cfg = parse("forall x. exists y. y = 1"), DEFAULT_BUDGETS
    r = encode(app("K", app("PAIR", app("ORA", numt(0)), numt(0))))
    assert kleene_verdict(r, phi, f1, cfg) == "R"
    assert all(kleene_verdict(c, phi, f2, cfg) != "R" for c in range(cfg.candidates))
    with pytest.raises(RealizabilityError, match="no extension of f2 realizes the formula"):
        not_not_lift(phi, T, f1, r, f0, cfg)


# ------------------------------------------------------------- the demo

def test_bounded_halting_oracle_contents():
    f = bounded_halting_oracle(8, 200)
    for e in range(8):
        got = f.get(e)
        assert got in (0, 1)
        assert got == int(step_halts(e, e, 200))


def test_default_candidates_are_distinct_small_codes():
    cands = default_candidates()
    assert len(cands) == len(set(cands))
    assert all(isinstance(c, int) and c >= 0 for c in cands)


def test_not_not_lift_produces_a_budget_relative_verdict():
    f0 = Oracle.from_dict("f0", {})
    f1 = Oracle.from_dict("f1", {0: 1})
    T = OraclePoset((f0, f1))
    phi = parse("exists x. x = 1")
    report = not_not_lift(phi, T, f1, pair(1, 0), f0)
    code = report["code"]
    assert report["verdict"] == REALIZED
    assert "budget" in report["caveat"]
    assert set(report["cofinal_witnesses"]) == {"f0", "f1"}
    # the returned code does realize the double negation at the target
    assert djg_realizes(code, neg(neg(phi)), f0, T).realized


def test_not_not_lift_rejects_a_non_realizer():
    f0 = Oracle.from_dict("f0", {})
    T = OraclePoset((f0,))
    with pytest.raises(RealizabilityError):
        not_not_lift(parse("exists x. x = 1"), T, f0, pair(2, 0), f0)


def test_separation_demo_reports_the_top_verdict_when_the_lift_is_refused(monkeypatch):
    from nucforce import realizability

    def refuse(*args):
        raise RealizabilityError("lift refused")

    monkeypatch.setattr(realizability, "not_not_lift", refuse)
    report = separation_demo(candidates=[])
    section = report["sections"]["iii"]
    assert section["green"] is False and report["all_green"] is False
    assert section["lift"] == {"error": "lift refused"}
    assert section["top_verdict"] == REALIZED
    # with 5 steps of fuel the top node's realizer runs out, so the
    # lift's own precondition refuses it
    monkeypatch.undo()
    section = separation_demo(Budgets(fuel=5, witness=64, universe=4, candidates=256), [])["sections"]["iii"]
    assert section["green"] is False and section["top_verdict"] == EXHAUSTED
    assert section["lift"]["error"].startswith("supplied code ")


def test_a_refutation_through_an_antecedent_scan_is_relative_to_the_candidate_bound():
    # below the demo's candidate bound no code realizes the disjunctive
    # DNE instance at either node, so code 0 passes as a realizer of its
    # negation, and the identity is refuted on the double negation that
    # the lift realizes
    e_div, e_halt = diverging_code(), halting_code(0)
    f0 = EMPTY_ORACLE
    chain = OraclePoset((f0, bounded_halting_oracle(64, DEMO_BUDGETS.fuel // 4, extra={e_div: 0, e_halt: 1})))
    disj = universal_instance(PiOrPi(1), e_div, e_div, e_halt, e_halt)
    target = Imp(neg(neg(disj)), disj)
    out = djg_realizes(identity_code(), neg(neg(target)), f0, chain, DEMO_BUDGETS)
    assert out.verdict == REFUTED
    assert out.detail == "consequent fails for realizer 0 at empty: falsum has no realizers"
    caveats = separation_demo()["header"]["caveats"]
    assert not any("absolute" in c.lower() for c in caveats)
    assert any("relative to the candidate bound" in c for c in caveats)


def test_separation_demo_decides_each_application_and_atom_once_per_frame(monkeypatch):
    # every machine run and atom check happens inside a `_status` call,
    # whose frame argument names the frame whose memos it fills
    from nucforce import realizability

    frames, apps, atoms = [], [], []
    status, code_apply, atom_true = realizability._status, realizability._code_apply, realizability._atom_true

    def in_frame(e, phi, f, T, cfg):
        frames.append(T)
        try:
            return status(e, phi, f, T, cfg)
        finally:
            frames.pop()

    def counted_apply(e, n, f, fuel):
        apps.append((id(frames[-1]), e, n, f.table, fuel))
        return code_apply(e, n, f, fuel)

    def counted_atom(phi, fuel):
        atoms.append((id(frames[-1]), phi, fuel))
        return atom_true(phi, fuel)

    monkeypatch.setattr(realizability, "_status", in_frame)
    monkeypatch.setattr(realizability, "_code_apply", counted_apply)
    monkeypatch.setattr(realizability, "_atom_true", counted_atom)
    report = separation_demo()
    assert report["all_green"] is True
    # the demo's two frames, the chain and the singleton, live through the
    # whole run, so no frame id is reused
    assert len({key[0] for key in apps}) == 2
    assert apps and len(apps) == len(set(apps))
    assert atoms and len(atoms) == len(set(atoms))


def test_separation_demo_section_i_is_not_green_without_an_instance():
    # with 2 steps no halting_code(k) halts on 0, so section (i) checks
    # nothing and must not claim the DNE realized
    section = separation_demo(Budgets(fuel=8, witness=8, universe=2, candidates=2))["sections"]["i"]
    assert section["instances"] == []
    assert section["green"] is False


def test_separation_demo_all_green():
    report = separation_demo()
    assert report["all_green"] is True
    assert set(report["sections"]) == {"i", "ii", "iii", "iv"}
    assert "budget" in json.dumps(report["header"]).lower()
