"""Acceptance gate: one test per release criterion.

Run with `pytest -v` to get one pass/fail line per criterion.  Every
test also enforces its wall-clock budget.
"""

import json
import os
import time
from itertools import product

from nucforce.algebra import FinPoset, upset_algebra
from nucforce.formula import (
    Imp,
    PiOrPi,
    Sigma,
    neg,
    parse,
    universal_instance,
)
from nucforce.hmodel import all_posets, builtin_corpus, run_suite, search_countermodel
from nucforce.nucleus import enumerate_nuclei
from nucforce.realizability import (
    Budgets,
    EMPTY_ORACLE,
    Oracle,
    OraclePoset,
    djg_realizes,
    halting_code,
    induction_axiom,
    induction_realizer,
    mp_realizer,
    preal_standard,
    realizes,
    separation_demo,
)
from nucforce import cli

from kleene_reference import VERDICT_OF, kleene_verdict

_CORPUS_CACHE = {}


def _default_corpus():
    if "default" not in _CORPUS_CACHE:
        _CORPUS_CACHE["default"] = builtin_corpus("builtin:default")
    return _CORPUS_CACHE["default"]


# ---------------------------------------------------------- criterion 1

def _laws_hold(h, t):
    for a in h.carrier:
        if not h.le(a, t[a]) or t[t[a]] != t[a]:
            return False
    for a, b in product(h.carrier, h.carrier):
        if t[h.meet[a][b]] != h.meet[t[a]][t[b]]:
            return False
    return True


def _oracle_tables(h):
    """Independent enumeration of all nucleus tables.

    Small carriers: scan every endomap against a local restatement of
    the laws.  Larger carriers: scan candidate fixed-point sets (they
    must contain top and be meet-closed) and rebuild the map as
    'least fixed point above'.
    """
    n = h.size
    if n <= 6:
        return {t for t in product(h.carrier, repeat=n) if _laws_hold(h, t)}
    rest = [a for a in h.carrier if a != h.top]
    tables = set()
    for bits in range(2 ** len(rest)):
        c = [h.top] + [rest[i] for i in range(len(rest)) if bits >> i & 1]
        cset = set(c)
        if any(h.meet[a][b] not in cset for a in c for b in c):
            continue
        t = []
        ok = True
        for a in h.carrier:
            least = h.meet_all(x for x in c if h.le(a, x))
            if least not in cset or not h.le(a, least):
                ok = False
                break
            t.append(least)
        if ok and _laws_hold(h, tuple(t)):
            tables.add(tuple(t))
    return tables


def test_criterion_1_nucleus_enumeration_completeness():
    start = time.time()
    posets = all_posets(4) + [FinPoset.chain(5), FinPoset.chain(6)]
    for p in posets:
        h = upset_algebra(p)
        got = {j.table for j in enumerate_nuclei(h)}
        assert got == _oracle_tables(h), f"mismatch on algebra of size {h.size}"
    assert len(enumerate_nuclei(upset_algebra(FinPoset.chain(1)))) == 2
    assert len(enumerate_nuclei(upset_algebra(FinPoset.chain(2)))) == 4
    assert time.time() - start < 60


# ------------------------------------------------------- criteria 2 and 3

# check counts and notes of each suite on builtin:default; the readers of
# `SUITE_READS` keep different scenes and frames here than on builtin:small
INTERNAL_SUITES = {
    "loplem": (226760, []),
    "jclosed": (247248, []),
    "monotonicity": (144558, []),
    "jinP-monotonicity": (35447, []),
    "constant-domain": (14410, []),
    "maximal-collapse": (14438, []),
    "kuroda-gg": (247248, []),
    "forcingL-equiv": (2914, ["restricted to algebras with <= 8 elements and domains <= 2, "
                              "and to the first 3 frames of each (57 scenes, 171 of 330 frames)"]),
    "literal-class": (1080, []),
    "iqc-soundness": (194689, []),
}

CLOSURE_SUITES = {
    "impfree-equiv": (4935, []),
    "emn": (16920, []),
    "mndneg": (8460, []),
    "trp-closure": (467460, []),
    "dense-dne": (15220, []),
    "trp-imp-mn": (15540, ["on frames whose members are all dense (120 scenes, 200 of 705 frames)"]),
    "trp-ladder": (6888, ["level-0 ladder on two-valued-atom models (48 scenes)"]),
    "sufcon": (1372, ["level-0 condition on dense frames and two-valued-atom models "
                        "(48 scenes, 80 of 282 frames)"]),
}


def test_criterion_2_internal_lemma_suites_on_default_corpus():
    start = time.time()
    corpus = _default_corpus()
    for suite, (checks, notes) in INTERNAL_SUITES.items():
        report = run_suite(suite, corpus)
        assert report.passed, (suite, report.failures[:3])
        assert (report.checks, report.notes) == (checks, notes), suite
    assert time.time() - start < 600


def test_criterion_3_closure_suites_on_default_corpus():
    start = time.time()
    corpus = _default_corpus()
    for suite, (checks, notes) in CLOSURE_SUITES.items():
        report = run_suite(suite, corpus)
        assert report.passed, (suite, report.failures[:3])
        assert (report.checks, report.notes) == (checks, notes), suite
    assert time.time() - start < 600


# ---------------------------------------------------------- criterion 4

def test_criterion_4_countermodel_exists_only_with_implication():
    start = time.time()
    corpus = _default_corpus()
    found = search_countermodel("equiv", corpus, formula_set="implicational")
    assert found["found"] is True, "expected an equivalence failure with implication"
    missed = search_countermodel("equiv", corpus, formula_set="imp-free")
    assert missed["found"] is False, missed["witness"]
    assert time.time() - start < 300


# ---------------------------------------------------------- criterion 5

SENTENCE_STOCK = [
    "0 = 0", "0 = 1", "bot", "1 + 1 = 2",
    "0 = 0 /\\ 1 = 1", "0 = 0 \\/ bot", "bot \\/ 1 = 1",
    "exists x. x = 2", "exists x. x + 1 = 3",
    "forall x. x + 0 = x", "forall x. x = 1",
    "0 = 0 -> 1 = 1", "0 = 0 -> bot", "bot -> bot", "~ 0 = 1",
    "exists x. (x = 1 /\\ x + 1 = 2)",
]


def test_criterion_5_realizability_oracle_equivalence():
    start = time.time()
    cfg = Budgets(fuel=300, witness=8, universe=4, candidates=8)
    oracles = [EMPTY_ORACLE, Oracle.from_dict("g1", {0: 2}),
               Oracle.from_dict("g2", {1: 1, 3: 0})]
    sentences = [parse(s) for s in SENTENCE_STOCK]

    # singleton frames: plain and extension semantics both give the
    # verdicts of the independent Kleene reference
    cases = 0
    for f in oracles:
        singleton = OraclePoset((f,))
        for e in range(11):
            for phi in sentences:
                want = VERDICT_OF[kleene_verdict(e, phi, f, cfg)]
                assert realizes(e, phi, f, cfg).verdict == want, (e, phi, f.label)
                assert djg_realizes(e, phi, f, singleton, cfg).verdict == want, (e, phi, f.label)
                cases += 1
    assert cases >= 500

    # standard-frame reduction agrees with the extension checker
    f0 = Oracle.from_dict("f0", {})
    f1 = Oracle.from_dict("f1", {0: 2, 1: 1})
    chain = OraclePoset((f0, f1))
    cases = 0
    for e in range(7):
        for phi in sentences:
            for f in (f0, f1):
                a = preal_standard(e, phi, f, chain, cfg)
                b = djg_realizes(e, phi, f, chain, cfg)
                assert a.verdict == b.verdict, (e, phi, f.label)
                cases += 1
                if cases >= 200:
                    break
    assert cases >= 200
    assert time.time() - start < 300


# ---------------------------------------------------------- criterion 6

INDUCTION_FAMILIES = [
    "x + 0 = x", "0 + x = x", "x + 1 = 1 + x", "x + 2 = 2 + x",
    "x * 1 = x", "1 * x = x", "x * 2 = x + x", "2 * x = x + x",
    "x -. x = 0", "x -. 0 = x", "0 -. x = 0", "x + x = 2 * x",
    "x * 0 = 0", "0 * x = 0", "S(x) = x + 1", "S(x) -. 1 = x",
    "x + 3 = 3 + x", "x * 3 = x + x + x", "(x + 1) -. 1 = x", "x + x + x = 3 * x",
]


def test_criterion_6_canonical_realizers_verified():
    start = time.time()
    cfg = Budgets(fuel=20000, witness=16, universe=11, candidates=8)
    for src in INDUCTION_FAMILIES:
        psi = parse(src)
        out = realizes(induction_realizer(psi), induction_axiom(psi, "x"),
                       EMPTY_ORACLE, cfg)
        assert out.realized, (src, out.verdict, out.detail)
    assert len(INDUCTION_FAMILIES) == 20

    checked = 0
    for v in range(10):
        for x in range(5):
            e = halting_code(v)
            inst = universal_instance(Sigma(1), e, x)
            phi = Imp(neg(neg(inst)), inst)
            out = realizes(mp_realizer(e, x), phi, EMPTY_ORACLE)
            assert out.realized, (v, x, out.detail)
            checked += 1
    assert checked == 50
    assert time.time() - start < 120


# ---------------------------------------------------------- criterion 7

def test_criterion_7_separation_demo_all_green():
    start = time.time()
    report = separation_demo()
    assert report["all_green"] is True, report["sections"]
    assert set(report["sections"]) == {"i", "ii", "iii", "iv"}
    caveats = " ".join(report["header"]["caveats"])
    assert "Realized verdicts are relative to the stated budgets" in caveats
    assert "relative to the candidate bound" in caveats
    assert report["header"]["budgets"] == {
        "fuel": 100000, "witness": 64, "universe": 64, "candidates": 256,
    }
    # the whole report, byte for byte (rewritten by tests/test_golden.py)
    with open(os.path.join(os.path.dirname(__file__), "golden", "separation_demo.json")) as fh:
        assert json.dumps(report, indent=1, sort_keys=True) + "\n" == fh.read()
    assert time.time() - start < 300


# ---------------------------------------------------------- criterion 8

DETERMINISM_COMMANDS = [
    ["--seed", "5", "nuclei", "--poset", "antichain:2"],
    ["--seed", "5", "check", "--suite", "dense-dne", "--corpus", "builtin:small"],
    ["--seed", "5", "search", "--target", "equiv", "--formulas", "implicational",
     "--corpus", "builtin:small"],
    ["--seed", "5", "demo", "separation"],
]


def test_criterion_8_reports_are_deterministic(tmp_path, capsys):
    for i, argv in enumerate(DETERMINISM_COMMANDS):
        a, b = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        cli.main(["--out", str(a)] + argv)
        capsys.readouterr()
        cli.main(["--out", str(b)] + argv)
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes(), argv
        json.loads(a.read_text())
