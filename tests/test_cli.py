"""Tests for the command-line front end."""

import contextlib
import copy
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucforce import cli
from nucforce.algebra import FinPoset
from nucforce.formula import MAX_NESTING, FormulaError
from nucforce.realizability import app, diverging_code, encode, numt, read_code
from nucforce.translate import TRANSLATIONS

from test_formula import NESTED
from test_realizability import FIX_IDENTITY


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_command(capsys):
    code, out, err = run(capsys, "algebra", "--poset", "chain:2")
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 3
    assert report["bottom"] == "{}" and len(report["meet"]) == 3
    assert "3 elements" in err


def test_algebra_rejects_bad_spec(capsys):
    code, _, err = run(capsys, "algebra", "--poset", "/does/not/exist.json")
    assert code == 2 and "error:" in err


def test_nuclei_command(capsys):
    code, out, _ = run(capsys, "nuclei", "--poset", "chain:1")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2
    assert {tuple(n["table"]) for n in report["nuclei"]} == {(0, 1), (1, 1)}


@pytest.mark.parametrize("spec", ["chain:x", "chain:-1", "antichain:-2", "chain:100", "chain:1000"])
def test_nuclei_rejects_malformed_poset_spec(capsys, monkeypatch, spec):
    # an oversized poset is refused before it is built
    def refuse(elements, covers):
        raise AssertionError(f"built a poset of {len(elements)} points")

    monkeypatch.setattr(FinPoset, "from_covers", staticmethod(refuse))
    code, out, err = run(capsys, "nuclei", "--poset", spec)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, spec", [("algebra", "antichain:11"), ("nuclei", "antichain:16")])
def test_oversized_algebra_is_refused_before_its_tables(capsys, command, spec):
    # 2,048 and 65,536 up-sets: counting them is cheap, while the three
    # operation tables would take seconds for 11 points and exhaust
    # memory for 16
    start = time.time()
    code, out, err = run(capsys, command, "--poset", spec)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "over the 1024-element algebra cap" in err
    assert time.time() - start < 2.0


def test_translate_golden(capsys):
    code, out, _ = run(capsys, "translate", "--style", "gg", "R(x) -> Q(x)")
    assert code == 0
    assert out.strip() == "[j]R(x) -> [j]Q(x)"
    code, out, _ = run(capsys, "translate", "--style", "forcing", "forall x. R(x)")
    assert out.strip() == "all k>=j in P. forall x. [k]R(x)"


def test_translate_out_writes_the_formula(capsys, tmp_path):
    target = tmp_path / "translation.txt"
    code, out, err = run(capsys, "--out", str(target), "translate", "--style", "forcing", "forall x. R(x)")
    assert code == 0 and out == "" and err.startswith("forcing translation")
    assert target.read_text() == "all k>=j in P. forall x. [k]R(x)\n"


def test_translate_bad_formula(capsys):
    code, _, err = run(capsys, "translate", "R(")
    assert code == 2 and "error:" in err


def test_check_suite_passes(capsys):
    code, out, _ = run(capsys, "check", "--suite", "loplem", "--corpus", "builtin:small")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["seed"] == 0


def test_check_unknown_suite(capsys):
    code, _, err = run(capsys, "check", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err and "loplem" in err


def test_search_finds_and_misses(capsys):
    code, out, _ = run(capsys, "search", "--target", "equiv",
                       "--formulas", "implicational", "--corpus", "builtin:small")
    assert code == 0 and json.loads(out)["found"] is True
    code, out, _ = run(capsys, "search", "--target", "equiv",
                       "--formulas", "imp-free", "--corpus", "builtin:small")
    assert code == 1 and json.loads(out)["found"] is False


def test_search_unknown_target(capsys):
    code, _, err = run(capsys, "search", "--target", "nope")
    assert code == 2 and "unknown target" in err


def test_parse_code_accepts_numbers_and_terms():
    assert read_code("42") == 42
    assert read_code("(K 5)") == encode(app("K", numt(5)))
    assert read_code("S K K") == encode(app("S", "K", "K"))
    with pytest.raises(FormulaError):
        read_code("K x")
    with pytest.raises(FormulaError):
        read_code("(K 5")


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _oracle_file(tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({"label": "f", "table": {}}))
    return str(path)


def _deep_json(tmp_path, name):
    """A file of 100,000 nested brackets, deeper than the JSON decoder recurses."""
    path = tmp_path / name
    path.write_text("[" * 100000 + "]" * 100000)
    return str(path)


def _raw(tmp_path, name, data: bytes):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


# a 5,000-digit integer, more digits than Python converts by default
LONG_INT = b"[" + b"9" * 5000 + b"]"


def test_realize_verdict_exit_codes(capsys, tmp_path):
    oracle = _oracle_file(tmp_path)
    code, out, _ = run(capsys, "realize", "--code", "0", "--formula", "0 = 0",
                       "--oracle", oracle)
    assert code == 0 and json.loads(out)["verdict"] == "realized"
    code, out, _ = run(capsys, "realize", "--code", "0", "--formula", "0 = 1",
                       "--oracle", oracle)
    assert code == 1 and json.loads(out)["verdict"] == "refuted"
    code, out, _ = run(capsys, "realize", "--code", str(diverging_code()),
                       "--formula", "forall x. x + 0 = x", "--oracle", oracle,
                       "--fuel", "200")
    assert code == 3 and json.loads(out)["verdict"] == "exhausted"
    # an oracle file is {"label", "table"} or a bare table, which may
    # carry a label; both forms of the oracle 0 -> 1 get the same verdict
    verdicts = []
    for doc in ({"label": "f", "table": {}}, {"table": {"0": 1}}, {"label": "f", "0": 1}):
        code, out, _ = run(capsys, "realize", "--code", "(K (PAIR (ORA 0) 0))",
                           "--formula", "forall x. exists y. y = 1",
                           "--oracle", _write(tmp_path, "consulted.json", doc))
        verdicts.append((code, json.loads(out)["verdict"]))
    assert verdicts == [(1, "refuted"), (0, "realized"), (0, "realized")]


def test_realize_charges_a_step_halt_bound_to_the_fuel(capsys, tmp_path):
    # running two million steps takes seconds; a bound above the fuel is
    # exhausted before any step runs
    start = time.time()
    code, out, err = run(capsys, "realize", "--code", "0", "--fuel", "10", "--formula",
                         f"StepHalt({diverging_code()}, 0, 2000000)", "--oracle", _oracle_file(tmp_path))
    assert time.time() - start < 1.0
    assert code == 3 and json.loads(out)["verdict"] == "exhausted" and err.startswith("exhausted")


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_formulas_at_the_nesting_cap_translate_print_and_realize(capsys, tmp_path, shape):
    oracle = _oracle_file(tmp_path)
    text = NESTED[shape](MAX_NESTING)
    for style in sorted(TRANSLATIONS):
        assert run(capsys, "translate", "--style", style, text)[0] == 0
    code, out, _ = run(capsys, "realize", "--code", "(K 0)", "--formula", text, "--oracle", oracle)
    assert code in (0, 1, 3) and json.loads(out)["formula"]
    code, out, err = run(capsys, "translate", NESTED[shape](MAX_NESTING + 1))
    assert code == 2 and out == "" and f"nesting deeper than {MAX_NESTING} levels" in err


# One code term per way to nest, k levels deep: brackets nest in the
# text, applications in the term.
NESTED_CODES = {
    "brackets": lambda k: "(" * k + "K" + ")" * k,
    "arguments": lambda k: "(K " * k + "0" + ")" * k,
    "applications": lambda k: "SUCC " + "S " * k,
}


@pytest.mark.parametrize("shape", sorted(NESTED_CODES))
def test_code_terms_at_the_nesting_cap_realize(capsys, tmp_path, shape):
    oracle = _oracle_file(tmp_path)
    code, out, _ = run(capsys, "realize", "--code", NESTED_CODES[shape](MAX_NESTING),
                       "--formula", "forall x. x = x", "--oracle", oracle)
    assert code in (0, 1) and json.loads(out)["verdict"] in ("realized", "refuted")
    code, out, err = run(capsys, "realize", "--code", NESTED_CODES[shape](MAX_NESTING + 1),
                         "--formula", "0 = 0", "--oracle", oracle)
    assert code == 2 and out == "" and f"nests deeper than {MAX_NESTING} levels" in err


def test_realize_runs_a_deeply_nested_code(capsys, tmp_path):
    code, out, err = run(capsys, "realize", "--code", f"K ({FIX_IDENTITY} 1000)", "--formula", "forall x. 0 = 0",
                         "--universe", "1", "--fuel", "200000", "--oracle", _oracle_file(tmp_path))
    assert code == 0 and json.loads(out)["verdict"] == "realized"
    assert err.startswith("realized")


def test_realize_refutes_with_a_witness_too_long_to_print(capsys, tmp_path):
    # 15 nested PAIRs build a witness of 36,931 bits, more digits than
    # Python converts to text; the detail names its bit length instead
    term = "9"
    for _ in range(15):
        term = f"(PAIR {term} 0)"
    code, out, err = run(capsys, "realize", "--code", f"K {term}", "--formula", "forall x. exists y. y = 1",
                         "--universe", "1", "--oracle", _oracle_file(tmp_path))
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "refuted"
    assert "witness <numeral of 36931 bits>: atom <numeral of 36931 bits> = 1 is false" in report["detail"]
    assert err.startswith("refuted") and "Traceback" not in err


def test_realize_with_frame(capsys, tmp_path):
    oracle = _oracle_file(tmp_path)
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({
        "oracles": [{"label": "f", "table": {}}, {"label": "g", "table": {"0": 1}}],
    }))
    code, out, _ = run(capsys, "realize", "--code", "(K 0)", "--formula",
                       "0 = 0 -> 0 = 0", "--oracle", oracle, "--frame", str(frame))
    assert code == 0 and json.loads(out)["verdict"] == "realized"


MALFORMED_INPUTS = {
    "oracle-list": lambda tmp: ["realize", "--code", "0", "--formula", "0 = 0",
                                "--oracle", _write(tmp, "o.json", [[0, 1]])],
    "frame-without-oracles": lambda tmp: ["realize", "--code", "0", "--formula", "0 = 0",
                                          "--oracle", _oracle_file(tmp),
                                          "--frame", _write(tmp, "f.json", {"edges": []})],
    "frame-edge-out-of-range": lambda tmp: ["realize", "--code", "0", "--formula", "0 = 0",
                                            "--oracle", _oracle_file(tmp),
                                            "--frame", _write(tmp, "f.json", {
                                                "oracles": [{"table": {}}], "edges": [[0, 3]]})],
    "oracle-table-not-integers": lambda tmp: ["realize", "--code", "0", "--formula", "0 = 0",
                                              "--oracle", _write(tmp, "o.json", {"table": {"0": "x"}})],
    "open-code-term": lambda tmp: ["realize", "--code", "(", "--formula", "0 = 0",
                                   "--oracle", _oracle_file(tmp)],
    "formula-nested-3000-deep": lambda tmp: ["translate", "~" * 3000 + "bot"],
    "code-nested-3000-deep": lambda tmp: ["realize", "--code", "(" * 3000 + "K" + ")" * 3000, "--formula", "0 = 0",
                                          "--oracle", _oracle_file(tmp)],
    "code-superscript-digit": lambda tmp: ["realize", "--code", "\u00b2", "--formula", "0 = 0",
                                           "--oracle", _oracle_file(tmp)],
    "code-numeral-over-4300-digits": lambda tmp: ["realize", "--code", "9" * 5000, "--formula", "0 = 0",
                                                  "--oracle", _oracle_file(tmp)],
    "code-term-over-4300-digits": lambda tmp: ["realize", "--code", "K " * 4000, "--formula", "0 = 0",
                                               "--oracle", _oracle_file(tmp)],
    "formula-numeral-over-4300-digits": lambda tmp: ["realize", "--code", "0", "--formula", "0 = " + "9" * 5000,
                                                     "--oracle", _oracle_file(tmp)],
    "non-integer-atom": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": 1, "atoms": {"R": ["high"]}})],
    "non-integer-domain": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": "x", "atoms": {"R": [0]}})],
    "atoms-not-an-object": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": 1, "atoms": [1]})],
    "nucleus-spec-superscript-digit": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": 1, "atoms": {}, "frames": [["\u00b2"]]})],
    "float-domain": lambda tmp: ["check", "--suite", "jclosed", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": 2.7, "atoms": {"R": [0, 1], "Q": [1, 1]}})],
    "bool-domain": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": True, "atoms": {"R": [0]}})],
    "bool-atom-entry": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": 1, "atoms": {"R": [True]}})],
    "float-atom-entry": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": 1, "atoms": {"R": [1.0]}})],
    "domain-over-cap": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": 1000000, "atoms": {}})],
    "atom-table-not-total": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": 3, "atoms": {"R": [1]}})],
    "atom-table-ragged": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": 2, "atoms": {"S": [[0, 1], [1]]}})],
    "poset-file-over-cap": lambda tmp: ["nuclei", "--poset", _write(tmp, "p.json", {
        "elements": [f"q{i}" for i in range(1000)], "covers": [[f"q{i}", f"q{i + 1}"] for i in range(999)]})],
    "poset-elements-not-a-list": lambda tmp: ["nuclei", "--poset", _write(tmp, "p.json", {
        "elements": 5, "covers": []})],
    "poset-covers-not-a-list": lambda tmp: ["nuclei", "--poset", _write(tmp, "p.json", {
        "elements": ["a"], "covers": 5})],
    "poset-repeated-element": lambda tmp: ["nuclei", "--poset", _write(tmp, "p.json", {
        "elements": ["a", "a", "c"], "covers": [["a", "c"]]})],
    "candidates-not-integers": lambda tmp: ["demo", "separation", "--candidates", _write(tmp, "c.json", ["x"])],
    "candidates-float-and-bool": lambda tmp: ["demo", "separation", "--candidates", _write(tmp, "c.json", [1.5, True])],
    "candidates-not-a-list": lambda tmp: ["demo", "separation", "--candidates", _write(tmp, "c.json", {"0": 1})],
    "model-poset-elements-a-string": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": "ab", "covers": ["ab"]}, "domain_size": 1, "atoms": {}})],
    "poset-spec-a-directory": lambda tmp: ["nuclei", "--poset", str(tmp)],
    "model-poset-over-cap": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": [f"q{i}" for i in range(1000)], "covers": [[f"q{i}", f"q{i + 1}"] for i in range(999)]},
        "domain_size": 1, "atoms": {}})],
    "poset-nested-100000-deep": lambda tmp: ["nuclei", "--poset", _deep_json(tmp, "p.json")],
    "model-nested-100000-deep": lambda tmp: ["check", "--suite", "loplem", "--corpus", _deep_json(tmp, "m.json")],
    "oracle-nested-100000-deep": lambda tmp: ["realize", "--code", "0", "--formula", "0 = 0",
                                              "--oracle", _deep_json(tmp, "o.json")],
    "frame-nested-100000-deep": lambda tmp: ["realize", "--code", "0", "--formula", "0 = 0",
                                             "--oracle", _oracle_file(tmp), "--frame", _deep_json(tmp, "f.json")],
    "candidates-nested-100000-deep": lambda tmp: ["demo", "separation", "--candidates", _deep_json(tmp, "c.json")],
    "poset-integer-5000-digits": lambda tmp: ["nuclei", "--poset", _raw(tmp, "p.json", LONG_INT)],
    "model-integer-5000-digits": lambda tmp: ["check", "--suite", "loplem", "--corpus", _raw(tmp, "m.json", LONG_INT)],
    "oracle-integer-5000-digits": lambda tmp: ["realize", "--code", "0", "--formula", "0 = 0",
                                               "--oracle", _raw(tmp, "o.json", LONG_INT)],
    "frame-integer-5000-digits": lambda tmp: ["realize", "--code", "0", "--formula", "0 = 0",
                                              "--oracle", _oracle_file(tmp), "--frame", _raw(tmp, "f.json", LONG_INT)],
    "candidates-integer-5000-digits": lambda tmp: ["demo", "separation", "--candidates",
                                                   _raw(tmp, "c.json", LONG_INT)],
    "poset-not-text": lambda tmp: ["nuclei", "--poset", _raw(tmp, "p.json", b"\xff\xfe{}")],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_files_exit_2(capsys, tmp_path, case):
    code, out, err = run(capsys, *MALFORMED_INPUTS[case](tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _balanced_code(leaves):
    """A balanced application tree of S leaves: 4,096 leaves take 16,381
    characters, and their code has about 9,900 decimal digits."""
    if leaves == 1:
        return "S"
    half = _balanced_code(leaves // 2)
    return f"({half} {half})"


def test_model_file_without_a_relation_a_suite_reads_exits_2(capsys, tmp_path):
    model = _write(tmp_path, "m.json", {"poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                                        "domain_size": 2, "atoms": {"R": [0, 2]}})
    code, out, err = run(capsys, "check", "--suite", "iqc-soundness", "--corpus", model)
    assert (code, out, err) == (2, "", "error: relation Q is not declared in the model\n")


def test_code_term_too_long_to_print_exits_2(capsys, tmp_path):
    text = _balanced_code(4096)
    assert len(text) == 16381
    code, out, err = run(capsys, "realize", "--code", text, "--formula", "0 = 0", "--oracle", _oracle_file(tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: code term is too long: its code has more digits than Python prints\n"


@pytest.mark.parametrize("atoms, checks", [
    ({"R": [0, 2], "Q": [2, 2]}, {"trp-ladder": 28, "sufcon": 14}),  # every atom at bottom or top
    ({"R": [0, 1], "Q": [2, 2]}, {"trp-ladder": 0, "sufcon": 0}),
])
def test_two_valued_suites_keep_a_model_file_whose_atoms_are_two_valued(capsys, tmp_path, atoms, checks):
    model = _write(tmp_path, "m.json", {"poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                                        "domain_size": 2, "atoms": atoms})
    for suite, count in checks.items():
        code, out, _ = run(capsys, "check", "--suite", suite, "--corpus", model)
        report = json.loads(out)
        assert code == 0 and report["passed"] and report["checks"] == count
        assert report["notes"][0].endswith(f"({int(count > 0)} scenes)")


# Oracle and oracle-poset files that `realize` refuses, each with one
# error line that names the file: oracle keys are decimal numerals that
# name distinct naturals, and values and poset edges are JSON integers
# >= 0, not booleans, floats or strings.
REFUSED_ORACLE_FILES = {
    "oracle-negative-value": ("--oracle", {"0": -5}),
    "oracle-float-value": ("--oracle", {"0": 1.5}),
    "oracle-bool-value": ("--oracle", {"0": True}),
    "oracle-numeral-value": ("--oracle", {"0": "3"}),
    "oracle-negative-key": ("--oracle", {"label": "f", "table": {"-1": 0}}),
    "oracle-float-key": ("--oracle", {"table": {"1.5": 0}}),
    "oracle-non-ascii-digit-key": ("--oracle", {"\u0663": 0}),
    "oracle-keys-naming-one-number": ("--oracle", {"1": 1, "01": 2}),
    "oracle-key-over-4300-digits": ("--oracle", {"9" * 5000: 0}),
    "frame-negative-value": ("--frame", {"oracles": [{"table": {}}, {"table": {"0": -1}}]}),
    "frame-keys-naming-one-number": ("--frame", {"oracles": [{"table": {"2": 0, "002": 0}}]}),
    "frame-repeated-oracle": ("--frame", {"oracles": [{"table": {"2": 0}}, {"label": "g", "table": {"02": 0}}]}),
    "frame-bool-edge": ("--frame", {"oracles": [{"table": {}}, {"table": {"0": 1}}], "edges": [[False, True]]}),
    "frame-edge-not-an-extension": ("--frame", {"oracles": [{"table": {}}, {"table": {"0": 1}}], "edges": [[1, 0]]}),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ORACLE_FILES))
def test_refused_oracle_files_exit_2_naming_the_file(capsys, tmp_path, case):
    flag, doc = REFUSED_ORACLE_FILES[case]
    path = _write(tmp_path, "in.json", doc)
    files = ["--oracle", path] if flag == "--oracle" else ["--oracle", _oracle_file(tmp_path), "--frame", path]
    code, out, err = run(capsys, "realize", "--code", "K (FST (ORA 0))", "--formula", "forall x. exists y. y = 0",
                         *files)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def _frame_model(tmp_path, spec):
    """A model file on the 2-point antichain, whose algebra has 4 elements
    and 4 nuclei, with the one frame [spec]."""
    return _write(tmp_path, "m.json", {"poset": {"elements": ["p0", "p1"], "covers": []}, "domain_size": 1,
                                       "atoms": {"R": [3], "Q": [3]}, "frames": [[spec]]})


def _realize_with(tmp_path, *flags):
    return ["realize", "--code", "0", "--formula", "0 = 0", "--oracle", _oracle_file(tmp_path), *flags]


# Every place a number is read from text: the command that reads the
# numeral n there, and a check on its output when n is "3".
NUMERAL_SITES = {
    "formula": (lambda tmp, n: ["translate", f"R(x) /\\ 0 = {n}"], lambda out: out.endswith("0 = 3\n")),
    "code": (lambda tmp, n: ["realize", "--code", n, "--formula", "0 = 0", "--oracle", _oracle_file(tmp)],
             lambda out: json.loads(out)["trace"]["code"] == 3),
    "code-term": (lambda tmp, n: ["realize", "--code", f"K {n}", "--formula", "0 = 0", "--oracle", _oracle_file(tmp)],
                  lambda out: json.loads(out)["trace"]["code"] == encode(app("K", numt(3)))),
    "oracle-key": (lambda tmp, n: ["realize", "--code", "K (FST (ORA 3))", "--formula", "forall x. exists y. y = 0",
                                   "--oracle", _write(tmp, "o.json", {n: 0})],
                   lambda out: json.loads(out)["verdict"] == "realized"),
    "nucleus-index": (lambda tmp, n: ["check", "--suite", "impfree-equiv", "--corpus", _frame_model(tmp, n)],
                      lambda out: json.loads(out)["passed"]),
    "closed-nucleus": (lambda tmp, n: ["check", "--suite", "impfree-equiv",
                                       "--corpus", _frame_model(tmp, f"closed:{n}")],
                       lambda out: json.loads(out)["passed"]),
    "open-nucleus": (lambda tmp, n: ["check", "--suite", "impfree-equiv", "--corpus", _frame_model(tmp, f"open:{n}")],
                     lambda out: json.loads(out)["passed"]),
    "chain": (lambda tmp, n: ["algebra", "--poset", f"chain:{n}"], lambda out: json.loads(out)["size"] == 4),
    "antichain": (lambda tmp, n: ["algebra", "--poset", f"antichain:{n}"], lambda out: json.loads(out)["size"] == 8),
    "seed": (lambda tmp, n: ["--seed", n, "algebra", "--poset", "chain:1"], lambda out: json.loads(out)["seed"] == 3),
    "fuel": (lambda tmp, n: _realize_with(tmp, "--fuel", n), lambda out: json.loads(out)["budgets"]["fuel"] == 3),
    "universe": (lambda tmp, n: _realize_with(tmp, "--universe", n),
                 lambda out: json.loads(out)["budgets"]["universe"] == 3),
    "candidates": (lambda tmp, n: _realize_with(tmp, "--candidates", n),
                   lambda out: json.loads(out)["budgets"]["candidates"] == 3),
    "budget-fuel": (lambda tmp, n: ["demo", "separation", "--budget-fuel", n],
                    lambda out: json.loads(out)["header"]["budgets"]["fuel"] == 3),
    "demo-universe": (lambda tmp, n: ["demo", "separation", "--universe", n],
                      lambda out: json.loads(out)["header"]["budgets"]["universe"] == 3),
    "candidate-bound": (lambda tmp, n: ["demo", "separation", "--candidate-bound", n],
                        lambda out: json.loads(out)["header"]["budgets"]["candidates"] == 3),
}
# In a formula or a code term a space only separates tokens, so " 3"
# there is the numeral 3.
NUMERAL_CASES = [(site, n) for site in sorted(NUMERAL_SITES) for n in ["3", "\u0663", "+3", " 3", "1_0"]
                 if not (n == " 3" and site in ("formula", "code-term"))]


@pytest.mark.parametrize("site, numeral", NUMERAL_CASES)
def test_every_numeral_site_reads_ascii_digits_only(capsys, tmp_path, site, numeral):
    argv, reads_three = NUMERAL_SITES[site]
    try:
        code = cli.main(argv(tmp_path, numeral))
    except SystemExit as exc:  # argparse refuses an option's value
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if numeral == "3":
        assert code != 2 and reads_three(out), err
    else:
        assert (code, out) == (2, "") and "error: " in err


# A file that repeats a key within one JSON object, and a candidates
# list with a negative code, each refused with one error line naming the
# file.  Before, the last of two equal keys won: the oracle below read
# 7 -> 0 and the code realized its formula.
REFUSED_FILES = {
    "oracle-table-repeated-key": (
        b'{"label": "f", "table": {"7": 1, "7": 0}}', "key '7' is repeated in one object",
        lambda path: ["realize", "--code", "K (FST (ORA 7))", "--formula", "forall x. exists y. y = 0",
                      "--oracle", path]),
    "model-atoms-repeated-relation": (
        b'{"poset": {"elements": ["a", "b"], "covers": [["a", "b"]]}, "domain_size": 2,'
        b' "atoms": {"R": [0, 2], "Q": [2, 2], "R": [2, 2]}}', "key 'R' is repeated in one object",
        lambda path: ["check", "--suite", "loplem", "--corpus", path]),
    "candidates-negative-code": (
        b"[-1, 17]", "candidates must be a JSON list of codes, integers >= 0",
        lambda path: ["demo", "separation", "--candidates", path]),
}


@pytest.mark.parametrize("case", sorted(REFUSED_FILES))
def test_refused_files_exit_2_naming_the_file(capsys, tmp_path, case):
    text, reason, argv = REFUSED_FILES[case]
    path = _raw(tmp_path, "in.json", text)
    code, out, err = run(capsys, *argv(path))
    assert (code, out, err) == (2, "", f"error: {path}: {reason}\n")


def test_notes_count_the_frames_of_a_model_file_a_suite_leaves_out(capsys, tmp_path):
    """`top` is not dense, so trp-imp-mn reads the frame [id] and leaves
    out [id, top]; jclosed reads both and has nothing to note."""
    model = _antichain_model(tmp_path, 2)
    code, out, _ = run(capsys, "check", "--suite", "trp-imp-mn", "--corpus", model)
    report = json.loads(out)
    assert code == 0 and report["passed"] and report["checks"] > 0
    assert report["notes"][0].endswith("(1 scenes, 1 of 2 frames)")
    code, out, _ = run(capsys, "check", "--suite", "jclosed", "--corpus", model)
    report = json.loads(out)
    assert code == 0 and report["passed"] and report["notes"] == []


def _antichain_model(tmp_path, points):
    """A model file on an antichain of the given points, which has 2^points
    nuclei, with the identity frame and the frame {id, top}."""
    return _write(tmp_path, "m.json", {"poset": {"elements": [f"p{i}" for i in range(points)], "covers": []},
                                       "domain_size": 1, "atoms": {"R": [3], "Q": [2 ** points - 1]},
                                       "frames": [["id"], ["id", "top"]]})


def test_a_model_with_as_many_nuclei_as_the_scene_basis_bound_reads_them_all(capsys, tmp_path):
    """A 5-point antichain has 2^5 = 32 nuclei: a suite that reads the
    scene basis checks every one of them, one that reads only the frames
    checks the frames."""
    model = _antichain_model(tmp_path, 5)
    for suite, checks in {"jclosed": 32 * 2 * 16, "impfree-equiv": 2 * 7}.items():
        code, out, _ = run(capsys, "check", "--suite", suite, "--corpus", model)
        report = json.loads(out)
        assert code == 0 and report["passed"] and (report["checks"], report["notes"]) == (checks, []), suite


def test_a_model_with_more_nuclei_than_the_scene_basis_bound_is_refused(capsys, tmp_path):
    """A 6-point antichain has 64 nuclei: a suite that reads the scene
    basis refuses the model rather than read part of it, and one that
    reads only the frames still runs."""
    model = _antichain_model(tmp_path, 6)
    for suite in ("jclosed", "trp-closure"):
        code, out, err = run(capsys, "check", "--suite", suite, "--corpus", model)
        assert (code, out) == (2, ""), suite
        assert err == f"error: {model}: 64 nuclei exceed the scene basis bound of 32\n", suite
    code, out, _ = run(capsys, "check", "--suite", "impfree-equiv", "--corpus", model)
    report = json.loads(out)
    assert code == 0 and report["passed"] and report["checks"] == 2 * 7


# Valid input files and the command that reads each, given the file and
# a valid oracle file; the property test below mutates them and runs the
# command on the result.
REALIZE = ["realize", "--code", "(K 0)", "--formula", "0 = 0 -> 0 = 0"]
VALID_FILES = {
    "model": ({"poset": {"elements": ["a", "b"], "covers": [["a", "b"]]}, "domain_size": 2,
               "atoms": {"R": [1, 2], "Q": [0, 2]}, "frames": [["id"], ["id", "notnot"]]},
              lambda path, oracle: ["check", "--suite", "loplem", "--corpus", path]),
    "oracle": ({"label": "f", "table": {"0": 1, "2": 5}},
               lambda path, oracle: REALIZE + ["--oracle", path]),
    "poset": ({"elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]},
              lambda path, oracle: ["nuclei", "--poset", path]),
    "oracle-poset": ({"oracles": [{"label": "f", "table": {}}, {"label": "g", "table": {"0": 1}}],
                      "edges": [[0, 1]]},
                     lambda path, oracle: REALIZE + ["--oracle", oracle, "--frame", path]),
}


@pytest.mark.parametrize("loader", sorted(VALID_FILES) + ["candidates"])
def test_a_truncated_json_file_exits_2_naming_its_path(capsys, tmp_path, loader):
    path = _raw(tmp_path, "t.json", b'{"poset": ')
    argv = (["demo", "separation", "--candidates", path] if loader == "candidates"
            else VALID_FILES[loader][1](path, _oracle_file(tmp_path)))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: Expecting value: line 1 column 11 (char 10)\n"


OTHER_TYPES = [None, True, "x", 1.5, [], {}, [[0, 1]], {"0": 1}, ["a", "b", "c"]]
OUT_OF_RANGE = [-7, -1, 0, 3, 999]


def _json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, sub in items:
        yield from _json_paths(sub, prefix + (key,))


def _swapped(node):
    """A list becomes an object keyed by index, an object the list of
    its values, and a scalar a one-element list."""
    if isinstance(node, list):
        return {str(i): v for i, v in enumerate(node)}
    if isinstance(node, dict):
        return list(node.values())
    return [node]


@st.composite
def _mutated(draw, doc):
    """Apply one to three mutations: drop a key or item, retype a value,
    swap lists and objects, or put in an out-of-range integer."""
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(doc))))
        kind = draw(st.sampled_from(["drop", "retype", "swap", "int"]))
        value = draw(st.sampled_from(OUT_OF_RANGE if kind == "int" else OTHER_TYPES))
        doc = copy.deepcopy(doc)
        if not path:
            doc = {} if kind == "drop" else _swapped(doc) if kind == "swap" else value
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = _swapped(parent[path[-1]]) if kind == "swap" else value
    return doc


def _assert_exit_code_contract(tmp, argv):
    """Run the command built by argv(oracle path) and check its exit code."""
    oracle = os.path.join(tmp, "oracle.json")
    with open(oracle, "w") as fh:
        json.dump(VALID_FILES["oracle"][0], fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv(oracle))
        except SystemExit as exc:  # argparse's usage error, e.g. for a value starting with "-"
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("kind", sorted(VALID_FILES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_input_files_keep_the_exit_code_contract(kind, data):
    valid, argv = VALID_FILES[kind]
    doc = data.draw(_mutated(valid), label="document")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        _assert_exit_code_contract(tmp, lambda oracle: argv(path, oracle))


# Valid command-line values and the command that reads each, given the
# value and a valid oracle file, with the pieces that mutations insert.
VALID_ARGS = {
    "formula": ("forall x. exists y. y = S(x) /\\ ~ x = 3",
                lambda text, oracle: ["realize", "--code", "(K 0)", "--formula", text, "--oracle", oracle]),
    "translated-formula": ("forall x. R(x) -> exists y. Q(y) \\/ 0 = 1",
                           lambda text, oracle: ["translate", "--style", "forcing", text]),
    "code": ("(K (PAIR (ORA 0) 0))",
             lambda text, oracle: ["realize", "--code", text, "--formula", "forall x. exists y. y = 1",
                                   "--oracle", oracle]),
    "poset": ("chain:3", lambda text, oracle: ["algebra", "--poset", text]),
}
FORMULA_PIECES = ["~", "(", ")", "->", "\\/", "/\\", "forall x.", "exists y.", "bot", "R(x)", "0", "7", "S(",
                  "=", "+", "*", "-.", "x", ",", "[j]", "\u00b2", "\u0663", " "]
ARG_PIECES = {
    "formula": FORMULA_PIECES,
    "translated-formula": FORMULA_PIECES,
    "code": ["(", ")", "K", "S", "PAIR", "ORA", "HALT", "FIX", "0", "99", "x", "\u00b2", "\u0663", " "],
    "poset": ["chain:", "antichain:", "-", "0", "1", "9", "x", ":", ".", "/", "\u00b2", "\u0663", " "],
}
REPEATS = [1, 2, 50, MAX_NESTING + 1, 3000]


@st.composite
def _mutated_text(draw, text, pieces):
    """Apply one to three edits: delete a slice, or insert one piece
    repeated up to 3,000 times."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + text[draw(st.integers(i, len(text))):]
        else:
            text = text[:i] + draw(st.sampled_from(pieces)) * draw(st.sampled_from(REPEATS)) + text[i:]
    return text


@pytest.mark.parametrize("kind", sorted(VALID_ARGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_arguments_keep_the_exit_code_contract(kind, data):
    valid, argv = VALID_ARGS[kind]
    text = data.draw(_mutated_text(valid, ARG_PIECES[kind]), label="argument")
    with tempfile.TemporaryDirectory() as tmp:
        _assert_exit_code_contract(tmp, lambda oracle: argv(text, oracle))


def test_demo_rejects_unknown_name(capsys):
    code, _, err = run(capsys, "demo", "nope")
    assert code == 2 and "unknown demo" in err


@pytest.mark.parametrize("argv", [REALIZE + ["--oracle", "oracle.json", "--witness", "8"],
                                  ["demo", "separation", "--witness", "8"]])
def test_witness_flag_is_refused(capsys, argv):
    # no command reads the scan bound, so neither takes a flag for it
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--witness" in capsys.readouterr().err


def test_out_flag_writes_report_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--out", str(target), "nuclei", "--poset", "chain:1")
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["count"] == 2


def test_reports_are_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["--seed", "3", "check", "--suite", "dense-dne", "--corpus", "builtin:small"]
    assert cli.main(["--out", str(a)] + argv[:2] + argv[2:]) == 0
    capsys.readouterr()
    assert cli.main(["--out", str(b)] + argv[:2] + argv[2:]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_seed_recorded_in_report(capsys):
    code, out, _ = run(capsys, "--seed", "9", "nuclei", "--poset", "chain:1")
    assert code == 0 and json.loads(out)["seed"] == 9
