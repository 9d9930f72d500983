"""Tests for the command-line front end."""

import json

import pytest

from nucforce import cli
from nucforce.realizability import app, diverging_code, encode, numt


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


@pytest.mark.parametrize("spec", ["chain:x", "chain:-1", "antichain:-2", "chain:100"])
def test_nuclei_rejects_malformed_poset_spec(capsys, spec):
    code, out, err = run(capsys, "nuclei", "--poset", spec)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_translate_golden(capsys):
    code, out, _ = run(capsys, "translate", "--style", "gg", "R(x) -> Q(x)")
    assert code == 0
    assert out.strip() == "[j]R(x) -> [j]Q(x)"
    code, out, _ = run(capsys, "translate", "--style", "forcing", "forall x. R(x)")
    assert out.strip() == "all k>=j in P. forall x. [k]R(x)"


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
    assert cli.parse_code("42") == 42
    assert cli.parse_code("(K 5)") == encode(app("K", numt(5)))
    assert cli.parse_code("S K K") == encode(app("S", "K", "K"))
    with pytest.raises(cli.CliError):
        cli.parse_code("K x")
    with pytest.raises(cli.CliError):
        cli.parse_code("(K 5")


def _oracle_file(tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({"label": "f", "table": {}}))
    return str(path)


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


def test_realize_with_frame(capsys, tmp_path):
    oracle = _oracle_file(tmp_path)
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({
        "oracles": [{"label": "f", "table": {}}, {"label": "g", "table": {"0": 1}}],
    }))
    code, out, _ = run(capsys, "realize", "--code", "(K 0)", "--formula",
                       "0 = 0 -> 0 = 0", "--oracle", oracle, "--frame", str(frame))
    assert code == 0 and json.loads(out)["verdict"] == "realized"


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


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
    "non-integer-atom": lambda tmp: ["check", "--suite", "loplem", "--corpus", _write(tmp, "m.json", {
        "poset": {"elements": ["a"], "covers": []}, "domain_size": 1, "atoms": {"R": ["high"]}})],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_files_exit_2(capsys, tmp_path, case):
    code, out, err = run(capsys, *MALFORMED_INPUTS[case](tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_demo_rejects_unknown_name(capsys):
    code, _, err = run(capsys, "demo", "nope")
    assert code == 2 and "unknown demo" in err


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
