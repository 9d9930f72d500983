"""Golden reports: every suite and every search on `builtin:small`, and
the `realize` command with and without an oracle frame.

The file `golden/small_reports.json` holds the `to_dict()` of all 18
suites and the result of `search_countermodel` for the four targets on
the implicational and the implication-free formulas, all on the
`builtin:small` corpus.  A change to a check count, a note, a failure
entry or its order, or a search verdict fails this test.  It also holds
the exit code, standard output and standard error of `nucforce realize`
on a realized sentence and on refuted universals and implications (each
way a `forall` or an `->` can be refuted), over one oracle and over a
two-oracle chain.  `golden/separation_demo.json` holds the default
`separation_demo()` report, which acceptance criterion 7 compares.
`golden/small_failures.json` holds, for each suite, its `to_dict()` on
`builtin:small` under an injected fault that makes it record failures,
so the failure entries, their order and their witness keys are pinned
for every suite.  After a change that is meant to alter a report,
rewrite all three files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from nucforce import cli
from nucforce.formula import Mod
from nucforce.hmodel import SEARCH_TARGETS, SUITES, SceneEval, builtin_corpus, run_suite, search_countermodel
from nucforce.nucleus import Nucleus
from nucforce.realizability import separation_demo
from nucforce.translate import TRANSLATIONS, gg_translate, kuroda_forcing_translate

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "small_reports.json")
DEMO_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "separation_demo.json")
FAILURES_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "small_failures.json")
SEARCH_SETS = ("implicational", "imp-free")

# (name, code, sentence); the refuted ones cover, in order, a failing
# instance, a failing application under `forall`, a failing application
# to an antecedent realizer and a failing consequent
REALIZE_CASES = [
    ("realized", "1", "exists x. x = 1"),
    ("forall-instance", "K", "forall x. x = 0"),
    ("forall-application", "0", "forall x. x = x"),
    ("imp-application", "0", "0 = 0 -> 0 = 0"),
    ("imp-consequent", "K", "0 = 0 -> bot"),
]
ORACLE = {"label": "f0", "table": {}}
FRAME = {"oracles": [ORACLE, {"label": "f1", "table": {"0": 1}}], "edges": [[0, 1]]}


def _realize_reports() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        oracle, frame = os.path.join(tmp, "oracle.json"), os.path.join(tmp, "frame.json")
        for path, doc in ((oracle, ORACLE), (frame, FRAME)):
            with open(path, "w") as fh:
                json.dump(doc, fh)
        for name, code, sentence in REALIZE_CASES:
            argv = ["realize", "--code", code, "--formula", sentence, "--oracle", oracle]
            for key, extra in ((name, []), (f"{name}/frame", ["--frame", frame])):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    status = cli.main(argv + extra)
                out[key] = {"exit": status, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    return out


def _reports() -> dict:
    corpus = builtin_corpus("builtin:small")
    out = {
        "check": {name: run_suite(name, corpus).to_dict() for name in sorted(SUITES)},
        "search": {f"{target}/{fset}": search_countermodel(target, corpus, formula_set=fset)
                   for target in SEARCH_TARGETS for fset in SEARCH_SETS},
        "realize": _realize_reports(),
    }
    return json.loads(json.dumps(out))  # tuples become lists, as in the file


_TABLE = SceneEval.table


def _bottoms(self, *args):
    return self.h.bottom


# Each fault patches the evaluator or the translations, and lists the
# suites that record failures under it; together they cover all 18.
FAULTS = {
    # gg becomes [j]phi, forcing becomes kuroda and kuroda becomes gg,
    # wrapped in [j] where kuroda is
    "swapped-translations": (
        lambda: [mock.patch.dict(TRANSLATIONS, {"gg": lambda phi: Mod("j", phi),
                                                "forcing": kuroda_forcing_translate,
                                                "kuroda": gg_translate,
                                                "kuroda-wrapped": lambda phi: Mod("j", gg_translate(phi))})],
        ["constant-domain", "emn", "forcingL-equiv", "impfree-equiv", "iqc-soundness",
         "jclosed", "kuroda-gg", "maximal-collapse", "mndneg"]),
    "bottom-vectors": (
        lambda: [mock.patch.object(SceneEval, "table", lambda self, style, phi, basis, frame=None:
                                   [[self.h.bottom] * len(basis) for _ in self.envs(phi)])],
        ["dense-dne", "literal-class", "trp-closure"]),
    # every vector of a table read backwards, and every nucleus applied one
    # element up
    "reversed-vectors": (
        lambda: [mock.patch.object(SceneEval, "table", lambda self, *args: [v[::-1] for v in _TABLE(self, *args)]),
                 mock.patch.object(Nucleus, "__call__", lambda self, a: self.table[(a + 1) % len(self.table)])],
        ["jinP-monotonicity", "loplem", "monotonicity"]),
    "bottom-mono": (
        lambda: [mock.patch.object(SceneEval, "mono_val", _bottoms)],
        ["trp-imp-mn"]),
    "bottom-equiv-trp": (
        lambda: [mock.patch.object(SceneEval, "equiv_val", _bottoms),
                 mock.patch.object(SceneEval, "trp_val", lambda self, phi, rows, cols=None:
                                   [[self.h.bottom] * len(rows if cols is None else cols) for _ in rows.members])],
        ["sufcon", "trp-ladder"]),
}


def _failure_reports() -> dict:
    corpus = builtin_corpus("builtin:small")
    out = {}
    for fault, (patches, suites) in FAULTS.items():
        with contextlib.ExitStack() as stack:
            for patch in patches():
                stack.enter_context(patch)
            out[fault] = {name: run_suite(name, corpus).to_dict() for name in suites}
    return json.loads(json.dumps(out))


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_small_corpus_reports_match_golden():
    want = _golden()
    got = _reports()
    assert sorted(got["check"]) == sorted(want["check"])
    for name in want["check"]:
        assert got["check"][name] == want["check"][name], name
    assert got["search"] == want["search"]


def test_realize_reports_match_golden():
    want = _golden()["realize"]
    got = _realize_reports()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_small_corpus_failures_match_golden():
    with open(FAILURES_GOLDEN) as fh:
        want = json.load(fh)
    got = _failure_reports()
    assert sorted(name for suites in got.values() for name in suites) == sorted(SUITES)
    assert sorted(got) == sorted(want)
    for fault in want:
        for name, report in want[fault].items():
            assert not report["passed"], (fault, name)
            assert got[fault][name] == report, (fault, name)


if __name__ == "__main__":
    for path, report in ((GOLDEN, _reports()), (DEMO_GOLDEN, separation_demo()),
                         (FAILURES_GOLDEN, _failure_reports())):
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
