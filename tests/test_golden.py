"""Golden reports: every suite and every search on `builtin:small`.

The file `golden/small_reports.json` holds the `to_dict()` of all 18
suites and the result of `search_countermodel` for the four targets on
the implicational and the implication-free formulas, all on the
`builtin:small` corpus.  A change to a check count, a note, a failure
entry or its order, or a search verdict fails this test.  After a change
that is meant to alter a report, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import json
import os

from nucforce.hmodel import SEARCH_TARGETS, SUITES, builtin_corpus, run_suite, search_countermodel

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "small_reports.json")
SEARCH_SETS = ("implicational", "imp-free")


def _reports() -> dict:
    corpus = builtin_corpus("builtin:small")
    out = {
        "check": {name: run_suite(name, corpus).to_dict() for name in sorted(SUITES)},
        "search": {f"{target}/{fset}": search_countermodel(target, corpus, formula_set=fset)
                   for target in SEARCH_TARGETS for fset in SEARCH_SETS},
    }
    return json.loads(json.dumps(out))  # tuples become lists, as in the file


def test_small_corpus_reports_match_golden():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = _reports()
    assert sorted(got["check"]) == sorted(want["check"])
    for name in want["check"]:
        assert got["check"][name] == want["check"][name], name
    assert got["search"] == want["search"]


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(_reports(), fh, indent=1, sort_keys=True)
        fh.write("\n")
