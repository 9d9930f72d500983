"""Command-line front end.

Subcommands cover the whole library surface: algebra and nucleus
inspection, the syntactic translations, the lemma-check suites, the
countermodel search, single realizability checks, and the separation
demo.  Reports are JSON on standard output (or --out), with a short
human summary on standard error.  Exit codes: 0 success / all green,
1 a definite failure or refutation, 2 usage or input errors,
3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AlgebraError, FinPoset, check_poset_size, load_poset, upset_algebra
from .formula import FormulaError, parse, print_formula, read_json, read_numeral
from .nucleus import NucleusError, enumerate_nuclei, is_dense
from .translate import TRANSLATIONS
from .hmodel import (
    FORMULA_SETS,
    HModelError,
    SEARCH_TARGETS,
    corpus_from_spec,
    run_suite,
    search_countermodel,
)
from .realizability import (
    Budgets,
    DEMO_BUDGETS,
    REALIZED,
    REFUTED,
    RealizabilityError,
    djg_realizes,
    load_oracle,
    load_oracle_poset,
    read_code,
    realizes,
    separation_demo,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


class CliError(ValueError):
    pass


def _poset_from_spec(spec: str):
    for prefix, build in (("chain:", FinPoset.chain), ("antichain:", FinPoset.antichain)):
        if spec.startswith(prefix):
            size = read_numeral(spec[len(prefix):], AlgebraError)
            check_poset_size(size)
            return build(size)
    return load_poset(spec)


def _emit(report: dict | str, args) -> None:
    """Write a report, as JSON unless it is already text, to --out or stdout."""
    text = report if isinstance(report, str) else json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


# ---------------------------------------------------------- subcommands

def cmd_algebra(args) -> int:
    h = upset_algebra(_poset_from_spec(args.poset))
    report = {
        "seed": args.seed,
        "size": h.size,
        "elements": list(h.names),
        "bottom": h.names[h.bottom],
        "top": h.names[h.top],
        "meet": [list(row) for row in h.meet],
        "join": [list(row) for row in h.join],
        "imp": [list(row) for row in h.imp],
    }
    _emit(report, args)
    _summary(f"algebra with {h.size} elements over poset {args.poset}")
    return EXIT_OK


def cmd_nuclei(args) -> int:
    h = upset_algebra(_poset_from_spec(args.poset))
    found = enumerate_nuclei(h)
    report = {
        "seed": args.seed,
        "algebra_size": h.size,
        "count": len(found),
        "nuclei": [{"table": list(j.table), "dense": is_dense(j)} for j in found],
    }
    _emit(report, args)
    _summary(f"{len(found)} nuclei on the {h.size}-element algebra")
    return EXIT_OK


def cmd_translate(args) -> int:
    fn = TRANSLATIONS[args.style]
    phi = parse(args.formula)
    _emit(print_formula(fn(phi)), args)
    _summary(f"{args.style} translation of {print_formula(phi)}")
    return EXIT_OK


def cmd_check(args) -> int:
    corpus = corpus_from_spec(args.corpus, seed=args.seed)
    report = run_suite(args.suite, corpus)
    payload = report.to_dict()
    payload["seed"] = args.seed
    _emit(payload, args)
    verdict = "pass" if report.passed else f"FAIL ({len(report.failures)} failures)"
    _summary(f"suite {args.suite}: {report.checks} checks, {verdict}")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_search(args) -> int:
    corpus = corpus_from_spec(args.corpus, seed=args.seed)
    result = search_countermodel(args.target, corpus, formula_set=args.formulas)
    result["seed"] = args.seed
    _emit(result, args)
    if result["found"]:
        _summary(f"countermodel found after scanning {result['scanned']} cases")
        return EXIT_OK
    _summary(f"no countermodel in {result['scanned']} cases")
    return EXIT_FAIL


def cmd_realize(args) -> int:
    code = read_code(args.code)
    phi = parse(args.formula)
    oracle = load_oracle(args.oracle)
    cfg = Budgets(fuel=args.fuel, universe=args.universe, candidates=args.candidates)
    if args.frame:
        poset = load_oracle_poset(args.frame)
        out = djg_realizes(code, phi, oracle, poset, cfg)
    else:
        out = realizes(code, phi, oracle, cfg)
    payload = out.to_dict()
    payload["seed"] = args.seed
    payload["formula"] = print_formula(phi)
    _emit(payload, args)
    _summary(f"{out.verdict}: {out.detail or print_formula(phi)}")
    if out.verdict == REALIZED:
        return EXIT_OK
    if out.verdict == REFUTED:
        return EXIT_FAIL
    return EXIT_EXHAUSTED


def cmd_demo(args) -> int:
    if args.what != "separation":
        raise CliError(f"unknown demo {args.what!r}; available: separation")
    cfg = Budgets(fuel=args.budget_fuel, witness=DEMO_BUDGETS.witness,
                  universe=args.universe, candidates=args.candidate_bound)
    candidates = None
    if args.candidates:
        candidates = read_json(args.candidates, CliError)
        if not (isinstance(candidates, list) and all(type(c) is int and c >= 0 for c in candidates)):
            raise CliError(f"{args.candidates}: candidates must be a JSON list of codes, integers >= 0")
    report = separation_demo(cfg, candidates)
    report["seed"] = args.seed
    _emit(report, args)
    for key, sec in report["sections"].items():
        _summary(f"({key}) {sec['label']}: {'green' if sec.get('green') else 'RED'}")
    return EXIT_OK if report["all_green"] else EXIT_FAIL


# --------------------------------------------------------------- driver

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="nucforce")
    top.add_argument("--seed", type=read_numeral, default=0, help="seed recorded in reports and used for sampling")
    top.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="build and print a Heyting algebra from a poset")
    p.add_argument("--poset", required=True, help="poset file, or chain:N / antichain:N")
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("nuclei", help="enumerate all nuclei on an algebra")
    p.add_argument("--poset", required=True)
    p.set_defaults(fn=cmd_nuclei)

    p = sub.add_parser("translate", help="print a syntactic translation of a formula")
    p.add_argument("--style", choices=sorted(TRANSLATIONS), default="gg")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("check", help="run a lemma-check suite over a corpus")
    p.add_argument("--suite", required=True)
    p.add_argument("--corpus", default="builtin:default", help="builtin:default, builtin:small, or a model file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("search", help="scan a corpus for a countermodel")
    p.add_argument("--target", required=True, help=f"one of: {', '.join(SEARCH_TARGETS)}")
    p.add_argument("--formulas", choices=tuple(FORMULA_SETS), default="all")
    p.add_argument("--corpus", default="builtin:default")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("realize", help="check one code against one sentence")
    p.add_argument("--code", required=True, help="a number or a combinator term")
    p.add_argument("--formula", required=True)
    p.add_argument("--oracle", required=True, help="oracle JSON file")
    p.add_argument("--frame", default=None, help="oracle poset JSON file (extension semantics)")
    p.add_argument("--fuel", type=read_numeral, default=Budgets().fuel)
    p.add_argument("--universe", type=read_numeral, default=Budgets().universe)
    p.add_argument("--candidates", type=read_numeral, default=Budgets().candidates)
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("demo", help="run a packaged experiment")
    p.add_argument("what", nargs="?", default="separation")
    p.add_argument("--budget-fuel", type=read_numeral, default=DEMO_BUDGETS.fuel)
    p.add_argument("--universe", type=read_numeral, default=DEMO_BUDGETS.universe)
    p.add_argument("--candidate-bound", type=read_numeral, default=DEMO_BUDGETS.candidates)
    p.add_argument("--candidates", default=None, help="JSON file with a list of candidate codes")
    p.set_defaults(fn=cmd_demo)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, AlgebraError, NucleusError, FormulaError, HModelError,
            RealizabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
