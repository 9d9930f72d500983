"""The three benchmark workloads: `suites`, `wide-search` and `machine`.

Each workload builds its inputs from the seed (`setup`, timed as
set-up), lists its operations (`ops`), and afterwards checks what can
only be checked outside the timed window (`finish`).  An operation is
one call into one public nucforce function; its group is the span name
of that call.  Every operation checks its own verdict against a known
answer, so a wrong verdict counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from itertools import product
from typing import Callable, NamedTuple

from nucforce import cli
from nucforce.algebra import upset_algebra
from nucforce.formula import Imp, Sigma, free_vars, neg, parse, universal_instance
from nucforce.hmodel import (
    SUITES,
    Corpus,
    all_posets,
    build_corpus,
    eval_m,
    run_suite,
    search_countermodel,
)
from nucforce.nucleus import enumerate_nuclei, frame_up
from nucforce.realizability import (
    EMPTY_ORACLE,
    REFUTED,
    Budgets,
    Oracle,
    OraclePoset,
    apply,
    check_assumption_A,
    diverging_code,
    djg_realizes,
    encode,
    halting_code,
    identity_code,
    induction_axiom,
    induction_realizer,
    mp_realizer,
    preal_standard,
    realizes,
    separation_demo,
    step_halts,
    unpair,
)
from nucforce.translate import TRANSLATIONS


class Result(NamedTuple):
    work: int            # the workload's work units done by this call
    counts: dict         # deterministic counts, keyed by per-layer metric name
    error: str | None = None
    info: object = None  # what `finish` needs to re-check the call


class Op(NamedTuple):
    group: str
    run: Callable[[], Result]


def run_cli(tr, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command, capturing its report; returns (exit code, report)."""
    out, err = io.StringIO(), io.StringIO()
    with cli_spans(tr), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@contextlib.contextmanager
def cli_spans(tr):
    """Span the library calls the CLI makes, so cli self time is the CLI's own."""
    layer = {"corpus_from_spec": "hmodel", "run_suite": "hmodel", "search_countermodel": "hmodel",
             "separation_demo": "realizability"}
    saved = {name: getattr(cli, name) for name in layer}

    def wrap(name, fn):
        def call(*args, **kwargs):
            with tr.span(f"{layer[name]}.{name}"):
                return fn(*args, **kwargs)
        return call

    for name, fn in saved.items():
        setattr(cli, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def lattice_layers(tr, counts: Counter, point_bound: int) -> None:
    """Call the layers that `build_corpus` uses, one by one, under spans."""
    with tr.span("hmodel.all_posets"):
        posets = all_posets(point_bound)
    counts["hmodel.all_posets.posets"] += len(posets)
    for p in posets:
        with tr.span("algebra.upset_algebra"):
            h = upset_algebra(p)
        with tr.span("nucleus.enumerate_nuclei"):
            nuclei = enumerate_nuclei(h)
        counts["nucleus.enumerate_nuclei.nuclei"] += len(nuclei)


def traced_corpus(tr, counts: Counter, **shape) -> Corpus:
    with tr.span("hmodel.build_corpus"):
        corpus = build_corpus(**shape)
    counts["hmodel.build_corpus.scenes"] += len(corpus.scenes)
    return corpus


TINY_SHAPE = {"point_bound": 2, "scenes_per_poset": 2, "max_frames": 2}


class CorpusWorkload:
    """A workload whose inputs are one `build_corpus` corpus."""

    full_shape: dict

    def shape(self, size: str) -> dict:
        return TINY_SHAPE if size == "tiny" else self.full_shape

    def trace_layers(self, tr, counts, size):
        lattice_layers(tr, counts, self.shape(size)["point_bound"])

    def setup(self, seed, size, tr, counts):
        return traced_corpus(tr, counts, seed=seed, **self.shape(size))


# ---------------------------------------------------------------- suites

SUITE_STRIDE = 11  # every 11th scene: every poset size, every scene index mod 5


def _suite_op(name: str, scene, seed: int) -> Result:
    report = run_suite(name, Corpus([scene], seed))
    error = None
    if not report.passed:
        error = f"suite {name} fails on {scene.model.name}: {report.failures[0]}"
    return Result(report.checks, {f"hmodel.suite.{name}.checks": report.checks}, error,
                  tuple(report.notes))


class Suites(CorpusWorkload):
    """All 18 lemma suites, one suite on one scene per operation."""

    work_unit = "checks"
    full_shape = {"point_bound": 4}  # the default corpus

    def ops(self, corpus, size, tr):
        scenes = corpus.scenes if size == "tiny" else corpus.scenes[::SUITE_STRIDE]
        return [Op(f"hmodel.suite.{name}", lambda n=name, s=scene: _suite_op(n, s, corpus.seed))
                for scene in scenes for name in SUITES]

    def finish(self, corpus, ops, results, tr, counts):
        notes = Counter()
        for op, res in zip(ops, results):
            for note in res.info or ():
                notes[f"{op.group.rsplit('.', 1)[1]}: {note}"] += 1
        with tr.span("cli.main"):
            code, report = run_cli(tr, ["--seed", str(corpus.seed), "check", "--suite", "dense-dne",
                                    "--corpus", "builtin:small"])
        errors = [] if code == 0 and json.loads(report)["passed"] else [f"cli check exited {code}"]
        counts["cli.main.report_bytes"] += len(report.encode())
        return {}, errors, {"suite_notes": dict(sorted(notes.items()))}


# ----------------------------------------------------------- wide-search

SEARCH_SETS = ("implicational", "imp-free")
SEARCH_TARGETS = ("equiv", "mono", "nono", "trp")
WIDE_STRIDE = 2  # every second scene, so three repetitions fit in one run


def _search_op(target: str, fset: str, scene, seed: int) -> Result:
    res = search_countermodel(target, Corpus([scene], seed), formula_set=fset)
    error = None
    if res["found"] and fset == "imp-free" and target in ("equiv", "mono"):
        error = f"{target} countermodel without implication on {scene.model.name}"
    key = f"hmodel.search.{target}.{fset}"
    return Result(res["scanned"], {f"{key}.scanned": res["scanned"], f"{key}.found": int(res["found"])},
                  error, (scene, res))


def recheck_value(tr, target: str, scene, witness: dict) -> int:
    """The predicate's value at a hit, recomputed by translating and then
    evaluating with the unmemoized `eval_m`."""
    m = scene.model
    h = m.algebra
    frame = next(f for f in scene.frames if [list(j.table) for j in f.members] == witness["frame"])
    with tr.span("formula.parse"):
        phi = parse(witness["formula"])
    with tr.span("translate"):
        gg = TRANSLATIONS["gg"](phi)
    with tr.span("translate"):
        fc = TRANSLATIONS["forcing"](phi)
    fv = sorted(free_vars(phi))
    envs = [tuple(zip(fv, point)) for point in product(m.domain, repeat=len(fv))]

    def value(t, j, env):
        with tr.span("hmodel.eval_m"):
            return eval_m(t, m, env, {"j": j}, {"P": frame})

    def biimp(a, b):
        return h.meet[h.imp[a][b]][h.imp[b][a]]

    acc = h.top
    for j in frame.members:
        for env in envs:
            if target == "equiv":
                parts = [biimp(value(fc, j, env), value(gg, j, env))]
            elif target == "mono":
                parts = [h.imp[value(gg, j, env)][value(gg, k, env)] for k in frame_up(frame, j)]
            elif target == "nono":
                parts = [h.imp[value(gg, k, env)][value(gg, j, env)] for k in frame_up(frame, j)]
            else:
                parts = [biimp(k(value(gg, j, env)), value(gg, k, env)) for k in frame.members]
            for v in parts:
                acc = h.meet[acc][v]
    return acc


class WideSearch(CorpusWorkload):
    """Countermodel search over every poset with up to 5 points."""

    work_unit = "cases scanned"
    full_shape = {"point_bound": 5}

    def ops(self, corpus, size, tr):
        scenes = corpus.scenes if size == "tiny" else corpus.scenes[::WIDE_STRIDE]
        return [Op(f"hmodel.search.{t}.{s}", lambda t=t, s=s, sc=sc: _search_op(t, s, sc, corpus.seed))
                for sc in scenes for t in SEARCH_TARGETS for s in SEARCH_SETS]

    def finish(self, corpus, ops, results, tr, counts):
        failed = {}
        for i, (op, res) in enumerate(zip(ops, results)):
            if res.info is None or not res.info[1]["found"]:
                continue
            scene, hit = res.info
            got = recheck_value(tr, hit["target"], scene, hit["witness"])
            if got != hit["value"] or got == scene.model.algebra.top:
                failed[i] = f"{op.group} on {scene.model.name}: reported {hit['value']}, re-check gives {got}"
        # without implication no equivalence countermodel exists: exit 1, nothing found
        with tr.span("cli.main"):
            code, report = run_cli(tr, ["--seed", str(corpus.seed), "search", "--target", "equiv",
                                    "--formulas", "imp-free", "--corpus", "builtin:small"])
        errors = [] if code == 1 and not json.loads(report)["found"] else [f"cli search exited {code}"]
        counts["cli.main.report_bytes"] += len(report.encode())
        return failed, errors, {"rechecked_hits": sum(1 for r in results if r.info and r.info[1]["found"])}


# --------------------------------------------------------------- machine

# The sentence stock of acceptance criterion 5, with numerals drawn from
# the seed.  {c} differs from {a}, so the second sentence is a false atom.
SENTENCE_SHAPES = [
    "{a} = {a}", "{a} = {c}", "bot", "{a} + {b} = {ab}",
    "{a} = {a} /\\ {b} = {b}", "{a} = {a} \\/ bot", "bot \\/ {b} = {b}",
    "exists x. x = {a}", "exists x. x + {b} = {ab}",
    "forall x. x + 0 = x", "forall x. x = {a}",
    "{a} = {a} -> {b} = {b}", "{a} = {a} -> bot", "bot -> bot", "~ {a} = {c}",
    "exists x. (x = {a} /\\ x + 1 = {a1})",
]
ALWAYS_REFUTED = {1, 2}  # indexes of `bot` and the false atom

INDUCTION_FAMILIES = [
    "x + 0 = x", "0 + x = x", "x + 1 = 1 + x", "x + 2 = 2 + x",
    "x * 1 = x", "1 * x = x", "x * 2 = x + x", "2 * x = x + x",
    "x -. x = 0", "x -. 0 = x", "0 -. x = 0", "x + x = 2 * x",
    "x * 0 = 0", "0 * x = 0", "S(x) = x + 1", "S(x) -. 1 = x",
    "x + 3 = 3 + x", "x * 3 = x + x + x", "(x + 1) -. 1 = x", "x + x + x = 3 * x",
]

SWEEP_BUDGETS = Budgets(fuel=1000, witness=16, universe=8, candidates=16)
INDUCTION_BUDGETS = Budgets(fuel=20000, witness=16, universe=11, candidates=8)


def sweep_codes() -> list[int]:
    """Small codes plus the canonical ones; the diverging code exhausts fuel."""
    return list(range(12)) + [identity_code(), encode("K"), halting_code(1), diverging_code()]


class MachineInputs(NamedTuple):
    seed: int
    sentences: list
    induction: list
    halting: list
    codes: list
    oracles: list
    chain: OraclePoset


def _verdict_counts(verdict: str) -> dict:
    return {f"realizability.verdicts.{verdict}": 1}


def _check(kind: str, e: int, phi, f: Oracle, frame, must_refute: bool) -> Result:
    if kind == "realizes":
        out = realizes(e, phi, f, SWEEP_BUDGETS)
    elif kind == "djg_realizes":
        out = djg_realizes(e, phi, f, frame, SWEEP_BUDGETS)
    else:
        out = preal_standard(e, phi, f, frame, SWEEP_BUDGETS)
    error = None
    if must_refute and out.verdict != REFUTED:
        error = f"{kind}: code {e} gives {out.verdict} on a false sentence"
    return Result(1, _verdict_counts(out.verdict), error, out.verdict)


def _realized(out, what: str) -> Result:
    error = None if out.realized else f"{what}: {out.verdict} ({out.detail})"
    return Result(1, _verdict_counts(out.verdict), error)


def _apply_op(code: int) -> Result:
    out = apply(code, 0, EMPTY_ORACLE)
    counts = dict(_verdict_counts(out.verdict), **{"realizability.steps": out.trace.get("steps", 0)})
    error = None if out.realized else f"apply of a halting-search code: {out.verdict}"
    return Result(1, counts, error, out.value)


def _demo_op(tr, seed: int) -> Result:
    code, text = run_cli(tr, ["--seed", str(seed), "demo", "separation"])
    report = json.loads(text)
    error = None
    if code != 0 or report["all_green"] is not True or set(report["sections"]) != {"i", "ii", "iii", "iv"}:
        error = f"separation demo not all green (exit {code})"
    return Result(1, {"cli.main.report_bytes": len(text.encode())}, error)


class Machine:
    """The oracle machine: demo, canonical realizers, and a seeded sweep."""

    work_unit = "verdicts"

    def trace_layers(self, tr, counts, size):
        pass

    def setup(self, seed, size, tr, counts):
        rng = random.Random(seed)
        a, b = rng.randrange(5), rng.randrange(5)
        values = {"a": a, "b": b, "ab": a + b, "c": a + 1 + rng.randrange(3), "a1": a + 1}
        shapes = SENTENCE_SHAPES if size == "full" else SENTENCE_SHAPES[:4]
        families = INDUCTION_FAMILIES if size == "full" else INDUCTION_FAMILIES[:3]
        n_halting = 50 if size == "full" else 4

        def parsed(text):
            with tr.span("formula.parse"):
                return parse(text)

        sentences = [parsed(s.format(**values)) for s in shapes]
        induction = [(induction_realizer(psi), induction_axiom(psi, "x"))
                     for psi in (parsed(s) for s in families)]
        halting = []
        for _ in range(n_halting):
            e, x = halting_code(rng.randrange(10)), rng.randrange(5)
            inst = universal_instance(Sigma(1), e, x)
            halting.append((e, x, mp_realizer(e, x), Imp(neg(neg(inst)), inst)))
        oracles = [EMPTY_ORACLE,
                   Oracle.from_dict("g1", {rng.randrange(4): rng.randrange(4)}),
                   Oracle.from_dict("g2", {0: rng.randrange(4), 2: rng.randrange(4)})]
        # preal_standard rejects a chain on which extension and bounded
        # reducibility disagree, so draw until the chain passes
        while True:
            top = Oracle.from_dict("f1", {0: rng.randrange(5), 1: rng.randrange(5)})
            chain = OraclePoset((Oracle.from_dict("f0", {}), top))
            if check_assumption_A(chain, SWEEP_BUDGETS.witness, SWEEP_BUDGETS)["passed"]:
                break
        codes = sweep_codes() if size == "full" else sweep_codes()[-4:]
        return MachineInputs(seed, sentences, induction, halting, codes, oracles, chain)

    def ops(self, inp: MachineInputs, size, tr):
        ops = [Op("cli.main", lambda: _demo_op(tr, inp.seed))]
        for code, axiom in inp.induction:
            ops.append(Op("realizability.realizes",
                          lambda c=code, ax=axiom: _realized(realizes(c, ax, EMPTY_ORACLE, INDUCTION_BUDGETS),
                                                             "induction realizer")))
        for e, x, code, formula in inp.halting:
            ops.append(Op("realizability.realizes",
                          lambda c=code, phi=formula: _realized(realizes(c, phi, EMPTY_ORACLE),
                                                                "halting-search realizer")))
            ops.append(Op("realizability.apply", lambda c=code: _apply_op(c)))
        for e in inp.codes:
            for i, phi in enumerate(inp.sentences):
                refute = i in ALWAYS_REFUTED
                for f in inp.oracles:
                    ops.append(Op("realizability.realizes",
                                  lambda e=e, phi=phi, f=f, r=refute: _check("realizes", e, phi, f, None, r)))
                    ops.append(Op("realizability.djg_realizes",
                                  lambda e=e, phi=phi, f=f, r=refute:
                                  _check("djg_realizes", e, phi, f, OraclePoset((f,)), r)))
                for f in inp.chain.oracles:
                    ops.append(Op("realizability.preal_standard",
                                  lambda e=e, phi=phi, f=f, r=refute:
                                  _check("preal_standard", e, phi, f, inp.chain, r)))
        return ops

    def finish(self, inp, ops, results, tr, counts):
        failed = {}
        searches = iter(inp.halting)
        for i, (op, res) in enumerate(zip(ops, results)):
            if op.group == "realizability.djg_realizes":
                # over a singleton frame the extension checker agrees with
                # the plain one; each djg_realizes op follows its realizes op
                plain = results[i - 1].info
                if res.info != plain:
                    failed[i] = f"djg_realizes gives {res.info}, realizes gives {plain}"
            elif op.group == "realizability.apply":
                # the search returns (w, 0) for the least w within which e halts on x
                e, x, _, _ = next(searches)
                if res.info is None:
                    continue
                w, tail = unpair(res.info)
                if tail != 0 or not step_halts(e, x, w) or (w > 0 and step_halts(e, x, w - 1)):
                    failed[i] = f"halting search for ({e}, {x}) returned w={w}"
        return failed, [], {}


def layer_probe(tr, counts: Counter) -> None:
    """One small fixed call into every layer.

    A traced repetition ends with this probe, so every per-layer metric
    is measured on every workload, including layers the workload's own
    operations never reach.
    """
    with tr.span("formula.parse"):
        phi = parse("forall x. (R(x) -> Q(x))")
    lattice_layers(tr, counts, 2)
    corpus = traced_corpus(tr, counts, point_bound=2, scenes_per_poset=1, max_frames=2)
    for name in SUITES:
        with tr.span(f"hmodel.suite.{name}"):
            res = _suite_op(name, corpus.scenes[-1], 0)
        counts.update(res.counts)
    for t in SEARCH_TARGETS:
        for s in SEARCH_SETS:
            with tr.span(f"hmodel.search.{t}.{s}"):
                res = _search_op(t, s, corpus.scenes[-1], 0)
            counts.update(res.counts)
    with tr.span("translate"):
        TRANSLATIONS["forcing"](phi)
    truth = parse("0 = 0")
    chain = OraclePoset((EMPTY_ORACLE,))
    for kind in ("realizes", "djg_realizes", "preal_standard"):
        with tr.span(f"realizability.{kind}"):
            res = _check(kind, identity_code(), truth, EMPTY_ORACLE, chain, False)
        counts.update(res.counts)
    code = halting_code(1)
    with tr.span("realizability.apply"):
        out = apply(mp_realizer(code, 0), 0, EMPTY_ORACLE)
    counts.update(_verdict_counts(out.verdict))
    counts["realizability.steps"] += out.trace.get("steps", 0)
    with tr.span("realizability.separation_demo"):
        separation_demo(Budgets(fuel=4000, witness=8, universe=8, candidates=8))


WORKLOADS = {"suites": Suites(), "wide-search": WideSearch(), "machine": Machine()}
