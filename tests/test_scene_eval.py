"""Tests of the compiled vector evaluator `SceneEval`: agreement with the
unmemoized `eval_m` on generated formulas, the honesty and bounds of the
process-wide compile caches, and the number of node tables it builds."""

import signal
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nucforce import hmodel
from nucforce.formula import BOT, And, Atom, Exists, Forall, Imp, Mod, Or, Var, free_vars, parse
from nucforce.hmodel import (
    COMPILE_CACHE_SIZE,
    NODE_CACHE_SIZE,
    SUITES,
    HModelError,
    SceneEval,
    SuiteReport,
    build_corpus,
    builtin_corpus,
    eval_m,
)
from nucforce.translate import TRANSLATIONS

SMALL = builtin_corpus("builtin:small")
# the scenes whose domain has room for distinct values of x and y
SCENES = [scene for scene in SMALL.scenes if scene.model.domain_size > 1]
EVALUATORS = {}  # one evaluator per scene, shared across examples, so formulas share memo entries


def _evaluator(scene) -> SceneEval:
    if scene.model.name not in EVALUATORS:
        EVALUATORS[scene.model.name] = SceneEval(scene.model)
    return EVALUATORS[scene.model.name]


def _envs(m, phi) -> list[tuple]:
    """Every environment over phi's sorted free variables, in product
    order, built here rather than read from `SceneEval.envs`."""
    fv = sorted(free_vars(phi))
    return [tuple(zip(fv, point)) for point in product(m.domain, repeat=len(fv))]


def _reference(t, phi, m, basis, frame) -> list[list[int]]:
    """`eval_m` of t, a translation of phi, at every nucleus of the basis,
    one row per environment in `_envs` order."""
    return [[eval_m(t, m, env, {"j": j}, {"P": frame}) for j in basis.members] for env in _envs(m, phi)]


VARS = ("x", "y")
ATOMS = st.sampled_from([Atom(rel, (Var(v),)) for rel in ("R", "Q") for v in VARS] + [BOT])
FORMULAS = st.recursive(ATOMS, lambda sub: st.one_of(
    st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Imp, sub, sub),
    st.builds(Forall, st.sampled_from(VARS), sub), st.builds(Exists, st.sampled_from(VARS), sub),
), max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(phi=FORMULAS, scene=st.integers(0, len(SCENES) - 1), frame=st.integers(0, 3))
@example(phi=parse("forall x. exists x. R(x)"), scene=0, frame=0)
@example(phi=parse("forall y. R(x)"), scene=1, frame=1)
@example(phi=parse("exists y. (R(x) -> forall x. Q(y))"), scene=2, frame=2)
@example(phi=parse("forall x. forall y. (R(x) -> Q(y))"), scene=3, frame=2)
@example(phi=parse("(exists x. R(x)) \\/ ~forall y. Q(y)"), scene=4, frame=1)
# the bound variable first, in the middle and last of three free ones
@example(phi=parse("forall x. (R(x) /\\ Q(y) /\\ R(z))"), scene=9, frame=0)
@example(phi=parse("exists y. (R(x) /\\ Q(y) /\\ R(z))"), scene=10, frame=1)
@example(phi=parse("forall z. (R(x) -> Q(y) \\/ R(z))"), scene=7, frame=2)
def test_vector_equals_translate_then_eval_m(phi, scene, frame):
    """Every style, every row of the table and every entry, over the scene
    basis and over the frame: row x holds the values at the x-th
    environment over phi's sorted free variables, in product order, which
    is also the order of `envs`."""
    scene = SCENES[scene % len(SCENES)]
    m = scene.model
    frame = scene.frames[frame % len(scene.frames)]
    ev = _evaluator(scene)
    assert ev.envs(phi) == _envs(m, phi)
    for style, translate in TRANSLATIONS.items():
        t = translate(phi)
        for basis in (ev.nuclei, frame):
            assert ev.table(style, phi, basis, frame) == _reference(t, phi, m, basis, frame), style


def test_patched_translation_changes_vector():
    """The compile cache is keyed by the translation function, so a
    translation replaced in the same process is compiled afresh, and the
    real one is read again once the patch is gone."""
    m = SMALL.scenes[6].model  # a 2-point poset, where [j](R \/ ~R) differs from its gg translation
    ev = SceneEval(m)
    phi, basis = parse("R(x) \\/ ~R(x)"), ev.nuclei
    real = ev.table("gg", phi, basis)
    assert real == _reference(TRANSLATIONS["gg"](phi), phi, m, basis, None)
    with mock.patch.dict(TRANSLATIONS, {"gg": lambda f: Mod("j", f)}):
        patched = ev.table("gg", phi, basis)
        fresh = SceneEval(m).table("gg", phi, basis)
    assert patched == fresh == _reference(Mod("j", phi), phi, m, basis, None)
    assert patched != real
    assert ev.table("gg", phi, basis) == real


def test_compile_caches_stay_within_their_bounds():
    """More distinct formulas than either cache holds: both stay within
    their bounds, and a formula whose nodes were evicted is compiled
    again to new nodes, which the evaluator's memo misses and evaluates
    correctly."""
    scene = SMALL.scenes[3]
    m = scene.model
    ev = SceneEval(m)
    basis = ev.nuclei
    # each formula interns three nodes: the atom, its Mod and the Forall
    count = max(COMPILE_CACHE_SIZE, NODE_CACHE_SIZE // 3) + 10
    formulas = [Forall(f"v{i}", Atom("R", (Var(f"v{i}"),))) for i in range(count)]
    node_misses = hmodel._node.cache_info().misses
    first = hmodel._compiled(TRANSLATIONS["gg"], formulas[0])
    for phi in formulas:
        assert ev.table("gg", phi, basis) == _reference(TRANSLATIONS["gg"](phi), phi, m, basis, None)
    assert hmodel._compiled.cache_info().currsize <= COMPILE_CACHE_SIZE
    assert hmodel._node.cache_info().currsize <= NODE_CACHE_SIZE
    assert hmodel._node.cache_info().misses - node_misses >= 3 * count > NODE_CACHE_SIZE
    evals = ev.node_evals
    again = hmodel._compiled(TRANSLATIONS["gg"], formulas[0])
    assert again is not first
    phi = formulas[0]
    assert ev.table("gg", phi, basis) == _reference(TRANSLATIONS["gg"](phi), phi, m, basis, None)
    assert ev.node_evals == evals + 3


# The emn suite on this scene (8 nuclei, a 3-point domain, four frames)
# builds this many node tables, one per node per (basis, frame) that it
# reads; evaluating a node once per environment instead would triple it.
EMN_SCENE = 11
EMN_NODE_EVALS = 292


def test_emn_builds_each_node_table_once_per_basis_and_frame():
    scene = SMALL.scenes[EMN_SCENE]
    ev = SceneEval(scene.model)
    report = SuiteReport("emn")
    report.scene, report.h = scene, scene.model.algebra
    SUITES["emn"](report, ev, scene.frames)
    assert report.passed and report.checks == 4 * 6 * len(scene.frames)
    assert ev.node_evals == sum(len(memo) for memo in ev._vec.values()) == EMN_NODE_EVALS


def _within(seconds: int, fn):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_build_corpus_takes_every_frame_when_max_frames_exceeds_them():
    """On 3 points an algebra has up to 8 nuclei and so 8 + 28 + 56 = 92
    frames of 1-3 members; asking for 100 takes all of them."""
    corpus = _within(10, lambda: build_corpus(point_bound=3, scenes_per_poset=1, max_frames=100))
    for scene in corpus.scenes:
        tables = [j.table for j in scene.model.nuclei]
        every = [c for size in (1, 2, 3) for c in combinations(tables, size)]
        assert sorted(tuple(j.table for j in f.members) for f in scene.frames) == sorted(every)
    with pytest.raises(HModelError, match="max_frames"):
        build_corpus(point_bound=1, max_frames=0)
