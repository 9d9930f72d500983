"""Tests for algebra-valued models, the memoized evaluator, the check
suites, and the countermodel search."""

import json
from itertools import permutations, product

import pytest

from nucforce.algebra import FinPoset, upset_algebra
from nucforce.formula import And, Atom, BOT, Eq, Exists, Forall, Imp, Mod, NumLit, Or, Var, free_vars, parse
from nucforce.nucleus import (
    LopFrame,
    double_negation,
    enumerate_nuclei,
    identity_nucleus,
    is_dense,
    top_nucleus,
)
from nucforce.hmodel import (
    IMPFREE_SHAPES,
    LITERAL_SHAPES,
    MAX_BASIS_NUCLEI,
    ForcingLEval,
    HModel,
    HModelError,
    SceneEval,
    SUITE_READS,
    SUITES,
    SEARCH_TARGETS,
    all_posets,
    build_corpus,
    builtin_corpus,
    corpus_from_spec,
    eval_formula,
    eval_m,
    load_model,
    run_suite,
    search_countermodel,
)
from nucforce.translate import TRANSLATIONS, forcing_translate


def _two_valued_model():
    h = upset_algebra(FinPoset.chain(2))
    atom_val = {
        "R": {(0,): 0, (1,): 2},
        "Q": {(0,): 1, (1,): 2},
    }
    return HModel(h, 2, atom_val, tuple(enumerate_nuclei(h)), name="unit")


def test_model_validation():
    h = upset_algebra(FinPoset.chain(2))
    with pytest.raises(HModelError):
        HModel(h, 0, {}, ())
    with pytest.raises(HModelError):
        HModel(h, 1, {"R": {(5,): 0}}, ())


def test_eval_formula_basics():
    m = _two_valued_model()
    h = m.algebra
    assert eval_formula(parse("R(x)"), m, (("x", 1),)) == 2
    assert eval_formula(parse("bot"), m) == h.bottom
    assert eval_formula(parse("forall x. R(x)"), m) == h.meet[0][2]
    assert eval_formula(parse("exists x. R(x)"), m) == h.join[0][2]
    assert eval_formula(parse("R(x) -> Q(x)"), m, (("x", 0),)) == h.imp[0][1]


def test_eval_formula_rejects_arithmetic_atoms():
    m = _two_valued_model()
    with pytest.raises(HModelError, match="arithmetic atoms"):
        eval_formula(parse("x = 0"), m, (("x", 0),))
    with pytest.raises(HModelError, match="arithmetic atoms"):
        eval_formula(parse("StepHalt(x, x, x)"), m, (("x", 0),))
    j = identity_nucleus(m.algebra)
    with pytest.raises(HModelError, match="arithmetic atoms"):
        eval_m(Mod("j", Eq(Var("x"), NumLit(0))), m, (("x", 0),), {"j": j}, {})


SHAPES = [
    "R(x)",
    "R(x) \\/ Q(x)",
    "R(x) -> Q(x)",
    "(R(x) -> Q(x)) -> R(x)",
    "forall x. R(x) \\/ Q(x)",
    "exists x. R(x) /\\ Q(x)",
    "~ ~ R(x)",
    "forall x. exists y. R(x) -> Q(y)",
]


def _outside_first_sixteen():
    """A 5-point scene with a frame member past the first 16 nuclei, so
    that a guard's frame is not part of the sub-basis of those 16."""
    for scene in build_corpus(point_bound=5).scenes:
        first = scene.model.nuclei[:16]
        frames = [f for f in scene.frames if any(k not in first for k in f.members)]
        if frames:
            return scene, frames[:1]
    raise AssertionError("no frame reaches past the first 16 nuclei")


def _envs(m, phi):
    """Every environment over phi's sorted free variables, in product
    order, built here rather than read from `SceneEval.envs`."""
    fv = sorted(free_vars(phi))
    return [tuple(zip(fv, point)) for point in product(m.domain, repeat=len(fv))]


def _value(ev, style, phi, j, frame=None):
    """The named translation of phi at j, one value per environment in
    `_envs` order: entry j of each row of a table over the frame, or over
    the singleton {j} when j is not a member."""
    basis = frame if frame is not None and j in frame.members else LopFrame(ev.h, (j,))
    i = basis.members.index(j)
    return [row[i] for row in ev.table(style, phi, basis, frame)]


def test_scene_eval_matches_translate_then_eval_m():
    """The table evaluator must agree, row by row, entry by entry and for
    every translation, with the unmemoized reference: translate
    syntactically, then `eval_m` at each nucleus and each environment.
    Tables are compared over the scene basis (every nucleus), over the
    sub-basis of the first 16 nuclei, which on the 5-point scene leaves
    out a member of the guard's frame, and over the frame; the transfer
    and closure matrices against the biimplications of `eval_m` values
    computed here."""
    small = builtin_corpus("builtin:small")
    cases = [(scene, scene.frames[:2]) for scene in small.scenes[:6]]
    cases.append(_outside_first_sixteen())
    for scene, frames in cases:
        m = scene.model
        h = m.algebra
        ev = SceneEval(m)
        basis, sub = ev.nuclei, LopFrame(h, m.nuclei[:16])
        assert basis.members == m.nuclei
        for frame in frames:
            for src in SHAPES:
                phi = parse(src)
                envs = _envs(m, phi)
                for style, translate in TRANSLATIONS.items():
                    t = translate(phi)
                    for b in (basis, sub, frame):
                        want = [[eval_m(t, m, env, {"j": j}, {"P": frame}) for j in b.members] for env in envs]
                        assert ev.table(style, phi, b, frame) == want, (style, src)
                        assert [_value(ev, style, phi, j, frame) for j in b.members] == [list(c) for c in zip(*want)]

                gg = TRANSLATIONS["gg"](phi)
                at = {(j, env): eval_m(gg, m, env, {"j": j}, {}) for j in basis.members + frame.members
                      for env in envs}

                def biimp(a, b):
                    return h.meet[h.imp[a][b]][h.imp[b][a]]

                for rows, cols in ((basis, basis), (frame, frame), (basis, frame), (sub, frame)):
                    trp = [[h.meet_all(biimp(k(at[j, env]), at[k, env]) for env in envs) for k in cols.members]
                           for j in rows.members]
                    cl = [[h.meet_all(biimp(at[j, env], k(at[j, env])) for env in envs) for k in cols.members]
                          for j in rows.members]
                    assert ev.trp_val(phi, rows, cols) == trp, src
                    if rows is cols:
                        assert ev.cl_val(phi, rows) == cl, src


def test_gg_with_identity_nucleus_is_plain_value():
    m = _two_valued_model()
    ev = SceneEval(m)
    jid = identity_nucleus(m.algebra)
    for src in SHAPES:
        phi = parse(src)
        assert _value(ev, "gg", phi, jid) == [eval_formula(phi, m, env) for env in _envs(m, phi)]


def test_forcing_on_singleton_frame_is_gg():
    m = _two_valued_model()
    ev = SceneEval(m)
    for j in m.nuclei:
        frame = LopFrame(m.algebra, (j,))
        for src in SHAPES:
            phi = parse(src)
            assert _value(ev, "forcing", phi, j, frame) == _value(ev, "gg", phi, j)


def test_top_nucleus_forces_everything():
    m = _two_valued_model()
    ev = SceneEval(m)
    jt = top_nucleus(m.algebra)
    frame = LopFrame(m.algebra, (jt,))
    for src in SHAPES:
        assert set(_value(ev, "forcing", parse(src), jt, frame)) == {m.algebra.top}


def test_forcing_l_conjunctions_match_the_forcing_translation_at_singletons():
    """The And clause of the sheaf-term evaluator, which no forcingL-equiv
    shape reaches: at environments of unit singletons it gives the value
    `eval_m` gives the forcing translation, on the scenes that suite keeps."""
    shapes = [parse(s) for s in ["R(x) /\\ Q(x)", "(R(x) /\\ Q(y)) -> R(y)",
                                 "exists x. (R(x) /\\ ~Q(x))", "forall x. (R(x) /\\ Q(y))"]]
    scenes = [scene for scene in builtin_corpus("builtin:small").scenes
              if scene.model.algebra.size <= 8 and scene.model.domain_size <= 2]
    assert scenes
    for scene in scenes:
        m = scene.model
        for frame in scene.frames[:2]:
            evl = ForcingLEval(m, frame)
            for phi in shapes:
                t, fv = forcing_translate(phi), sorted(free_vars(phi))
                for point in product(m.domain, repeat=len(fv)):
                    env = tuple(zip(fv, point))
                    for j in frame.members:
                        uenv = tuple((name, evl.unit(j, evl.singleton(d))) for name, d in env)
                        assert evl.value(phi, j, uenv) == eval_m(t, m, env, {"j": j}, {"P": frame}), (phi, env)


def test_literal_class_adds_the_identity_frame_a_model_file_lacks(tmp_path):
    """Over the frame {top} alone the guard of ~R(x) makes its forcing
    value top at every nucleus, so without the identity frame the meet
    would miss its plain value at x = 1, where R holds."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"poset": {"elements": ["a"], "covers": []}, "domain_size": 2,
                                "atoms": {"R": [0, 1], "Q": [1, 0]}, "frames": [["top"]]}))
    scene = load_model(str(path))
    m, (frame,) = scene.model, scene.frames
    phi, env = parse("~R(x)"), (("x", 1),)
    assert {eval_m(forcing_translate(phi), m, env, {"j": j}, {"P": frame}) for j in m.nuclei} == {m.algebra.top}
    assert eval_formula(phi, m, env) == m.algebra.bottom
    corpus = corpus_from_spec(str(path))
    report = run_suite("literal-class", corpus)
    assert report.passed, report.failures[:3]
    assert len(corpus.scenes[0].frames) == 1  # the identity frame went to a copy of the scene's list
    assert report.checks == sum(m.domain_size ** len(free_vars(phi)) for phi in LITERAL_SHAPES)


def _reference_posets(max_points):
    """Brute-force reference for `all_posets`: every strict relation on
    n labelled points, filtered to the transitive antisymmetric ones and
    deduplicated by canonical form (least sorted pair list over all
    relabellings), listed in canonical-form order as (labels, up-set
    masks) pairs."""
    out = []
    for n in range(1, max_points + 1):
        pairs = [(i, k) for i in range(n) for k in range(n) if i != k]
        seen = set()
        for bits in range(2 ** len(pairs)):
            rel = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
            if any((b, a) in rel for a, b in rel):
                continue
            if any((b, c) in rel and (a, c) not in rel for a, b in rel for c in range(n)):
                continue
            seen.add(min(tuple(sorted((p[a], p[b]) for a, b in rel)) for p in permutations(range(n))))
        labels = tuple(f"p{i}" for i in range(n))
        for canon in sorted(seen):
            up = tuple(sum(1 << k for k in range(n) if k == i or (i, k) in canon) for i in range(n))
            out.append((labels, up))
    return out


def test_all_posets_counts():
    # OEIS A000112: numbers of posets on 1..6 unlabeled points
    sizes = [len(p.elements) for p in all_posets(6)]
    assert [sizes.count(n) for n in range(1, 7)] == [1, 2, 5, 16, 63, 318]
    assert len(all_posets(4)) == 24


def test_all_posets_matches_brute_force_reference():
    got = all_posets(4)
    want = _reference_posets(4)
    assert [(p.elements, p.up) for p in got] == want


def test_all_posets_are_valid_and_distinct():
    posets = all_posets(3)
    assert len(posets) == 8
    assert len({p.up for p in posets}) == len(posets)


def test_builtin_corpora_shape():
    small = builtin_corpus("builtin:small")
    assert len(small.scenes) == 8 * 3
    default = builtin_corpus("builtin:default")
    assert len(default.scenes) == 24 * 5
    with pytest.raises(HModelError):
        builtin_corpus("builtin:nope")


def test_builtin_scenes_fit_the_scene_basis_bound():
    """A builtin scene past the bound would make every suite that reads
    the scene basis refuse the corpus."""
    for name in ("builtin:small", "builtin:default"):
        assert max(len(scene.model.nuclei) for scene in builtin_corpus(name).scenes) <= MAX_BASIS_NUCLEI, name


def test_order_value_of_nuclei_above_is_their_equivalence():
    """For j <= k, the carrier value of k <= j is the meet over p of
    j(p) <-> k(p), which maximal-collapse reads."""
    for scene in builtin_corpus("builtin:small").scenes:
        m = scene.model
        h, ev = m.algebra, SceneEval(m)
        for j, k in product(m.nuclei, repeat=2):
            if all(h.le(j(p), k(p)) for p in h.carrier):
                eq = h.meet_all(h.meet[h.imp[j(p)][k(p)]][h.imp[k(p)][j(p)]] for p in h.carrier)
                assert ev.le_val(k, j) == eq, (m.name, j, k)


def test_corpus_is_deterministic_for_a_seed():
    a = build_corpus(point_bound=3, scenes_per_poset=2, seed=7)
    b = build_corpus(point_bound=3, scenes_per_poset=2, seed=7)
    for sa, sb in zip(a.scenes, b.scenes):
        assert sa.model.atom_val == sb.model.atom_val
        # nuclei on distinct (equal) algebra objects compare by table
        assert [[j.table for j in f.members] for f in sa.frames] == \
               [[j.table for j in f.members] for f in sb.frames]


def test_load_model_round_trip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
        "domain_size": 2,
        "atoms": {"R": [0, 2], "Q": [1, 1]},
        "frames": [["id", "notnot"], ["top"]],
    }))
    scene = load_model(str(path))
    assert scene.model.domain_size == 2
    assert scene.model.algebra.size == 3
    assert scene.model.atom("R", (1,)) == 2
    assert [len(f) for f in scene.frames] == [2, 1]
    corpus = corpus_from_spec(str(path))
    assert len(corpus.scenes) == 1


def test_load_model_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"poset": {"elements": ["a"]}}))
    with pytest.raises(HModelError):
        load_model(str(path))


def test_suite_registry_is_complete():
    expected = {
        "loplem", "jclosed", "monotonicity", "jinP-monotonicity",
        "constant-domain", "maximal-collapse", "kuroda-gg", "forcingL-equiv",
        "literal-class", "iqc-soundness", "impfree-equiv", "emn", "mndneg",
        "trp-closure", "dense-dne", "trp-imp-mn", "trp-ladder", "sufcon",
    }
    assert set(SUITES) == expected


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suites_pass_on_small_corpus(suite):
    corpus = builtin_corpus("builtin:small")
    report = run_suite(suite, corpus)
    assert report.passed, report.failures[:3]
    assert report.checks > 0


def test_suite_reads_name_only_registered_suites():
    # a misspelt key would drop its suite's restriction and note unnoticed
    assert set(SUITE_READS) <= set(SUITES)


def test_suite_notes_count_the_scenes_and_frames_read_on_small_corpus():
    """The notes count the scenes each restricted suite keeps and, when it
    leaves some of their frames out, the frames it reads; the counts here
    come from `is_dense`, the two-valued flag and the bounds the notes
    name (algebras of at most 8 elements, domains of at most 2 points,
    the first 3 frames)."""
    corpus = builtin_corpus("builtin:small")
    small = [s for s in corpus.scenes if s.model.algebra.size <= 8 and s.model.domain_size <= 2]
    two_valued = [s for s in corpus.scenes if s.two_valued]

    def dense(scenes):
        return sum(all(is_dense(k) for k in f.members) for s in scenes for f in s.frames)

    def total(scenes):
        return sum(len(s.frames) for s in scenes)

    expected = {
        "forcingL-equiv": (len(small), sum(min(3, len(s.frames)) for s in small), total(small)),
        "trp-imp-mn": (len(corpus.scenes), dense(corpus.scenes), total(corpus.scenes)),
        "sufcon": (len(two_valued), dense(two_valued), total(two_valued)),
    }
    assert {suite: counts[1:] for suite, counts in expected.items()} == {
        "forcingL-equiv": (48, 62), "trp-imp-mn": (36, 93), "sufcon": (12, 31)}
    for suite, (scenes, read, frames) in expected.items():
        assert run_suite(suite, corpus).notes[0].endswith(f"({scenes} scenes, {read} of {frames} frames)"), suite
    # trp-ladder keeps every frame of the scenes it keeps
    assert run_suite("trp-ladder", corpus).notes[0].endswith(f"({len(two_valued)} scenes)")


def test_run_suite_unknown_name():
    with pytest.raises(HModelError):
        run_suite("nope", builtin_corpus("builtin:small"))


def test_suite_report_serialises():
    report = run_suite("loplem", builtin_corpus("builtin:small"))
    d = report.to_dict()
    assert d["suite"] == "loplem" and d["passed"] is True
    json.dumps(d)


def test_failing_suites_record_the_first_twenty_witnesses(monkeypatch):
    """Every table of a translated formula reads bottom: the suites must
    report failures with full witnesses, keep at most 20, and still count
    every check."""
    corpus = builtin_corpus("builtin:small")
    checks = {name: run_suite(name, corpus).checks for name in ("jclosed", "dense-dne", "trp-closure")}
    monkeypatch.setattr(SceneEval, "table", lambda self, style, phi, basis, frame=None:
                        [[self.h.bottom] * len(basis) for _ in self.envs(phi)])

    # the first scene: one point, two-element algebra, nuclei id = [0, 1]
    # and top = [1, 1], frames [id], [top], [id, top], domain {0}; bottom
    # is j-closed for id but not for top
    report = run_suite("jclosed", corpus)
    assert list(report.failures[0].items()) == [
        ("lhs", 1), ("rhs", 0), ("relation", "=="), ("model", "poset0-scene0"),
        ("frame", [[0, 1]]), ("j", [1, 1]), ("formula", "R(x)"), ("env", [("x", 0)]),
    ]
    assert len(report.failures) == 20 and report.checks == checks["jclosed"]

    # DNE for R holds in the two-element algebra (plain value 1), but its
    # patched gg value is 0; id is the one dense nucleus there
    report = run_suite("dense-dne", corpus)
    assert list(report.failures[0].items()) == [
        ("lhs", 1), ("rhs", 0), ("relation", "<="), ("model", "poset0-scene0"),
        ("item", 1), ("j", [0, 1]),
    ]
    assert len(report.failures) == 20 and report.checks == checks["dense-dne"]

    # j = id and k = top: id <= top holds (lhs 1), but the patched gg
    # values give top(0) <-> 0, that is 1 <-> 0 = 0, for the atom
    report = run_suite("trp-closure", corpus)
    assert list(report.failures[0].items()) == [
        ("lhs", 1), ("rhs", 0), ("relation", "<="), ("model", "poset0-scene0"),
        ("item", 1), ("j", [0, 1]), ("k", [1, 1]),
    ]
    assert len(report.failures) == 20 and report.checks == checks["trp-closure"]


def _literal(phi) -> bool:
    """The literal fragment: atoms and negated atoms under /\\ and forall."""
    if isinstance(phi, (Atom, Eq)):
        return True
    if isinstance(phi, Imp) and phi.right == BOT:
        return isinstance(phi.left, (Atom, Eq))
    if isinstance(phi, And):
        return _literal(phi.left) and _literal(phi.right)
    return isinstance(phi, Forall) and _literal(phi.body)


def _implication_free(phi) -> bool:
    if isinstance(phi, (And, Or)):
        return _implication_free(phi.left) and _implication_free(phi.right)
    if isinstance(phi, (Forall, Exists)):
        return _implication_free(phi.body)
    return not isinstance(phi, Imp)


def test_literal_shapes_lie_in_the_literal_fragment():
    assert all(_literal(phi) for phi in LITERAL_SHAPES)
    for text in ("R(x) \\/ Q(x)", "exists x. R(x)", "~(R(x) /\\ Q(x))", "~~R(x)"):
        assert not _literal(parse(text))


def test_impfree_shapes_are_implication_free():
    assert all(_implication_free(phi) for phi in IMPFREE_SHAPES)
    for text in ("~R(x)", "exists x. (R(x) -> Q(x))", "bot -> R(x)"):
        assert not _implication_free(parse(text))


def test_search_targets_registry():
    assert set(SEARCH_TARGETS) == {"equiv", "trp", "mono", "nono"}


def test_search_finds_equiv_failure_among_implicational_formulas():
    corpus = builtin_corpus("builtin:small")
    result = search_countermodel("equiv", corpus, formula_set="implicational")
    assert result["found"] is True
    assert result["witness"]


def test_search_finds_no_failure_among_impfree_formulas():
    corpus = builtin_corpus("builtin:small")
    result = search_countermodel("equiv", corpus, formula_set="imp-free")
    assert result["found"] is False
    assert result["scanned"] > 0
