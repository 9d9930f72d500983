"""The forcing translation over a frame P is gg on the algebra of monotone
P-indexed families (tests/frame_algebra_reference.py)."""

from itertools import product

from nucforce.formula import free_vars
from nucforce.hmodel import GENERAL_SHAPES, IQC_AXIOMS, MIXED_SHAPES, SceneEval, builtin_corpus
from nucforce.nucleus import is_nucleus

from frame_algebra_reference import FamilyAlgebra
from heyting_reference import validate_heyting

SHAPES = GENERAL_SHAPES + MIXED_SHAPES + IQC_AXIOMS


def _compare(algebra_of) -> tuple[int, int, int, int]:
    """(rows, frames, mismatches, non-monotone families) of every forcing
    table over (frame, frame) on builtin:small against the family values of
    `algebra_of(model, members)`."""
    rows = frames = bad = nonmono = 0
    for scene in builtin_corpus("builtin:small").scenes:
        m = scene.model
        ev = SceneEval(m)
        for frame in scene.frames:
            frames += 1
            alg = algebra_of(m, frame.members)
            for phi in SHAPES:
                fv = sorted(free_vars(phi))
                points = product(m.domain, repeat=len(fv))
                for got, point in zip(ev.table("forcing", phi, frame, frame), points, strict=True):
                    want = alg.value(phi, dict(zip(fv, point)))
                    rows += 1
                    bad += list(want) != got
                    nonmono += not alg.is_monotone(want)
    return rows, frames, bad, nonmono


def test_forcing_over_a_frame_is_gg_on_monotone_families():
    rows, frames, bad, nonmono = _compare(FamilyAlgebra)
    assert frames == sum(len(s.frames) for s in builtin_corpus("builtin:small").scenes)
    assert rows > 0 and bad == 0 and nonmono == 0, (rows, bad, nonmono)


class _ReversedImplication(FamilyAlgebra):
    """Negative control: the Kripke implication reads the members below."""

    def __init__(self, model, members):
        super().__init__(model, members)
        self.up = [[x for x, up in enumerate(self.up) if i in up] for i in range(len(self.up))]


class _BareJoin(FamilyAlgebra):
    """Negative control: a disjunction without J."""

    def disjoin(self, a, b):
        return self.join(a, b)


def test_the_comparison_catches_a_reversed_order_or_a_dropped_nucleus():
    for control in (_ReversedImplication, _BareJoin):
        assert _compare(control)[2] > 0, control.__name__


def test_monotone_families_form_a_heyting_algebra_with_nucleus_j():
    checked = 0
    for scene in builtin_corpus("builtin:small").scenes:
        for frame in scene.frames:
            alg = FamilyAlgebra(scene.model, frame.members)
            fams, h, j = alg.tables()
            if len(fams) > 64:
                continue
            assert fams[0] == alg.const(alg.h.bottom) and fams[-1] == alg.const(alg.h.top)
            assert validate_heyting(h) is None
            assert is_nucleus(h, j) == (True, None)
            checked += 1
    assert checked > 0
