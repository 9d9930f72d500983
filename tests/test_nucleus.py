"""Tests for nucleus recognition, enumeration, and frames."""

from itertools import product

import pytest

from nucforce.algebra import FinPoset, upset_algebra
from nucforce.hmodel import all_posets
from nucforce.nucleus import (
    LopFrame,
    Nucleus,
    NucleusError,
    closed_nucleus,
    double_negation,
    enumerate_nuclei,
    frame_up,
    identity_nucleus,
    is_dense,
    is_nucleus,
    named_nucleus,
    nucleus_le,
    open_nucleus,
    top_nucleus,
)


def _laws_hold(h, t):
    """Independent restatement of the nucleus laws used as a test oracle."""
    for a in h.carrier:
        if not h.le(a, t[a]) or t[t[a]] != t[a]:
            return False
    for a, b in product(h.carrier, h.carrier):
        if t[h.meet[a][b]] != h.meet[t[a]][t[b]]:
            return False
    return True


def _oracle_nuclei(h):
    """All nucleus tables via exhaustive fixed-point sets.

    A nucleus is determined by its set of fixed points C: it must contain
    top, be closed under meets, and then j(a) = least element of C above a.
    Enumerating subsets and filtering through the laws is independent of
    the production enumeration path.
    """
    carrier = list(h.carrier)
    rest = [a for a in carrier if a != h.top]
    tables = set()
    for bits in range(2 ** len(rest)):
        c = {h.top} | {rest[i] for i in range(len(rest)) if bits >> i & 1}
        if any(h.meet[a][b] not in c for a in c for b in c):
            continue
        t = []
        ok = True
        for a in carrier:
            above = [x for x in c if h.le(a, x)]
            least = h.meet_all(above)
            if least not in c or not h.le(a, least):
                ok = False
                break
            t.append(least)
        if ok and _laws_hold(h, t):
            tables.add(tuple(t))
    return tables


@pytest.mark.parametrize("poset,expected", [
    (FinPoset.chain(1), 2),
    (FinPoset.chain(2), 4),
    (FinPoset.antichain(2), 4),
])
def test_nucleus_counts_on_small_algebras(poset, expected):
    h = upset_algebra(poset)
    found = enumerate_nuclei(h)
    assert len(found) == expected
    assert {j.table for j in found} == _oracle_nuclei(h)


def test_enumeration_matches_oracle_on_three_point_posets():
    posets = [
        FinPoset.chain(3),
        FinPoset.antichain(3),
        FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")]),
        FinPoset.from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")]),
    ]
    for p in posets:
        h = upset_algebra(p)
        assert {j.table for j in enumerate_nuclei(h)} == _oracle_nuclei(h)


def test_enumeration_matches_oracle_past_the_endomap_scan_limit():
    # a 6-point chain gives a 7-element algebra whose six elements below
    # top are all meet-irreducible, so all 2^6 subsets give a nucleus
    h = upset_algebra(FinPoset.chain(6))
    found = enumerate_nuclei(h)
    assert {j.table for j in found} == _oracle_nuclei(h)
    # on a chain algebra of size n there are 2^(n-1) nuclei
    assert len(found) == 2 ** (h.size - 1)


def test_upset_algebras_have_one_nucleus_per_subset_of_points():
    for p in all_posets(5):
        tables = [j.table for j in enumerate_nuclei(upset_algebra(p))]
        assert len(tables) == 2 ** len(p.elements)
        assert all(a < b for a, b in zip(tables, tables[1:]))


def test_nucleus_constructor_rejects_non_nucleus():
    h = upset_algebra(FinPoset.chain(2))
    with pytest.raises(NucleusError):
        Nucleus(h, (0, 0, 2))  # not inflationary at 1


@pytest.mark.parametrize("poset, table, message", [
    (FinPoset.chain(2), (0, 1), "table not total over carrier of size 3"),
    (FinPoset.chain(2), (0, 1, 3), "table not total over carrier of size 3"),
    (FinPoset.chain(2), (1, 2, 2), "not a nucleus: not idempotent at 0"),
    # inflationary and idempotent on the diamond, but the two atoms meet
    # at bottom while their images meet at top
    (FinPoset.antichain(2), (0, 3, 3, 3), r"not a nucleus: binary meets not preserved at \(1, 2\)"),
], ids=["too-short", "out-of-range", "not-idempotent", "meets-not-preserved"])
def test_nucleus_constructor_names_the_failed_clause(poset, table, message):
    with pytest.raises(NucleusError, match=message):
        Nucleus(upset_algebra(poset), table)


def _four_clauses_hold(h, t):
    """The nucleus laws with the implication clause a->b <= ja->jb that
    the recogniser leaves out, since the other three imply it."""
    return _laws_hold(h, t) and all(h.le(h.imp[a][b], h.imp[t[a]][t[b]])
                                    for a, b in product(h.carrier, h.carrier))


def test_is_nucleus_agrees_with_four_clause_reference_on_every_endomap():
    posets = [FinPoset.chain(1), FinPoset.chain(2), FinPoset.antichain(2), FinPoset.chain(3),
              FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")]),
              FinPoset.from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])]
    seen = 0
    for p in posets:
        h = upset_algebra(p)
        for t in product(h.carrier, repeat=h.size):
            assert is_nucleus(h, t)[0] == _four_clauses_hold(h, t), (p, t)
            seen += 1
    assert seen == 2 ** 2 + 3 ** 3 + 2 * 4 ** 4 + 2 * 5 ** 5


def test_is_nucleus_witness_messages():
    h = upset_algebra(FinPoset.chain(2))
    ok, why = is_nucleus(h, (0, 0, 2))
    assert not ok and "inflationary" in why
    ok, why = is_nucleus(h, h.imp[1])  # open:1 table (0,2,2) is fine
    assert ok and why is None


def test_named_nuclei_on_three_chain():
    h = upset_algebra(FinPoset.chain(2))
    assert identity_nucleus(h).table == (0, 1, 2)
    assert top_nucleus(h).table == (2, 2, 2)
    assert closed_nucleus(h, 1).table == (1, 1, 2)
    assert open_nucleus(h, 1).table == (0, 2, 2)
    assert double_negation(h).table == (0, 2, 2)


def test_double_negation_is_identity_on_boolean_algebra():
    for h in (upset_algebra(FinPoset.chain(1)), upset_algebra(FinPoset.antichain(2))):
        assert double_negation(h).table == identity_nucleus(h).table


def test_density():
    h = upset_algebra(FinPoset.chain(2))
    assert is_dense(identity_nucleus(h))
    assert is_dense(double_negation(h))
    assert not is_dense(top_nucleus(h))
    assert not is_dense(closed_nucleus(h, 1))


def test_dense_nuclei_sit_below_double_negation():
    for p in (FinPoset.chain(3), FinPoset.antichain(2)):
        h = upset_algebra(p)
        nn = double_negation(h)
        for j in enumerate_nuclei(h):
            assert is_dense(j) == nucleus_le(j, nn) or not is_dense(j)
            if is_dense(j):
                assert nucleus_le(j, nn)


def test_pointwise_order_extremes():
    h = upset_algebra(FinPoset.chain(2))
    bot_j = identity_nucleus(h)
    top_j = top_nucleus(h)
    for j in enumerate_nuclei(h):
        assert nucleus_le(bot_j, j)
        assert nucleus_le(j, top_j)


def test_order_density_and_equality_agree_with_a_table_scan():
    # the reference reads tables only, never the fixed-point masks
    pairs = 0
    for p in all_posets(4):
        h = upset_algebra(p)
        named = [double_negation(h), top_nucleus(h)]
        named += [build(h, u) for u in h.carrier for build in (closed_nucleus, open_nucleus)]
        nuclei = enumerate_nuclei(h) + named
        for j in nuclei:
            assert is_dense(j) == (j(h.bottom) == h.bottom), j
            for k in nuclei:
                assert nucleus_le(j, k) == all(h.le(j(a), k(a)) for a in h.carrier), (j, k)
                assert (j == k) == (j.table == k.table), (j, k)
                if j == k:
                    assert hash(j) == hash(k), (j, k)
                pairs += 1
    assert pairs == 22596


def test_frame_rejects_duplicates_and_foreign_members():
    h = upset_algebra(FinPoset.chain(2))
    jid = identity_nucleus(h)
    with pytest.raises(NucleusError):
        LopFrame(h, (jid, Nucleus(h, jid.table)))
    other = upset_algebra(FinPoset.chain(1))
    with pytest.raises(NucleusError):
        LopFrame(h, (identity_nucleus(other),))


def test_order_and_frame_up_refuse_nuclei_on_different_algebras():
    h, other = upset_algebra(FinPoset.chain(2)), upset_algebra(FinPoset.chain(2))
    with pytest.raises(NucleusError, match="nucleus order needs a shared algebra"):
        nucleus_le(identity_nucleus(h), identity_nucleus(other))
    frame = LopFrame(h, (identity_nucleus(h),))
    with pytest.raises(NucleusError, match="frame and nucleus on different algebras"):
        frame_up(frame, identity_nucleus(other))


def test_frame_up_filters_by_pointwise_order():
    h = upset_algebra(FinPoset.chain(2))
    inventory = enumerate_nuclei(h)
    frame = LopFrame(h, tuple(inventory))
    jid = identity_nucleus(h)
    assert frame_up(frame, jid) == list(inventory)
    jtop = top_nucleus(h)
    assert frame_up(frame, jtop) == [jtop]


def test_named_nucleus_specs():
    h = upset_algebra(FinPoset.chain(2))
    assert named_nucleus(h, "id").table == (0, 1, 2)
    assert named_nucleus(h, "notnot").table == (0, 2, 2)
    assert named_nucleus(h, "top").table == (2, 2, 2)
    assert named_nucleus(h, "closed:1").table == (1, 1, 2)
    assert named_nucleus(h, "open:1").table == (0, 2, 2)
    assert named_nucleus(h, "0").table == enumerate_nuclei(h)[0].table
    with pytest.raises(NucleusError):
        named_nucleus(h, "bogus")
    with pytest.raises(NucleusError):
        named_nucleus(h, "99")


def test_nucleus_implication_clause_follows_from_laws():
    # (a->b) & ja <= j(a->b) & ja = j((a->b) & a) <= jb, so every
    # enumerated nucleus has a->b <= ja->jb without the recogniser checking it
    h = upset_algebra(FinPoset.antichain(2))
    for j in enumerate_nuclei(h):
        for a, b in product(h.carrier, h.carrier):
            assert h.le(h.imp[a][b], h.imp[j(a)][j(b)])
