"""Tests for finite posets and upset Heyting algebras."""

import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucforce.algebra import (
    AlgebraError,
    FinPoset,
    HeytingAlg,
    load_poset,
    neg,
    upset_algebra,
)

from heyting_reference import validate_heyting


def _le(p, a, b):
    return bool(p.up[p.elements.index(a)] >> p.elements.index(b) & 1)


def test_chain_poset_order():
    p = FinPoset.chain(3)
    assert p.elements == ("q0", "q1", "q2")
    assert p.up == (0b111, 0b110, 0b100)
    assert _le(p, "q0", "q2")
    assert not _le(p, "q2", "q0")
    assert _le(p, "q1", "q1")


def test_antichain_poset_order():
    p = FinPoset.antichain(3)
    assert p.up == (0b001, 0b010, 0b100)
    for a, b in product(p.elements, p.elements):
        assert _le(p, a, b) == (a == b)


def _brute_force_closure(elements, covers):
    rel = {(e, e) for e in elements} | set(covers)
    while True:
        grown = rel | {(a, d) for a, b in rel for c, d in rel if b == c}
        if grown == rel:
            return rel
        rel = grown


def test_from_covers_takes_transitive_closure():
    p = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert _le(p, "a", "c")
    rng = random.Random(7)
    for n in range(1, 8):
        labels = [f"e{i}" for i in range(n)]
        for _ in range(30):
            # covers go from lower to higher index in a shuffled labelling,
            # so every random cover set is acyclic
            order = rng.sample(labels, n)
            covers = [(a, b) for a, b in combinations(order, 2) if rng.random() < 0.3]
            got = FinPoset.from_covers(labels, covers)
            rel = {(a, b) for a, b in product(labels, labels) if _le(got, a, b)}
            assert rel == _brute_force_closure(labels, covers)


def test_from_covers_rejects_unknown_element():
    with pytest.raises(AlgebraError):
        FinPoset.from_covers(["a"], [("a", "z")])


def test_from_covers_rejects_cycles():
    with pytest.raises(AlgebraError, match="antisymmetry fails at pair \\('a', 'b'\\)"):
        FinPoset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])


def test_finposet_rejects_missing_reflexivity():
    with pytest.raises(AlgebraError, match="reflexivity fails at 'a'"):
        FinPoset(("a",), (0,))


def test_finposet_rejects_broken_transitivity():
    # a <= b and b <= c, but not a <= c
    with pytest.raises(AlgebraError, match="transitivity fails at triple \\('a', 'b', 'c'\\)"):
        FinPoset(("a", "b", "c"), (0b011, 0b110, 0b100))


def test_load_poset_round_trip(tmp_path):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}))
    p = load_poset(str(path))
    assert p.elements == ("a", "b", "c")
    assert p.up == (0b111, 0b010, 0b100)


def test_load_poset_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["a"]}))
    with pytest.raises(AlgebraError):
        load_poset(str(path))


def test_two_element_tables():
    h = upset_algebra(FinPoset.chain(1))
    assert h.size == 2
    assert h.bottom == 0 and h.top == 1
    # truth tables of classical logic
    assert h.meet == ((0, 0), (0, 1))
    assert h.join == ((0, 1), (1, 1))
    assert h.imp == ((1, 1), (0, 1))
    assert neg(h, 0) == 1 and neg(h, 1) == 0


def test_three_chain_tables():
    h = upset_algebra(FinPoset.chain(2))
    assert h.size == 3
    # 0 < 1 < 2; meets and joins are min and max
    for a, b in product(h.carrier, h.carrier):
        assert h.meet[a][b] == min(a, b)
        assert h.join[a][b] == max(a, b)
        assert h.imp[a][b] == (h.top if a <= b else b)
    assert neg(h, 0) == 2 and neg(h, 1) == 0 and neg(h, 2) == 0


def test_diamond_algebra_from_two_point_antichain():
    h = upset_algebra(FinPoset.antichain(2))
    assert h.size == 4
    assert validate_heyting(h) is None
    # the two middle elements are complements of each other
    mids = [a for a in h.carrier if a not in (h.bottom, h.top)]
    a, b = mids
    assert h.meet[a][b] == h.bottom and h.join[a][b] == h.top
    assert neg(h, a) == b and neg(h, b) == a


def test_upset_algebra_element_count_is_number_of_upsets():
    # the 3-point "V" poset a<b, a<c has upsets {}, {b}, {c}, {b,c}, {a,b,c}
    p = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
    h = upset_algebra(p)
    assert h.size == 5
    assert validate_heyting(h) is None


def test_upset_algebra_le_is_subset_order():
    p = FinPoset.antichain(2)
    h = upset_algebra(p)
    labels = [set(name.strip("{}").split(",")) - {""} for name in h.names]
    assert labels == [set(), {"a0"}, {"a1"}, {"a0", "a1"}]
    for a, b in product(h.carrier, h.carrier):
        assert h.le(a, b) == (labels[a] <= labels[b])


def test_residuation_on_small_algebras():
    for p in [FinPoset.chain(1), FinPoset.chain(3), FinPoset.antichain(2),
              FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])]:
        h = upset_algebra(p)
        for a, b, c in product(h.carrier, repeat=3):
            assert h.le(h.meet[c][a], b) == h.le(c, h.imp[a][b])


def test_validate_heyting_catches_broken_table():
    h = upset_algebra(FinPoset.chain(2))
    bad_imp = tuple(tuple(h.bottom for _ in h.carrier) for _ in h.carrier)
    broken = HeytingAlg(h.names, h.meet, h.join, bad_imp)
    assert validate_heyting(broken) is not None


def test_validate_heyting_catches_non_distributive_lattice():
    # M3: bottom, three incomparable atoms, top; a lattice but not distributive
    n = 5
    bot, top = 0, 4

    def m(a, b):
        if a == b:
            return a
        if bot in (a, b):
            return bot
        if a == top:
            return b
        if b == top:
            return a
        return bot

    def j(a, b):
        if a == b:
            return a
        if top in (a, b):
            return top
        if a == bot:
            return b
        if b == bot:
            return a
        return top

    meet = tuple(tuple(m(a, b) for b in range(n)) for a in range(n))
    join = tuple(tuple(j(a, b) for b in range(n)) for a in range(n))
    imp = tuple(tuple(top for _ in range(n)) for _ in range(n))
    h = HeytingAlg(tuple(str(i) for i in range(n)), meet, join, imp)
    assert validate_heyting(h) is not None


def test_size_cap_enforced():
    with pytest.raises(AlgebraError, match="17 points exceeds the 16-point cap"):
        upset_algebra(FinPoset.antichain(17))
    # 16 points pass, but 2^11 up-sets are over the element cap
    with pytest.raises(AlgebraError, match="2048 up-sets, over the 1024-element"):
        upset_algebra(FinPoset.antichain(11))
    assert upset_algebra(FinPoset.chain(16)).size == 17


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    labels = [f"e{i}" for i in range(n)]
    covers = []
    for i, k in combinations(range(n), 2):
        if draw(st.booleans()):
            covers.append((labels[i], labels[k]))  # i < k keeps it acyclic
    return FinPoset.from_covers(labels, covers)


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_upset_algebra_always_heyting(p):
    assert validate_heyting(upset_algebra(p)) is None
