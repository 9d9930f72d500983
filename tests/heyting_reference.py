"""Exhaustive check of the Heyting-algebra axioms over explicit tables.

An independent reference for `algebra.upset_algebra`: it reads only the
operation tables of a `HeytingAlg` and checks every axiom on every
tuple of carrier elements, so it is cubic in the carrier size and meant
for the small algebras of the test suite.
"""

from itertools import product

from nucforce.algebra import HeytingAlg


def validate_heyting(h: HeytingAlg) -> str | None:
    """Exhaustively check the Heyting axioms; None means pass.

    Returns the first violated axiom with a witness tuple otherwise.
    """
    n = h.size
    rng = range(n)
    for t in (h.meet, h.join, h.imp):
        if len(t) != n or any(len(row) != n for row in t):
            return f"table not total over carrier of size {n}"
        for row in t:
            for v in row:
                if not 0 <= v < n:
                    return f"table entry {v} outside carrier"
    for a in rng:
        if h.meet[a][a] != a:
            return f"meet idempotence fails at ({a},)"
        if h.join[a][a] != a:
            return f"join idempotence fails at ({a},)"
        if h.meet[a][h.bottom] != h.bottom:
            return f"bottom is not a meet-absorber at ({a},)"
        if h.join[a][h.top] != h.top:
            return f"top is not a join-absorber at ({a},)"
    for a, b in product(rng, rng):
        if h.meet[a][b] != h.meet[b][a]:
            return f"meet commutativity fails at ({a}, {b})"
        if h.join[a][b] != h.join[b][a]:
            return f"join commutativity fails at ({a}, {b})"
        if h.meet[a][h.join[a][b]] != a:
            return f"absorption meet/join fails at ({a}, {b})"
        if h.join[a][h.meet[a][b]] != a:
            return f"absorption join/meet fails at ({a}, {b})"
    for a, b, c in product(rng, rng, rng):
        if h.meet[a][h.meet[b][c]] != h.meet[h.meet[a][b]][c]:
            return f"meet associativity fails at ({a}, {b}, {c})"
        if h.join[a][h.join[b][c]] != h.join[h.join[a][b]][c]:
            return f"join associativity fails at ({a}, {b}, {c})"
        if h.meet[a][h.join[b][c]] != h.join[h.meet[a][b]][h.meet[a][c]]:
            return f"distributivity fails at ({a}, {b}, {c})"
        # residuation: meet(c, a) <= b  iff  c <= imp(a, b)
        lhs = h.meet[h.meet[c][a]][b] == h.meet[c][a]
        rhs = h.meet[c][h.imp[a][b]] == c
        if lhs != rhs:
            return f"residuation fails at (c={c}, a={a}, b={b})"
    return None
