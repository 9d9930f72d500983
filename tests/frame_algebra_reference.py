"""The algebra of monotone families over a frame, and gg evaluated on it.

An independent reference for the `forcing` tables of `SceneEval` over
(frame, frame).  Let P be a frame k_1 ... k_n of nuclei on H.  A_P is the
set of tuples (a_1 ... a_n) over H with a_i <= a_x whenever k_i <= k_x.
Meet and join are componentwise, implication is Kripke's,
(a -> b)_i = meet over x with k_i <= k_x of (a_x -> b_x), and
J(a)_i = k_i(a_i) is a nucleus on A_P.  `FamilyAlgebra.value` evaluates
the gg translation on (A_P, J) with each atom read as a constant family:
atoms, joins and existentials get J, conjunctions and universals are
componentwise.  The forcing table at member i equals component i.

The module reads the model's operation tables, atom tables and nucleus
tables only: it imports no evaluator, translation or order test of the
package.
"""

from itertools import product

from nucforce.algebra import HeytingAlg
from nucforce.formula import And, Atom, Bot, Exists, Forall, Imp, Or


class FamilyAlgebra:
    """A_P and its nucleus J for the frame `members` of the model's algebra."""

    def __init__(self, model, members):
        h = model.algebra
        self.model, self.h = model, h
        self.ks = [k.table for k in members]
        # up[i]: the members x with k_i <= k_x, read off the two tables
        self.up = [[x for x, kx in enumerate(self.ks) if all(h.meet[ki[a]][kx[a]] == ki[a] for a in h.carrier)]
                   for ki in self.ks]

    def const(self, a: int) -> tuple:
        return (a,) * len(self.ks)

    def j(self, a: tuple) -> tuple:
        return tuple(k[c] for k, c in zip(self.ks, a))

    def meet(self, a: tuple, b: tuple) -> tuple:
        return tuple(self.h.meet[c][d] for c, d in zip(a, b))

    def join(self, a: tuple, b: tuple) -> tuple:
        return tuple(self.h.join[c][d] for c, d in zip(a, b))

    def imp(self, a: tuple, b: tuple) -> tuple:
        h = self.h
        out = []
        for up in self.up:
            acc = h.top
            for x in up:
                acc = h.meet[acc][h.imp[a[x]][b[x]]]
            out.append(acc)
        return tuple(out)

    def disjoin(self, a: tuple, b: tuple) -> tuple:
        """The gg value of a disjunction: J of the componentwise join."""
        return self.j(self.join(a, b))

    def is_monotone(self, a: tuple) -> bool:
        h = self.h
        return all(h.meet[a[i]][a[x]] == a[i] for i, up in enumerate(self.up) for x in up)

    def value(self, phi, env: dict) -> tuple:
        """The gg value of phi on (A_P, J); env maps variables to domain points."""
        h = self.h
        if isinstance(phi, Bot):
            return self.j(self.const(h.bottom))
        if isinstance(phi, Atom):
            return self.j(self.const(self.model.atom_val[phi.rel][tuple(env[t.name] for t in phi.args)]))
        if isinstance(phi, And):
            return self.meet(self.value(phi.left, env), self.value(phi.right, env))
        if isinstance(phi, Or):
            return self.disjoin(self.value(phi.left, env), self.value(phi.right, env))
        if isinstance(phi, Imp):
            return self.imp(self.value(phi.left, env), self.value(phi.right, env))
        if isinstance(phi, Forall):
            acc = self.const(h.top)
            for d in range(self.model.domain_size):
                acc = self.meet(acc, self.value(phi.body, {**env, phi.var: d}))
            return acc
        if isinstance(phi, Exists):
            acc = self.const(h.bottom)
            for d in range(self.model.domain_size):
                acc = self.join(acc, self.value(phi.body, {**env, phi.var: d}))
            return self.j(acc)
        raise ValueError(f"no family value for {type(phi).__name__}")

    def tables(self) -> tuple[list[tuple], HeytingAlg, list[int]]:
        """Every monotone family in lexicographic order (the constant bottom
        first, the constant top last), A_P as a `HeytingAlg` over their
        indices, and J as a table over them."""
        fams = [a for a in product(self.h.carrier, repeat=len(self.ks)) if self.is_monotone(a)]
        index = {a: i for i, a in enumerate(fams)}

        def table(op):
            return tuple(tuple(index[op(a, b)] for b in fams) for a in fams)

        alg = HeytingAlg(tuple(map(str, fams)), table(self.meet), table(self.join), table(self.imp))
        return fams, alg, [index[self.j(a)] for a in fams]
