"""Finite Heyting-algebra forcing translations and oracle realizability.

The library has two halves.  The lattice half builds finite Heyting
algebras from posets, enumerates their nuclei, applies syntactic
translations, and model-checks a battery of lemma suites over a
generated corpus.  The machine half runs a fuel-bounded combinatory
calculus with oracle access and checks budgeted realizability relative
to single oracles and to extension posets of oracles.
"""

__version__ = "0.1.0"
