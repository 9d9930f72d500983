"""Finite Heyting-algebra forcing translations and oracle realizability.

The library has two halves.  The lattice half builds finite Heyting
algebras from posets, enumerates their nuclei, applies syntactic
translations, and model-checks a battery of lemma suites over a
generated corpus.  The machine half runs a fuel-bounded combinatory
calculus with oracle access and checks budgeted realizability relative
to single oracles and to extension posets of oracles.
"""

from .algebra import (
    AlgebraError,
    FinPoset,
    HeytingAlg,
    load_poset,
    neg as alg_neg,
    three_chain,
    two_element,
    upset_algebra,
    validate_heyting,
)
from .formula import (
    FormulaError,
    Formula,
    FormulaClass,
    classify,
    free_vars,
    neg,
    parse,
    print_formula,
    scheme,
    subst,
    universal_closure,
    universal_instance,
)
from .nucleus import (
    LopFrame,
    Nucleus,
    NucleusError,
    double_negation,
    enumerate_nuclei,
    frame_up,
    identity_nucleus,
    is_dense,
    is_nucleus,
    named_nucleus,
    nucleus_le,
    top_nucleus,
)
from .translate import (
    GuardAll,
    Mod,
    TRANSLATIONS,
    forcing_translate,
    gg_translate,
    kuroda_forcing_translate,
    kuroda_wrapped_translate,
    parse_mformula,
)
from .hmodel import (
    Corpus,
    HModel,
    HModelError,
    SUITES,
    Scene,
    SuiteReport,
    all_posets,
    build_corpus,
    builtin_corpus,
    eval_formula,
    eval_m,
    load_model,
    run_suite,
    search_countermodel,
)
from .realizability import (
    Budgets,
    DEFAULT_BUDGETS,
    Oracle,
    OraclePoset,
    Outcome,
    RealizabilityError,
    apply,
    check_assumption_A,
    decode,
    djg_realizes,
    encode,
    induction_axiom,
    induction_realizer,
    load_oracle,
    load_oracle_poset,
    m_f_member,
    mp_realizer,
    not_not_lift,
    pair,
    preal_standard,
    realizes,
    separation_demo,
    unpair,
)

__version__ = "0.1.0"
