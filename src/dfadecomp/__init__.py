"""Decompose deterministic finite automata into solver/advisor pairs.

The package builds on the lattice of substitution-property partitions of a
DFA's state set: quotients of meet-zero partition pairs embed the original
transition structure, block choices that separate the accepting states carry
acceptance along, and a brute-force oracle certifies undecomposability at
desk scale.
"""

from .automata import (
    Dfa,
    StateMap,
    accepts,
    canonical_form,
    equivalent,
    isomorphic,
    parallel_connection,
    reachable_triples,
    run,
    trim,
)
from .decompositions import (
    Decomposition,
    DecompositionKind,
    DecompositionReport,
    Refusal,
    ReportEntry,
    decompose_ai_sufficient,
    decompose_asb,
    decompose_sb,
    decompose_wai_sufficient,
    decomposable,
    is_redundant,
    project_to_minimal,
    transfer_to_minimal,
    verify,
)
from .errors import BudgetError, Error, InputError, ParseError
from .families import (
    gen_a4b4_triple,
    gen_example31,
    gen_example31_partitions,
    gen_grid,
    gen_k_extension,
    gen_lkl,
    gen_ln,
    gen_sb_not_asb,
    random_dfa,
)
from .oracle import (
    ExhaustionCertificate,
    SearchBudget,
    brute_sp_partitions,
    certify_undecomposable,
    estimate_search_space,
)
from .partitions import (
    Partition,
    SeparationWitness,
    SpLattice,
    is_distributive,
    is_sp,
    join,
    leq,
    meet,
    min_sp_merging,
    minimize,
    quotient,
    separates_finals,
    sp_lattice,
)
from .textio import (
    export_dot,
    format_partition,
    parse_dfa,
    parse_dfas,
    parse_partition,
    print_dfa,
)

__version__ = "0.1.0"
