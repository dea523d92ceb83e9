"""gamowkit: resonance states, half-domain semigroup evolution, and the
extended spacetime symmetry families.

The package models growing and decaying Gamow states as labelled values
attached to the conjugate pole pair of a resonance, evolves them with the
eight half-domain semigroup branches (with strict no-inverse enforcement),
builds the four co-representation families of parity / time reversal /
total inversion for arbitrary spin, and derives the summary tables of how
states transform under time reversal in both time-arrow conventions.
"""

from .core import (
    Arrow,
    GamowState,
    HalfPlane,
    Kind,
    Orientation,
    ResonancePole,
    Role,
    TimeDomain,
    TimeHalf,
    canonical_state,
    resonance_s_matrix,
)
from .evolution import (
    BRANCHES,
    BRANCH_LABELS,
    DomainViolationError,
    EvolutionBranch,
    NonHermitianError,
    branch_by_label,
    branch_for,
    evolve,
    group_evolve,
    survival_probability,
)
from .scenarios import (
    ResultTable,
    Scenario,
    evolution_table,
    lineshape,
    lorentzian_density,
    run_decay,
)
from .symmetry import (
    AntilinearOperator,
    ConjugationReport,
    IdentityCheck,
    RelationCheck,
    RelationReport,
    RepresentationTriple,
    build_representation,
    check_conjugation_identities,
    reversed_wavefunction,
    time_reversal_matrix,
    verify_group_relations,
)
from .transform import (
    CrossIdentification,
    DerivedTable,
    FactorConsistencyEntry,
    TableCell,
    cross_identify,
    derive_table,
    factor_consistency_report,
    time_reverse,
    time_reverse_twice,
)

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "GamowState",
    "HalfPlane",
    "Kind",
    "Orientation",
    "ResonancePole",
    "Role",
    "TimeDomain",
    "TimeHalf",
    "canonical_state",
    "resonance_s_matrix",
    "BRANCHES",
    "BRANCH_LABELS",
    "DomainViolationError",
    "EvolutionBranch",
    "NonHermitianError",
    "branch_by_label",
    "branch_for",
    "evolve",
    "group_evolve",
    "survival_probability",
    "ResultTable",
    "Scenario",
    "evolution_table",
    "lineshape",
    "lorentzian_density",
    "run_decay",
    "AntilinearOperator",
    "ConjugationReport",
    "IdentityCheck",
    "RelationCheck",
    "RelationReport",
    "RepresentationTriple",
    "build_representation",
    "check_conjugation_identities",
    "reversed_wavefunction",
    "time_reversal_matrix",
    "verify_group_relations",
    "CrossIdentification",
    "DerivedTable",
    "FactorConsistencyEntry",
    "TableCell",
    "cross_identify",
    "derive_table",
    "factor_consistency_report",
    "time_reverse",
    "time_reverse_twice",
]
