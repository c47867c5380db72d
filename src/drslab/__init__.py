"""Monotone operator splitting laboratory.

Douglas-Rachford splitting in three provably equivalent forms (the
classical recursion, a lifted 4-variable proximal-point form, and a
reduced resolvent), an operator catalog with exact resolvents, and a
test bench showing that the splitting map is always a resolvent but is
a proximal mapping only in dimension one.
"""

from .blocks import (
    BlockSystem,
    EliminationPair,
    coupling_gram,
    elimination_pair,
    lifted_blocks,
    moreau_complement_form,
    reduced_resolvent_direct,
    reduced_resolvent_fukushima,
    reduced_resolvent_via_drs,
)
from .catalog import CatalogEntry, catalog_by_name, standard_catalog
from .cyclic import (
    INCONCLUSIVE,
    NOT_PROXIMAL,
    PROXIMAL,
    CycleWitness,
    ResolventClassification,
    classify_resolvent,
    cycle_sum,
    drs_map_matrix,
    inverse_preserves_cyclic,
    sample_cycles,
    skew_three_cycle,
)
from .drs import (
    CONVERGED,
    MAX_ITERS,
    NONFINITE,
    DrsProblem,
    TrajectoryRecord,
    drs_step,
    relaxed_step,
    run,
    solution_certificate,
    splitting_pass,
)
from .equivalence import (
    LIFTED,
    RECURSION,
    REDUCED,
    REDUCED_DIRECT,
    REDUCED_FALLBACK,
    EquivalenceReport,
    compare_formulations,
    formulation_trajectories,
)
from .errors import (
    DimensionMismatch,
    DrslabError,
    LengthMismatch,
    NonInvertibleBlock,
    NonMonotone,
    NotLinear,
    NotSymmetricPD,
    SingularMatrix,
    SingularSystem,
    UnsupportedComposition,
    UnsupportedSampling,
    ZeroCoupling,
)
from .operators import (
    AffineConstraint,
    Block2x2,
    Box,
    Inverse,
    L1,
    LinearRelation,
    MonotoneOperator,
    Quadratic,
    ScaledIdentity,
    Zero,
    graph_member,
    graph_residual,
    linear_matrix,
    moreau_residual,
    operator_from_dict,
    resolve,
    symmetric_part,
)
from .ppa import (
    PpaState,
    PpaSystem,
    initial_state,
    ppa_inclusion_residual,
    ppa_step,
    reduce_state,
)

__version__ = "0.1.0"
