"""Monotone operator splitting laboratory.

Douglas-Rachford splitting in three provably equivalent forms (the
classical recursion, a lifted 4-variable proximal-point form, and a
reduced resolvent), an operator catalog with exact resolvents, and a
test bench showing that the splitting map is always a resolvent but in
general not a proximal mapping.

Importing the package loads the solve half (``operators``, ``drs`` and
``catalog``).  The analysis half (``blocks``, ``ppa``, ``equivalence`` and
``cyclic``) loads on first use: each of its public names, and each of the
four modules, is looked up in ``_LAZY`` by ``__getattr__`` and bound into
this package object on that first access, so a caller that keeps the
package across a purge of ``sys.modules`` goes on using the classes it was
built with.  ``drslab.cli`` imports everything.
"""

from .catalog import CatalogEntry, catalog_by_name, standard_catalog
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
from .errors import (
    DimensionMismatch,
    DrslabError,
    LengthMismatch,
    NonMonotone,
    NotLinear,
    SingularMatrix,
    SingularSystem,
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
    graph_pair,
    graph_residual,
    moreau_residual,
    operator_from_dict,
    resolve,
    symmetric_part,
)

#: Each name of the analysis half, and each of its modules, to its home module.
_LAZY = {name: home for home, names in {
    "blocks": "BlockSystem coupling_gram reduced_resolvent_direct reduced_resolvent_via_drs",
    "cyclic": "INCONCLUSIVE NOT_PROXIMAL PROXIMAL CycleWitness ResolventClassification"
              " classify_resolvent cycle_sum drs_map_matrix sample_cycles skew_three_cycle",
    "equivalence": "LIFTED RECURSION REDUCED REDUCED_DIRECT REDUCED_FALLBACK EquivalenceReport"
                   " compare_formulations",
    "ppa": "PpaState PpaSystem initial_state ppa_inclusion_residual ppa_step",
}.items() for name in (home, *names.split())}


def __getattr__(name):
    """Load an analysis name's home module and bind the name here, once."""
    from importlib import import_module

    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # a home module this package already imported, even if sys.modules was purged since
    module = globals().get(home) or import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
