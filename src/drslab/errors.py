"""Exception types shared across the package."""


class DrslabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(DrslabError):
    """Vector or matrix dimensions are inconsistent with the operator."""


class LengthMismatch(DrslabError):
    """Paired sequences (points, values) differ in length."""


class SingularSystem(DrslabError):
    """A linear system that had to be solved turned out singular."""


class SingularMatrix(SingularSystem):
    """A matrix that had to be inverted is singular."""


class NotLinear(DrslabError):
    """Operator or map has no matrix: not affine (no graph pair, so no dense
    resolvent either, coupled blocks included), offset, or multivalued."""


class ZeroCoupling(DrslabError):
    """The coupling matrix is identically zero."""


class UnsupportedSampling(DrslabError):
    """Graph sampling is not available for this operator."""


class NonMonotone(DrslabError):
    """Monotonicity check failed: indefinite symmetric part."""
