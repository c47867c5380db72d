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


class UnsupportedComposition(DrslabError):
    """Coupled-block resolvent needs linear-representable blocks."""


class NotLinear(DrslabError):
    """Operator is not representable as a single dense matrix."""


class ZeroCoupling(DrslabError):
    """The coupling matrix is identically zero."""


class UnsupportedSampling(DrslabError):
    """Graph sampling is not available for this operator."""


class NonMonotone(DrslabError):
    """Monotonicity check failed: indefinite symmetric part."""


class NotSymmetricPD(DrslabError):
    """Matrix is not symmetric positive definite."""
