"""Exception types shared across the package."""


class DimensionMismatch(Exception):
    """Raised when input shapes are inconsistent with each other."""


class ShapeMismatch(DimensionMismatch):
    """Raised when an operator is applied to an input of the wrong shape."""


class RankDeficient(Exception):
    """Raised when an operation requires numerical full column rank and the
    input does not have it."""


class NotPositiveDefinite(Exception):
    """Raised when a Cholesky factorization fails on a matrix that was
    expected to be positive definite."""


class NotFeasible(Exception):
    """Raised when an input violates an indefinite-geometry constraint
    (e.g. X'JX = -I) beyond tolerance."""


class NoConvergence(Exception):
    """Raised when an iterative scalar solve exceeds its iteration cap."""


class ShiftNotPD(Exception):
    """Raised when a diagonal shift would make a regularized system
    indefinite or singular."""


class BothZero(Exception):
    """Raised by pair_basis when both input vectors are identically
    zero."""


class ZeroDeflator(Exception):
    """Raised when a deflation vector is identically zero."""


class ColumnsNotOrthonormal(Exception):
    """Raised when a matrix expected to have orthonormal columns does not."""


class SizeGuard(Exception):
    """Raised when a brute-force routine is asked to run above its size cap."""


class UnsupportedFormat(Exception):
    """Raised on file inputs in a format the readers do not accept."""
