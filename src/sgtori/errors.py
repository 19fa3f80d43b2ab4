"""Exception hierarchy shared by all modules."""


class SgtoriError(Exception):
    """Base class for all package errors."""


class DomainError(SgtoriError):
    """Input outside the admissible parameter domain."""


class ConsistencyError(SgtoriError):
    """A computed result fails an internal consistency check (two formulas
    that must agree do not, or a value that must be real is not)."""


class MembershipError(DomainError):
    """Quartic fails the unit-circle positivity required of admissible spectra."""


class AmbiguousRootError(SgtoriError):
    """Root clustering is unstable at the requested tolerance."""


class ClassError(DomainError):
    """Operation requires a different spectral class."""


class StepCollapseError(SgtoriError):
    """Adaptive step size underflowed; dynamics near-singular."""


class StepBudgetError(SgtoriError):
    """Adaptive integration spent its whole budget of right-hand-side
    evaluations before reaching the end of its span."""


class GridTooSmallError(DomainError):
    """Grid has no interior nodes for the requested stencil."""


class PoleError(SgtoriError):
    """Evaluation point too close to a pole."""


class BranchCollisionError(SgtoriError):
    """Contour or path passes too close to a branch point."""


class SingularSystemError(SgtoriError):
    """Linear system for the differential coefficients is numerically singular."""


class IllConditionedError(SgtoriError):
    """Sample matrix condition number exceeds the trust threshold."""


class DegenerateLatticeError(DomainError):
    """Lattice generators are (numerically) linearly dependent over the reals."""


class ClosingViolationError(SgtoriError):
    """Monodromy eigenvalues at the construction points violate the closing condition."""


class DegenerateFrameError(SgtoriError):
    """Eigenfunction matrix is numerically singular on the grid."""


class FitResidualError(SgtoriError):
    """Least-squares extraction residual exceeds tolerance."""


class PathIntegrationError(SgtoriError):
    """Branch-tracked path integration failed to meet its accuracy target."""


class ContourError(SgtoriError):
    """No admissible contour realization found for the requested cycle."""
