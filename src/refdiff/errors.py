"""Exception types raised across the package."""


class RefdiffError(Exception):
    """Base class for all package-specific errors."""


class NumericFailure(RefdiffError):
    """A computation failed on its data: the CLI reports it with exit code 3."""


class EmptyActiveSet(RefdiffError):
    """Queried the active face set at a point that is not near the boundary."""


class LPFailure(NumericFailure):
    """A linear program used for a geometric certificate did not converge."""


class SamplingFailure(NumericFailure):
    """Rejection sampling could not populate the requested region."""


class ParallelNormals(RefdiffError):
    """Edge normal requested for two (anti)parallel face normals."""


class ChartMissing(RefdiffError):
    """A curved boundary piece has no parameterization registered."""


class BadThresholds(RefdiffError):
    """Cutoff thresholds are not strictly increasing."""


class BadParameters(RefdiffError):
    """Profile or bump parameters violate their admissibility constraints."""


class TooClose(RefdiffError):
    """Interior bump radius reaches the boundary."""


class RadiusTooLarge(RefdiffError):
    """Bump radius exceeds the certified radius of its construction."""


class QPFailure(NumericFailure):
    """Cone projection subproblem failed."""


class BandEmpty(RefdiffError):
    """Mollification band is empty (bad eta/lambda)."""


class NotInU(NumericFailure):
    """Boundary point fails the positive-normal (completely-S type) condition."""


class NotInH(NumericFailure):
    """A function claimed membership in the admissible test class but fails the check."""


class OffFace(RefdiffError):
    """Face residual requested at a point not on the face."""


class OffEdge(RefdiffError):
    """Edge residual requested at a point not on the edge."""


class ZeroMass(NumericFailure):
    """Density integrates to (numerically) zero."""


class DivergentMass(NumericFailure):
    """Density mass does not converge on expanding boxes."""


class NoConvergence(NumericFailure):
    """Boundary projection did not converge."""

    def __init__(self, msg, point=None):
        super().__init__(msg)
        self.point = point


class IllPosedParameters(RefdiffError):
    """Example parameters violate the documented well-posedness condition."""


class NoClosedForm(RefdiffError):
    """No closed-form stationary density is known for this system."""


class UnboundedUnsupported(RefdiffError):
    """Family assembly on this unbounded domain is not supported."""
