"""Exception types shared across the package."""


class AggrestabError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(AggrestabError, ValueError):
    """An argument is outside its admissible range."""


class GridMismatchError(AggrestabError):
    """Two objects were built on different grids."""


class SingularityError(AggrestabError):
    """Kernel evaluation requested at a non-integrable singularity."""


class ConvergenceError(AggrestabError):
    """An iterative method failed to converge within its iteration cap."""


class UnsupportedKernelError(AggrestabError):
    """The kernel violates a structural requirement (e.g. symmetry)."""


class SchemeFailureError(AggrestabError):
    """The scheme broke a structural invariant (positivity / mass / step bound)."""


class RejectedStepError(SchemeFailureError):
    """Time step exceeds the stability bound for the explicit transport."""

    def __init__(self, dt, admissible):
        super().__init__(f"dt={dt:g} exceeds admissible bound {admissible:g}")
        self.dt = dt
        self.admissible = admissible


class NonContractionError(AggrestabError):
    """Picard iteration did not contract within the iteration cap."""

    def __init__(self, distances):
        last = f"; last distance {distances[-1]:g}" if distances else ""
        super().__init__(f"no contraction after {len(distances)} iterations{last}")
        self.distances = list(distances)


class FitFailureError(AggrestabError):
    """Too few usable samples to fit a rate."""


class InvalidBracketError(AggrestabError):
    """Bisection endpoints do not bracket a sign change."""


class NoExistenceTimeError(AggrestabError):
    """No positive existence time: the kernel norm estimate is infinite or the time underflows."""


class KernelLoadError(AggrestabError):
    """Tabulated kernel file is malformed or does not match the grid."""


class ConfigError(AggrestabError):
    """Run configuration is malformed or out of range."""
