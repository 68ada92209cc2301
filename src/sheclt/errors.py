"""Structured exceptions and warnings shared across the package."""


class ShecltError(Exception):
    """Base class for all package errors."""


class SolverBlowup(ShecltError):
    """A field value exceeded the blow-up guard during time stepping."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class NonConvergence(ShecltError):
    """Successive fixed-point iterates or quadrature sums stopped converging."""


class SupportOverflow(ShecltError):
    """A scaled test-function support does not fit the grid domain plus halo."""


class CutoffTooSmall(ShecltError):
    """Covariance truncation cutoff leaves a non-negligible boundary contribution."""


class DegenerateVariance(ShecltError):
    """A reference variance is zero or negative."""


class ConfigError(ShecltError):
    """Invalid configuration value; the message names the offending key."""


class DalangViolation(ConfigError):
    """The spectral integral diverges for the given covariance kind and dimension."""


class SynthesisWarning(UserWarning):
    """Spectral synthesis clipped a non-trivial amount of negative weight mass."""


class CovarianceNotPSD(UserWarning):
    """A metric did not embed exactly; the nearest PSD correction was used."""
