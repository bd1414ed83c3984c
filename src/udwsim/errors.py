"""Exception types shared across the package."""


class ValidityError(ValueError):
    """A closed-form expression was requested outside its regime of validity;
    the message names the violated constraint."""


class SingularParameterError(ValueError):
    """Parameters sit exactly on a singular set of a closed-form expression."""


class HyperbolicRangeError(ValueError):
    """A correlator was asked for a hyperbolic function past the argument
    range where it is evaluated (a rate cut or window far beyond the decay
    of the correlator)."""


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    The best available estimate and its error are attached so diagnostic
    code paths (e.g. the CLI's NaN-with-flag policy) can still report them.
    """

    def __init__(self, message, estimate=None, error_estimate=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class IndeterminateRatioError(RuntimeError):
    """A detailed-balance ratio could not be formed because the denominator
    rate is zero within its error estimate."""


class ConfigError(ValueError):
    """Aggregated configuration validation failure (one message per field)."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
