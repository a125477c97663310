"""Exception hierarchy shared across the package."""


class PolyherglotzError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(PolyherglotzError, ValueError):
    """Malformed input: dimension mismatch, bad id, bad parameter, ..."""


class InvalidPointError(InvalidArgumentError):
    """A coordinate lies on (or numerically on) the real axis."""


class InvalidMeasureError(InvalidArgumentError):
    """Measure fails a structural invariant, or the growth condition a function needs."""


class UnknownCatalogueIdError(InvalidArgumentError):
    """Requested catalogue entry does not exist."""


class DivergenceError(PolyherglotzError):
    """Integrand does not decay; the integral is treated as divergent."""


class TestFunctionBoundError(InvalidArgumentError):
    """Test function violates its declared |phi| <= D * prod(1+x^2)^-1 bound."""

    __test__ = False  # not a pytest collection target despite the name
