"""Exception hierarchy shared across the toolkit.

Every failure mode that callers are expected to handle maps to one of these
types.  Each type carries the exit code the CLI returns for it as the class
attribute `exit_code`; a type that sets none exits 2, the base's code.
"""


class CassikitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class ShapeError(CassikitError):
    """Operands have incompatible or invalid extents."""

    exit_code = 3


class ParameterError(CassikitError):
    """A configuration value or argument is out of its valid range."""


class NumericalError(CassikitError):
    """An operation produced NaN/Inf or hit a degenerate denominator."""

    exit_code = 6


class GraphStateError(CassikitError):
    """Backward was requested on a tensor with no recorded graph."""


class OperatorError(CassikitError):
    """A sensing operator violates its structural contract."""

    exit_code = 3


class FormatError(CassikitError):
    """A file does not conform to its container format."""


class MetricError(CassikitError):
    """A metric is undefined for the given inputs."""

    exit_code = 8


class MissingParamsError(CassikitError):
    """A learned component was requested without its weights."""

    exit_code = 4


class DivergenceError(CassikitError):
    """Training produced a non-finite loss."""

    exit_code = 5


class OracleCapError(CassikitError):
    """A dense materialization exceeds the configured size cap."""


class OutOfMemoryError(CassikitError):
    """A command asked for more memory than the machine could give."""

    exit_code = 9
