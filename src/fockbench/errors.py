"""Exception types shared across the package.

``exit_code`` is the command line's exit code for a class: 2 usage, 3 bad
input, and the base class's 4, an internal invariant violation.
"""


class FockbenchError(Exception):
    """Base class for all package errors."""

    exit_code = 4


# ---- state engine ----

class EmptyModes(FockbenchError):
    pass


class DuplicateMode(FockbenchError):
    pass


class UnknownMode(FockbenchError):
    pass


class TruncationOverflow(FockbenchError):
    pass


class NonUnitary(FockbenchError):
    pass


class ImpossibleOutcome(FockbenchError):
    pass


# ---- optical elements ----

class BadParam(FockbenchError):
    exit_code = 2


class BadWiring(FockbenchError):
    pass


class PolarizationMismatch(FockbenchError):
    pass


# ---- stochastics ----

class BadCalibration(FockbenchError):
    exit_code = 2


# ---- analysis ----

class FitUnderdetermined(FockbenchError):
    exit_code = 3


# ---- protocol / cli ----

class ProtocolError(FockbenchError):
    exit_code = 3


class GridMismatch(FockbenchError):
    exit_code = 3


class MalformedInput(FockbenchError):
    """A fringe CSV or run manifest that does not follow its format."""

    exit_code = 3
