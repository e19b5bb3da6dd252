"""Exception types shared across the package."""


class FockbenchError(Exception):
    """Base class for all package errors."""


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
    pass


class BadWiring(FockbenchError):
    pass


class PolarizationMismatch(FockbenchError):
    pass


# ---- stochastics ----

class BadCalibration(FockbenchError):
    pass


# ---- analysis ----

class FitUnderdetermined(FockbenchError):
    pass


# ---- protocol / cli ----

class ProtocolError(FockbenchError):
    pass


class GridMismatch(FockbenchError):
    pass


class MalformedInput(FockbenchError):
    """A fringe CSV or run manifest that does not follow its format."""
