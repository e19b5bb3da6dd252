"""Exception types shared across the package.

``exit_code`` is the command line's exit code for a class: 2 usage, 3 bad
input, and the base class's 4, an internal invariant violation.  The
elements raise ``FockbenchError`` itself on a broken invariant.
"""


class FockbenchError(Exception):
    """Base class for all package errors."""

    exit_code = 4


# ---- optical elements ----

class BadParam(FockbenchError):
    exit_code = 2


# ---- stochastics ----

class BadCalibration(FockbenchError):
    exit_code = 2


# ---- analysis ----

class FitUnderdetermined(FockbenchError):
    exit_code = 3

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row  # the fringe that fails in a stack; None: the grid fails all


# ---- protocol / cli ----

class ProtocolError(FockbenchError):
    exit_code = 3


class GridMismatch(FockbenchError):
    exit_code = 3


class MalformedInput(FockbenchError):
    """A fringe CSV or run manifest that does not follow its format."""

    exit_code = 3
