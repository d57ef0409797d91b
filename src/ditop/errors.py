"""Exception types shared across the toolkit, and the file reader that raises one."""

from __future__ import annotations


class DitopError(Exception):
    """Base class for every error raised by this package."""


class InputError(DitopError):
    """Malformed input: a bad file, an unknown cell, a violated precondition."""


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``; InputError when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


class ResourceLimitError(DitopError):
    """A configured search budget ran out before an answer was reached."""


DEFAULT_BUDGET = 1_000_000  # of every bounded search, in the units it counts


def check_budget(budget) -> None:
    """Raise InputError when a search budget is negative."""
    if budget < 0:
        raise InputError("budget must be non-negative")


class EndpointMismatchError(InputError):
    """Two paths were combined whose endpoints do not meet."""


class InvalidPathError(InputError):
    """An edge sequence violates the incidence conditions of a path."""


class LiftError(DitopError):
    """A path lift failed; names the base edge and the vertex where it failed."""

    def __init__(self, message, edge, vertex):
        super().__init__(message)
        self.edge = edge
        self.vertex = vertex


class NoLiftError(LiftError):
    """No edge upstairs covers the base edge from the current vertex."""


class AmbiguousLiftError(LiftError):
    """More than one edge upstairs covers the base edge from the current vertex."""

    def __init__(self, message, edge, vertex, count):
        super().__init__(message, edge, vertex)
        self.count = count


class AmbiguousFactorizationError(DitopError):
    """A factorization by lifting met a cell with two or more candidate lifts.

    The projection then fails unique lifting at the basepoint, so it is
    not a dicovering there.
    """


class PvSyntaxError(InputError):
    """A PV source text failed to parse; carries the offending position."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class PvSemanticError(InputError):
    """A PV program parsed but breaks a well-formedness rule."""

    def __init__(self, message, line=0, col=0):
        where = f"{line}:{col}: " if line else ""
        super().__init__(where + message)
        self.line = line
        self.col = col
