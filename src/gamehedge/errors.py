"""Exception types shared across the package.

Each type carries the exit code the command line returns for it: 1 unless
set (usage, scenario, audit and parameter errors), 2 for solver failures.
"""


class GameHedgeError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidParams(GameHedgeError):
    """Caller parameters fail validation (lattice, market, driver, estimate)."""


class AuditFailure(GameHedgeError):
    """A driver audit failed; carries the violating probe."""

    def __init__(self, message, probe=None):
        super().__init__(message)
        self.probe = probe


class EmptyGrid(GameHedgeError):
    """An ambiguity family was given an empty control grid."""


class NuOutOfRange(GameHedgeError):
    """A default-intensity perturbation leaves the admissible band above -1."""


class NoContraction(GameHedgeError):
    """The implicit step is not a contraction (C * dt >= 1)."""

    exit_code = 2


class PicardDivergence(GameHedgeError):
    """Picard iteration produced a non-finite iterate or hit the iteration cap."""

    exit_code = 2


class BarrierViolation(GameHedgeError):
    """Lower barrier exceeds upper barrier at some node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class TooLarge(GameHedgeError):
    """A brute-force enumeration bound was exceeded."""

    exit_code = 2


class UnknownNode(GameHedgeError):
    """A node reference does not exist on the lattice."""

    exit_code = 2


class MismatchedInstances(GameHedgeError):
    """Two solutions do not live on the same lattice."""

    exit_code = 2


class ScenarioError(GameHedgeError):
    """A scenario file failed to parse or validate."""
