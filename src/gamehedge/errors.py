"""Exception types shared across the package."""


class GameHedgeError(Exception):
    """Base class for all package errors."""


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


class PicardDivergence(GameHedgeError):
    """Picard iteration produced a non-finite iterate or hit the iteration cap."""


class DensityNotPositive(GameHedgeError):
    """A state-price density factor is nonpositive on some branch."""


class BarrierViolation(GameHedgeError):
    """Lower barrier exceeds upper barrier at some node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class NegativeDividend(GameHedgeError):
    """A dividend increment is negative at some node."""


class TooLarge(GameHedgeError):
    """A brute-force enumeration bound was exceeded."""


class UnknownNode(GameHedgeError):
    """A node reference does not exist on the lattice."""


class MismatchedInstances(GameHedgeError):
    """Two solutions do not live on the same lattice."""


class PreconditionViolated(GameHedgeError):
    """Caller data violates a comparison hypothesis; carries the step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ScenarioError(GameHedgeError):
    """A scenario file failed to parse or validate."""
