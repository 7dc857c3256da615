"""Exception vocabulary shared across the toolkit."""


class TrapclockError(Exception):
    """Base class for all toolkit errors."""


class ContractViolationError(TrapclockError, ValueError):
    """An argument or state violates a documented precondition."""


class DomainError(TrapclockError, ValueError):
    """A numeric argument lies outside the mathematical domain."""


class RangeExhaustedError(TrapclockError, RuntimeError):
    """A query lies beyond the simulated range of a path."""


class DegenerateScaleError(TrapclockError, ValueError):
    """A scale set is unusable at the requested size (e.g. theta_n >= a_n)."""


class EventCapError(TrapclockError, RuntimeError):
    """Every trajectory hit its event cap, leaving nothing to estimate from."""
