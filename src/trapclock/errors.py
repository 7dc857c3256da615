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
    """A run hit its event cap: a run with no cap of its own reached the
    default one, or every trajectory of an estimate hit the given one."""
