"""Exception vocabulary shared across the toolkit, and the two argument
rules every layer applies: integer arguments and alpha."""

import operator


class TrapclockError(Exception):
    """Base class for all toolkit errors."""


class ContractViolationError(TrapclockError, ValueError):
    """An argument or state violates a documented precondition."""


class DomainError(ContractViolationError):
    """A numeric argument lies outside the mathematical domain."""


class RangeExhaustedError(TrapclockError, RuntimeError):
    """A query lies beyond the simulated range of a path."""


class DegenerateScaleError(TrapclockError, ValueError):
    """A scale set is unusable at the requested size (e.g. theta_n >= a_n)."""


class EventCapError(TrapclockError, RuntimeError):
    """A run hit its event cap: a run with no cap of its own reached the
    default one, or every trajectory of an estimate hit the given one."""


def _integer(name: str, value, lo=None, hi=None) -> int:
    """``value`` as an int: a Python or NumPy integer in [lo, hi] (an open
    end when None).  A bool, a float (integral or not, NaN, inf) or a
    string is refused."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ContractViolationError(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and value < lo:
        raise ContractViolationError(f"need {name} >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ContractViolationError(f"need {name} <= {hi}, got {value}")
    return value


def _check_alpha(alpha) -> None:
    """The stable index alpha of every law here lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
