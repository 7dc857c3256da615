"""Clock processes: accumulation, blocking, truncation.

The clock S is the physical-time functional of a trajectory J:

* continuous kind:  S grows by holding * tau(site) per event (the
  variable-speed walk's time change), so S(t) = sum_x local_time_t(x) tau(x);
* discrete kind:    step i at site x contributes mark_i / lambda(x), i.e.
  mark_i * tau(x)^(1-theta) / sum_y tau(y)^theta.

A ClockPath is the cadlag step function sampled at jump epochs: value_at(t)
returns values[i] for the largest breakpoint <= t.  The scales divide time
by a_n and clock values by c_n; blocking aggregates the rescaled clock over
windows of internal length theta_n.  The truncated variant keeps only
contributions from deep-trap sites (the trap set T_n, whose membership per
site is ``trap_mask``) and is expressed directly in rescaled units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import ChainKind, JumpSequence, as_model
from .errors import (ContractViolationError, DegenerateScaleError,
                     RangeExhaustedError)


@dataclass(frozen=True)
class ScaleSet:
    """The rescaling quadruple (c_n, a_n, theta_n, eps_n) at size n.

    c_n divides clock values, a_n multiplies the time argument, theta_n is the
    blocking window, eps_n the deep-trap threshold (tau(x) > eps_n * c_n with
    no neighbor above eps_n^(-2/alpha)).  All logs are natural.
    """

    n: int
    alpha: float
    d: int
    c_n: float
    a_n: float
    theta_n: float
    eps_n: float

    def __post_init__(self):
        scales = (self.c_n, self.a_n, self.theta_n, self.eps_n)
        if not all(0 < v < math.inf for v in scales):
            raise ContractViolationError(
                f"scales (c_n, a_n, theta_n, eps_n) = {scales} must be finite "
                f"and positive")
        if not 0.0 < self.alpha < 1.0:
            raise ContractViolationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.theta_n < 2:
            raise DegenerateScaleError(
                f"blocking window theta_n = {self.theta_n} < 2 at n = {self.n}")
        if self.theta_n >= self.a_n:
            raise DegenerateScaleError(
                f"theta_n = {self.theta_n} >= a_n = {self.a_n}: no blocks fit "
                f"inside the unit rescaled time at n = {self.n}")

    @classmethod
    def for_lattice(cls, n: int, d: int, alpha: float,
                    gamma2: float = 0.15) -> "ScaleSet":
        """Scales for the lattice walk at size n.

        d = 2:   a_n = n^alpha (ln n)^(1-alpha), theta_n = n^(alpha*gamma2),
                 eps_n = (ln theta_n)^(-6/(1-alpha))
        d >= 3:  a_n = n^alpha, theta_n = floor(a_n^0.1), eps_n = theta_n^(-1/3)

        theta_n is clamped below at 2 (the blocking degenerates otherwise).

        The paper's d >= 3 window is (ln n)^gamma_3 with gamma_3 > 12/(1-alpha).
        It is not offered: at gamma_3 = 13/(1-alpha) it first fits below a_n
        near n = 10^129 (alpha = 0.5; 10^159 at alpha = 0.3 and 0.7, beyond
        float range at alpha = 0.1 and 0.9), where one block alone is at
        least 4 * 10^47 steps, so no run at those scales can finish.
        """
        if n < 2:
            raise DegenerateScaleError(f"need n >= 2, got {n}")
        if d < 2:
            raise DegenerateScaleError("lattice scales are defined for d >= 2")
        if not 0.0 < alpha < 1.0:
            raise ContractViolationError(f"alpha must lie in (0, 1), got {alpha}")
        c_n = float(n)
        if d == 2:
            if not 0.0 < gamma2 < 1.0 / 6.0:
                raise ContractViolationError(
                    f"gamma2 must lie in (0, 1/6), got {gamma2}")
            a_n = n ** alpha * math.log(n) ** (1.0 - alpha)
            theta_n = max(2.0, n ** (alpha * gamma2))
            eps_n = math.log(theta_n) ** (-6.0 / (1.0 - alpha))
        else:
            a_n = n ** alpha
            theta_n = max(2.0, float(math.floor(a_n ** 0.1)))
            eps_n = theta_n ** (-1.0 / 3.0)
        return cls(n=n, alpha=alpha, d=d, c_n=c_n, a_n=a_n, theta_n=theta_n,
                   eps_n=eps_n)

    def k_of(self, t: float) -> int:
        """Number of complete blocks by rescaled time t: floor(floor(a_n t)/theta_n)."""
        if not 0 <= t < math.inf:
            raise ContractViolationError(f"need a finite t >= 0, got {t}")
        return int(math.floor(math.floor(self.a_n * t) / self.theta_n))

    @property
    def trap_tau_floor(self) -> float:
        """tau threshold of the trap set: gamma_n(x) > eps_n."""
        return self.eps_n * self.c_n

    @property
    def trap_neighbor_cap(self) -> float:
        """Largest neighbor tau tolerated inside the trap set."""
        return self.eps_n ** (-2.0 / self.alpha)

    def is_trap(self, tau_x, max_neighbor_tau):
        """Trap-set membership; elementwise on arrays."""
        return (tau_x > self.trap_tau_floor) & (max_neighbor_tau <= self.trap_neighbor_cap)

    @property
    def sup_gap(self) -> float:
        """Truncation error bound delta_n = eps_n^((1-alpha)/2)."""
        return self.eps_n ** ((1.0 - self.alpha) / 2.0)

    def displacement_radius(self, t: float) -> float:
        """d_n(t) = floor(a_n t)^(1/2) ln floor(a_n t)."""
        m = math.floor(self.a_n * t)
        if m < 2:
            raise DegenerateScaleError(f"floor(a_n t) = {m} too small for a radius")
        return math.sqrt(m) * math.log(m)

    def window_radius(self) -> float:
        """(theta_n ln theta_n)^(1/2), the two-time window localization radius."""
        return math.sqrt(self.theta_n * math.log(self.theta_n))


class ClockPath:
    """Nondecreasing cadlag step function (breakpoints, cumulative values)."""

    __slots__ = ("breakpoints", "values", "kind")

    def __init__(self, breakpoints, values, kind: ChainKind):
        bp = np.asarray(breakpoints, dtype=np.float64)
        va = np.asarray(values, dtype=np.float64)
        if bp.shape != va.shape or bp.ndim != 1 or bp.size == 0:
            raise ContractViolationError("breakpoints/values must be equal-length 1-d")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(va)):
            raise ContractViolationError("clock path must be finite")
        # ties occur where a holding is below the ulp of the running time
        if np.any(np.diff(bp) < 0):
            raise ContractViolationError("breakpoints must be nondecreasing")
        if np.any(np.diff(va) < 0):
            raise ContractViolationError("clock values must be nondecreasing")
        self.breakpoints = bp
        self.values = va
        self.kind = kind

    def value_at(self, t):
        """values[i] for the largest breakpoint <= t (scalar or array t)."""
        if np.any(np.isnan(t)):
            raise ContractViolationError("query time must not be NaN")
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        if np.any(idx < 0):
            raise ContractViolationError(
                f"query time {t} precedes the first breakpoint")
        out = self.values[idx]
        return float(out) if np.isscalar(t) else out

    @property
    def final_time(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def final_value(self) -> float:
        return float(self.values[-1])

    def __len__(self):
        return len(self.breakpoints)


def _continuous_path(jumps: JumpSequence, incs: np.ndarray, last) -> ClockPath:
    """The clock path of a continuous run from its per-jump increments
    ``incs`` and the increment ``last`` of its final holding: breakpoints 0,
    the jump epochs and, when its time ran on past the last jump, the final
    time; values the running sum of the increments from 0, in order."""
    bp = np.concatenate([np.zeros(1), jumps.times])
    incs = np.concatenate([np.zeros(1), incs])
    if jumps.final_time > bp[-1]:
        bp = np.append(bp, jumps.final_time)
        incs = np.append(incs, last)
    return ClockPath(bp, np.cumsum(incs), jumps.kind)


def build_clock(env_or_model, jumps: JumpSequence) -> ClockPath:
    """Accumulate the event-stream clock of a trajectory into a ClockPath."""
    w = as_model(env_or_model).clock_weights(jumps.sites, jumps.kind)
    if jumps.kind is ChainKind.CONTINUOUS_J_VSRW:
        return _continuous_path(jumps, jumps.holdings * w[:-1], jumps.final_holding * w[-1])
    # discrete: one breakpoint per step index, the step's own mark included
    vals = np.cumsum(np.append(jumps.holdings, jumps.final_holding) * w)
    return ClockPath(np.arange(len(vals), dtype=np.float64), vals, jumps.kind)


@dataclass
class BlockSeries:
    """Block increments Z_k of the rescaled clock plus the initial term Z0."""

    Z: np.ndarray
    Z0: float

    @property
    def k_count(self) -> int:
        return len(self.Z)


def block_series(clock: ClockPath, scales: ScaleSet, t: float) -> BlockSeries:
    """Increments Z_k = c_n^(-1)(S(theta_n k) - S(theta_n(k-1))), k = 1..k_n(t).

    Z0 is the clock's value at time zero (nonzero only for the discrete kind,
    whose step-0 mark is already on the books).
    """
    K = scales.k_of(t)
    bounds = scales.theta_n * np.arange(K + 1, dtype=np.float64)
    if K and bounds[-1] > clock.final_time:
        raise RangeExhaustedError(
            f"block {K} needs internal time {bounds[-1]}, path ends at "
            f"{clock.final_time}")
    at = clock.value_at(bounds) if K else np.asarray([clock.value_at(0.0)])
    Z = np.diff(at) / scales.c_n
    return BlockSeries(Z=Z, Z0=float(at[0]))


def trap_mask(model, scales: ScaleSet, sites: np.ndarray) -> np.ndarray:
    """Trap-set membership per row of sites: tau(x) above the floor and no
    neighbor tau above the cap."""
    return scales.is_trap(model.clock_weights(sites, ChainKind.CONTINUOUS_J_VSRW),
                          model.max_neighbor_tau(sites))


def truncated_clock_path(env_or_model, jumps: JumpSequence,
                         scales: ScaleSet) -> ClockPath:
    """Deep-trap-only clock in rescaled units: increments gamma_n(x) * holding
    for x in the trap set, sampled at the same jump epochs as the full clock."""
    model = as_model(env_or_model)
    if jumps.kind is not ChainKind.CONTINUOUS_J_VSRW:
        raise ContractViolationError("truncation applies to the continuous kind")
    w = model.clock_weights(jumps.sites, jumps.kind)
    mask = trap_mask(model, scales, jumps.sites)
    last = jumps.final_holding * w[-1] / scales.c_n if mask[-1] else 0.0
    return _continuous_path(jumps, jumps.holdings * (w[:-1] / scales.c_n) * mask[:-1], last)
