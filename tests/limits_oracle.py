"""Per-path reference samplers for the batched first-passage kernel.

``sample_subordinator`` draws one ``SubordinatorPath`` on a fixed horizon a
la Poisson above a small-jump cutoff: a Poisson jump count, uniform epochs
and Pareto sizes, the jumps below the cutoff dropped or compensated by a
drift.  Each sample is one such path, doubled with an independent
continuation until it passes the largest level, and its
passages are read with ``SubordinatorPath.first_passage`` one level at a
time.  ``sample_fk`` evaluates Brownian motion at those passage times via
Gaussian increments.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from trapclock.errors import ContractViolationError, RangeExhaustedError
from trapclock.limits import (_check_alpha_mode, _compensation, default_cutoff,
                              inverse_mean)


class SubordinatorPath:
    """One sampled path: sorted jump epochs/sizes plus optional drift."""

    __slots__ = ("alpha", "jump_times", "jump_sizes", "drift",
                 "small_jump_cutoff", "horizon", "_cum")

    def __init__(self, alpha, jump_times, jump_sizes, drift, small_jump_cutoff,
                 horizon):
        self.alpha = float(alpha)
        self.jump_times = np.asarray(jump_times, dtype=np.float64)
        self.jump_sizes = np.asarray(jump_sizes, dtype=np.float64)
        if self.jump_times.shape != self.jump_sizes.shape:
            raise ContractViolationError("jump times/sizes must align")
        if np.any(np.diff(self.jump_times) < 0):
            raise ContractViolationError("jump times must be sorted")
        self.drift = float(drift)
        self.small_jump_cutoff = float(small_jump_cutoff)
        self.horizon = float(horizon)
        self._cum = np.cumsum(self.jump_sizes)

    def __len__(self):
        return len(self.jump_times)

    def value(self, t: float) -> float:
        """V(t) = drift * t + sum of jumps up to and including t."""
        if t < 0 or t > self.horizon:
            raise RangeExhaustedError(f"t = {t} outside [0, {self.horizon}]")
        idx = int(np.searchsorted(self.jump_times, t, side="right"))
        jumped = self._cum[idx - 1] if idx else 0.0
        return self.drift * t + jumped

    @property
    def final_value(self) -> float:
        total = self._cum[-1] if len(self._cum) else 0.0
        return self.drift * self.horizon + total

    def first_passage(self, u: float):
        """(passage time, value at passage) for level u; value == u when the
        level is crept over by drift, else the post-jump value."""
        if u < 0:
            raise ContractViolationError(f"level must be >= 0, got {u}")
        cum = self._cum
        times = self.jump_times
        if self.drift > 0.0:
            pre = self.drift * times + np.concatenate([[0.0], cum[:-1]]) \
                if len(cum) else np.empty(0)
            post = self.drift * times + cum if len(cum) else np.empty(0)
            j_pre = int(np.searchsorted(pre, u, side="right")) if len(cum) else 0
            j_post = int(np.searchsorted(post, u, side="right")) if len(cum) else 0
            if j_pre < len(times) and j_pre <= j_post:
                # drift crosses inside the waiting interval before jump j_pre
                base = cum[j_pre - 1] if j_pre else 0.0
                return (u - base) / self.drift, u
            if j_post < len(times):
                return float(times[j_post]), float(post[j_post])
            tail_base = cum[-1] if len(cum) else 0.0
            if self.drift * self.horizon + tail_base > u:
                return (u - tail_base) / self.drift, u
        else:
            idx = int(np.searchsorted(cum, u, side="right"))
            if idx < len(cum):
                return float(self.jump_times[idx]), float(cum[idx])
        raise RangeExhaustedError(
            f"path never exceeds {u} (final value {self.final_value})")


def sample_subordinator(alpha: float, horizon: float, rng: np.random.Generator,
                        cutoff: Optional[float] = None,
                        mode: str = "overshoot") -> SubordinatorPath:
    """Poissonian path of the alpha-stable subordinator on [0, horizon]."""
    _check_alpha_mode(alpha, mode)
    if horizon <= 0:
        raise ContractViolationError(f"horizon must be positive, got {horizon}")
    delta = default_cutoff(alpha, horizon) if cutoff is None else float(cutoff)
    if delta <= 0:
        raise ContractViolationError("cutoff must be positive")
    n = rng.poisson(horizon * delta ** -alpha)
    times = np.sort(rng.uniform(0.0, horizon, n))
    sizes = delta * (1.0 - rng.uniform(0.0, 1.0, n)) ** (-1.0 / alpha)
    drift = _compensation(alpha, delta) if mode == "moment" else 0.0
    return SubordinatorPath(alpha, times, sizes, drift, delta, horizon)


def extend_path(path: SubordinatorPath, new_horizon: float,
                rng: np.random.Generator) -> SubordinatorPath:
    """Continue a path to a later horizon with fresh jumps (independent piece)."""
    if new_horizon <= path.horizon:
        raise ContractViolationError("new horizon must exceed the old one")
    span = new_horizon - path.horizon
    delta = path.small_jump_cutoff
    n = rng.poisson(span * delta ** -path.alpha)
    times = path.horizon + np.sort(rng.uniform(0.0, span, n))
    sizes = delta * (1.0 - rng.uniform(0.0, 1.0, n)) ** (-1.0 / path.alpha)
    return SubordinatorPath(
        path.alpha, np.concatenate([path.jump_times, times]),
        np.concatenate([path.jump_sizes, sizes]), path.drift,
        delta, new_horizon)


def passage_times(alpha: float, levels, horizon: float, cutoff: float,
                  mode: str, rng: np.random.Generator) -> np.ndarray:
    """First-passage times of the sorted positive levels by one path."""
    path = sample_subordinator(alpha, horizon, rng, cutoff=cutoff, mode=mode)
    while path.final_value <= levels[-1]:
        path = extend_path(path, 2.0 * path.horizon, rng)
    return np.asarray([path.first_passage(u)[0] for u in levels])


@dataclass
class FKSample:
    """Fractional-kinetics path evaluated on a time grid."""

    alpha: float
    d: int
    times: np.ndarray
    inverse_times: np.ndarray
    positions: np.ndarray
    path: SubordinatorPath = field(repr=False, default=None)


def sample_fk(alpha: float, d: int, grid, rng: np.random.Generator,
              cutoff=None, mode: str = "moment",
              jump_budget: int = 20_000) -> FKSample:
    """Brownian motion time-changed by the inverse subordinator, on a grid.

    The subordinator horizon starts at a mean-based guess and doubles until
    the path exceeds the largest grid time; the Brownian motion is evaluated
    at the (nondecreasing) first-passage times via Gaussian increments.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid < 0):
        raise ContractViolationError("grid must be 1-d with nonnegative times")
    if np.any(np.diff(grid) < 0):
        raise ContractViolationError("grid must be sorted ascending")
    if d < 1:
        raise ContractViolationError(f"dimension must be >= 1, got {d}")
    target = float(grid[-1])
    horizon = 2.0 * inverse_mean(alpha, max(target, 1e-12)) + 1.0
    if cutoff is None:
        cutoff = default_cutoff(alpha, horizon * 4.0, jump_budget)
    path = sample_subordinator(alpha, horizon, rng, cutoff=cutoff, mode=mode)
    while path.final_value <= target:
        path = extend_path(path, 2.0 * path.horizon, rng)
    inv = np.asarray([path.first_passage(t)[0] if t > 0 else 0.0 for t in grid])
    du = np.diff(inv, prepend=0.0)
    steps = rng.standard_normal((grid.size, d)) * np.sqrt(du)[:, None]
    positions = np.cumsum(steps, axis=0)
    return FKSample(alpha=alpha, d=d, times=grid, inverse_times=inv,
                    positions=positions, path=path)
