"""Per-path reference samplers for the batched first-passage kernel.

Each sample is one sorted ``SubordinatorPath`` on a fixed horizon, doubled
with an independent continuation until it passes the largest level, and its
passages are read with ``SubordinatorPath.first_passage`` one level at a
time.  ``sample_fk`` evaluates Brownian motion at those passage times via
Gaussian increments.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from trapclock.errors import ContractViolationError
from trapclock.limits import (SubordinatorPath, default_cutoff, inverse_mean,
                              sample_subordinator)


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
