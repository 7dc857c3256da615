"""Quenched random environments on the integer lattice.

An environment assigns every site x in Z^d a heavy-tailed landmark tau(x) via
inverse-transform sampling of a hashed uniform:

    tau(x) = c_bar * U(x)^(-1/alpha),   U(x) = uniform hash of (env_seed, x)

so P(tau(x) > u) = (u/c_bar)^(-alpha) for u >= c_bar (exact Pareto tail) and
distinct sites are i.i.d.  The lattice is lazily infinite: tau is computed on
demand from the seed, never stored.

Jump rates of the dynamics and of its auxiliary variable-speed walk:

    lambda(x, y)  = tau(x)^(theta - 1) * tau(y)^theta      (the chain itself)
    vsrw(x, y)    = (tau(x) * tau(y))^theta                (symmetrized walk)

Detailed balance tau(x) * lambda(x, y) = tau(y) * lambda(y, x) holds to a few
float ulps (both sides are the same product mathematically, but the two power
evaluations round independently); acceptance criterion 01 pins it at 1e-12
relative.  The walk engines (``chains``) compute these rates from ``tau_array``
depths in their site tables; this module only hands out depths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ContractViolationError, _check_alpha, _integer
from .rng import MASK64, hash_coords, unit_from, units_from

Site = Tuple[int, ...]

_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True)
class EnvConfig:
    """Immutable description of one quenched environment."""

    d: int
    alpha: float
    theta: float
    env_seed: int
    c_bar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "d", _integer("d", self.d, 1))
        _check_alpha(self.alpha)
        if not 0.0 <= self.theta <= 1.0:
            raise ContractViolationError(f"theta must lie in [0, 1], got {self.theta}")
        if not self.c_bar > 0.0:
            raise ContractViolationError(f"c_bar must be positive, got {self.c_bar}")
        # the deepest site, c_bar * unit_from(0)^(-1/alpha), must be finite
        if math.log(self.c_bar) - math.log(unit_from(0)) / self.alpha >= _LOG_FLOAT_MAX:
            raise ContractViolationError(
                f"depths overflow float64 at alpha = {self.alpha}, c_bar = {self.c_bar}")
        object.__setattr__(self, "env_seed", _integer("env_seed", self.env_seed, 0, MASK64))

    @property
    def origin(self) -> Site:
        return (0,) * self.d


def _check_site(cfg: EnvConfig, x) -> Site:
    """x as a tuple of ints; refused unless it is a point of Z^d."""
    try:
        site = tuple(int(c) for c in x)
    except (TypeError, ValueError, OverflowError):
        site = None
    if site is None or len(site) != cfg.d or site != tuple(x):
        raise ContractViolationError(f"site {x!r} is not a point of Z^{cfg.d}")
    return site


def tau_array(cfg: EnvConfig, coords: np.ndarray, env_seeds=None) -> np.ndarray:
    """Vectorized tau over an (m, d) int array of sites.

    ``env_seeds``, a uint64 array of one environment seed per row, replaces
    ``cfg.env_seed``: row i is then read in the environment of seed i.
    """
    u = units_from(hash_coords(cfg.env_seed if env_seeds is None else env_seeds,
                               coords))
    return cfg.c_bar * u ** (-1.0 / cfg.alpha)
