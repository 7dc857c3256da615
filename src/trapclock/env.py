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
evaluations round independently); tests pin it at 1e-12 relative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ContractViolationError
from .rng import MASK64, hash_coords, hash_words, unit_from, units_from

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
        if self.d < 1:
            raise ContractViolationError(f"dimension must be >= 1, got {self.d}")
        if not 0.0 < self.alpha < 1.0:
            raise ContractViolationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 <= self.theta <= 1.0:
            raise ContractViolationError(f"theta must lie in [0, 1], got {self.theta}")
        if not self.c_bar > 0.0:
            raise ContractViolationError(f"c_bar must be positive, got {self.c_bar}")
        # the deepest site, c_bar * unit_from(0)^(-1/alpha), must be finite
        if math.log(self.c_bar) - math.log(unit_from(0)) / self.alpha >= _LOG_FLOAT_MAX:
            raise ContractViolationError(
                f"depths overflow float64 at alpha = {self.alpha}, c_bar = {self.c_bar}")
        if not 0 <= self.env_seed <= MASK64:
            raise ContractViolationError("env_seed must be an unsigned 64-bit integer")

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


def uniform_at(cfg: EnvConfig, x) -> float:
    """The hashed uniform U(x) in (0, 1) behind tau(x)."""
    return unit_from(hash_words(cfg.env_seed, *_check_site(cfg, x)))


def tau_at(cfg: EnvConfig, x) -> float:
    """Landmark tau(x) = c_bar * U(x)^(-1/alpha); always > c_bar.

    Single-site view of ``tau_array`` — same ufunc evaluation, so the scalar
    and vectorized access paths agree bit for bit (a site must never flip trap
    status depending on which API looked at it).
    """
    x = _check_site(cfg, x)
    return float(tau_array(cfg, np.array([x], dtype=np.int64))[0])


def tau_array(cfg: EnvConfig, coords: np.ndarray, env_seeds=None) -> np.ndarray:
    """Vectorized tau over an (m, d) int array of sites.

    ``env_seeds``, a uint64 array of one environment seed per row, replaces
    ``cfg.env_seed``: row i is then read in the environment of seed i.
    """
    u = units_from(hash_coords(cfg.env_seed if env_seeds is None else env_seeds,
                               coords))
    return cfg.c_bar * u ** (-1.0 / cfg.alpha)


def neighbors(cfg: EnvConfig, x) -> list:
    """Nearest neighbors in canonical order: +e_0, -e_0, +e_1, -e_1, ..."""
    x = _check_site(cfg, x)
    out = []
    for a in range(cfg.d):
        for s in (1, -1):
            y = list(x)
            y[a] += s
            out.append(tuple(y))
    return out


def shifted_sites(coords: np.ndarray):
    """Yield copies of an (m, d) site array shifted to each neighbor, one at a
    time, in the canonical order of ``neighbors``: +e_0, -e_0, +e_1, ..."""
    for a in range(coords.shape[1]):
        for s in (1, -1):
            shifted = coords.copy()
            shifted[:, a] += s
            yield shifted


def is_edge(cfg: EnvConfig, x, y) -> bool:
    x = _check_site(cfg, x)
    y = _check_site(cfg, y)
    return sum(abs(a - b) for a, b in zip(x, y)) == 1


def edge_rate(cfg: EnvConfig, x, y) -> float:
    """Jump rate lambda(x, y) of the dynamics along the edge (x, y)."""
    if not is_edge(cfg, x, y):
        raise ContractViolationError(f"{x} and {y} are not nearest neighbors")
    return tau_at(cfg, x) ** (cfg.theta - 1.0) * tau_at(cfg, y) ** cfg.theta


def vsrw_rate(cfg: EnvConfig, x, y) -> float:
    """Symmetric walk rate (tau(x)tau(y))^theta, computed in canonical site order.

    The factors are multiplied lexicographically-smaller-site first so the two
    argument orders run the identical float expression.
    """
    if not is_edge(cfg, x, y):
        raise ContractViolationError(f"{x} and {y} are not nearest neighbors")
    a, b = sorted((tuple(x), tuple(y)))
    return (tau_at(cfg, a) * tau_at(cfg, b)) ** cfg.theta


def tail_probability(cfg: EnvConfig, u: float) -> float:
    """P(tau(0) > u): exact Pareto tail, 1 below the floor c_bar."""
    if u <= cfg.c_bar:
        return 1.0
    return (u / cfg.c_bar) ** (-cfg.alpha)
