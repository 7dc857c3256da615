"""Limit objects: arcsine law, stable subordinators, fractional kinetics.

The limiting clock is the alpha-stable subordinator V with Levy measure
nu(u, inf) = u^(-alpha) and zero drift (Laplace exponent Gamma(1-alpha)
lambda^alpha).  Paths are sampled a la Poisson above a small-jump cutoff
delta: jump count ~ Poisson(T delta^(-alpha)), epochs uniform on [0, T],
sizes delta * U^(-1/alpha).  Jumps below delta are dropped ("overshoot" mode)
or compensated by their mean alpha/(1-alpha) delta^(1-alpha) per unit time as
a deterministic drift ("moment" mode).

The overshoot of a nondecreasing path Y over level u is Y(L_u) - u at the
first passage L_u = inf{t : Y(t) > u}; for the stable subordinator
P(overshoot at level 1 >= rho) equals the generalized arcsine CDF
Asl_alpha(1/(1+rho)), the bridge between clock processes and aging.
First passages of many paths over a sorted list of levels come from one
batched kernel that grows paths with exponential gaps until they pass the
last level, so no horizon is fixed in advance.

The fractional-kinetics process is an independent d-dimensional Brownian
motion evaluated at the right-continuous inverse of V; its mean squared
displacement grows like d * t^alpha / (Gamma(1+alpha)Gamma(1-alpha)).
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .clock import ClockPath
from .errors import ContractViolationError, DomainError, RangeExhaustedError
from .rng import hash_words

DEFAULT_CUTOFF = 1e-6
DEFAULT_JUMP_BUDGET = 200_000

# paths per block of the first-passage kernel, and jumps per path and draw
_PATH_BATCH = 20_000
_JUMP_CHUNK = 128
# paths per block of subordinator_values
_SUBORDINATOR_BATCH = 5_000

_BETA_ITMAX = 500
_BETA_EPS = 1e-15
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise RangeExhaustedError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by continued fraction with the symmetry switch at the mean."""
    if a <= 0 or b <= 0:
        raise DomainError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"beta argument must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def arcsine_cdf(alpha: float, u) -> float:
    """Generalized arcsine CDF Asl_alpha(u) = I_u(alpha, 1 - alpha)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if np.ndim(u) > 0:
        return np.asarray([arcsine_cdf(alpha, v) for v in np.asarray(u, float)])
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"arcsine argument must lie in [0, 1], got {u}")
    return regularized_incomplete_beta(alpha, 1.0 - alpha, u)


def default_cutoff(alpha: float, horizon: float,
                   jump_budget: int = DEFAULT_JUMP_BUDGET) -> float:
    """Small-jump cutoff: 1e-6, raised just enough to keep the expected jump
    count horizon * delta^(-alpha) within the budget."""
    return max(DEFAULT_CUTOFF, (horizon / jump_budget) ** (1.0 / alpha))


def _compensation(alpha: float, delta: float) -> float:
    return alpha / (1.0 - alpha) * delta ** (1.0 - alpha)


def _check_grid(t_grid) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0 or not np.all((grid >= 0) & (grid < np.inf)):
        raise ContractViolationError("grid must be 1-d with finite times >= 0")
    return grid


def _check_alpha_mode(alpha: float, mode: str) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if mode not in ("overshoot", "moment"):
        raise ContractViolationError(f"unknown small-jump mode {mode!r}")


def overshoot(clock: ClockPath, u: float) -> float:
    """S(L_u) - u for a clock path S, L_u its first passage over u.

    Depends on the path only through its range, so any time reparametrization
    leaves it unchanged.
    """
    if not isinstance(clock, ClockPath):
        raise ContractViolationError(
            f"cannot take an overshoot of {type(clock).__name__}")
    vals = clock.values
    idx = int(np.searchsorted(vals, u, side="right"))
    if idx >= len(vals):
        raise RangeExhaustedError(
            f"clock never exceeds {u} (final value {vals[-1]})")
    return float(vals[idx]) - u


def _first_passages(levels, n_paths: int, draw, drift: float,
                    timed: bool = True):
    """(times, values) of the first passages over sorted levels, each of
    shape (n_paths, len(levels)); times is None unless ``timed``.

    Paths start at 0 and grow in blocks of jumps: ``draw(m)`` returns the
    (gaps, sizes) arrays, shape (m, chunk), for the m paths still below the
    last level; a path creeps at ``drift`` through each gap, then jumps.  A
    level is passed at the first jump whose post-jump value exceeds it, at
    the jump time with the post-jump value; when the creep before that jump
    already exceeded it, at the creep time with the level itself.
    """
    levels = np.asarray(levels, dtype=np.float64)
    times = np.empty((n_paths, levels.size))
    values = np.empty((n_paths, levels.size))
    for lo in range(0, n_paths, _PATH_BATCH):
        m = min(_PATH_BATCH, n_paths - lo)
        t_out, v_out = times[lo:lo + m], values[lo:lo + m]
        vals = np.zeros(m)
        clock = np.zeros(m)
        alive = np.arange(m)
        while alive.size:
            gaps, sizes = draw(alive.size)
            start = vals[alive]
            post = drift * gaps  # in place: no extra block-sized temporaries
            post += sizes
            np.cumsum(post, axis=1, out=post)
            post += start[:, None]
            end = post[:, -1]
            first, last = np.searchsorted(levels, [start.min(), end.max()])
            for k in range(first, last):
                u = levels[k]
                rows = np.nonzero((start <= u) & (end > u))[0]
                if not rows.size:
                    continue
                cols = (post[rows] > u).argmax(axis=1)
                val = post[rows, cols]
                pre = val - sizes[rows, cols]
                crept = pre > u
                v_out[alive[rows], k] = np.where(crept, u, val)
                if timed:
                    at = clock[alive[rows]] + np.cumsum(
                        gaps[rows], axis=1)[np.arange(rows.size), cols]
                    if drift > 0.0:
                        at = np.where(crept, at - (pre - u) / drift, at)
                    t_out[alive[rows], k] = at
            vals[alive] = end
            if timed:
                clock[alive] += gaps.sum(axis=1)
            alive = alive[end <= levels[-1]]
    return times if timed else None, values


def _jump_draw(alpha: float, delta: float, mode: str,
               rng: np.random.Generator, jump_chunk: int):
    """(draw, drift) for _first_passages: exponential gaps at rate
    delta^(-alpha), then sizes delta * U^(-1/alpha); the jumps below delta
    are dropped, or compensated by a drift in "moment" mode."""
    _check_alpha_mode(alpha, mode)
    scale = 1.0 / delta ** -alpha

    def draw(m):
        gaps = rng.exponential(scale, (m, jump_chunk))
        sizes = rng.uniform(size=(m, jump_chunk))
        np.subtract(1.0, sizes, out=sizes)
        sizes **= -1.0 / alpha
        sizes *= delta
        return gaps, sizes
    return draw, _compensation(alpha, delta) if mode == "moment" else 0.0


def passage_values(alpha: float, level: float, n_paths: int,
                   rng: np.random.Generator, cutoff: Optional[float] = None,
                   mode: str = "moment",
                   jump_budget: int = 2_000) -> np.ndarray:
    """First-passage values V(L_level) for n_paths independent subordinators.

    Stochastically identical to sampling each path on a horizon and reading
    its first passage, but batched across paths (jump gaps are exponential,
    so the path can be grown until it crosses without fixing a horizon
    first).  Drift creep records the exact level (overshoot zero).  The
    default cutoff keeps the expected jump count per path near
    ``jump_budget``.
    """
    _check_alpha_mode(alpha, mode)
    if not 0 < level < math.inf or n_paths <= 0:
        raise ContractViolationError(
            f"need a finite level > 0 and n_paths > 0, got {level}, {n_paths}")
    # passage times concentrate near the mean of the inverse; budget on that
    v_scale = inverse_mean(alpha, level) * 4.0 + 1.0
    delta = default_cutoff(alpha, v_scale, jump_budget) if cutoff is None \
        else float(cutoff)
    draw, drift = _jump_draw(alpha, delta, mode, rng, _JUMP_CHUNK)
    _, values = _first_passages([level], n_paths, draw, drift, timed=False)
    return values[:, 0]


def inverse_mean(alpha: float, t: float) -> float:
    """E of the inverse subordinator at t: t^alpha / (Gamma(1+a)Gamma(1-a))."""
    return t ** alpha / (math.gamma(1.0 + alpha) * math.gamma(1.0 - alpha))


def subordinator_values(alpha: float, t_grid, n_paths: int,
                        rng: np.random.Generator,
                        cutoff: Optional[float] = None, mode: str = "moment",
                        jump_budget: int = 2_000) -> np.ndarray:
    """V at the grid times for n_paths independent paths, shape (n_paths, m).

    Only marginal values are needed, so jumps are binned per path without
    sorting: each path draws a Poisson jump count on [0, horizon], and V(t)
    sums the sizes whose uniform epoch lands at or before t.
    """
    t_grid = _check_grid(t_grid)
    _check_alpha_mode(alpha, mode)
    if n_paths <= 0:
        raise ContractViolationError("need n_paths > 0")
    horizon = float(t_grid.max())
    if horizon <= 0:
        return np.zeros((n_paths, t_grid.size))
    delta = default_cutoff(alpha, horizon, jump_budget) if cutoff is None \
        else float(cutoff)
    rate = delta ** -alpha
    drift = _compensation(alpha, delta) if mode == "moment" else 0.0
    out = np.empty((n_paths, t_grid.size))
    done = 0
    while done < n_paths:
        m = min(_SUBORDINATOR_BATCH, n_paths - done)
        counts = rng.poisson(horizon * rate, m)
        tot = int(counts.sum())
        sizes = delta * (1.0 - rng.uniform(size=tot)) ** (-1.0 / alpha)
        epochs = rng.uniform(0.0, horizon, tot)
        owner = np.repeat(np.arange(m), counts)
        for g, t in enumerate(t_grid):
            vals = np.bincount(owner, weights=sizes * (epochs <= t),
                               minlength=m)
            out[done:done + m, g] = drift * t + vals
        done += m
    return out


_FK_SAMPLE_DOMAIN = 0xF1D0


def _fk_msd_chunk(args):
    (alpha, d, grid, seed, cutoff, mode, jump_budget, lo, hi) = args
    rng = np.random.default_rng(hash_words(seed, _FK_SAMPLE_DOMAIN, lo, hi))
    # the budget is set on a horizon past the typical passage of grid[-1]
    horizon = 2.0 * inverse_mean(alpha, max(grid[-1], 1e-12)) + 1.0
    delta = default_cutoff(alpha, 4.0 * horizon, jump_budget) if cutoff is None \
        else float(cutoff)
    moving = grid > 0.0
    inv = np.zeros((hi - lo, grid.size))
    if moving.any():
        # a chunk holds few paths, so long jump blocks keep the per-block
        # overhead down
        times, _ = _first_passages(grid[moving], hi - lo,
                                   *_jump_draw(alpha, delta, mode, rng, 512))
        inv[:, moving] = times
    du = np.maximum(np.diff(inv, axis=1, prepend=0.0), 0.0)
    steps = rng.standard_normal((hi - lo, grid.size, d)) * np.sqrt(du)[..., None]
    r2 = (np.cumsum(steps, axis=1) ** 2).sum(axis=2)
    return r2.sum(axis=0), (r2 * r2).sum(axis=0)


def fk_msd(alpha: float, d: int, t_grid, n_samples: int, seed: int = 0,
           cutoff: Optional[float] = None, mode: str = "moment",
           jump_budget: int = 20_000, workers: int = 1):
    """Mean squared displacement of the fractional-kinetics process on a grid.

    Brownian motion is evaluated at the first-passage times of the grid
    levels by the subordinator, via Gaussian increments.  Returns (msd, se)
    arrays; the theory curve is d * inverse_mean(alpha, t).  Samples come in
    fixed index chunks, chunk [lo, hi) a pure function of (seed, lo, hi), so
    results are identical for any worker count.
    """
    from .parallel import index_chunks, run_tasks

    _check_alpha_mode(alpha, mode)
    grid = _check_grid(t_grid)
    if np.any(np.diff(grid) < 0):
        raise ContractViolationError("grid must be sorted ascending")
    if d < 1:
        raise ContractViolationError(f"dimension must be >= 1, got {d}")
    if n_samples < 1:
        raise ContractViolationError("need n_samples >= 1")
    tasks = [(alpha, d, grid, seed, cutoff, mode, jump_budget, lo, hi)
             for lo, hi in index_chunks(n_samples)]
    s = np.zeros(grid.size)
    sq = np.zeros(grid.size)
    for cs, csq in run_tasks(_fk_msd_chunk, tasks, workers):
        s += cs
        sq += csq
    mean = s / n_samples
    var = np.maximum((sq - n_samples * mean * mean) / max(n_samples - 1, 1), 0.0)
    return mean, np.sqrt(var / n_samples)


def sample_stable_marginal(alpha: float, n: int, rng: np.random.Generator,
                           unit_laplace: bool = False) -> np.ndarray:
    """One-sided stable samples via the exponential/uniform transform.

    With unit_laplace the Laplace transform is exp(-lambda^alpha); by default
    samples are scaled by Gamma(1-alpha)^(1/alpha) to match V(1) of the
    Poissonian path sampler.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    u = rng.uniform(0.0, math.pi, n)
    e = rng.exponential(1.0, n)
    a_u = (np.sin(alpha * u) ** alpha * np.sin((1.0 - alpha) * u) ** (1.0 - alpha)
           / np.sin(u)) ** (1.0 / (1.0 - alpha))
    x = (a_u / e) ** ((1.0 - alpha) / alpha)
    if not unit_laplace:
        x = x * math.gamma(1.0 - alpha) ** (1.0 / alpha)
    return x
