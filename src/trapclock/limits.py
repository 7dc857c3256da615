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
First-passage values of many paths over one level come from one batched
kernel that grows paths with exponential gaps until they pass it, so no
horizon is fixed in advance.

Both Poisson path kernels draw their random numbers in whole batches, in a
fixed order, and transform, sum and scan them one slice of about 2^16
jumps at a time, in place.  A batch's working set is then one array of its
draws (the first-passage kernel's gaps of a round, or every jump size of a
``subordinator_values`` batch) plus a slice, and the values do not depend
on the slice size: each path's jumps are added in the same order.

The fractional-kinetics process is an independent d-dimensional Brownian
motion evaluated at the right-continuous inverse E of V; its mean squared
displacement grows like d * t^alpha / (Gamma(1+alpha)Gamma(1-alpha)).  By
self-similarity E_t has the law of (t / V_1)^alpha (Meerschaert & Scheffler
2004), and V_1 is drawn exactly, so no FK sampler needs a path or a cutoff.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .clock import ClockPath
from .errors import (ContractViolationError, DomainError, RangeExhaustedError,
                     _check_alpha, _integer)
from .parallel import index_chunks, run_tasks
from .rng import hash_words

DEFAULT_CUTOFF = 1e-6

# paths per block of the first-passage kernel, and jumps per path and draw
_PATH_BATCH = 20_000
_JUMP_CHUNK = 128
# paths per block of subordinator_values
_SUBORDINATOR_BATCH = 5_000
# expected jumps per path under the default cutoff of the path samplers
_PATH_JUMP_BUDGET = 2_000
# jumps per slice of the path kernels' working arrays: 512 rows of
# _JUMP_CHUNK in the first-passage kernel; any size gives the same values
_SLICE = 1 << 16

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
    _check_alpha(alpha)
    if np.ndim(u) > 0:
        return np.asarray([arcsine_cdf(alpha, v) for v in np.asarray(u, float)])
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"arcsine argument must lie in [0, 1], got {u}")
    return regularized_incomplete_beta(alpha, 1.0 - alpha, u)


def default_cutoff(alpha: float, horizon: float) -> float:
    """Small-jump cutoff: 1e-6, raised just enough to keep the expected jump
    count horizon * delta^(-alpha) within _PATH_JUMP_BUDGET = 2,000."""
    return max(DEFAULT_CUTOFF, (horizon / _PATH_JUMP_BUDGET) ** (1.0 / alpha))


def _compensation(alpha: float, delta: float) -> float:
    return alpha / (1.0 - alpha) * delta ** (1.0 - alpha)


def _check_grid(t_grid) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0 or not np.all((grid >= 0) & (grid < np.inf)):
        raise ContractViolationError("grid must be 1-d with finite times >= 0")
    return grid


def _check_alpha_mode(alpha: float, mode: str) -> None:
    _check_alpha(alpha)
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
    if math.isnan(u):
        raise ContractViolationError("level u must not be NaN")
    vals = clock.values
    idx = int(np.searchsorted(vals, u, side="right"))
    if idx >= len(vals):
        raise RangeExhaustedError(
            f"clock never exceeds {u} (final value {vals[-1]})")
    return float(vals[idx]) - u


def _first_passages(level: float, n_paths: int, draw_gaps, draw_sizes,
                    drift: float) -> np.ndarray:
    """Values of the first passages over ``level``, one per path.

    Paths start at 0 and grow in rounds of jumps: ``draw_gaps(m)`` returns
    the gaps, shape (m, chunk), of the m paths still at or below the level,
    and ``draw_sizes(k)`` the jump sizes of the next k of those rows.  A path
    creeps at ``drift`` through each gap, then jumps.  The level is passed
    at the first jump whose post-jump value exceeds it, with the post-jump
    value; when the creep before that jump already exceeded it, with the
    level itself.  The gaps come whole, as the stream yields them; the rows
    are summed and scanned in slices of about ``_SLICE`` jumps.
    """
    values = np.empty(n_paths)
    for lo in range(0, n_paths, _PATH_BATCH):
        m = min(_PATH_BATCH, n_paths - lo)
        v_out = values[lo:lo + m]
        vals = np.zeros(m)
        alive = np.arange(m)
        while alive.size:
            gaps = draw_gaps(alive.size)
            step = max(1, _SLICE // gaps.shape[1])
            for a in range(0, alive.size, step):
                rows = alive[a:a + step]
                vals[rows] = _passages_in(gaps[a:a + step], draw_sizes(rows.size),
                                          vals[rows], drift, level, v_out, rows)
            del gaps  # free the round before the next one is drawn
            alive = alive[vals[alive] <= level]
    return values


def _passages_in(post, sizes, start, drift, level, v_out, rows) -> np.ndarray:
    """One slice of a round: turn its gaps ``post`` in place into the values
    after each jump from ``start`` (every start is at most ``level``),
    record the passages of ``level`` in ``v_out[rows]``, and return the
    values after the last jump."""
    post *= drift
    post += sizes
    np.cumsum(post, axis=1, out=post)
    post += start[:, None]
    end = post[:, -1]
    hit = np.nonzero(end > level)[0]
    cols = (post[hit] > level).argmax(axis=1)
    val = post[hit, cols]
    crept = val - sizes[hit, cols] > level
    v_out[rows[hit]] = np.where(crept, level, val)
    return end


def _jump_sizes(alpha: float, delta: float, sizes: np.ndarray) -> np.ndarray:
    """Uniforms turned in place into jump sizes delta * (1 - U)^(-1/alpha)."""
    np.subtract(1.0, sizes, out=sizes)
    sizes **= -1.0 / alpha
    sizes *= delta
    return sizes


def _jump_draws(alpha: float, delta: float, rng: np.random.Generator):
    """(draw_gaps, draw_sizes) of the first-passage kernel: exponential gaps
    at rate delta^(-alpha), and sizes delta * U^(-1/alpha)."""
    scale = 1.0 / delta ** -alpha

    def draw_gaps(m):
        return rng.exponential(scale, (m, _JUMP_CHUNK))

    def draw_sizes(k):
        return _jump_sizes(alpha, delta, rng.uniform(size=(k, _JUMP_CHUNK)))
    return draw_gaps, draw_sizes


def passage_values(alpha: float, level: float, n_paths: int,
                   rng: np.random.Generator, cutoff: Optional[float] = None,
                   mode: str = "moment") -> np.ndarray:
    """First-passage values V(L_level) for n_paths independent subordinators.

    Stochastically identical to sampling each path on a horizon and reading
    its first passage, but batched across paths (jump gaps are exponential,
    so the path can be grown until it crosses without fixing a horizon
    first).  Drift creep records the exact level (overshoot zero).  The
    default cutoff keeps the expected jump count per path near
    ``_PATH_JUMP_BUDGET``.
    """
    _check_alpha_mode(alpha, mode)
    n_paths = _integer("n_paths", n_paths, 1)
    if not 0 < level < math.inf:
        raise ContractViolationError(f"need a finite level > 0, got {level}")
    # passage times concentrate near the mean of the inverse; budget on that
    v_scale = inverse_mean(alpha, level) * 4.0 + 1.0
    delta = default_cutoff(alpha, v_scale) if cutoff is None else float(cutoff)
    drift = _compensation(alpha, delta) if mode == "moment" else 0.0
    return _first_passages(level, n_paths, *_jump_draws(alpha, delta, rng), drift)


def inverse_mean(alpha: float, t: float) -> float:
    """E of the inverse subordinator at t: t^alpha / (Gamma(1+a)Gamma(1-a))."""
    return t ** alpha / (math.gamma(1.0 + alpha) * math.gamma(1.0 - alpha))


def subordinator_values(alpha: float, t_grid, n_paths: int,
                        rng: np.random.Generator,
                        cutoff: Optional[float] = None, mode: str = "moment"
                        ) -> np.ndarray:
    """V at the grid times for n_paths independent paths, shape (n_paths, m).

    Only marginal values are needed, so jumps are binned per path without
    sorting: each path draws a Poisson jump count on [0, horizon], and V(t)
    sums the sizes whose uniform epoch lands at or before t.
    """
    t_grid = _check_grid(t_grid)
    _check_alpha_mode(alpha, mode)
    n_paths = _integer("n_paths", n_paths, 1)
    horizon = float(t_grid.max())
    if horizon <= 0:
        return np.zeros((n_paths, t_grid.size))
    delta = default_cutoff(alpha, horizon) if cutoff is None else float(cutoff)
    rate = delta ** -alpha
    drift = _compensation(alpha, delta) if mode == "moment" else 0.0
    # paths per slice: about _SLICE jumps at the expected count per path
    step = max(1, int(_SLICE // max(1.0, horizon * rate)))
    out = np.empty((n_paths, t_grid.size))
    done = 0
    while done < n_paths:
        m = min(_SUBORDINATOR_BATCH, n_paths - done)
        counts = rng.poisson(horizon * rate, m)
        # every size of the batch comes before its first epoch in the stream
        sizes = _jump_sizes(alpha, delta, rng.uniform(size=int(counts.sum())))
        starts = np.concatenate(([0], np.cumsum(counts)))
        for a in range(0, m, step):
            b = min(a + step, m)
            j0, j1 = starts[a], starts[b]
            epochs = rng.uniform(0.0, horizon, j1 - j0)
            owner = np.repeat(np.arange(b - a), counts[a:b])
            for g, t in enumerate(t_grid):
                vals = np.bincount(owner, weights=sizes[j0:j1] * (epochs <= t),
                                   minlength=b - a)
                out[done + a:done + b, g] = drift * t + vals
        del sizes  # free the batch before the next one is drawn
        done += m
    return out


_FK_SAMPLE_DOMAIN = 0xF1D0


def _inverse_draws(alpha: float, levels: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """The inverse subordinator at each entry of ``levels``, one independent
    draw per entry: E_t = (t / V_1)^alpha in law, V_1 a fresh stable draw."""
    v = sample_stable_marginal(alpha, levels.size, rng).reshape(levels.shape)
    return (levels / v) ** alpha


def _inverse_stretches(alpha: float, rho: float, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """E_{1+rho} - E_1 for n independent subordinators: 0 when the overshoot
    O = X / Y of level 1 is at least rho, else the inverse at rho - O of a
    fresh subordinator (strong Markov property).  X ~ Gamma(1 - alpha) and
    Y ~ Gamma(alpha) give X / (X + Y) ~ Beta(1 - alpha, alpha) (Bertoin 1996,
    ch. III) without dividing by a value that can be 0."""
    x = rng.standard_gamma(1.0 - alpha, n)
    y = rng.standard_gamma(alpha, n)
    out = np.zeros(n)
    short = x < rho * y
    out[short] = _inverse_draws(alpha, rho - x[short] / y[short], rng)
    return out


def _fk_msd_chunk(args):
    alpha, d, grid, seed, lo, hi = args
    rng = np.random.default_rng(hash_words(seed, _FK_SAMPLE_DOMAIN, lo, hi))
    # a fresh inverse per (sample, time): only the marginals enter the MSD,
    # and |B(E_t)|^2 = E_t * chi^2_d
    inv = _inverse_draws(alpha, np.broadcast_to(grid, (hi - lo, grid.size)), rng)
    r2 = inv * rng.chisquare(d, inv.shape)
    return r2.sum(axis=0), (r2 * r2).sum(axis=0)


def fk_msd(alpha: float, d: int, t_grid, n_samples: int, seed: int = 0,
           workers: int = 1):
    """Mean squared displacement of the fractional-kinetics process on a grid.

    Each (sample, grid time) pair draws the inverse subordinator exactly and
    Brownian motion at that time, independently of the other grid times.
    Returns (msd, se) arrays; the theory curve is d * inverse_mean(alpha, t).
    Samples come in fixed index chunks, chunk [lo, hi) a pure function of
    (seed, lo, hi), so results are identical for any worker count.
    """
    _check_alpha(alpha)
    grid = _check_grid(t_grid)
    if np.any(np.diff(grid) < 0):
        raise ContractViolationError("grid must be sorted ascending")
    d, n_samples = _integer("d", d, 1), _integer("n_samples", n_samples, 1)
    seed = _integer("seed", seed)
    tasks = [(alpha, d, grid, seed, lo, hi) for lo, hi in index_chunks(n_samples)]
    # per-chunk (sum, sum of squares) pairs, added up in chunk order
    s, sq = np.sum(list(run_tasks(_fk_msd_chunk, tasks, workers)), axis=0)
    mean = s / n_samples
    var = np.maximum((sq - n_samples * mean * mean) / max(n_samples - 1, 1), 0.0)
    return mean, np.sqrt(var / n_samples)


def sample_stable_marginal(alpha: float, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """One-sided stable samples via the exponential/uniform transform, with
    Laplace transform exp(-Gamma(1-alpha) lambda^alpha), the law of V(1) of
    the Poissonian path sampler.
    """
    _check_alpha(alpha)
    n = _integer("n", n, 0)
    u = rng.uniform(0.0, math.pi, n)
    e = rng.exponential(1.0, n)
    a_u = (np.sin(alpha * u) ** alpha * np.sin((1.0 - alpha) * u) ** (1.0 - alpha)
           / np.sin(u)) ** (1.0 / (1.0 - alpha))
    x = (a_u / e) ** ((1.0 - alpha) / alpha)
    return x * math.gamma(1.0 - alpha) ** (1.0 / alpha)
