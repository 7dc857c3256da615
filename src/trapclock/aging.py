"""Aging experiments: two-time correlation functions against the arcsine law.

Each trajectory is simulated once, until its physical clock passes the
largest window end e = s(1 + rho) of the (s, rho) grid (it stops right after
the crossing jump, so no time grid or horizon guessing is involved).  Every
trajectory of a chunk of environments walks in one pass of the lockstep
block loop that serves run_vsrw (``chains._continuous_blocks``), at any
theta, in bounded blocks, and a trajectory leaves the pass once its clock is
past the largest end.  Each block is read as it is made: site k, held over
the clock values [S_k, S_k+1), lies in window (s, e) iff S_k <= e and
S_k+1 > s; X(s) is the first such site and X(e) the last.  No path is held
whole, and every cell reads its window statistics off the one run:

* same-site indicator   X(s) == X(e)
* window displacement   M = max over sites occupied in (s, e) of the
                        Euclidean distance to X(s)

from which the correlation estimates follow: C1 = P(same site), C2 = P(M
within the localization radius (theta_s ln theta_s)^(1/2)), C3 = P(both),
and the rescaled-displacement variant Ceps = P(M <= eps * a_s^(1/2)).
Scales are tied to the age by n = floor(s).

Estimates average within each environment and then across environments; the
reported standard error is the environment-to-environment (cluster) error.
Trajectories that hit the event cap before a cell's window end are excluded
from that cell and counted.

The fractional-kinetics variant needs no environment: the window maps to a
Brownian stretch between the passage times of levels 1 and 1 + rho, drawn
exactly from the overshoot of level 1, whose maximum modulus is refined by
bridge doubling until the estimate stops moving; the arcsine CDF at
1/(1+rho) is the eps -> 0 limit of both variants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Union

import numpy as np

from .chains import LatticeModel, _check_cap, _continuous_blocks
from .clock import ScaleSet
from .env import EnvConfig
from .errors import ContractViolationError, EventCapError
from .limits import _inverse_stretches, arcsine_cdf
from .parallel import index_chunks, run_tasks
from .rng import ENV_FANOUT, TRAJ_FANOUT, hash_rows

DEFAULT_N_ENV = 200
DEFAULT_N_TRAJ = 50
DEFAULT_EVENT_CAP = 10 ** 9


class AgingKind(str, Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    CEPS_BATM = "Ceps_batm"
    CEPS_FK = "Ceps_fk"


@dataclass
class AgingPoint:
    """One aging estimate at (s, rho), with its arcsine-law target."""

    s: float
    rho: float
    kind: AgingKind
    eps: Optional[float]
    estimate: float
    std_error: float
    n_env: int
    n_traj_per_env: int
    arcsine_target: float
    excluded: int = 0
    env_estimates: Optional[np.ndarray] = field(default=None, repr=False)
    env_seeds: Optional[list] = field(default=None, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.estimate <= 1.0:
            raise ContractViolationError(
                f"aging estimate {self.estimate} outside [0, 1]")


class _WindowBook:
    """Window statistics of many paths, read off their blocks as they come
    by the window rule of the module docstring.  Per row r and window c:
    ``done`` (the path passed the window's end), ``same`` (X(s) == X(e)) and
    ``disp2`` (the largest squared distance to X(s) over the window).
    Windows that share an s share X(s) and the squared distances."""

    def __init__(self, windows, n_rows: int, d: int):
        self.starts = list(dict.fromkeys(s for s, _ in windows))
        self.by_start = [[(c, e) for c, (s, e) in enumerate(windows) if s == s0]
                         for s0 in self.starts]
        self.ref = np.zeros((len(self.starts), n_rows, d), dtype=np.int64)
        self.found = np.zeros((len(self.starts), n_rows), dtype=bool)
        self.done = np.zeros((n_rows, len(windows)), dtype=bool)
        self.same = np.zeros((n_rows, len(windows)), dtype=bool)
        self.disp2 = np.zeros((n_rows, len(windows)), dtype=np.int64)

    def feed(self, rows: np.ndarray, sites: np.ndarray, vals: np.ndarray):
        """One block: the (d, B, m) coordinates of the sites that rows
        ``rows`` hold over m events and their (B, m + 1) clock values, each
        row's path continuing where its last block ended (clock values past
        a row's stop must lie above every window end)."""
        m = vals.shape[1] - 1
        ends = vals[:, 1:]
        k = np.arange(m)
        for i, s in enumerate(self.starts):
            # the first site in the window, or m if it is past the block
            lo = np.count_nonzero(ends <= s, axis=1)
            if lo.min() == m:
                continue
            new = (lo < m) & ~self.found[i, rows]
            self.ref[i, rows[new]] = sites[:, new, lo[new]].T
            self.found[i, rows[new]] = True
            ref = self.ref[i, rows]
            dist2 = sum((sites[a] - ref[:, a, None]) ** 2 for a in range(len(sites)))
            for c, e in self.by_start[i]:
                open_ = ~self.done[rows, c]
                if not open_.any():
                    continue
                # the last site in the window, or m if it is past the block
                last = np.count_nonzero(ends <= e, axis=1)
                inside = (k >= np.where(open_, lo, m)[:, None]) & (k <= last[:, None])
                self.disp2[rows, c] = np.maximum(
                    self.disp2[rows, c], dist2.max(axis=1, where=inside, initial=0))
                closing = open_ & (last < m)
                r = rows[closing]
                self.same[r, c] = np.all(
                    sites[:, closing, last[closing]].T == self.ref[i, r], axis=1)
                self.done[r, c] = True


def _window_rows(model, traj_seeds: np.ndarray, windows, max_events,
                 env_seeds: Optional[np.ndarray] = None):
    """Arrays (done, same, disp2) of ``_WindowBook`` for trajectories of the
    walk from the origin with the uint64 seeds ``traj_seeds``, each run until
    its clock passes the largest window end or it makes ``max_events``
    jumps.  Row r reads the environment of seed env_seeds[r] when it is
    given, else the model's.  All rows walk in lockstep blocks.
    """
    book = _WindowBook(windows, len(traj_seeds), model.d)
    starts = np.zeros((len(traj_seeds), model.d), dtype=np.int64)
    for blk in _continuous_blocks(model, traj_seeds, starts, env_seeds,
                                  clock_target=max(e for _, e in windows),
                                  max_events=max_events):
        book.feed(blk.rows, blk.sites[:, :, :-1], blk.vals)
    return book.done, book.same, book.disp2


def _env_chunk(args):
    """The environments of one index chunk, in order: their seeds, each cell's
    indicator sums (cells, 4, envs) and excluded trajectories (cells, envs)."""
    template, lo, hi, windows, radii, n_traj, max_events = args
    env_seeds = hash_rows(np.full(hi - lo, template.env_seed, dtype=np.uint64),
                          ENV_FANOUT, np.arange(lo, hi, dtype=np.uint64))
    row_envs = np.repeat(env_seeds, n_traj)
    traj_seeds = hash_rows(row_envs, TRAJ_FANOUT,
                           np.tile(np.arange(n_traj, dtype=np.uint64), hi - lo))
    done, same, disp2 = _window_rows(LatticeModel(template), traj_seeds, windows,
                                     max_events, row_envs)
    radius, eps_radius = np.array(radii).T
    dist = np.sqrt(disp2.astype(np.float64))
    near = dist <= radius
    hits = np.stack([same, near, same & near, dist <= eps_radius], axis=-1)
    shape = (hi - lo, n_traj, len(windows))
    sums = (hits & done[..., None]).reshape(shape + (4,)).sum(axis=1)
    excluded = (~done).reshape(shape).sum(axis=1)
    return env_seeds, sums.transpose(1, 2, 0).astype(np.float64), excluded.T


def aging_grid(env: EnvConfig, cells, eps: Optional[float] = None,
               n_env: int = DEFAULT_N_ENV, n_traj: int = DEFAULT_N_TRAJ,
               max_events: Optional[int] = DEFAULT_EVENT_CAP, workers: int = 1
               ) -> Dict[tuple, Dict[AgingKind, AgingPoint]]:
    """Window correlation estimates {(s, rho): {AgingKind: AgingPoint}} for
    every cell of ``cells``: (s, rho) pairs, which use the lattice scales
    at n = floor(s), or (s, rho, scales) triples with their own ScaleSet.

    ``env`` is the ensemble template: its env_seed fans out to n_env
    independent environments, each running n_traj trajectories, each
    simulated once for the whole grid.  A cell excludes the trajectories
    that hit the event cap before its own window end; EventCapError is
    raised when that is all of them.  A cell's indicators come from the same
    trajectories, so C3 <= min(C1, C2) holds exactly, batch by batch.
    """
    if n_env < 1 or n_traj < 1:
        raise ContractViolationError("need n_env >= 1 and n_traj >= 1")
    if eps is not None and not 0 < eps < math.inf:
        raise ContractViolationError(f"need a finite eps > 0, got {eps}")
    _check_cap(max_events)
    keys, windows, radii = [], [], []
    for s, rho, *scales in cells:
        if not (0 < s < math.inf and 0 < rho < math.inf):
            raise ContractViolationError(
                f"need finite s > 0 and rho > 0, got {s}, {rho}")
        if (s, rho) in keys:
            raise ContractViolationError(f"cell (s, rho) = {(s, rho)} repeated")
        scales = scales[0] if scales else ScaleSet.for_lattice(
            int(math.floor(s)), env.d, env.alpha)
        keys.append((s, rho))
        windows.append((s, s * (1.0 + rho)))
        radii.append((scales.window_radius(), math.inf if eps is None
                      else eps * math.sqrt(scales.a_n)))
    if not keys:
        return {}
    tasks = [(env, lo, hi, windows, radii, n_traj, max_events)
             for lo, hi in index_chunks(n_env)]
    seeds, sums, excluded = (np.concatenate(parts, axis=-1) for parts in
                             zip(*run_tasks(_env_chunk, tasks, workers)))
    kinds = list(AgingKind)[:3 if eps is None else 4]  # C1, C2, C3[, Ceps_batm]
    grid = {}
    for c, (s, rho) in enumerate(keys):
        # environment means in fan-out order, a C-ordered row per kind that
        # sums pairwise as a 1-d array does; the SE is the cluster error
        kept = excluded[c] < n_traj
        means = sums[c].compress(kept, axis=1) / (n_traj - excluded[c, kept])
        m = means.shape[1]
        if not m:
            raise EventCapError(f"every trajectory hit the event cap at "
                                f"s = {s}, rho = {rho}; nothing to average")
        est = means.mean(axis=1)
        se = means.std(axis=1, ddof=1) / math.sqrt(m) if m > 1 else np.zeros(len(means))
        target = arcsine_cdf(env.alpha, 1.0 / (1.0 + rho))
        grid[(s, rho)] = {kind: AgingPoint(
            s=s, rho=rho, kind=kind,
            eps=(eps if kind is AgingKind.CEPS_BATM else None),
            estimate=float(est[j]), std_error=float(se[j]),
            n_env=m, n_traj_per_env=n_traj, arcsine_target=target,
            excluded=int(excluded[c].sum()), env_estimates=means[j],
            env_seeds=seeds[kept].tolist())
            for j, kind in enumerate(kinds)}
    return grid


def batm_aging_points(env: EnvConfig, s: float, rho: float,
                      eps: Optional[float] = None,
                      n_env: int = DEFAULT_N_ENV,
                      n_traj: int = DEFAULT_N_TRAJ,
                      scales: Optional[ScaleSet] = None,
                      max_events: Optional[int] = DEFAULT_EVENT_CAP,
                      workers: int = 1) -> Dict[AgingKind, AgingPoint]:
    """All window correlation estimates at one (s, rho): a one-cell grid."""
    cell = (s, rho) if scales is None else (s, rho, scales)
    return aging_grid(env, [cell], eps=eps, n_env=n_env,
                      n_traj=n_traj, max_events=max_events,
                      workers=workers)[(s, rho)]


# ---------------------------------------------------------------------------
# fractional kinetics


# samples per batch of estimate_Ceps_fk, and the dyadic levels its Brownian
# grid starts at and may be refined to
_BM_BATCH = 512
_BM_START_LEVEL = 4
_BM_MAX_LEVEL = 12


def _bm_refine(w: np.ndarray, spacing: float,
               rng: np.random.Generator) -> np.ndarray:
    """Insert bridge midpoints: (paths, grid, d) -> (paths, 2*grid - 1, d)."""
    n, g, d = w.shape
    out = np.empty((n, 2 * g - 1, d))
    out[:, ::2] = w
    mid = 0.5 * (w[:, :-1] + w[:, 1:])
    out[:, 1::2] = mid + rng.standard_normal(mid.shape) * math.sqrt(spacing / 4.0)
    return out


def _bm_grid(n: int, d: int, level: int, rng: np.random.Generator) -> np.ndarray:
    """Standard BM on [0, 1] at 2^level + 1 grid points, anchored at 0."""
    g = 1 << level
    steps = rng.standard_normal((n, g, d)) * math.sqrt(1.0 / g)
    w = np.zeros((n, g + 1, d))
    w[:, 1:] = np.cumsum(steps, axis=1)
    return w


def _max_modulus(w: np.ndarray) -> np.ndarray:
    return np.sqrt((w * w).sum(axis=2).max(axis=1))


def estimate_Ceps_fk(alpha: float, d: int, rho: float, eps,
                     n_samples: int = 10_000, seed: int = 0
                     ) -> Union[AgingPoint, List[AgingPoint]]:
    """P(max_{v in (1, 1+rho)} |Z(1) - Z(v)| <= eps) for fractional kinetics.

    Per sample, an exact draw fixes the Brownian stretch between the passage
    times of levels 1 and 1+rho; the Brownian maximum over the stretch is
    evaluated on a dyadic grid, bridge-doubled until the estimate moves by
    less than half its standard error (the refinement level is calibrated
    on the first batch, then reused).  A sequence of eps values shares all
    samples.
    """
    if not 0.0 < alpha < 1.0:
        raise ContractViolationError(f"alpha must lie in (0, 1), got {alpha}")
    if d < 1 or not 0 < rho < math.inf or n_samples < 2:
        raise ContractViolationError(
            f"need d >= 1, finite rho > 0, n_samples >= 2; got {d}, {rho}, {n_samples}")
    eps_arr = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    if not np.all(eps_arr > 0):
        raise ContractViolationError("need eps > 0")
    rng = np.random.default_rng(seed)
    stretches = _inverse_stretches(alpha, rho, n_samples, rng)

    counts = np.zeros(eps_arr.size)
    flagged = 0
    level_star = None
    for lo in range(0, n_samples, _BM_BATCH):
        dt = stretches[lo:lo + _BM_BATCH]
        active = dt > 0.0
        n_act = int(active.sum())
        counts += float(dt.size - n_act)  # jumped-over windows: zero displacement
        if n_act:
            scaled_eps = eps_arr[None, :] / np.sqrt(dt[active])[:, None]
            level = _BM_START_LEVEL if level_star is None else level_star
            w = _bm_grid(n_act, d, level, rng)
            hits = (_max_modulus(w)[:, None] <= scaled_eps).sum(axis=0)
            if level_star is None:
                # calibrate the grid level on the first batch
                tol = 0.5 * max(math.sqrt(0.25 / n_samples), 1.0 / n_samples)
                while level < _BM_MAX_LEVEL:
                    w = _bm_refine(w, 1.0 / (1 << level), rng)
                    level += 1
                    new_hits = (_max_modulus(w)[:, None] <= scaled_eps).sum(axis=0)
                    moved = np.abs(new_hits - hits).max() / dt.size
                    hits = new_hits
                    if moved < tol:
                        break
                else:
                    flagged = 1
                level_star = level
            counts += hits

    target = arcsine_cdf(alpha, 1.0 / (1.0 + rho))
    out = [AgingPoint(
        s=math.inf, rho=rho, kind=AgingKind.CEPS_FK, eps=float(e), estimate=p,
        std_error=math.sqrt(p * (1.0 - p) / n_samples), n_env=1,
        n_traj_per_env=n_samples, arcsine_target=target, excluded=flagged)
        for e, p in zip(eps_arr, counts / n_samples)]
    return out[0] if np.ndim(eps) == 0 else out
