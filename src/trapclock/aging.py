"""Aging experiments: two-time correlation functions against the arcsine law.

Each trajectory is simulated until its physical clock passes the window end
e = s(1 + rho) (the event-driven engine stops right after the crossing jump,
so no time grid or horizon guessing is involved).  One pass extracts every
window statistic at once:

* same-site indicator   X(s) == X(e)
* window displacement   M = max over sites occupied in (s, e) of the
                        Euclidean distance to X(s)

from which the correlation estimates follow: C1 = P(same site), C2 = P(M
within the localization radius (theta_s ln theta_s)^(1/2)), C3 = P(both),
and the rescaled-displacement variant Ceps = P(M <= eps * a_s^(1/2)).
Scales are tied to the age by n = floor(s).

Estimates average within each environment and then across environments; the
reported standard error is the environment-to-environment (cluster) error.
Trajectories that hit the event cap are excluded and counted.

The fractional-kinetics variant needs no environment: the window maps to a
Brownian stretch between the passage times of levels 1 and 1 + rho, whose
maximum modulus is refined by bridge doubling until the estimate stops
moving; the arcsine CDF at 1/(1+rho) is the eps -> 0 limit of both variants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Union

import numpy as np

from .chains import ChainKind, LatticeModel, TrajectoryConfig, run_vsrw
from .clock import ScaleSet, build_clock
from .env import EnvConfig
from .errors import ContractViolationError
from .limits import arcsine_cdf, default_cutoff, extend_path, inverse_mean, \
    sample_subordinator
from .parallel import run_tasks
from .rng import ENV_FANOUT, TRAJ_FANOUT, hash_words

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


def window_stats(model, traj_seed: int, s: float, window_end: float,
                 max_events: Optional[int]):
    """(same_site, max_displacement) over the physical window (s, window_end),
    or None when the event cap was hit before the clock crossed the end."""
    tcfg = TrajectoryConfig(traj_seed, ChainKind.CONTINUOUS_J_VSRW)
    _, jumps = run_vsrw(model, tcfg, clock_target=window_end,
                        max_events=max_events, want_ledger=False)
    if jumps.truncated:
        return None
    path = build_clock(model, jumps)
    vals = path.values
    idx_s = int(np.searchsorted(vals, s, side="right")) - 1
    idx_e = int(np.searchsorted(vals, window_end, side="right")) - 1
    sites = jumps.sites
    ref = sites[idx_s]
    same = bool(np.all(sites[idx_e] == ref))
    disp = (sites[idx_s:idx_e + 1] - ref).astype(np.float64)
    max_disp = float(np.sqrt((disp * disp).sum(axis=1).max()))
    return same, max_disp


def _env_cell(args):
    (template, master, i, s, window_end, radius, eps_radius, n_traj,
     max_events) = args
    cfg = replace(template, env_seed=hash_words(master, ENV_FANOUT, i))
    model = LatticeModel(cfg)
    ok = excluded = 0
    sums = np.zeros(4)
    for j in range(n_traj):
        tseed = hash_words(cfg.env_seed, TRAJ_FANOUT, j)
        res = window_stats(model, tseed, s, window_end, max_events)
        if res is None:
            excluded += 1
            continue
        same, m = res
        ok += 1
        within = m <= radius
        sums += (same, within, same and within, m <= eps_radius)
    return cfg.env_seed, ok, excluded, sums


_KIND_COLUMN = {AgingKind.C1: 0, AgingKind.C2: 1, AgingKind.C3: 2,
                AgingKind.CEPS_BATM: 3}


def aging_scales(env: EnvConfig, s: float) -> ScaleSet:
    """The lattice scales an aging point at age s uses by default."""
    return ScaleSet.for_lattice(int(math.floor(s)), env.d, env.alpha)


def batm_aging_points(env: EnvConfig, s: float, rho: float,
                      eps: Optional[float] = None,
                      n_env: int = DEFAULT_N_ENV,
                      n_traj: int = DEFAULT_N_TRAJ,
                      scales: Optional[ScaleSet] = None,
                      max_events: Optional[int] = DEFAULT_EVENT_CAP,
                      master_seed: Optional[int] = None,
                      workers: int = 1) -> Dict[AgingKind, AgingPoint]:
    """All window correlation estimates at (s, rho) from one simulation pass.

    ``env`` is the ensemble template: its env_seed (or ``master_seed``) fans
    out to n_env independent environments, each running n_traj trajectories.
    The C1/C2/C3/Ceps indicators come from the same trajectories, so the
    event logic C3 <= min(C1, C2) holds exactly, batch by batch.
    """
    if s <= 0 or rho <= 0:
        raise ContractViolationError(f"need s > 0 and rho > 0, got {s}, {rho}")
    if n_env < 1 or n_traj < 1:
        raise ContractViolationError("need n_env >= 1 and n_traj >= 1")
    if eps is not None and eps <= 0:
        raise ContractViolationError(f"need eps > 0, got {eps}")
    if scales is None:
        scales = aging_scales(env, s)
    master = env.env_seed if master_seed is None else int(master_seed)
    window_end = s * (1.0 + rho)
    radius = scales.window_radius()
    eps_radius = eps * math.sqrt(scales.a_n) if eps is not None else math.inf
    tasks = [(env, master, i, s, window_end, radius, eps_radius, n_traj,
              max_events) for i in range(n_env)]
    cells = run_tasks(_env_cell, tasks, workers)

    seeds = []
    excluded = 0
    env_means = []
    for env_seed, ok, exc, sums in cells:
        excluded += exc
        if ok == 0:
            continue
        seeds.append(env_seed)
        env_means.append(sums / ok)
    if not env_means:
        raise ContractViolationError(
            "every trajectory hit the event cap; nothing to average")
    matrix = np.asarray(env_means)
    m = matrix.shape[0]
    target = arcsine_cdf(env.alpha, 1.0 / (1.0 + rho))

    def _point(kind: AgingKind) -> AgingPoint:
        col = matrix[:, _KIND_COLUMN[kind]]
        est = float(col.mean())
        se = float(col.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
        return AgingPoint(
            s=s, rho=rho, kind=kind,
            eps=(eps if kind is AgingKind.CEPS_BATM else None),
            estimate=est, std_error=se, n_env=m, n_traj_per_env=n_traj,
            arcsine_target=target, excluded=excluded,
            env_estimates=col.copy(), env_seeds=list(seeds))

    kinds = [AgingKind.C1, AgingKind.C2, AgingKind.C3]
    if eps is not None:
        kinds.append(AgingKind.CEPS_BATM)
    return {kind: _point(kind) for kind in kinds}


def estimate_C1(env: EnvConfig, s: float, rho: float, **kw) -> AgingPoint:
    """P(X(s) == X(s(1+rho))), environment-averaged with cluster SE."""
    return batm_aging_points(env, s, rho, **kw)[AgingKind.C1]


def estimate_C2(env: EnvConfig, s: float, rho: float, **kw) -> AgingPoint:
    """P(the whole window path stays within the localization radius of X(s))."""
    return batm_aging_points(env, s, rho, **kw)[AgingKind.C2]


def estimate_C3(env: EnvConfig, s: float, rho: float, **kw) -> AgingPoint:
    """P(same-site AND localized): the conjunction on the same trajectories."""
    return batm_aging_points(env, s, rho, **kw)[AgingKind.C3]


def estimate_Ceps_batm(env: EnvConfig, s: float, rho: float, eps: float,
                       **kw) -> AgingPoint:
    """P(max rescaled window displacement a_s^(-1/2) |X(st) - X(s)| <= eps)."""
    return batm_aging_points(env, s, rho, eps=eps, **kw)[AgingKind.CEPS_BATM]


# ---------------------------------------------------------------------------
# fractional kinetics


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
                     n_samples: int = 10_000, seed: int = 0,
                     cutoff: Optional[float] = None, mode: str = "moment",
                     jump_budget: int = 20_000, batch: int = 512,
                     start_level: int = 4, max_level: int = 12
                     ) -> Union[AgingPoint, List[AgingPoint]]:
    """P(max_{v in (1, 1+rho)} |Z(1) - Z(v)| <= eps) for fractional kinetics.

    Per sample, the subordinator fixes the Brownian stretch [u0, u1] between
    the passage times of levels 1 and 1+rho; the Brownian maximum over the
    stretch is evaluated on a dyadic grid, bridge-doubled until the estimate
    moves by less than half its standard error (the refinement level is
    calibrated on the first batch, then reused).  A sequence of eps values
    shares all samples.
    """
    if not 0.0 < alpha < 1.0:
        raise ContractViolationError(f"alpha must lie in (0, 1), got {alpha}")
    if d < 1 or rho <= 0 or n_samples < 2:
        raise ContractViolationError("need d >= 1, rho > 0, n_samples >= 2")
    eps_arr = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    if np.any(eps_arr <= 0):
        raise ContractViolationError("need eps > 0")
    rng = np.random.default_rng(seed)
    level_hi = 1.0 + rho
    horizon = 4.0 * inverse_mean(alpha, level_hi) + 1.0
    delta = default_cutoff(alpha, horizon, jump_budget) if cutoff is None \
        else float(cutoff)

    stretches = np.empty(n_samples)
    for i in range(n_samples):
        path = sample_subordinator(alpha, horizon, rng, cutoff=delta, mode=mode)
        while path.final_value <= level_hi:
            path = extend_path(path, 2.0 * path.horizon, rng)
        u0, _ = path.first_passage(1.0)
        u1, _ = path.first_passage(level_hi)
        stretches[i] = u1 - u0

    counts = np.zeros(eps_arr.size)
    flagged = 0
    level_star = None
    done = 0
    while done < n_samples:
        m = min(batch, n_samples - done)
        dt = stretches[done:done + m]
        active = dt > 0.0
        n_act = int(active.sum())
        counts += float(m - n_act)  # jumped-over windows: zero displacement
        if n_act:
            scaled_eps = eps_arr[None, :] / np.sqrt(dt[active])[:, None]
            if level_star is None:
                # calibrate the grid level on the first batch
                level = start_level
                w = _bm_grid(n_act, d, level, rng)
                hits = (_max_modulus(w)[:, None] <= scaled_eps).sum(axis=0)
                tol = 0.5 * max(math.sqrt(0.25 / n_samples), 1.0 / n_samples)
                while True:
                    if level >= max_level:
                        flagged = 1
                        break
                    w = _bm_refine(w, 1.0 / (1 << level), rng)
                    level += 1
                    new_hits = (_max_modulus(w)[:, None] <= scaled_eps).sum(axis=0)
                    if np.abs(new_hits - hits).max() / m < tol:
                        hits = new_hits
                        break
                    hits = new_hits
                level_star = level
            else:
                w = _bm_grid(n_act, d, level_star, rng)
                hits = (_max_modulus(w)[:, None] <= scaled_eps).sum(axis=0)
            counts += hits
        done += m

    target = arcsine_cdf(alpha, 1.0 / (1.0 + rho))
    out = []
    for j, e in enumerate(eps_arr):
        p = counts[j] / n_samples
        se = math.sqrt(p * (1.0 - p) / n_samples)
        out.append(AgingPoint(
            s=math.inf, rho=rho, kind=AgingKind.CEPS_FK, eps=float(e),
            estimate=p, std_error=se, n_env=1, n_traj_per_env=n_samples,
            arcsine_target=target, excluded=flagged))
    return out[0] if np.ndim(eps) == 0 else out
