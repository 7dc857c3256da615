"""Monte Carlo and exact small-graph estimators for the block-clock conditions.

Everything here watches the chain at block marks: with blocking window
theta_n, the chain is sampled at steps floor(k * theta_n), k = 1..k_n(t)-1,
and the block variable Z_1 started from a site x is the rescaled clock
increment accumulated over one window.

The condition functionals estimated:

* Q_u(x)        P_x(Z_1 > u), the per-site block tail;
* pi_t          the empirical measure of the chain at block marks;
* nu_t(u)       k_n(t) * sum_x pi(x) Q_u(x), estimated without plug-in bias
                by pairing each visited mark with one fresh block run;
* sigma_t(u)    like nu but with Q^2: two independent block runs per mark
                (squaring one estimate would bias upward);
* m_eps         k_n(t) * sum_x pi(x) E_x[Z_1; Z_1 <= eps];
* return sums   sum_k P_x(J(floor(k theta_n)) = x), reported per k.

Modes: "quenched" fixes one environment and varies trajectories; "annealed"
redraws the environment for every trajectory from the seed fan-out.  All
randomness is a pure function of (seed, trajectory index), so estimates are
reproducible for any worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .chains import (ChainKind, LatticeModel, TableModel, TrajectoryConfig,
                     as_model, run_discrete, run_vsrw)
from .clock import ScaleSet, build_clock, trap_mask
from .env import EnvConfig
from .errors import (ContractViolationError, DegenerateScaleError)
from .parallel import index_chunks, run_tasks
from .rng import ENV_FANOUT, TRAJ_FANOUT, hash_words

MODES = ("quenched", "annealed")


class ConditionName(str, Enum):
    Q_U = "Q_u"
    PI_T = "Pi_t"
    NU_T = "Nu_t"
    SIGMA_T = "Sigma_t"
    M_EPS = "M_eps"
    A0_TAIL = "A0_tail"
    A1_RETURN_SUM = "A1_return_sum"
    HEAT_KERNEL = "heat_kernel"
    RANGE = "range"
    EXIT_TIME = "exit_time"


@dataclass
class ConditionEstimate:
    """One scalar estimate with its standard error and provenance."""

    name: ConditionName
    value: float
    std_error: float
    n_samples: int
    params: dict = field(default_factory=dict)
    series: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.std_error < 0:
            raise ContractViolationError("std_error must be >= 0")
        if self.n_samples < 1:
            raise ContractViolationError("n_samples must be >= 1")


@dataclass
class TrapSetSample:
    """Deep-trap sites found inside a scanned box."""

    sites: list
    eps_n: float
    box_radius: float


@dataclass
class PiEstimate:
    """Sparse block-mark occupation estimate: per-site (value, SE) inside the
    box plus the mass that landed outside it."""

    in_box: Dict[object, Tuple[float, float]]
    remainder: Tuple[float, float]
    k_count: int
    n_samples: int
    box_radius: float
    params: dict = field(default_factory=dict)

    @property
    def total_mass(self) -> float:
        return sum(v for v, _ in self.in_box.values()) + self.remainder[0]


# ---------------------------------------------------------------------------
# map over trajectories, reduce moments


class _Sampler:
    """Resolves (model, trajectory seed) per absolute trajectory index."""

    def __init__(self, env_or_model, mode: str, base_seed: int):
        self.mode = mode
        self.base_seed = base_seed
        self.template = env_or_model if isinstance(env_or_model, EnvConfig) else None
        self.shared = as_model(env_or_model) if mode == "quenched" else None

    def at(self, i: int):
        if self.mode == "quenched":
            return self.shared, hash_words(self.base_seed, TRAJ_FANOUT, i)
        cfg = replace(self.template,
                      env_seed=hash_words(self.base_seed, ENV_FANOUT, i))
        return LatticeModel(cfg), hash_words(cfg.env_seed, TRAJ_FANOUT, 0)


def _add(totals: dict, key, s, sq) -> None:
    cell = totals.get(key)
    if cell is None:
        totals[key] = [s, sq]
    else:
        cell[0] += s
        cell[1] += sq


def _chunk(task) -> dict:
    per_traj, env_or_model, mode, base, kind, args, lo, hi = task
    sampler = _Sampler(env_or_model, mode, base)
    totals: dict = {}
    for i in range(lo, hi):
        model, traj_seed = sampler.at(i)
        for key, v in per_traj(model, traj_seed, kind, *args).items():
            _add(totals, key, v, v * v)
    return totals


def _drive(per_traj, env_or_model, kind, n_traj: int, mode: str,
           seed: Optional[int], workers: int, *args) -> dict:
    """Map ``per_traj(model, traj_seed, kind, *args)`` over trajectories
    0..n_traj-1 and return {key: [sum, sum of squares]} of the float or
    array values it reports per key.

    Sums run in trajectory order inside each chunk, then in chunk order, so
    every total is the same float for any worker count.
    """
    if n_traj < 1:
        raise ContractViolationError(f"need n_traj >= 1, got {n_traj}")
    if seed is None and not isinstance(env_or_model, EnvConfig):
        raise ContractViolationError(
            "table models carry no seed; pass seed= explicitly")
    base = env_or_model.env_seed if seed is None else int(seed)
    if mode not in MODES:
        raise ContractViolationError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "annealed" and not isinstance(env_or_model, EnvConfig):
        raise ContractViolationError("annealed mode needs an EnvConfig template")
    kind = ChainKind(kind)
    tasks = [(per_traj, env_or_model, mode, base, kind, args, lo, hi)
             for lo, hi in index_chunks(n_traj)]
    totals: dict = {}
    for part in run_tasks(_chunk, tasks, workers):
        for key, (s, sq) in part.items():
            _add(totals, key, s, sq)
    return totals


def _sub_seed(traj_seed: int, k: int, replica: int) -> int:
    return hash_words(traj_seed, TRAJ_FANOUT, k, replica)


def _run(model, kind: ChainKind, seed: int, start, horizon: float):
    """The jump sequence of one ledger-free trajectory."""
    tcfg = TrajectoryConfig(seed, kind, start=start, horizon=horizon)
    if kind is ChainKind.DISCRETE_J:
        return run_discrete(model, tcfg, want_ledger=False)[1]
    return run_vsrw(model, tcfg, want_ledger=False)[1]


def _block_z(model, scales: ScaleSet, kind: ChainKind, start, seed: int) -> float:
    """One fresh block variable Z_1 from ``start``: the rescaled clock
    increment over a single window of length theta_n."""
    path = build_clock(model, _run(model, kind, seed, start, scales.theta_n))
    return (path.value_at(scales.theta_n) - path.value_at(0.0)) / scales.c_n


def _mark_rows(model, scales: ScaleSet, kind: ChainKind, start, seed: int,
               K: int) -> np.ndarray:
    """Sites (as array rows) occupied at the K-1 interior block marks."""
    if kind is ChainKind.DISCRETE_J:
        steps = np.floor(scales.theta_n * np.arange(1, K)).astype(np.int64)
        return _run(model, kind, seed, start, float(steps[-1])).sites[steps]
    jumps = _run(model, kind, seed, start, scales.theta_n * (K - 1))
    marks = scales.theta_n * np.arange(1, K, dtype=np.float64)
    return jumps.sites[jumps.site_indices_at(marks)]


def _mark_count(scales: ScaleSet, t: float) -> int:
    """k_n(t), which must leave at least one interior block mark."""
    if t <= 0:
        raise ContractViolationError(f"need t > 0, got {t}")
    K = scales.k_of(t)
    if K < 2:
        raise DegenerateScaleError(
            f"k_n(t) = {K} < 2: no interior block marks at t = {t}")
    return K


def _row_key(model, row) -> object:
    if isinstance(model, TableModel):
        return int(row[0])
    return tuple(int(c) for c in row)


def _start_site(model, x):
    return model.start_default if x is None else model.as_site(x)


def _mean_se(total, total_sq, count: int) -> Tuple[float, float]:
    mean = total / count
    var = max((total_sq - count * mean * mean) / (count - 1), 0.0) \
        if count > 1 else 0.0
    return mean, math.sqrt(var / count)


def _binomial_estimate(name, hits, n, params) -> ConditionEstimate:
    p = hits / n
    se = math.sqrt(p * (1.0 - p) / n)
    return ConditionEstimate(name, p, se, n, params)


def _moment_estimate(name, count, total, total_sq, params,
                     series=None) -> ConditionEstimate:
    mean, se = _mean_se(total, total_sq, count)
    return ConditionEstimate(name, mean, se, count, params, series=series)


def _params(scales: Optional[ScaleSet], kind, mode, **extra) -> dict:
    out = {"n": scales.n if scales else None,
           "kind": getattr(kind, "value", kind), "mode": mode}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# Q_u


def _q_traj(model, seed, kind, scales, x, u):
    z = _block_z(model, scales, kind, _start_site(model, x), seed)
    return {ConditionName.Q_U: float(z > u)}


def estimate_Q_u(env_or_model, scales: ScaleSet, x, u: float, n_traj: int,
                 kind: ChainKind = ChainKind.DISCRETE_J, mode: str = "quenched",
                 seed: Optional[int] = None, workers: int = 1) -> ConditionEstimate:
    """P_x(Z_1 > u): the tail of one block variable started at x."""
    if u < 0:
        raise ContractViolationError(f"threshold u must be >= 0, got {u}")
    totals = _drive(_q_traj, env_or_model, kind, n_traj, mode, seed, workers,
                    scales, x, u)
    return _binomial_estimate(
        ConditionName.Q_U, totals[ConditionName.Q_U][0], n_traj,
        _params(scales, kind, mode, u=u, x=x, theta_n=scales.theta_n))


# ---------------------------------------------------------------------------
# pi_t


def _pi_traj(model, seed, kind, scales, K, box, start):
    x0 = _start_site(model, start)
    rows = _mark_rows(model, scales, kind, x0, seed, K)
    inside = np.abs(rows - np.atleast_1d(x0)).max(axis=1) <= box
    counts: Dict[object, int] = {}
    for row in rows[inside]:
        key = _row_key(model, row)
        counts[key] = counts.get(key, 0) + 1
    out: dict = {key: c / K for key, c in counts.items()}
    out[None] = int(np.count_nonzero(~inside)) / K
    return out


def estimate_pi_t(env_or_model, scales: ScaleSet, t: float, n_traj: int,
                  box: Optional[float] = None,
                  kind: ChainKind = ChainKind.DISCRETE_J,
                  mode: str = "quenched", seed: Optional[int] = None,
                  start=None, workers: int = 1) -> PiEstimate:
    """Block-mark occupation: mean over trajectories of
    k_n(t)^(-1) sum_{k=1}^{k_n(t)-1} 1{chain at mark k == x}, per site.

    Sites beyond L-inf distance ``box`` from the start are pooled into the
    remainder (default box: the displacement radius at t); total in-box plus
    remainder mass is (k_n(t)-1)/k_n(t) exactly per trajectory.
    """
    K = _mark_count(scales, t)
    if box is None:
        box = scales.displacement_radius(t)
    totals = _drive(_pi_traj, env_or_model, kind, n_traj, mode, seed, workers,
                    scales, K, box, start)
    remainder = _mean_se(*totals.pop(None), n_traj)
    in_box = {key: _mean_se(s1, s2, n_traj)
              for key, (s1, s2) in sorted(totals.items())}
    return PiEstimate(in_box=in_box, remainder=remainder,
                      k_count=K, n_samples=n_traj, box_radius=float(box),
                      params=_params(scales, kind, mode, t=t))


# ---------------------------------------------------------------------------
# nu_t / sigma_t / m_eps (paired block runs at the marks)


def _marks_traj(model, seed, kind, scales, K, us, eps, sigma, start):
    x0 = _start_site(model, start)
    rows = _mark_rows(model, scales, kind, x0, seed, K)
    nu = np.zeros(len(us))
    sig = np.zeros(len(us))
    m = np.zeros(len(eps))
    for k in range(1, K):
        site = _row_key(model, rows[k - 1])
        z = _block_z(model, scales, kind, site, _sub_seed(seed, k, 0))
        over = z > us
        nu += over
        m += np.where(z <= eps, z, 0.0)
        if sigma:
            z2 = _block_z(model, scales, kind, site, _sub_seed(seed, k, 1))
            sig += over & (z2 > us)
    return {ConditionName.NU_T: nu, ConditionName.SIGMA_T: sig,
            ConditionName.M_EPS: m}


def estimate_mark_conditions(env_or_model, scales: ScaleSet, t: float, u,
                             n_traj: int, eps=(), sigma: bool = True,
                             kind: ChainKind = ChainKind.DISCRETE_J,
                             mode: str = "quenched", seed: Optional[int] = None,
                             start=None, workers: int = 1
                             ) -> Dict[ConditionName, List[ConditionEstimate]]:
    """nu_t(u), sigma_t(u) and m_t(eps) for every threshold u and every eps,
    all from one pass: the same mark runs, and per mark the same fresh block
    run (plus a second, independent one for sigma).

    * nu_t(u, inf) = k_n(t) sum_x pi(x) Q_u(x): per trajectory, the count of
      marks whose fresh block run exceeds u;
    * sigma_t(u, inf) = k_n(t) sum_x pi(x) Q_u(x)^2: the count of marks where
      both independent block runs exceed u (squaring one run's indicator
      would bias upward); skipped, with no second runs, when ``sigma`` is
      false;
    * m_t(eps) = k_n(t) sum_x pi(x) E_x[Z_1; Z_1 <= eps]: the sum of the
      truncated fresh block values; eps = inf means no truncation.

    Returns {NU_T: [one per u], SIGMA_T: [one per u, or none], M_EPS: [one
    per eps]}.
    """
    us = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if not np.all(us >= 0):
        raise ContractViolationError("thresholds must be >= 0")
    epss = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    if not np.all(epss >= 0):
        raise ContractViolationError(f"need eps >= 0, got {eps}")
    K = _mark_count(scales, t)
    totals = _drive(_marks_traj, env_or_model, kind, n_traj, mode, seed,
                    workers, scales, K, us, epss, sigma, start)

    def _estimates(name, label, values):
        s, sq = totals[name]
        return [_moment_estimate(name, n_traj, float(s[j]), float(sq[j]),
                                 _params(scales, kind, mode, t=t,
                                         **{label: float(v)}))
                for j, v in enumerate(values)]

    return {ConditionName.NU_T: _estimates(ConditionName.NU_T, "u", us),
            ConditionName.SIGMA_T: (_estimates(ConditionName.SIGMA_T, "u", us)
                                    if sigma else []),
            ConditionName.M_EPS: _estimates(ConditionName.M_EPS, "eps", epss)}


def estimate_nu_t(env_or_model, scales: ScaleSet, t: float, u, n_traj: int,
                  kind: ChainKind = ChainKind.DISCRETE_J, mode: str = "quenched",
                  seed: Optional[int] = None, start=None, workers: int = 1
                  ) -> Union[ConditionEstimate, List[ConditionEstimate]]:
    """nu_t(u, inf) from ``estimate_mark_conditions``: one estimate, or one
    per threshold when ``u`` is a sequence (all sharing the same runs)."""
    out = estimate_mark_conditions(env_or_model, scales, t, u, n_traj,
                                   sigma=False, kind=kind, mode=mode,
                                   seed=seed, start=start, workers=workers)
    nus = out[ConditionName.NU_T]
    return nus[0] if np.ndim(u) == 0 else nus


def estimate_sigma_t(env_or_model, scales: ScaleSet, t: float, u, n_traj: int,
                     kind: ChainKind = ChainKind.DISCRETE_J,
                     mode: str = "quenched", seed: Optional[int] = None,
                     start=None, workers: int = 1
                     ) -> Union[ConditionEstimate, List[ConditionEstimate]]:
    """sigma_t(u, inf) from ``estimate_mark_conditions``: one estimate, or
    one per threshold when ``u`` is a sequence."""
    out = estimate_mark_conditions(env_or_model, scales, t, u, n_traj,
                                   kind=kind, mode=mode, seed=seed,
                                   start=start, workers=workers)
    sigmas = out[ConditionName.SIGMA_T]
    return sigmas[0] if np.ndim(u) == 0 else sigmas


def estimate_m_eps(env_or_model, scales: ScaleSet, t: float, eps: float,
                   n_traj: int, kind: ChainKind = ChainKind.DISCRETE_J,
                   mode: str = "quenched", seed: Optional[int] = None,
                   start=None, workers: int = 1) -> ConditionEstimate:
    """m_t(eps) from ``estimate_mark_conditions``; eps = inf is the
    no-truncation sentinel."""
    out = estimate_mark_conditions(env_or_model, scales, t, (), n_traj,
                                   eps=(eps,), sigma=False, kind=kind,
                                   mode=mode, seed=seed, start=start,
                                   workers=workers)
    return out[ConditionName.M_EPS][0]


# ---------------------------------------------------------------------------
# return sums


def _return_traj(model, seed, kind, scales, K, x):
    x0 = _start_site(model, x)
    rows = _mark_rows(model, scales, kind, x0, seed, K)
    hits = np.all(rows == np.atleast_1d(x0), axis=1).astype(np.float64)
    return {"per_k": hits, ConditionName.A1_RETURN_SUM: float(hits.sum())}


def return_sum(env_or_model, scales: ScaleSet, x, t: float, n_traj: int,
               kind: ChainKind = ChainKind.DISCRETE_J, mode: str = "quenched",
               seed: Optional[int] = None, workers: int = 1) -> ConditionEstimate:
    """Partial sums sum_{k=1}^{K-1} P_x(chain at mark k == x).

    ``series`` carries the per-k partial sums so growth (bounded vs linear)
    can be inspected; ``value`` is the final sum with its SE taken across
    per-trajectory totals.
    """
    K = _mark_count(scales, t)
    totals = _drive(_return_traj, env_or_model, kind, n_traj, mode, seed,
                    workers, scales, K, x)
    return _moment_estimate(ConditionName.A1_RETURN_SUM, n_traj,
                            *totals[ConditionName.A1_RETURN_SUM],
                            _params(scales, kind, mode, t=t, x=x,
                                    theta_n=scales.theta_n),
                            series=np.cumsum(totals["per_k"][0] / n_traj))


# ---------------------------------------------------------------------------
# trap set


_MAX_BOX_SITES = 4_000_000


def trap_set(env: EnvConfig, scales: ScaleSet, box_radius: float) -> TrapSetSample:
    """Exhaustive scan of the centered L-inf box for deep-trap sites:
    tau(x) > eps_n * c_n with every neighbor tau at most eps_n^(-2/alpha)."""
    if not isinstance(env, EnvConfig):
        raise ContractViolationError("trap scans need a lattice environment")
    r = int(box_radius)
    if r < 1:
        raise ContractViolationError(f"box radius must be >= 1, got {box_radius}")
    if (2 * r + 1) ** env.d > _MAX_BOX_SITES:
        raise ContractViolationError(
            f"box with radius {r} in d = {env.d} exceeds the scan limit")
    axes = [np.arange(-r, r + 1, dtype=np.int64)] * env.d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, env.d)
    mask = trap_mask(LatticeModel(env), scales, grid)
    sites = [tuple(int(c) for c in row) for row in grid[mask]]
    return TrapSetSample(sites=sites, eps_n=scales.eps_n,
                         box_radius=float(box_radius))


# ---------------------------------------------------------------------------
# lattice diagnostics


def _heat_traj(model, seed, kind, x, y, t):
    jumps = _run(model, kind, seed, _start_site(model, x), t)
    return {ConditionName.HEAT_KERNEL:
            float(_row_key(model, jumps.sites[-1]) == model.as_site(y))}


def heat_kernel_mc(env_or_model, x, y, t: float, n_traj: int,
                   mode: str = "quenched", seed: Optional[int] = None,
                   workers: int = 1) -> ConditionEstimate:
    """P_x(walk at internal time t == y) for the variable-speed walk, whose
    reversing measure is uniform, so this is its heat kernel."""
    if t < 0:
        raise ContractViolationError(f"need t >= 0, got {t}")
    kind = ChainKind.CONTINUOUS_J_VSRW
    totals = _drive(_heat_traj, env_or_model, kind, n_traj, mode, seed,
                    workers, x, y, t)
    return _binomial_estimate(ConditionName.HEAT_KERNEL,
                              totals[ConditionName.HEAT_KERNEL][0], n_traj,
                              _params(None, kind, mode, t=t, x=x, y=y))


def _range_traj(model, seed, kind, m):
    jumps = _run(model, kind, seed, model.start_default, float(m))
    return {ConditionName.RANGE: float(len(np.unique(jumps.sites, axis=0)))}


def range_stat(env_or_model, m: int, n_traj: int, mode: str = "quenched",
               seed: Optional[int] = None, workers: int = 1) -> ConditionEstimate:
    """Mean number of distinct sites the chain visits in m steps (range);
    the second moment rides along in params["second_moment"]."""
    if m < 0:
        raise ContractViolationError(f"need m >= 0, got {m}")
    kind = ChainKind.DISCRETE_J
    s, sq = _drive(_range_traj, env_or_model, kind, n_traj, mode, seed,
                   workers, m)[ConditionName.RANGE]
    est = _moment_estimate(ConditionName.RANGE, n_traj, s, sq,
                           _params(None, kind, mode, m=m))
    est.params["second_moment"] = sq / n_traj
    return est


def _exit_traj(model, seed, kind, r, m):
    jumps = _run(model, kind, seed, model.start_default, float(m))
    disp = (jumps.sites[1:] - jumps.sites[0]).astype(np.float64)
    left = disp.size > 0 and np.any((disp ** 2).sum(axis=1) > float(r) * float(r))
    return {ConditionName.EXIT_TIME: float(left)}


def exit_time_cdf(env_or_model, r: float, m: int, n_traj: int,
                  mode: str = "quenched", seed: Optional[int] = None,
                  workers: int = 1) -> ConditionEstimate:
    """P(the chain leaves the Euclidean ball of radius r around its start
    within m steps)."""
    if r < 0:
        raise ContractViolationError(f"need r >= 0, got {r}")
    if m < 0:
        raise ContractViolationError(f"need m >= 0, got {m}")
    kind = ChainKind.DISCRETE_J
    totals = _drive(_exit_traj, env_or_model, kind, n_traj, mode, seed,
                    workers, r, m)
    return _binomial_estimate(ConditionName.EXIT_TIME,
                              totals[ConditionName.EXIT_TIME][0], n_traj,
                              _params(None, kind, mode, r=r, m=m))
