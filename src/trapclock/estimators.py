"""Monte Carlo and exact small-graph estimators for the block-clock conditions.

Everything here watches the chain at block marks: with blocking window
theta_n, the chain is sampled at steps floor(k * theta_n), k = 1..k_n(t)-1,
and the block variable Z_1 started from a site x is the rescaled clock
increment accumulated over one window.

The condition functionals estimated, with Q_u(x) = P_x(Z_1 > u) the
per-site block tail (one block run per walker is ``chains.block_clocks``):

* pi_t          the empirical measure of the chain at block marks;
* nu_t(u)       k_n(t) * sum_x pi(x) Q_u(x), estimated without plug-in bias
                by pairing each visited mark with one fresh block run;
* sigma_t(u)    like nu but with Q^2: two independent block runs per mark
                (squaring one estimate would bias upward);
* m_eps         k_n(t) * sum_x pi(x) E_x[Z_1; Z_1 <= eps];
* return sums   sum_k P_x(J(floor(k theta_n)) = x), reported per k;

and two walk diagnostics, the heat kernel and the range.

Modes: "quenched" fixes one environment and varies trajectories; "annealed"
redraws the environment for every trajectory from the seed fan-out.  All
randomness is a pure function of (seed, trajectory index), so estimates are
reproducible for any worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .chains import ChainKind, as_model, block_clocks, sites_at
from .clock import ScaleSet
from .env import EnvConfig
from .errors import ContractViolationError, DegenerateScaleError, _integer
from .parallel import index_chunks, run_tasks
from .rng import ENV_FANOUT, MASK64, TRAJ_FANOUT, hash_rows

MODES = ("quenched", "annealed")


class ConditionName(str, Enum):
    NU_T = "Nu_t"
    SIGMA_T = "Sigma_t"
    M_EPS = "M_eps"
    A0_TAIL = "A0_tail"
    A1_RETURN_SUM = "A1_return_sum"
    HEAT_KERNEL = "heat_kernel"
    RANGE = "range"


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
        _integer("n_samples", self.n_samples, 1)


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
# map over chunks of trajectories, reduce moments


class _Batch:
    """Trajectories lo..hi-1 of one estimate: the chain model, one trajectory
    seed each and, in annealed mode, one environment seed each (the model then
    is a template that only supplies d, alpha, theta and c_bar; quenched:
    ``env_seeds`` is None and the model is the estimate's own)."""

    def __init__(self, env_or_model, mode: str, base: int, lo: int, hi: int):
        idx = np.arange(lo, hi, dtype=np.uint64)
        base = np.full(hi - lo, base & MASK64, dtype=np.uint64)
        self.model = as_model(env_or_model)
        if mode == "quenched":
            self.env_seeds = None
            self.traj_seeds = hash_rows(base, TRAJ_FANOUT, idx)
        else:
            self.env_seeds = hash_rows(base, ENV_FANOUT, idx)
            self.traj_seeds = hash_rows(self.env_seeds, TRAJ_FANOUT, 0)

    def __len__(self):
        return len(self.traj_seeds)


def _add(totals: dict, key, s, sq) -> None:
    cell = totals.get(key)
    if cell is None:
        totals[key] = [s, sq]
    else:
        cell[0] += s
        cell[1] += sq


# The most batched runs (rows) one call of a chunk function makes: a task's
# trajectories are handed over in batches of at most this many rows, so
# memory does not grow with the trajectory count.
_BATCH_ROWS = 1 << 16


def _chunk(task) -> list:
    per_chunk, env_or_model, mode, base, kind, args, chunks, size = task
    parts: list = [{} for _ in chunks]
    c, lo, hi = 0, chunks[0][0], chunks[-1][1]
    for a in range(lo, hi, size):
        batch = _Batch(env_or_model, mode, base, a, min(a + size, hi))
        for i, out in enumerate(per_chunk(batch, kind, *args), a):
            while i >= chunks[c][1]:
                c += 1
            for key, v in out.items():
                _add(parts[c], key, v, v * v)
    return parts


def _drive(per_chunk, env_or_model, kind, n_traj: int, mode: str,
           seed: Optional[int], workers: int, *args, rows: int = 1) -> dict:
    """Map ``per_chunk(batch, kind, *args)`` over batches of trajectories
    0..n_traj-1 and return {key: [sum, sum of squares]} of the float or array
    values it reports per key, one dict per trajectory of the batch.
    ``rows`` is the number of batched runs per trajectory.

    The trajectories fall into chunks fixed by n_traj alone.  Each task
    walks one contiguous share of the chunks in batches that may span
    chunks: one share at one worker, four per worker at more, so a worker
    whose paths were cheap takes another.  Sums run in trajectory order
    inside each chunk, then in chunk order, so every total is the same
    float for any worker count.
    """
    n_traj = _integer("n_traj", n_traj, 1)
    workers = _integer("workers", workers, 1)
    if seed is None and not isinstance(env_or_model, EnvConfig):
        raise ContractViolationError(
            "table models carry no seed; pass seed= explicitly")
    base = env_or_model.env_seed if seed is None else _integer("seed", seed)
    if mode not in MODES:
        raise ContractViolationError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "annealed" and not isinstance(env_or_model, EnvConfig):
        raise ContractViolationError("annealed mode needs an EnvConfig template")
    if mode == "quenched":
        # one model (and site table) for every chunk of this estimate
        env_or_model = as_model(env_or_model)
    kind = ChainKind(kind)
    size = max(1, _BATCH_ROWS // rows)
    chunks = index_chunks(n_traj)
    shares = 1 if workers == 1 else 4 * workers
    tasks = [(per_chunk, env_or_model, mode, base, kind, args, chunks[a:b], size)
             for a, b in index_chunks(len(chunks), shares)]
    totals: dict = {}
    for parts in run_tasks(_chunk, tasks, workers):
        for part in parts:
            for key, (s, sq) in part.items():
                _add(totals, key, s, sq)
    return totals


def _batch_sites(batch: _Batch, kind, x, times) -> np.ndarray:
    """(B, len(times), d) sites of every trajectory of the batch, started
    at x, at the internal times ``times``, in one batched run."""
    return sites_at(batch.model, kind, batch.traj_seeds,
                    np.tile(np.atleast_1d(_start_site(batch.model, x)),
                            (len(batch), 1)),
                    np.asarray(times, dtype=np.float64), batch.env_seeds)


def _batch_marks(batch: _Batch, kind, scales: ScaleSet, K: int, x) -> np.ndarray:
    """(B, K-1, d) sites of every trajectory of the batch at the K-1
    interior block marks."""
    return _batch_sites(batch, kind, x,
                        scales.theta_n * np.arange(1, K, dtype=np.float64))


def _mark_count(scales: ScaleSet, t: float) -> int:
    """k_n(t), which must leave at least one interior block mark."""
    if not t > 0:
        raise ContractViolationError(f"need t > 0, got {t}")
    K = scales.k_of(t)
    if K < 2:
        raise DegenerateScaleError(
            f"k_n(t) = {K} < 2: no interior block marks at n = {scales.n}, t = {t}")
    return K


def _start_site(model, x):
    return model.start_default if x is None else model.as_site(x)


def _mean_se(total, total_sq, count: int) -> Tuple[float, float]:
    mean = total / count
    var = max((total_sq - count * mean * mean) / (count - 1), 0.0) \
        if count > 1 else 0.0
    return mean, math.sqrt(var / count)


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
# pi_t


def _pi_chunk(batch, kind, scales, K, box, start):
    x0 = np.atleast_1d(_start_site(batch.model, start))
    outs = []
    for rows in _batch_marks(batch, kind, scales, K, start):
        inside = np.abs(rows - x0).max(axis=1) <= box
        counts: Dict[object, int] = {}
        for key in batch.model.site_keys(rows[inside]):
            counts[key] = counts.get(key, 0) + 1
        out: dict = {key: c / K for key, c in counts.items()}
        out[None] = int(np.count_nonzero(~inside)) / K
        outs.append(out)
    return outs


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
    if not 0 <= box <= math.inf:
        raise ContractViolationError(f"need a box radius >= 0, got {box}")
    totals = _drive(_pi_chunk, env_or_model, kind, n_traj, mode, seed, workers,
                    scales, K, box, start, rows=K - 1)
    remainder = _mean_se(*totals.pop(None), n_traj)
    in_box = {key: _mean_se(s1, s2, n_traj)
              for key, (s1, s2) in sorted(totals.items())}
    return PiEstimate(in_box=in_box, remainder=remainder,
                      k_count=K, n_samples=n_traj, box_radius=float(box),
                      params=_params(scales, kind, mode, t=t))


# ---------------------------------------------------------------------------
# nu_t / sigma_t / m_eps (paired block runs at the marks)


def _marks_chunk(batch, kind, scales, K, us, eps, sigma, start):
    # stage 1: every trajectory's mark sites; stage 2: one fresh block run
    # per (trajectory, mark k, replica), replica 0 for nu and m_eps and
    # replicas 0 and 1 for sigma, seeded hash_words(traj_seed, TRAJ_FANOUT,
    # k, replica)
    rows = _batch_marks(batch, kind, scales, K, start)
    n, reps = len(batch), 2 if sigma else 1
    per_traj = (K - 1) * reps
    seeds = hash_rows(np.repeat(batch.traj_seeds, per_traj), TRAJ_FANOUT,
                       np.tile(np.repeat(np.arange(1, K), reps), n),
                       np.tile(np.arange(reps), n * (K - 1)))
    env_seeds = (None if batch.env_seeds is None
                 else np.repeat(batch.env_seeds, per_traj))
    starts = np.repeat(rows.reshape(n * (K - 1), -1), reps, axis=0)
    # Z_1 per run: its clock increment over one window theta_n, over c_n
    z = (block_clocks(batch.model, kind, seeds, starts, scales.theta_n,
                      env_seeds) / scales.c_n).reshape(n, K - 1, reps)
    # reduce over k in k order: counts are exact, m_eps is a cumsum
    z0 = z[:, :, 0, None]
    over = z0 > us
    nu = np.count_nonzero(over, axis=1).astype(np.float64)
    sig = np.zeros_like(nu)
    if sigma:
        sig = np.count_nonzero(over & (z[:, :, 1, None] > us), axis=1
                               ).astype(np.float64)
    m = np.cumsum(np.where(z0 <= eps, z0, 0.0), axis=1)[:, -1]
    return [{ConditionName.NU_T: nu[i], ConditionName.SIGMA_T: sig[i],
             ConditionName.M_EPS: m[i]} for i in range(n)]


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
    totals = _drive(_marks_chunk, env_or_model, kind, n_traj, mode, seed,
                    workers, scales, K, us, epss, sigma, start,
                    rows=(K - 1) * (3 if sigma else 2))

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
    """nu_t(u, inf), the nu view of ``estimate_mark_conditions``: one
    estimate, or one per threshold when ``u`` is a sequence (all sharing the
    same runs)."""
    out = estimate_mark_conditions(env_or_model, scales, t, u, n_traj,
                                   sigma=False, kind=kind, mode=mode,
                                   seed=seed, start=start, workers=workers)
    nus = out[ConditionName.NU_T]
    return nus[0] if np.ndim(u) == 0 else nus


# ---------------------------------------------------------------------------
# return sums


def _return_chunk(batch, kind, scales, K, x):
    x0 = np.atleast_1d(_start_site(batch.model, x))
    hits = np.all(_batch_marks(batch, kind, scales, K, x) == x0, axis=2
                  ).astype(np.float64)
    return [{"per_k": row, ConditionName.A1_RETURN_SUM: float(row.sum())}
            for row in hits]


def return_sum(env_or_model, scales: ScaleSet, x, t: float, n_traj: int,
               kind: ChainKind = ChainKind.DISCRETE_J, mode: str = "quenched",
               seed: Optional[int] = None, workers: int = 1) -> ConditionEstimate:
    """Partial sums sum_{k=1}^{K-1} P_x(chain at mark k == x).

    ``series`` carries the per-k partial sums so growth (bounded vs linear)
    can be inspected; ``value`` is the final sum with its SE taken across
    per-trajectory totals.
    """
    K = _mark_count(scales, t)
    totals = _drive(_return_chunk, env_or_model, kind, n_traj, mode, seed,
                    workers, scales, K, x, rows=K - 1)
    return _moment_estimate(ConditionName.A1_RETURN_SUM, n_traj,
                            *totals[ConditionName.A1_RETURN_SUM],
                            _params(scales, kind, mode, t=t, x=x,
                                    theta_n=scales.theta_n),
                            series=np.cumsum(totals["per_k"][0] / n_traj))


# ---------------------------------------------------------------------------
# lattice diagnostics


def _heat_chunk(batch, kind, x, y, t):
    y = batch.model.as_site(y)
    return [{ConditionName.HEAT_KERNEL: float(key == y)}
            for key in batch.model.site_keys(_batch_sites(batch, kind, x, [t])[:, 0])]


def heat_kernel_mc(env_or_model, x, y, t: float, n_traj: int,
                   mode: str = "quenched", seed: Optional[int] = None,
                   workers: int = 1) -> ConditionEstimate:
    """P_x(walk at internal time t == y) for the variable-speed walk, whose
    reversing measure is uniform, so this is its heat kernel."""
    if not 0 <= t < math.inf:
        raise ContractViolationError(f"need a finite t >= 0, got {t}")
    kind = ChainKind.CONTINUOUS_J_VSRW
    totals = _drive(_heat_chunk, env_or_model, kind, n_traj, mode, seed,
                    workers, x, y, t)
    p = totals[ConditionName.HEAT_KERNEL][0] / n_traj
    return ConditionEstimate(ConditionName.HEAT_KERNEL, p,
                             math.sqrt(p * (1.0 - p) / n_traj), n_traj,
                             _params(None, kind, mode, t=t, x=x, y=y))


def _range_chunk(batch, kind, steps):
    # every trajectory's sites at steps 0..steps
    return [{ConditionName.RANGE: float(len(np.unique(path, axis=0)))}
            for path in _batch_sites(batch, kind, None, np.arange(steps + 1))]


def range_stat(env_or_model, m: int, n_traj: int, mode: str = "quenched",
               seed: Optional[int] = None, workers: int = 1) -> ConditionEstimate:
    """Mean number of distinct sites the chain visits in m steps (range);
    the second moment rides along in params["second_moment"]."""
    kind, m = ChainKind.DISCRETE_J, _integer("m", m, 0)
    s, sq = _drive(_range_chunk, env_or_model, kind, n_traj, mode, seed,
                   workers, m, rows=m + 1)[ConditionName.RANGE]
    est = _moment_estimate(ConditionName.RANGE, n_traj, s, sq,
                           _params(None, kind, mode, m=m))
    est.params["second_moment"] = sq / n_traj
    return est
