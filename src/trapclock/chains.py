"""Trajectory engines for the lattice dynamics and small reversible test chains.

Two chain kinds share one jump skeleton:

* ``CONTINUOUS_J_VSRW`` — the variable-speed walk with rates
  vsrw(x,y) = (tau(x)tau(y))^theta: exponential holding at total rate
  vsrw(x) = tau(x)^theta * sum_y tau(y)^theta, then a jump drawn
  proportionally to tau(y)^theta.
* ``DISCRETE_J`` — the embedded jump chain observed at integer steps, each
  step carrying an independent mean-one exponential mark (the discrete
  analogue of a holding time).

Both kinds draw the jump at event k from the same direction stream element k,
so for a fixed trajectory seed they walk the identical site sequence — the
holding/mark streams live in separate domains and cannot shift it.

Random discipline: one counter-based stream per trajectory with domains
DOM_DIR (jump directions), DOM_HOLD (holding times), DOM_MARK (discrete
marks).  Everything is a pure function of (traj_seed, domain, event index).

The theta = 0 lattice walk is a constant-rate simple random walk, which the
engine detects and runs in vectorized blocks (~6x faster); it consumes the
identical stream elements and produces the identical event sequence as the
generic loop.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Tuple, NamedTuple

import numpy as np

from .env import EnvConfig, neighbors as env_neighbors, tau_array
from .errors import ContractViolationError, RangeExhaustedError
from .rng import Stream

DOM_DIR = 0xD12EC7
DOM_HOLD = 0x401DD
DOM_MARK = 0x3A2B5

_FAST_BLOCK0 = 2048
_FAST_BLOCK_MAX = 1 << 16


class ChainKind(str, Enum):
    DISCRETE_J = "DiscreteJ"
    CONTINUOUS_J_VSRW = "ContinuousJ_VSRW"


@dataclass(frozen=True)
class TrajectoryConfig:
    """One trajectory: seed, kind, start site, and internal horizon.

    ``horizon`` is internal time for the continuous kind and a step count for
    the discrete kind.  It may be None when the caller stops the run by a
    clock target or an event cap instead.
    """

    traj_seed: int
    chain_kind: ChainKind
    start: Optional[tuple] = None
    horizon: Optional[float] = None

    def __post_init__(self):
        if self.horizon is not None and self.horizon < 0:
            raise ContractViolationError(f"horizon must be >= 0, got {self.horizon}")


class JumpRecord(NamedTuple):
    time: float
    from_site: tuple
    to_site: tuple
    holding: float


class LocalTimeLedger:
    """Sparse occupation map site -> accumulated local time, with running total."""

    __slots__ = ("_map", "total")

    def __init__(self):
        self._map = {}
        self.total = 0.0

    def add(self, site, amount: float):
        m = self._map
        prev = m.get(site)
        m[site] = amount if prev is None else prev + amount
        self.total += amount

    def get(self, site, default=0.0) -> float:
        return self._map.get(site, default)

    def items(self):
        return self._map.items()

    def sites(self):
        return self._map.keys()

    def __len__(self):
        return len(self._map)

    def __contains__(self, site):
        return site in self._map

    def recomputed_total(self) -> float:
        return float(sum(self._map.values()))


class JumpSequence:
    """Struct-of-arrays record of one trajectory.

    times[i]    epoch of jump i (internal time, or integer step index)
    holdings[i] time (or mark) spent at sites[i] before jump i
    sites       (n_jumps + 1, d) visited sites; sites[0] is the start
    final_holding  time credited at the last site after the last jump
    final_time  end of the simulated internal time range
    """

    __slots__ = ("kind", "times", "holdings", "sites", "final_holding",
                 "final_time", "truncated")

    def __init__(self, kind, times, holdings, sites, final_holding, final_time,
                 truncated=False):
        self.kind = kind
        self.times = np.asarray(times, dtype=np.float64)
        self.holdings = np.asarray(holdings, dtype=np.float64)
        self.sites = np.asarray(sites, dtype=np.int64)
        if self.sites.ndim == 1:
            self.sites = self.sites[:, None]
        self.final_holding = float(final_holding)
        self.final_time = float(final_time)
        self.truncated = bool(truncated)

    def __len__(self):
        return len(self.times)

    def site_tuple(self, i: int) -> tuple:
        return tuple(int(c) for c in self.sites[i])

    def __getitem__(self, i: int) -> JumpRecord:
        if i < 0:
            i += len(self.times)
        if not 0 <= i < len(self.times):
            raise IndexError(i)
        return JumpRecord(float(self.times[i]), self.site_tuple(i),
                          self.site_tuple(i + 1), float(self.holdings[i]))

    def site_index_at(self, t: float) -> int:
        """Index into ``sites`` of the site occupied at internal time t (cadlag)."""
        if t < 0 or t > self.final_time:
            raise RangeExhaustedError(
                f"internal time {t} outside simulated range [0, {self.final_time}]")
        return int(np.searchsorted(self.times, t, side="right"))

    def site_indices_at(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size and (ts.min() < 0 or ts.max() > self.final_time):
            raise RangeExhaustedError("internal time outside simulated range")
        return np.searchsorted(self.times, ts, side="right")

    def site_at(self, t: float) -> tuple:
        return self.site_tuple(self.site_index_at(t))


# ---------------------------------------------------------------------------
# chain models


class LatticeModel:
    """Lazy-infinite lattice chain defined by an EnvConfig, with per-site cache."""

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self.d = cfg.d
        self.start_default = cfg.origin
        self._cache = {}

    def site_data(self, x):
        """(tau, vsrw_rate, chain_rate, cum_weights, neighbors, max_nbr_tau)."""
        rec = self._cache.get(x)
        if rec is None:
            cfg = self.cfg
            nbrs = env_neighbors(cfg, x)
            taus = tau_array(cfg, np.array([x] + nbrs, dtype=np.int64))
            tau_x = float(taus[0])
            cumw = np.cumsum(taus[1:] ** cfg.theta).tolist()
            acc = cumw[-1]
            vsrw_rate = tau_x ** cfg.theta * acc
            chain_rate = tau_x ** (cfg.theta - 1.0) * acc
            rec = (tau_x, vsrw_rate, chain_rate, cumw, nbrs, float(taus[1:].max()))
            self._cache[x] = rec
        return rec

    def tau(self, x) -> float:
        return self.site_data(x)[0]

    def as_site(self, x):
        x = tuple(int(c) for c in x)
        if len(x) != self.d:
            raise ContractViolationError(f"site {x} has wrong dimension (want {self.d})")
        return x

    @property
    def fast_simple_walk(self) -> bool:
        return self.cfg.theta == 0.0


class TableModel:
    """Finite reversible chain given by a rate matrix and positive weights tau.

    Detailed balance tau[x] * rates[x, y] == tau[y] * rates[y, x] is checked at
    construction.  The symmetrized (variable-speed) rates are
    tau[x] * rates[x, y]; continuous clock weights are tau[x] and discrete
    weights 1 / sum_y rates[x, y], exactly as on the lattice.
    """

    def __init__(self, rates, tau):
        rates = np.asarray(rates, dtype=np.float64)
        tau = np.asarray(tau, dtype=np.float64)
        m = rates.shape[0]
        if rates.shape != (m, m) or tau.shape != (m,):
            raise ContractViolationError("rates must be (m, m) and tau (m,)")
        if np.any(tau <= 0) or np.any(rates < 0) or np.any(np.diag(rates) != 0):
            raise ContractViolationError("need tau > 0, rates >= 0, zero diagonal")
        fwd = tau[:, None] * rates
        if not np.allclose(fwd, fwd.T, rtol=1e-12, atol=0.0):
            raise ContractViolationError("tau and rates violate detailed balance")
        out_rate = rates.sum(axis=1)
        if np.any(out_rate <= 0):
            raise ContractViolationError("every state needs an outgoing rate")
        self.rates = rates
        self.weights = tau
        self.n_states = m
        self.d = 1
        self.start_default = 0
        self._cache = {}

    def site_data(self, x):
        rec = self._cache.get(x)
        if rec is None:
            row = self.rates[x]
            nbrs = [int(j) for j in np.nonzero(row)[0]]
            cumw = []
            acc = 0.0
            for j in nbrs:
                acc += float(row[j])
                cumw.append(acc)
            tau_x = float(self.weights[x])
            chain_rate = acc
            vsrw_rate = tau_x * acc
            rec = (tau_x, vsrw_rate, chain_rate, cumw, nbrs, float(self.weights[nbrs].max()))
            self._cache[x] = rec
        return rec

    def tau(self, x) -> float:
        return float(self.weights[x])

    def as_site(self, x):
        if isinstance(x, tuple):
            x = x[0]
        x = int(x)
        if not 0 <= x < self.n_states:
            raise ContractViolationError(f"state {x} out of range")
        return x


@lru_cache(maxsize=128)
def _lattice_model(cfg: EnvConfig) -> LatticeModel:
    return LatticeModel(cfg)


def as_model(obj):
    """Coerce an EnvConfig (cached) or an existing model to a chain model."""
    if isinstance(obj, EnvConfig):
        return _lattice_model(obj)
    if isinstance(obj, (LatticeModel, TableModel)):
        return obj
    raise ContractViolationError(f"not an environment or chain model: {obj!r}")


def jump_distribution(env_or_model, x) -> np.ndarray:
    """Jump probabilities out of x, aligned with the canonical neighbor order.

    Identical for both chain kinds: proportional to tau(y)^theta on the
    lattice, to the rate row for a table chain.
    """
    model = as_model(env_or_model)
    x = model.as_site(x)
    _, _, _, cumw, _, _ = model.site_data(x)
    w = np.asarray(cumw, dtype=np.float64)
    return np.diff(w, prepend=0.0) / w[-1]


# ---------------------------------------------------------------------------
# engines


def _ledger_from(jumps: JumpSequence, site_keys) -> LocalTimeLedger:
    led = LocalTimeLedger()
    hold = jumps.holdings
    for i, key in enumerate(site_keys[:-1]):
        led.add(key, float(hold[i]))
    # a continuous run that stopped on a clock target or on max_events ends
    # with a jump: the site it lands on has not been held at all
    if jumps.kind is ChainKind.DISCRETE_J or (
            not jumps.truncated
            and (len(jumps) == 0 or jumps.final_time > jumps.times[-1])):
        led.add(site_keys[-1], jumps.final_holding)
    return led


def _site_keys(model, jumps: JumpSequence):
    if isinstance(model, TableModel):
        return [int(s) for s in jumps.sites[:, 0]]
    return [tuple(int(c) for c in row) for row in jumps.sites]


def _run_continuous_general(model, seed, start, horizon, clock_target,
                            max_events, want_ledger):
    dir_s = Stream(seed, DOM_DIR)
    hold_s = Stream(seed, DOM_HOLD)
    x = start
    t = 0.0
    clock = 0.0
    times, holdings, sites = [], [], [x]
    ledger = LocalTimeLedger() if want_ledger else None
    n = 0
    truncated = False
    final_holding = 0.0
    buf_lo, buf_hi = 0, 0
    u_hold = u_dir = None
    while True:
        if n >= buf_hi:
            block = min(8192, max(256, n))
            buf_lo = n
            buf_hi = n + block
            u_hold = hold_s.uniforms(buf_lo, block).tolist()
            u_dir = dir_s.uniforms(buf_lo, block).tolist()
        tau_x, vsrw_rate, _, cumw, nbrs, _ = model.site_data(x)
        h = -math.log(u_hold[n - buf_lo]) / vsrw_rate
        if horizon is not None and t + h >= horizon:
            final_holding = horizon - t
            if ledger is not None:
                ledger.add(x, final_holding)
            t = horizon
            break
        t += h
        if ledger is not None:
            ledger.add(x, h)
        clock += h * tau_x
        j = bisect_right(cumw, u_dir[n - buf_lo] * cumw[-1])
        if j >= len(nbrs):
            j = len(nbrs) - 1
        times.append(t)
        holdings.append(h)
        x = nbrs[j]
        sites.append(x)
        n += 1
        if clock_target is not None and clock > clock_target:
            break
        if max_events is not None and n >= max_events:
            truncated = True
            break
    jumps = JumpSequence(ChainKind.CONTINUOUS_J_VSRW, times, holdings, sites,
                         final_holding, t, truncated)
    return ledger, jumps


def _step_table(d: int) -> np.ndarray:
    steps = np.zeros((2 * d, d), dtype=np.int64)
    for a in range(d):
        steps[2 * a, a] = 1
        steps[2 * a + 1, a] = -1
    return steps


def _run_continuous_fast(model: LatticeModel, seed, start, horizon, clock_target,
                         max_events, want_ledger):
    """Vectorized engine for the theta = 0 walk (constant rate 2d, uniform jumps)."""
    cfg = model.cfg
    d = model.d
    rate = float(2 * d)
    dir_s = Stream(seed, DOM_DIR)
    hold_s = Stream(seed, DOM_HOLD)
    steps = _step_table(d)

    chunks_t, chunks_h, chunks_pos = [], [], []
    n = 0
    t_carry = 0.0
    clock_carry = 0.0
    pos_carry = np.asarray(start, dtype=np.int64)
    block = _FAST_BLOCK0
    final_holding = 0.0
    truncated = False
    hit_horizon = False
    while True:
        m = block
        if max_events is not None:
            m = min(m, max_events - n)
            if m <= 0:
                truncated = True
                break
        u_h = hold_s.uniforms(n, m)
        u_d = dir_s.uniforms(n, m)
        h = -np.log(u_h) / rate
        t_cum = t_carry + np.cumsum(h)
        disp = steps[(u_d * rate).astype(np.int64)]
        pos = pos_carry + np.cumsum(disp, axis=0)
        from_sites = np.vstack([pos_carry[None, :], pos[:-1]])
        taus = tau_array(cfg, from_sites)
        # earliest stop within the chunk: a horizon cut keeps jumps [0, k_h)
        # (event k_h becomes the partial final holding); a clock cut keeps
        # jumps [0, k_c] (the crossing holding completes and its jump lands).
        # When both fall on the same event the horizon wins, matching the
        # generic loop's check order.
        k_h = m
        if horizon is not None:
            k_h = int(np.searchsorted(t_cum, horizon, side="left"))
        k_c = m
        c_cum = None
        if clock_target is not None:
            c_cum = clock_carry + np.cumsum(h * taus)
            k_c = int(np.searchsorted(c_cum, clock_target, side="right"))
        if k_h < m and k_h <= k_c:
            cut, stop, hit_horizon = k_h, True, True
        elif k_c < m:
            cut, stop = k_c + 1, True
        else:
            cut, stop = m, False
        if cut > 0:
            chunks_t.append(t_cum[:cut])
            chunks_h.append(h[:cut])
            chunks_pos.append(pos[:cut])
            t_carry = float(t_cum[cut - 1])
            pos_carry = pos[cut - 1].copy()
            if c_cum is not None:
                clock_carry = float(c_cum[cut - 1])
        n += cut
        if stop:
            break
        if max_events is not None and n >= max_events:
            truncated = True
            break
        block = min(block * 2, _FAST_BLOCK_MAX)

    if hit_horizon:
        final_holding = horizon - t_carry
        final_time = horizon
    else:
        final_time = t_carry

    if chunks_t:
        times = np.concatenate(chunks_t)
        holdings = np.concatenate(chunks_h)
        sites = np.vstack([np.asarray(start, dtype=np.int64)[None, :]] + chunks_pos)
    else:
        times = np.empty(0)
        holdings = np.empty(0)
        sites = np.asarray(start, dtype=np.int64)[None, :]
    jumps = JumpSequence(ChainKind.CONTINUOUS_J_VSRW, times, holdings, sites,
                         final_holding, final_time, truncated)
    ledger = None
    if want_ledger:
        ledger = _ledger_from(jumps, _site_keys(model, jumps))
    return ledger, jumps


def _run_discrete(model, seed, start, steps, max_events, want_ledger):
    dir_s = Stream(seed, DOM_DIR)
    mark_s = Stream(seed, DOM_MARK)
    if max_events is not None:
        steps = min(steps, max_events)
    u_marks = mark_s.uniforms(0, steps + 1)
    marks = -np.log(u_marks)
    u_dirs = dir_s.uniforms(0, steps).tolist() if steps else []
    x = start
    sites = [x]
    ledger = LocalTimeLedger() if want_ledger else None
    for i in range(steps):
        if ledger is not None:
            ledger.add(x, float(marks[i]))
        _, _, _, cumw, nbrs, _ = model.site_data(x)
        j = bisect_right(cumw, u_dirs[i] * cumw[-1])
        if j >= len(nbrs):
            j = len(nbrs) - 1
        x = nbrs[j]
        sites.append(x)
    if ledger is not None:
        ledger.add(x, float(marks[steps]))
    times = np.arange(1, steps + 1, dtype=np.float64)
    jumps = JumpSequence(ChainKind.DISCRETE_J, times, marks[:steps], sites,
                         float(marks[steps]), float(steps), False)
    return ledger, jumps


def _prepare(env_or_model, tcfg: TrajectoryConfig, expect_kind: ChainKind):
    model = as_model(env_or_model)
    if tcfg.chain_kind is not expect_kind:
        raise ContractViolationError(
            f"trajectory config has kind {tcfg.chain_kind}, expected {expect_kind}")
    start = model.start_default if tcfg.start is None else model.as_site(tcfg.start)
    return model, start


def run_vsrw(env_or_model, tcfg: TrajectoryConfig, *, clock_target=None,
             max_events=None, want_ledger=True, force_general=False):
    """Simulate the variable-speed walk; returns (LocalTimeLedger, JumpSequence).

    Stops at the internal-time horizon (final partial holding credited to the
    ledger so ledger.total == horizon), or — if ``clock_target`` is given —
    right after the jump whose completed holding pushed the accumulated clock
    sum(holding * tau) above the target.  ``max_events`` caps the number of
    jumps; hitting it marks the sequence truncated.
    """
    model, start = _prepare(env_or_model, tcfg, ChainKind.CONTINUOUS_J_VSRW)
    if tcfg.horizon is None and clock_target is None and max_events is None:
        raise ContractViolationError("need a horizon, clock_target, or max_events")
    if isinstance(model, LatticeModel) and model.fast_simple_walk and not force_general:
        return _run_continuous_fast(model, tcfg.traj_seed, start, tcfg.horizon,
                                    clock_target, max_events, want_ledger)
    return _run_continuous_general(model, tcfg.traj_seed, start, tcfg.horizon,
                                   clock_target, max_events, want_ledger)


def run_discrete(env_or_model, tcfg: TrajectoryConfig, *, max_events=None,
                 want_ledger=True):
    """Simulate the discrete chain for floor(horizon) steps.

    The ledger receives floor(horizon) + 1 exponential marks (one per step
    index 0..floor(horizon), matching the discrete local time at the horizon);
    the jump sequence records floor(horizon) jumps at integer epochs.
    """
    model, start = _prepare(env_or_model, tcfg, ChainKind.DISCRETE_J)
    if tcfg.horizon is None:
        raise ContractViolationError("discrete runs need a horizon (step count)")
    steps = int(math.floor(tcfg.horizon))
    return _run_discrete(model, tcfg.traj_seed, start, steps, max_events,
                         want_ledger)


def occupation_from_jumps(env_or_model, jumps: JumpSequence) -> LocalTimeLedger:
    """Rebuild the local-time ledger from an event stream (order-preserving)."""
    model = as_model(env_or_model)
    return _ledger_from(jumps, _site_keys(model, jumps))


def position_of_x(jumps: JumpSequence, clock, t_phys: float):
    """Site of the time-changed process X at physical time t_phys.

    X(t) = J(S^<-(t)): the site whose physical occupation interval
    [S_k, S_{k+1}) contains t_phys, right-continuous at interval ends.
    Raises RangeExhaustedError when t_phys is at or beyond the last simulated
    clock value (the next site is unknown).
    """
    if t_phys < 0:
        raise ContractViolationError(f"physical time must be >= 0, got {t_phys}")
    values = clock.values
    if jumps.kind is ChainKind.DISCRETE_J:
        k = int(np.searchsorted(values, t_phys, side="right"))
    else:
        k = int(np.searchsorted(values, t_phys, side="right")) - 1
        if k < 0:
            k = 0
    if t_phys >= values[-1] or k >= len(jumps.sites):
        raise RangeExhaustedError(
            f"physical time {t_phys} beyond simulated clock range {values[-1]}")
    return jumps.site_tuple(k)
