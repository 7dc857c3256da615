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

The general engine (theta > 0, table chains, ``force_general``) steps over
integer ids of the model's site table: only the site walk is a Python loop,
and each block's holdings, times, clock, stopping cuts and ledger are NumPy
passes that keep the floats of an event-by-event loop.

The theta = 0 lattice walk is a constant-rate simple random walk, so every
jump and holding is known up front.  One kernel, ``_simple_clock_blocks``,
steps many such walkers in lockstep blocks of bounded size, and three views
read it: ``run_vsrw`` (one walker), ``sites_at`` and ``block_clocks`` (every
walker of a batch, quenched or annealed) and the aging windows.  Its holdings
are -log(u) / 2d with ``np.log``; time and clock are running sums carried
across blocks, as the general engine and ``build_clock`` sum them.

The discrete chain has one stepping rule: walkers step in lockstep arrays
(``_Walkers``), and ``run_discrete`` is a run of one such walker.
``block_clocks`` and ``sites_at`` run many walkers of one chain at once and
give each walker the floats of its own run.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Optional, Tuple, NamedTuple

import numpy as np

from .env import EnvConfig, shifted_sites, tau_array
from .errors import ContractViolationError, EventCapError, RangeExhaustedError
from .rng import MASK64, Stream, hash_rows, hash_words, units_from

DOM_DIR = 0xD12EC7
DOM_HOLD = 0x401DD
DOM_MARK = 0x3A2B5

# The event bound of a general-engine run that sets no ``max_events``: a run
# that would need more raises EventCapError instead of growing without bound
# in time and memory (at theta > 0 an edge between two deep traps is crossed
# at a rate (tau(x) tau(y))^theta, so a horizon alone bounds nothing).  A
# discrete run's step count is its horizon, and the theta = 0 walk makes
# Poisson(2d * horizon) jumps, so neither has a default cap.
DEFAULT_MAX_EVENTS = 10 ** 6

_GENERAL_BLOCK0 = 64
_GENERAL_BLOCK_MAX = 1 << 13
# a lattice site table builds about this many sites around a miss: the
# sup-norm ball of radius 3 in d = 2, of radius 1 in d = 3
_BOX_SITES = 49


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
        # a NaN or infinite horizon would never stop a theta = 0 walk
        if self.horizon is not None and not 0 <= self.horizon < math.inf:
            raise ContractViolationError(
                f"horizon must be finite and >= 0, got {self.horizon}")


class JumpRecord(NamedTuple):
    time: float
    from_site: tuple
    to_site: tuple
    holding: float


class LocalTimeLedger:
    """Sparse occupation map site -> accumulated local time, with running total."""

    __slots__ = ("_map", "total")

    def __init__(self, amounts=(), total: float = 0.0):
        self._map = dict(amounts)
        self.total = total

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


class _SiteTable:
    """A chain's sites under integer ids 0..n-1.  Flat arrays hold each
    site's coordinates, depth tau and walk rate vsrw(x); per-site tuples hold
    the cumulative neighbour weights and the neighbour ids, the last id
    repeated so that a bisect that lands past the total still picks the last
    neighbour.  A site's tuples are None until it is built.  ``column``
    views an array as NumPy; a view must not outlive a call that adds
    sites."""

    def __init__(self, d: int):
        self.d = d
        self.n = 0
        self.coords = array("q")
        self.tau = array("d")
        self.rate = array("d")
        self.cum = []
        self.nbr = []

    def column(self, name: str) -> np.ndarray:
        if name == "coords":
            return np.frombuffer(self.coords, dtype=np.int64).reshape(self.n, self.d)
        return np.frombuffer(getattr(self, name), dtype=np.float64)

    def add(self, coords: np.ndarray, tau: np.ndarray) -> int:
        """Append unbuilt sites; returns the id of the first."""
        k = len(tau)
        self.coords.frombytes(np.ascontiguousarray(coords, dtype=np.int64).tobytes())
        self.tau.frombytes(np.ascontiguousarray(tau, dtype=np.float64).tobytes())
        self.rate.frombytes(bytes(8 * k))
        self.cum.extend([None] * k)
        self.nbr.extend([None] * k)
        self.n += k
        return self.n - k

    def build(self, i: int, cum: tuple, nbr: tuple, rate: float) -> None:
        self.cum[i] = cum
        self.nbr[i] = nbr + nbr[-1:]
        self.rate[i] = rate


@lru_cache(maxsize=None)
def _box(d: int):
    """The box a lattice site table fills around a miss, with its boundary
    layer: offsets flat in row-major order, the flat positions of the inner
    box, and the flat steps to the 2d neighbours (+e_0, -e_0, +e_1, ...)."""
    radius = max(1, int((_BOX_SITES ** (1.0 / d) - 1.0) / 2.0))
    axis = np.arange(-radius - 1, radius + 2)
    offsets = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    inner = tuple(np.flatnonzero(np.abs(offsets).max(axis=1) <= radius).tolist())
    side = len(axis)
    steps = tuple(s * side ** (d - 1 - a) for a in range(d) for s in (1, -1))
    return offsets, inner, steps


class LatticeModel:
    """Lazy-infinite lattice chain defined by an EnvConfig.

    Its site table fills on demand: a site that is needed but not built has
    every unbuilt site of the box of about _BOX_SITES sites around it built,
    with the depths of the box and its boundary layer from one
    ``tau_array`` call.
    """

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self.d = cfg.d
        self.start_default = cfg.origin
        self.sites = _SiteTable(cfg.d)
        self._ids = {}

    def _fill(self, x) -> None:
        """Build every unbuilt site of the box around the site x."""
        sites, ids, theta = self.sites, self._ids, self.cfg.theta
        offsets, inner, steps = _box(self.d)
        keys = [tuple(r) for r in (np.asarray(x, dtype=np.int64) + offsets).tolist()]
        new = [k for k in keys if k not in ids]
        if new:
            coords = np.array(new, dtype=np.int64)
            first = sites.add(coords, tau_array(self.cfg, coords))
            ids.update(zip(new, range(first, first + len(new))))
        grid = [ids[k] for k in keys]
        todo = [p for p in inner if sites.cum[grid[p]] is None]
        nbrs = [tuple([grid[p + s] for s in steps]) for p in todo]
        cum = np.cumsum(sites.column("tau")[np.array(nbrs)] ** theta, axis=1)
        for p, c, nb in zip(todo, cum.tolist(), nbrs):
            i = grid[p]
            sites.build(i, tuple(c), nb, sites.tau[i] ** theta * c[-1])

    def site_id(self, x) -> int:
        """Id of the site x (a tuple of ints), built."""
        i = self._ids.get(x)
        if i is None or self.sites.cum[i] is None:
            self._fill(x)
            i = self._ids[x]
        return i

    def site_keys(self, sites: np.ndarray) -> list:
        """Ledger keys of a (k, d) array of sites: tuples of ints."""
        return [tuple(r) for r in sites.tolist()]

    def tau(self, x) -> float:
        i = self._ids.get(x)
        if i is None:
            self._fill(x)
            i = self._ids[x]
        return self.sites.tau[i]

    def as_site(self, x):
        x = tuple(int(c) for c in x)
        if len(x) != self.d:
            raise ContractViolationError(f"site {x} has wrong dimension (want {self.d})")
        return x


class TableModel:
    """Finite reversible chain given by a rate matrix and positive weights tau.

    Detailed balance tau[x] * rates[x, y] == tau[y] * rates[y, x] is checked at
    construction.  The symmetrized (variable-speed) rates are
    tau[x] * rates[x, y]; continuous clock weights are tau[x] and discrete
    weights 1 / sum_y rates[x, y], exactly as on the lattice.  State x is
    site id x of the site table, which is built whole here.
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
        self.sites = _SiteTable(1)
        self.sites.add(np.arange(m)[:, None], tau)
        for x in range(m):
            nbrs = np.nonzero(rates[x])[0]
            cum = np.cumsum(rates[x, nbrs]).tolist()
            self.sites.build(x, tuple(cum), tuple(nbrs.tolist()), float(tau[x]) * cum[-1])

    def site_id(self, x) -> int:
        return x

    def site_keys(self, sites: np.ndarray) -> list:
        """Ledger keys of a (k, 1) array of states: ints."""
        return sites[:, 0].tolist()

    def tau(self, x) -> float:
        return float(self.weights[x])

    def as_site(self, x):
        if isinstance(x, tuple):
            x = x[0]
        x = int(x)
        if not 0 <= x < self.n_states:
            raise ContractViolationError(f"state {x} out of range")
        return x


def as_model(obj):
    """Coerce an EnvConfig (to a fresh LatticeModel, whose site table lives
    as long as the caller keeps it) or an existing model to a chain model."""
    if isinstance(obj, EnvConfig):
        return LatticeModel(obj)
    if isinstance(obj, (LatticeModel, TableModel)):
        return obj
    raise ContractViolationError(f"not an environment or chain model: {obj!r}")


def _neighbor_power_sums(cfg, sites: np.ndarray, env_seeds=None) -> np.ndarray:
    """sum_y tau(y)^theta over the 2d neighbors of each row, vectorized."""
    acc = np.zeros(sites.shape[0])
    for shifted in shifted_sites(sites):
        acc += tau_array(cfg, shifted, env_seeds) ** cfg.theta
    return acc


def _site_weights(model, sites: np.ndarray, kind: ChainKind,
                  env_seeds=None) -> np.ndarray:
    """Clock weight per visited site: tau(x) (continuous) or 1/lambda(x)
    (discrete); ``env_seeds`` as in ``tau_array`` (lattice models only)."""
    if isinstance(model, TableModel):
        states = sites[:, 0]
        if kind is ChainKind.CONTINUOUS_J_VSRW:
            return model.weights[states]
        return 1.0 / model.rates.sum(axis=1)[states]
    cfg = model.cfg
    taus = tau_array(cfg, sites, env_seeds)
    if kind is ChainKind.CONTINUOUS_J_VSRW:
        return taus
    return taus ** (1.0 - cfg.theta) / _neighbor_power_sums(cfg, sites, env_seeds)


def jump_distribution(env_or_model, x) -> np.ndarray:
    """Jump probabilities out of x, aligned with the canonical neighbor order.

    Identical for both chain kinds: proportional to tau(y)^theta on the
    lattice, to the rate row for a table chain.
    """
    model = as_model(env_or_model)
    w = np.array(model.sites.cum[model.site_id(model.as_site(x))])
    return np.diff(w, prepend=0.0) / w[-1]


# ---------------------------------------------------------------------------
# engines


def _final_held(jumps: JumpSequence) -> bool:
    """Whether the last site is held, for ``final_holding``: always in a
    discrete run, and in a continuous run iff its time ran on past its last
    jump (a horizon stop).  A run that stopped on a clock target or on
    max_events ends with a jump, and the site it lands on is not held."""
    return (jumps.kind is ChainKind.DISCRETE_J or len(jumps) == 0
            or jumps.final_time > jumps.times[-1])


def _ledger(model, jumps: JumpSequence, ids=None) -> LocalTimeLedger:
    """The local-time ledger of a run: each site's holdings summed in event
    order (bincount sums a bin in index order), the sites in first-visit
    order, and the running sum of the holdings as the total.  ``ids`` are
    the site-table ids of ``jumps.sites`` when the run has them."""
    amounts = jumps.holdings
    if _final_held(jumps):
        amounts = np.append(amounts, jumps.final_holding)
    if ids is None:
        coords, ids = np.unique(jumps.sites, axis=0, return_inverse=True)
        ids = ids.reshape(-1)
    else:
        coords = model.sites.column("coords")
    held = ids[:len(amounts)]
    order = np.array(list(dict.fromkeys(held.tolist())), dtype=np.int64)
    slot = np.empty(len(coords), dtype=np.int64)
    slot[order] = np.arange(len(order))
    sums = np.bincount(slot[held], weights=amounts, minlength=len(order))
    return LocalTimeLedger(zip(model.site_keys(coords[order]), sums.tolist()),
                           float(np.cumsum(amounts)[-1]))


def _running(carry, steps: np.ndarray) -> np.ndarray:
    """(B, m + 1) running sums of the (B, m) ``steps`` from the (B,) carries,
    summed in order as build_clock sums a path."""
    out = np.empty((steps.shape[0], steps.shape[1] + 1))
    out[:, 0] = carry
    out[:, 1:] = steps
    return np.cumsum(out, axis=1, out=out)


def _cuts(times, vals, horizon, clock_target):
    """run_vsrw's stops in a block of m events, per row of the (B, m + 1)
    running times and clock before and after each event: (kept, held,
    live).  A horizon keeps the events that end before it, and the site
    after them is ``held`` to it; a clock target keeps the events up to and
    including the one whose clock passes it; on the same event the horizon
    wins.  A row that stops at neither keeps all m events and stays live.
    Both sums are nondecreasing, so each stop is a count."""
    m = vals.shape[1] - 1
    k_c = np.full(len(vals), m)
    if clock_target is not None:
        k_c = np.count_nonzero(vals[:, 1:] <= clock_target, axis=1)
    k_h = np.full(len(vals), m)
    if horizon is not None:
        k_h = np.count_nonzero(times[:, 1:] < horizon, axis=1)
    held = (k_h < m) & (k_h <= k_c)
    return np.where(held, k_h, np.minimum(k_c + 1, m)), held, ~held & (k_c == m)


def _walk(model, x: int, u: list) -> list:
    """Ids of the sites the walk jumps to from site id x, jump k drawn with
    u[k]: the neighbour at the bisect of u[k] * total in the cumulative
    weights."""
    sites = model.sites
    cum, nbr, d = sites.cum, sites.nbr, sites.d
    out = []
    append = out.append
    for v in u:
        c = cum[x]
        if c is None:
            model._fill(sites.coords[x * d:(x + 1) * d].tolist())
            c = cum[x]
        x = nbr[x][bisect_right(c, v * c[-1])]
        append(x)
    return out


def _run_general(model, seed, start, horizon, clock_target, max_events):
    """The engine for theta > 0, table chains and ``force_general``, capped at
    DEFAULT_MAX_EVENTS (EventCapError) when ``max_events`` is None; returns
    the site-table ids of the sites and the jump sequence.

    It runs in doubling blocks of events.  Only the site walk is a Python
    loop (over site ids of the model's site table); the block's holdings,
    times, clock and stopping cuts are array passes.  The floats are those of
    an event-by-event loop: holdings -log(u) / vsrw(x) with ``math.log``, and
    times and clock as running sums carried across blocks.
    """
    cap = DEFAULT_MAX_EVENTS if max_events is None else max_events
    sites = model.sites
    bases = np.array([[hash_words(seed, DOM_DIR)], [hash_words(seed, DOM_HOLD)]],
                     dtype=np.uint64)
    x = model.site_id(start)
    chunks_x, chunks_t, chunks_h = [np.array([x])], [np.empty(0)], [np.empty(0)]
    n = 0
    t = 0.0
    clock = 0.0
    block = _GENERAL_BLOCK0
    live = True
    while live and n < cap:
        m = min(block, cap - n)
        u_dir, u_hold = _stream(bases, np.arange(n, n + m, dtype=np.uint64)).tolist()
        path = np.array([x] + _walk(model, x, u_dir))
        frm = path[:-1]
        logs = np.array(list(map(math.log, u_hold)))
        h = -logs / sites.column("rate")[frm]
        t_cum = _running(t, h[None])
        c_cum = _running(clock, (h * sites.column("tau")[frm])[None])
        kept, held, live = (a[0] for a in _cuts(t_cum, c_cum, horizon, clock_target))
        chunks_x.append(path[1:kept + 1])
        chunks_t.append(t_cum[0, 1:kept + 1])
        chunks_h.append(h[:kept])
        x, t, clock = int(path[kept]), float(t_cum[0, kept]), float(c_cum[0, kept])
        n += kept
        block = min(2 * block, _GENERAL_BLOCK_MAX)
    if max_events is None and live:
        raise EventCapError(f"run stopped by the default cap of {cap} events")
    ids = np.concatenate(chunks_x)
    return ids, JumpSequence(ChainKind.CONTINUOUS_J_VSRW, np.concatenate(chunks_t),
                             np.concatenate(chunks_h), sites.column("coords")[ids],
                             horizon - t if held else 0.0, horizon if held else t, live)


def _step_table(d: int) -> np.ndarray:
    steps = np.zeros((2 * d, d), dtype=np.int64)
    for a in range(d):
        steps[2 * a, a] = 1
        steps[2 * a + 1, a] = -1
    return steps


def _run_simple(model: LatticeModel, seed, start, horizon, clock_target, max_events):
    """The theta = 0 lattice walk of ``run_vsrw``: one walker of the lockstep
    kernel, its kept events assembled into one jump sequence."""
    sites, holdings = [], []
    for blk in _simple_clock_blocks(model.cfg, np.array([seed & MASK64], dtype=np.uint64),
                                    np.array([start]), horizon=horizon,
                                    clock_target=clock_target, max_events=max_events):
        k = int(blk.kept[0])
        sites.append(blk.sites[:, 0, :k])
        holdings.append(blk.holdings[0, :k])
    sites.append(blk.sites[:, 0, k:k + 1])
    h = np.concatenate(holdings)
    times = np.cumsum(h)
    t = float(times[-1]) if len(times) else 0.0
    held = bool(blk.held[0])
    return None, JumpSequence(ChainKind.CONTINUOUS_J_VSRW, times, h,
                              np.concatenate(sites, axis=1).T,
                              horizon - t if held else 0.0, horizon if held else t,
                              bool(blk.live[0]))


def _prepare(env_or_model, tcfg: TrajectoryConfig, expect_kind: ChainKind):
    model = as_model(env_or_model)
    if tcfg.chain_kind is not expect_kind:
        raise ContractViolationError(
            f"trajectory config has kind {tcfg.chain_kind}, expected {expect_kind}")
    start = model.start_default if tcfg.start is None else model.as_site(tcfg.start)
    return model, start


def _check_cap(max_events) -> None:
    if max_events is not None and max_events < 1:
        raise ContractViolationError(f"need max_events >= 1, got {max_events}")


def run_vsrw(env_or_model, tcfg: TrajectoryConfig, *, clock_target=None,
             max_events=None, want_ledger=True, force_general=False):
    """Simulate the variable-speed walk; returns (LocalTimeLedger, JumpSequence).

    Stops at the internal-time horizon (final partial holding credited to the
    ledger so ledger.total == horizon), or — if ``clock_target`` is given —
    right after the jump whose completed holding pushed the accumulated clock
    sum(holding * tau) above the target.  ``max_events`` caps the number of
    jumps; hitting it marks the sequence truncated.  Without ``max_events``
    a run of the general engine (theta > 0, a table chain, or
    ``force_general``) is capped at ``DEFAULT_MAX_EVENTS`` and raises
    EventCapError on reaching it.
    """
    model, start = _prepare(env_or_model, tcfg, ChainKind.CONTINUOUS_J_VSRW)
    if tcfg.horizon is None and clock_target is None and max_events is None:
        raise ContractViolationError("need a horizon, clock_target, or max_events")
    _check_cap(max_events)
    engine = _run_general
    if isinstance(model, LatticeModel) and model.cfg.theta == 0.0 and not force_general:
        engine = _run_simple
    ids, jumps = engine(model, tcfg.traj_seed, start, tcfg.horizon, clock_target,
                        max_events)
    return (_ledger(model, jumps, ids) if want_ledger else None), jumps


def run_discrete(env_or_model, tcfg: TrajectoryConfig, *, max_events=None,
                 want_ledger=True):
    """Simulate the discrete chain for floor(horizon) steps (at most
    ``max_events``): a one-walker run of the batched lockstep walkers.

    The ledger receives floor(horizon) + 1 exponential marks (one per step
    index 0..floor(horizon), matching the discrete local time at the horizon);
    the jump sequence records floor(horizon) jumps at integer epochs.
    """
    model, start = _prepare(env_or_model, tcfg, ChainKind.DISCRETE_J)
    if tcfg.horizon is None:
        raise ContractViolationError("discrete runs need a horizon (step count)")
    _check_cap(max_events)
    steps = int(math.floor(tcfg.horizon))
    if max_events is not None:
        steps = min(steps, max_events)
    seed = tcfg.traj_seed & MASK64
    sites = _Walkers(model, ChainKind.DISCRETE_J).discrete_sites(
        np.array([seed], dtype=np.uint64), np.atleast_1d(start)[None, :],
        steps, None)[0]
    marks = -np.log(Stream(seed, DOM_MARK).uniforms(0, steps + 1))
    jumps = JumpSequence(ChainKind.DISCRETE_J,
                         np.arange(1, steps + 1, dtype=np.float64),
                         marks[:steps], sites, marks[steps], steps)
    return (_ledger(model, jumps) if want_ledger else None), jumps


def occupation_from_jumps(env_or_model, jumps: JumpSequence) -> LocalTimeLedger:
    """Rebuild the local-time ledger from an event stream (order-preserving)."""
    return _ledger(as_model(env_or_model), jumps)


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


# ---------------------------------------------------------------------------
# batched runs: many walkers of one chain
#
# Walker b starts at starts[b] with trajectory seed seeds[b] and, on the
# lattice, reads the environment of seed env_seeds[b] when env_seeds is
# given.  Every walker gets the floats of its own run by run_vsrw,
# run_discrete and build_clock: a continuous walker is that run; discrete
# walkers step in lockstep (the jump is the count of cumulative neighbour
# weights <= u * total, capped at the last neighbour), in groups of at most
# _GROUP_STEPS walker-steps so that memory stays bounded.

_GROUP_STEPS = 1 << 18


def _stream(bases: np.ndarray, ks) -> np.ndarray:
    """Elements ks of the streams with the given bases (Stream.uniforms)."""
    return units_from(hash_rows(bases, ks))


def _clock_values(holdings: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The clock along the last axis, summed in event order as build_clock
    sums it; a path that is not finite and nondecreasing is refused."""
    vals = np.cumsum(holdings * weights, axis=-1)
    if not (np.all(np.isfinite(vals)) and np.all(np.diff(vals, axis=-1) >= 0)):
        raise ContractViolationError("clock path must be finite and nondecreasing")
    return vals


class _Walkers:
    """What batched runs need of a chain: its continuous runs as blocks and,
    for lockstep discrete steps, cumulative neighbour weights (a table
    chain's site table as a dense table padded with inf, its neighbour ids
    with the last repeated)."""

    def __init__(self, model, kind: ChainKind):
        self.model = model
        self.kind = kind
        self.table = isinstance(model, TableModel)
        self.simple = not self.table and model.cfg.theta == 0.0
        if self.table:
            cum, nbr = model.sites.cum, model.sites.nbr
            width = max(map(len, cum))
            self.cum = np.full((model.n_states, width), np.inf)
            self.nbr = np.zeros((model.n_states, width + 1), dtype=np.int64)
            for x in range(model.n_states):
                self.cum[x, :len(cum[x])] = cum[x]
                self.nbr[x, :len(nbr[x])] = nbr[x]
            self.total = np.array([c[-1] for c in cum])
        else:
            self.steps = _step_table(model.d)

    def cum_weights(self, x: np.ndarray, env_seeds) -> np.ndarray:
        """(B, width) cumulative neighbour weights in canonical order."""
        if self.table:
            return self.cum[x[:, 0]]
        # all 2d neighbours of every walker in one hash pass, neighbour-major
        cfg = self.model.cfg
        width = 2 * cfg.d
        if env_seeds is not None:
            env_seeds = np.tile(env_seeds, width)
        nbrs = (x[None] + self.steps[:, None]).reshape(-1, cfg.d)
        powers = tau_array(cfg, nbrs, env_seeds) ** cfg.theta
        return np.cumsum(powers.reshape(width, len(x)), axis=0).T

    def move(self, x: np.ndarray, u: np.ndarray, cum: np.ndarray) -> np.ndarray:
        if self.table:
            s = x[:, 0]
            j = np.count_nonzero(cum <= (u * self.total[s])[:, None], axis=1)
            return self.nbr[s, j][:, None]
        j = np.count_nonzero(cum <= (u * cum[:, -1])[:, None], axis=1)
        return x + self.steps[np.minimum(j, len(self.steps) - 1)]

    def continuous_blocks(self, seeds, starts, env_seeds, **stops):
        """Blocks (``_Block``) of the walkers' runs as run_vsrw runs them to
        the ``stops`` (horizon, clock_target, max_events): the lockstep
        kernel's at theta = 0, otherwise one block per walker, its whole
        run by the general engine."""
        if self.simple:
            yield from _simple_clock_blocks(self.model.cfg, seeds, starts,
                                            env_seeds, **stops)
            return
        envs = [None] * len(seeds) if env_seeds is None else env_seeds.tolist()
        model = self.model
        for b, (seed, start, env_seed) in enumerate(zip(seeds.tolist(), starts, envs)):
            # walkers of one environment in a row share its site table
            if env_seed is not None and (b == 0 or env_seed != envs[b - 1]):
                model = LatticeModel(replace(self.model.cfg, env_seed=env_seed))
            tcfg = TrajectoryConfig(seed, ChainKind.CONTINUOUS_J_VSRW,
                                    start=tuple(start.tolist()),
                                    horizon=stops.get("horizon"))
            _, jumps = run_vsrw(model, tcfg, clock_target=stops.get("clock_target"),
                                max_events=stops.get("max_events"), want_ledger=False)
            w = _site_weights(model, jumps.sites[:-1], self.kind)
            vals = _running(0.0, (jumps.holdings * w)[None])
            if not np.all(np.isfinite(vals)):
                raise ContractViolationError("clock path must be finite")
            yield _Block(np.array([b]), jumps.sites.T[:, None], jumps.holdings[None],
                         vals, np.append(0.0, jumps.times)[None],
                         np.array([len(jumps)]), np.array([_final_held(jumps)]),
                         np.array([jumps.truncated]))

    def discrete_sites(self, seeds, starts, n_steps: int, env_seeds) -> np.ndarray:
        """(B, n_steps + 1, d) sites of one group at steps 0..n_steps."""
        u = _stream(hash_rows(seeds, DOM_DIR)[:, None], np.arange(n_steps))
        sites = np.empty((len(seeds), n_steps + 1, starts.shape[1]), dtype=np.int64)
        sites[:, 0] = starts
        if self.simple:
            # unit weights: the count of cum weights 1, 2, ..., 2d at most
            # u * 2d is floor(u * 2d), so every jump is known up front
            moves = self.steps[(u * (2.0 * self.model.d)).astype(np.int64)]
            sites[:, 1:] = starts[:, None] + np.cumsum(moves, axis=1)
            return sites
        for i in range(n_steps):
            x = sites[:, i]
            sites[:, i + 1] = self.move(x, u[:, i], self.cum_weights(x, env_seeds))
        return sites


# walker-events of one lockstep block of the theta = 0 walk, so that a batch
# of long runs holds a bounded amount of path at a time; a block also makes
# no more events than the walk has made so far, or _LOCKSTEP_BLOCK0, so
# that a short run of a few walkers stays cheap (a batch of 16 walkers or
# more is not affected)
_LOCKSTEP_EVENTS = 1 << 13
_LOCKSTEP_BLOCK0 = _LOCKSTEP_EVENTS // 16


class _Block(NamedTuple):
    """Events n..n+m-1 of the B walkers of a lockstep block still running."""

    rows: np.ndarray      # (B,) walker ids
    sites: np.ndarray     # (d, B, m + 1) the site held over each event, then the next
    holdings: np.ndarray  # (B, m)
    vals: np.ndarray      # (B, m + 1) the clock before and after each event
    times: Optional[np.ndarray]  # (B, m + 1) the same for time, given a horizon
    kept: np.ndarray      # (B,) the events a walker keeps: m unless it stops here
    held: np.ndarray      # (B,) it stopped at the horizon, site ``kept`` held to it
    live: np.ndarray      # (B,) it runs on into the next block


def _simple_clock_blocks(cfg: EnvConfig, seeds: np.ndarray, starts: np.ndarray,
                         env_seeds: Optional[np.ndarray] = None, *, horizon=None,
                         clock_target=None, max_events: Optional[int] = None):
    """Lockstep blocks (``_Block``) of theta = 0 walks, walker b with
    trajectory seed seeds[b] from the site starts[b] in the environment of
    seed env_seeds[b] (of ``cfg`` when env_seeds is None), each run as
    run_vsrw runs it.

    The stop rules are those of run_vsrw: a horizon keeps the events that end
    before it, a clock target keeps the events up to and including the one
    whose clock passes it (on the same event the horizon wins), and the
    kernel ends after ``max_events`` events with the walkers still live.
    Time and clock are build_clock's sums: the row's carry prepended to one
    sequential cumsum per block.  Times are summed only when a horizon is
    set.  A walker leaves after the block in which it stops; its events
    after the stop stay in the block.  A clock that is not finite up to a
    walker's stop is refused.
    """
    d = cfg.d
    rate = float(2 * d)
    moves = _step_table(d).T.copy()  # moves[a, j]: the axis-a step of direction j
    bases = hash_rows(seeds, np.array([[DOM_DIR], [DOM_HOLD]], dtype=np.uint64))
    rows = np.arange(len(seeds))
    pos = starts.T.astype(np.int64)
    clock = np.zeros(len(seeds))
    t = np.zeros(len(seeds))
    n = 0
    while len(rows) and (max_events is None or n < max_events):
        B = len(rows)
        m = max(1, min(max(_LOCKSTEP_BLOCK0, n), _LOCKSTEP_EVENTS // B))
        if max_events is not None:
            m = min(m, max_events - n)
        u_dir, u_hold = _stream(bases[:, :, None], np.arange(n, n + m, dtype=np.uint64))
        # one integer walk per axis: the start, then the step of each event
        sites = np.empty((d, B, m + 1), dtype=np.int64)
        sites[:, :, 0] = pos
        dirs = (u_dir * rate).astype(np.int64)
        for a in range(d):
            sites[a, :, 1:] = moves[a][dirs]
        np.cumsum(sites, axis=2, out=sites)
        taus = tau_array(cfg, sites[:, :, :m].reshape(d, -1).T,
                         None if env_seeds is None else np.repeat(env_seeds, m))
        h = -np.log(u_hold) / rate
        vals = _running(clock, h * taus.reshape(B, m))
        times = None if horizon is None else _running(t, h)
        kept, held, live = _cuts(times, vals, horizon, clock_target)
        if not np.all(np.isfinite(vals[np.arange(B), kept])):
            raise ContractViolationError("clock path must be finite")
        yield _Block(rows, sites, h, vals, times, kept, held, live)
        rows, bases, pos, clock = rows[live], bases[:, live], sites[:, live, m], vals[live, m]
        if times is not None:
            t = times[live, m]
        if env_seeds is not None:
            env_seeds = env_seeds[live]
        n += m


def _groups(count: int, n_steps: int):
    """Slices of walkers 0..count-1 with at most _GROUP_STEPS walker-steps
    each, and at least one walker."""
    size = max(1, _GROUP_STEPS // (n_steps + 1))
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def block_clocks(env_or_model, kind: ChainKind, seeds: np.ndarray,
                 starts: np.ndarray, horizon: float, env_seeds=None) -> np.ndarray:
    """S(horizon) - S(0) per walker: the clock increment of its run to the
    internal time ``horizon`` (S(0) is 0 for the continuous kind and the
    step-0 mark for the discrete kind).

    ``seeds`` is a uint64 array of trajectory seeds, ``starts`` a (B, d) int
    array of start sites (a table state is a one-column row) and
    ``env_seeds``, on the lattice, a uint64 environment seed per walker.
    """
    walkers = _Walkers(as_model(env_or_model), ChainKind(kind))
    if walkers.kind is ChainKind.CONTINUOUS_J_VSRW:
        out = np.empty(len(seeds))
        for blk in walkers.continuous_blocks(seeds, starts, env_seeds, horizon=horizon):
            # every stop is at the horizon: the clock after the kept events,
            # then the site they reach held to the horizon
            r = np.flatnonzero(blk.held)
            k = blk.kept[r]
            w = _site_weights(walkers.model, blk.sites[:, r, k].T, walkers.kind,
                              None if env_seeds is None else env_seeds[blk.rows[r]])
            out[blk.rows[r]] = blk.vals[r, k] + (horizon - blk.times[r, k]) * w
        if not np.all(np.isfinite(out)):
            raise ContractViolationError("clock path must be finite and nondecreasing")
        return out
    n_steps = int(math.floor(horizon))
    out = []
    for g in _groups(len(seeds), n_steps):
        env = None if env_seeds is None else env_seeds[g]
        sites = walkers.discrete_sites(seeds[g], starts[g], n_steps, env)
        B, d = sites.shape[0], sites.shape[2]
        w = _site_weights(walkers.model, sites.reshape(-1, d), walkers.kind,
                          None if env is None else np.repeat(env, n_steps + 1))
        marks = -np.log(_stream(hash_rows(seeds[g], DOM_MARK)[:, None],
                                np.arange(n_steps + 1)))
        vals = _clock_values(marks, w.reshape(B, n_steps + 1))
        out.append(vals[:, n_steps] - vals[:, 0])
    return np.concatenate(out)


def sites_at(env_or_model, kind: ChainKind, seeds: np.ndarray,
             starts: np.ndarray, times: np.ndarray, env_seeds=None) -> np.ndarray:
    """(B, len(times), d) sites each walker occupies at the increasing
    internal times ``times`` (right-continuous; the discrete kind reads step
    floor(time)).  Arguments as for ``block_clocks``."""
    walkers = _Walkers(as_model(env_or_model), ChainKind(kind))
    if walkers.kind is ChainKind.CONTINUOUS_J_VSRW:
        out = np.empty((len(seeds), len(times), starts.shape[1]), dtype=np.int64)
        for blk in walkers.continuous_blocks(seeds, starts, env_seeds,
                                             horizon=float(times[-1])):
            # the event of the site held at each time: the events done by
            # then, at most the kept ones; a time past the block of a live
            # walker is read off a later block
            k = np.minimum(np.count_nonzero(blk.times[:, None, 1:] <= times[:, None], axis=2),
                           blk.kept[:, None])
            mine = ((k < blk.holdings.shape[1]) | ~blk.live[:, None]) \
                & (blk.times[:, :1] <= times)
            b, j = np.nonzero(mine)
            out[blk.rows[b], j] = blk.sites[:, b, k[b, j]].T
        return out
    steps = np.floor(times).astype(np.int64)
    n_steps = int(steps[-1])
    return np.concatenate([
        walkers.discrete_sites(seeds[g], starts[g], n_steps,
                               None if env_seeds is None else env_seeds[g])[:, steps]
        for g in _groups(len(seeds), n_steps)])
