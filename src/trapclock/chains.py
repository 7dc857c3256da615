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

One block loop, ``_continuous_blocks``, runs every continuous walk: it
steps a batch of walkers in lockstep blocks of bounded size, and three views
read its blocks of events (``_Block``) as they come: ``run_vsrw`` (one
walker, its blocks joined into a jump sequence by ``_one_run``),
``sites_at`` and ``block_clocks`` (every walker of a batch, quenched or
annealed) and the aging windows.  Time and clock are running sums carried
across blocks, as ``build_clock`` sums them, so no view holds more than one
block of a path.  A run stopped by ``max_events`` alone takes whole blocks
from its first event; any other run's blocks grow with the events made so
far, so that an early stop stays cheap.  A block's sites and holdings come
from one of two rules, chosen from the model, and both take the holdings
-log(u) / rate by ``np.log`` over the block:

* ``_SimpleSteps``: the theta = 0 lattice walk is a constant-rate simple
  random walk, so every jump and holding is known up front: an integer walk
  per axis (``_integer_walk``), and the rate 2d.
* ``_TableSteps`` (theta > 0, table chains): each walker's site walk over
  integer ids of its model's site table (``_walk``) is a Python loop, and
  the rate is vsrw(x).

Batched discrete walkers step in lockstep arrays (``_discrete_sites``, each
step the model's ``step``, at theta = 0 all at once by ``_integer_walk``).
``run_discrete`` is a run of one walker: at theta = 0 a lockstep run, else
``_walk`` over the site table, which makes the same jumps as ``step``.
``block_clocks`` and ``sites_at`` run many walkers of one chain at once and
give each walker the floats of its own run.
"""
from __future__ import annotations

import copy
import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .env import EnvConfig, _check_site, tau_array
from .errors import ContractViolationError, EventCapError
from .rng import MASK64, hash_rows, units_from

DOM_DIR = 0xD12EC7
DOM_HOLD = 0x401DD
DOM_MARK = 0x3A2B5

# The event bound of a site-table run (theta > 0 or a table chain) that sets
# no ``max_events``: a run that would need more raises EventCapError instead
# of growing without bound in time and memory (at theta > 0 an edge between
# two deep traps is crossed at a rate (tau(x) tau(y))^theta, so a horizon
# alone bounds nothing).  A discrete run's step count is its horizon, and the
# theta = 0 walk makes Poisson(2d * horizon) jumps, so neither has a default
# cap.
DEFAULT_MAX_EVENTS = 10 ** 6

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


class LocalTimeLedger(dict):
    """Sparse occupation map site -> accumulated local time, with running
    total; a site never held reads 0.0."""

    __slots__ = ("total",)

    def __init__(self, amounts=(), total: float = 0.0):
        super().__init__(amounts)
        self.total = total

    def add(self, site, amount: float):
        self[site] = self.get(site) + amount
        self.total += amount

    def get(self, site, default=0.0) -> float:
        return super().get(site, default)


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

    def build(self, ids, cum, nbr, rate) -> None:
        """Build the sites ``ids``: per site, in the order of ids, its
        cumulative weights, its neighbour ids with the last repeated, and
        its rate."""
        for i, c, nb, r in zip(ids, cum, nbr, rate):
            self.cum[i] = c
            self.nbr[i] = nb
            self.rate[i] = r


@lru_cache(maxsize=None)
def _box(d: int):
    """The box a lattice site table fills around a miss, with its boundary
    layer: offsets flat in row-major order, the flat steps to the 2d
    neighbours (+e_0, -e_0, +e_1, ...), and the inner box as pairs of a flat
    position and a getter of its neighbour row, the last repeated, from a
    list over the box (the row holds the list's own items)."""
    radius = max(1, int((_BOX_SITES ** (1.0 / d) - 1.0) / 2.0))
    axis = np.arange(-radius - 1, radius + 2)
    offsets = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    side = len(axis)
    steps = np.array([s * side ** (d - 1 - a) for a in range(d) for s in (1, -1)])
    inner = [(p, operator.itemgetter(*(p + steps).tolist(), p + steps[-1]))
             for p in np.flatnonzero(np.abs(offsets).max(axis=1) <= radius).tolist()]
    return offsets, steps, inner


def _step_table(d: int) -> np.ndarray:
    steps = np.zeros((2 * d, d), dtype=np.int64)
    for a in range(d):
        steps[2 * a, a] = 1
        steps[2 * a + 1, a] = -1
    return steps


class LatticeModel:
    """Lazy-infinite lattice chain defined by an EnvConfig.

    Its site table fills on demand: a site that is needed but not built has
    every unbuilt site of the box of about _BOX_SITES sites around it built,
    with the depths of the box and its boundary layer from one
    ``tau_array`` call.  ``clock_weights``, ``max_neighbor_tau`` and ``step``
    hash the depths they need (row i in the environment of seed env_seeds[i]
    when given).  ``simple``: the walk is the theta = 0 simple random walk.
    """

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self.d = cfg.d
        self.start_default = cfg.origin
        self.simple = cfg.theta == 0.0
        self.sites = _SiteTable(cfg.d)
        self._ids = {}
        self._steps = _step_table(cfg.d)

    def _fill(self, x) -> None:
        """Build every unbuilt site of the box around the site x: cumulative
        weights by NumPy over the box's ids, neighbour rows by the box's
        getters (holding the table's own id objects), and each rate
        tau(x)^theta * total as a Python float."""
        sites, ids, theta = self.sites, self._ids, self.cfg.theta
        offsets, steps, inner = _box(self.d)
        keys = [tuple(r) for r in (np.asarray(x, dtype=np.int64) + offsets).tolist()]
        new = [k for k in keys if k not in ids]
        if new:
            coords = np.array(new, dtype=np.int64)
            first = sites.add(coords, tau_array(self.cfg, coords))
            ids.update(zip(new, range(first, first + len(new))))
        grid = [ids[k] for k in keys]
        todo = [(p, row) for p, row in inner if sites.cum[grid[p]] is None]
        at = np.array([p for p, _ in todo], dtype=np.int64)
        nbr_tau = sites.column("tau")[np.array(grid)[at[:, None] + steps]]
        cum = np.cumsum(nbr_tau ** theta, axis=1)
        built = [grid[p] for p, _ in todo]
        sites.build(built, map(tuple, cum.tolist()), [row(grid) for _, row in todo],
                    [sites.tau[i] ** theta * c for i, c in zip(built, cum[:, -1].tolist())])

    def _miss(self, x) -> int:
        """Id of the site x, checked before the box around it is built."""
        x = self.as_site(x)
        self._fill(x)
        return self._ids[x]

    def site_id(self, x) -> int:
        """Id of the site x (a tuple of ints), built."""
        i = self._ids.get(x)
        if i is None or self.sites.cum[i] is None:
            i = self._miss(x)
        return i

    def site_keys(self, sites: np.ndarray) -> list:
        """Ledger keys of a (k, d) array of sites: tuples of ints."""
        return [tuple(r) for r in sites.tolist()]

    def tau(self, x) -> float:
        i = self._ids.get(x)
        return self.sites.tau[self._miss(x) if i is None else i]

    def as_site(self, x):
        return _check_site(self.cfg, x)

    def _neighbor_taus(self, sites: np.ndarray, env_seeds=None) -> np.ndarray:
        """(B, 2d) depths of the neighbours of each row of sites, in the
        canonical order +e_0, -e_0, +e_1, ...: one hash pass."""
        width = len(self._steps)
        nbrs = (sites[:, None] + self._steps).reshape(-1, self.d)
        env = None if env_seeds is None else np.repeat(env_seeds, width)
        return tau_array(self.cfg, nbrs, env).reshape(len(sites), width)

    def clock_weights(self, sites: np.ndarray, kind: ChainKind,
                      env_seeds=None) -> np.ndarray:
        """Clock weight per row of sites: tau(x) (continuous) or 1/lambda(x)
        = tau(x)^(1-theta) / sum_y tau(y)^theta (discrete), the sum taken
        in neighbour order."""
        cfg = self.cfg
        taus = tau_array(cfg, sites, env_seeds)
        if kind is ChainKind.CONTINUOUS_J_VSRW:
            return taus
        if self.simple:
            # every tau(y)^0 is 1.0 and tau^1.0 is tau: the same floats
            return taus / (2 * self.d)
        total = np.cumsum(self._neighbor_taus(sites, env_seeds) ** cfg.theta, axis=1)
        return taus ** (1.0 - cfg.theta) / total[:, -1]

    def max_neighbor_tau(self, sites: np.ndarray) -> np.ndarray:
        """The largest neighbour depth per row of sites."""
        return self._neighbor_taus(sites).max(axis=1)

    def step(self, x: np.ndarray, u: np.ndarray, env_seeds=None) -> np.ndarray:
        """The (B, d) sites the walkers at x jump to with the uniforms u: the
        neighbour at the count of cumulative tau^theta weights <= u * total,
        capped at the last."""
        cum = np.cumsum(self._neighbor_taus(x, env_seeds) ** self.cfg.theta, axis=1)
        j = np.count_nonzero(cum <= (u * cum[:, -1])[:, None], axis=1)
        return x + self._steps[np.minimum(j, len(self._steps) - 1)]


class TableModel:
    """Finite reversible chain given by a rate matrix and positive weights tau.

    Detailed balance tau[x] * rates[x, y] == tau[y] * rates[y, x] is checked at
    construction.  The symmetrized (variable-speed) rates are
    tau[x] * rates[x, y]; continuous clock weights are tau[x] and discrete
    weights 1 / sum_y rates[x, y], exactly as on the lattice.  State x is
    site id x of the site table, which is built whole here, as are the
    inf-padded arrays ``step`` reads.  Its neighbours are the states its rate
    row reaches.
    """

    def __init__(self, rates, tau):
        rates = np.asarray(rates, dtype=np.float64)
        tau = np.asarray(tau, dtype=np.float64)
        m = rates.shape[0]
        if rates.shape != (m, m) or tau.shape != (m,):
            raise ContractViolationError("rates must be (m, m) and tau (m,)")
        if not (np.all(np.isfinite(rates)) and np.all(np.isfinite(tau))):
            raise ContractViolationError("rates and tau must be finite")
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
        self.simple = False
        self.sites = _SiteTable(1)
        self.sites.add(np.arange(m)[:, None], tau)
        nbrs = [np.nonzero(row)[0].tolist() for row in rates]
        cum = [tuple(np.cumsum(row[n]).tolist()) for row, n in zip(rates, nbrs)]
        nbr = [tuple(n + n[-1:]) for n in nbrs]
        self.sites.build(range(m), cum, nbr, [t * c[-1] for t, c in zip(tau.tolist(), cum)])
        width = max(map(len, cum))
        self._cum = np.array([c + (np.inf,) * (width - len(c)) for c in cum])
        self._nbr = np.array([n + n[-1:] * (width + 1 - len(n)) for n in nbr])
        self._total = np.array([c[-1] for c in cum])

    def site_id(self, x) -> int:
        return x

    def site_keys(self, sites: np.ndarray) -> list:
        """Ledger keys of a (k, 1) array of states: ints."""
        return sites[:, 0].tolist()

    def tau(self, x) -> float:
        return float(self.weights[x])

    def as_site(self, x):
        """State x: an integer, or a one-element tuple holding one."""
        try:
            x = operator.index(x[0] if isinstance(x, tuple) and len(x) == 1 else x)
        except TypeError:
            raise ContractViolationError(f"state {x!r} is not an integer") from None
        if not 0 <= x < self.n_states:
            raise ContractViolationError(f"state {x} out of range")
        return x

    def clock_weights(self, sites: np.ndarray, kind: ChainKind,
                      env_seeds=None) -> np.ndarray:
        if kind is ChainKind.CONTINUOUS_J_VSRW:
            return self.weights[sites[:, 0]]
        return 1.0 / self.rates.sum(axis=1)[sites[:, 0]]

    def max_neighbor_tau(self, sites: np.ndarray) -> np.ndarray:
        return np.where(self.rates > 0, self.weights, 0.0).max(axis=1)[sites[:, 0]]

    def step(self, x: np.ndarray, u: np.ndarray, env_seeds=None) -> np.ndarray:
        """The (B, 1) states the walkers at x jump to, as on the lattice."""
        s = x[:, 0]
        j = np.count_nonzero(self._cum[s] <= (u * self._total[s])[:, None], axis=1)
        return self._nbr[s, j][:, None]


def as_model(obj):
    """Coerce an EnvConfig (to a fresh LatticeModel, whose site table lives
    as long as the caller keeps it) or an existing model to a chain model."""
    if isinstance(obj, EnvConfig):
        return LatticeModel(obj)
    if isinstance(obj, (LatticeModel, TableModel)):
        return obj
    raise ContractViolationError(f"not an environment or chain model: {obj!r}")


# ---------------------------------------------------------------------------
# engines


def _ledger(model, jumps: JumpSequence, ids=None) -> LocalTimeLedger:
    """The local-time ledger of a run: each site's holdings summed in event
    order (bincount sums a bin in index order), the sites in first-visit
    order, and the running sum of the holdings as the total.  ``ids`` are
    the site-table ids of ``jumps.sites`` when the run has them.  The last
    site is held for ``final_holding`` always in a discrete run, and in a
    continuous run iff its time ran on past its last jump (a horizon stop):
    a run that stopped on a clock target or on max_events ends with a jump,
    and the site it lands on is not held."""
    amounts = jumps.holdings
    if (jumps.kind is ChainKind.DISCRETE_J or len(jumps) == 0
            or jumps.final_time > jumps.times[-1]):
        amounts = np.append(amounts, jumps.final_holding)
    if ids is None:
        coords, ids = _run_labels(jumps.sites)
    else:
        coords = model.sites.column("coords")
    held = ids[:len(amounts)]
    first = np.full(len(coords), len(held), dtype=np.int64)
    np.minimum.at(first, held, np.arange(len(held)))
    visited = np.flatnonzero(first < len(held))
    order = visited[np.argsort(first[visited])]
    slot = np.empty(len(coords), dtype=np.int64)
    slot[order] = np.arange(len(order))
    sums = np.bincount(slot[held], weights=amounts, minlength=len(order))
    return LocalTimeLedger(zip(model.site_keys(coords[order]), sums.tolist()),
                           float(np.cumsum(amounts)[-1]))


def _run_labels(sites: np.ndarray):
    """(coords, ids): the distinct rows of the (n, d) ``sites`` in
    lexicographic order, and each row's index among them."""
    perm = np.lexsort(sites.T[::-1])
    ranked = sites[perm]
    new = np.ones(len(ranked), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(len(ranked), dtype=np.int64)
    ids[perm] = np.cumsum(new) - 1
    return ranked[new], ids


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


def _one_run(blocks, horizon):
    """The jump sequence of one walker's blocks (row 0 of each) and the
    site-table ids of its sites (None when the blocks carry none): the kept
    sites and holdings in order, the times one running sum of the holdings,
    and the final holding and truncation set by the last block's stop."""
    sites, holdings, ids = [], [], []
    for blk in blocks:
        k = int(blk.kept[0])
        sites.append(blk.sites[:, 0, :k])
        holdings.append(blk.holdings[0, :k])
        if blk.ids is not None:
            ids.append(blk.ids[0, :k])
    sites.append(blk.sites[:, 0, k:k + 1])
    if blk.ids is not None:
        ids.append(blk.ids[0, k:k + 1])
    h = np.concatenate(holdings)
    times = np.cumsum(h)
    t = float(times[-1]) if len(times) else 0.0
    held = bool(blk.held[0])
    return (np.concatenate(ids) if ids else None), JumpSequence(
        ChainKind.CONTINUOUS_J_VSRW, times, h, np.concatenate(sites, axis=1).T,
        horizon - t if held else 0.0, horizon if held else t, bool(blk.live[0]))


def run_vsrw(env_or_model, tcfg: TrajectoryConfig, *, clock_target=None,
             max_events=None, want_ledger=True):
    """Simulate the variable-speed walk; returns (LocalTimeLedger, JumpSequence).

    Stops at the internal-time horizon (final partial holding credited to the
    ledger so ledger.total == horizon), or — if ``clock_target`` is given —
    right after the jump whose completed holding pushed the accumulated clock
    sum(holding * tau) above the target.  ``max_events`` caps the number of
    jumps; hitting it marks the sequence truncated.  Without ``max_events``
    a theta > 0 or table-chain run is capped at ``DEFAULT_MAX_EVENTS`` and
    raises EventCapError on reaching it.  A NaN ``clock_target`` is refused.
    """
    model, start = _prepare(env_or_model, tcfg, ChainKind.CONTINUOUS_J_VSRW)
    if clock_target is not None and math.isnan(clock_target):
        raise ContractViolationError("clock_target must not be NaN")
    if tcfg.horizon is None and clock_target is None and max_events is None:
        raise ContractViolationError("need a horizon, clock_target, or max_events")
    _check_cap(max_events)
    blocks = _continuous_blocks(model, np.array([tcfg.traj_seed & MASK64], dtype=np.uint64),
                                np.atleast_1d(start)[None, :], horizon=tcfg.horizon,
                                clock_target=clock_target, max_events=max_events)
    ids, jumps = _one_run(blocks, tcfg.horizon)
    return (_ledger(model, jumps, ids) if want_ledger else None), jumps


def run_discrete(env_or_model, tcfg: TrajectoryConfig, *, max_events=None,
                 want_ledger=True):
    """Simulate the discrete chain for floor(horizon) steps, or for
    ``max_events`` steps and marked truncated if that is fewer: at theta = 0
    a one-walker run of the batched lockstep walkers, else ``_walk`` over the
    model's site table (the same jumps as the lockstep ``step``).

    The ledger receives floor(horizon) + 1 exponential marks (one per step
    index 0..floor(horizon), matching the discrete local time at the horizon);
    the jump sequence records floor(horizon) jumps at integer epochs.
    """
    model, start = _prepare(env_or_model, tcfg, ChainKind.DISCRETE_J)
    if tcfg.horizon is None:
        raise ContractViolationError("discrete runs need a horizon (step count)")
    _check_cap(max_events)
    steps = int(math.floor(tcfg.horizon))
    truncated = max_events is not None and max_events < steps
    if truncated:
        steps = max_events
    seeds = np.array([tcfg.traj_seed & MASK64], dtype=np.uint64)
    ids = None
    if model.simple:
        sites = _discrete_sites(model, seeds, np.atleast_1d(start)[None, :], steps, None)[0]
    else:
        x = model.site_id(start)
        u = _stream(hash_rows(seeds, DOM_DIR)[:, None], np.arange(steps))[0]
        ids = np.array([x] + _walk(model, x, u.tolist()), dtype=np.int64)
        sites = model.sites.column("coords")[ids]
    marks = -np.log(_stream(hash_rows(seeds, DOM_MARK)[:, None], np.arange(steps + 1))[0])
    jumps = JumpSequence(ChainKind.DISCRETE_J,
                         np.arange(1, steps + 1, dtype=np.float64),
                         marks[:steps], sites, marks[steps], steps, truncated)
    return (_ledger(model, jumps, ids) if want_ledger else None), jumps


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


def _integer_walk(sites: np.ndarray, u: np.ndarray, moves: np.ndarray) -> None:
    """The theta = 0 walk in place: sites[a, b, k + 1] becomes axis a of
    walker b's site after jump k, from its start sites[a, b, 0] and the step
    moves[:, floor(u[b, k] * 2d)] (with unit weights, the count of the
    cumulative weights at most u * 2d).  Integer sums: exact in any layout."""
    dirs = (u * moves.shape[1]).astype(np.int64)
    for a in range(len(moves)):
        sites[a, :, 1:] = moves[a][dirs]
    np.cumsum(sites, axis=2, out=sites)


def _discrete_sites(model, seeds, starts, n_steps: int, env_seeds) -> np.ndarray:
    """(B, n_steps + 1, d) sites of discrete walkers at steps 0..n_steps."""
    u = _stream(hash_rows(seeds, DOM_DIR)[:, None], np.arange(n_steps))
    sites = np.empty((len(seeds), n_steps + 1, starts.shape[1]), dtype=np.int64)
    sites[:, 0] = starts
    if model.simple:
        _integer_walk(sites.transpose(2, 0, 1), u, model._steps.T)
        return sites
    for i in range(n_steps):
        sites[:, i + 1] = model.step(sites[:, i], u[:, i], env_seeds)
    return sites


# walker-events of one lockstep block of a continuous walk, so that a batch
# of long runs holds a bounded amount of path at a time; unless the event cap
# alone stops the run, a block also makes no more events than the walk has
# made so far, or _LOCKSTEP_BLOCK0, so that a short run of a few walkers
# stays cheap (a batch of 16 walkers or more is not affected)
_LOCKSTEP_EVENTS = 1 << 13
_LOCKSTEP_BLOCK0 = _LOCKSTEP_EVENTS // 16
# a site-table batch steps the walkers of one environment at a time, so
# that it holds one site table, and at most _TABLE_WALKERS of them, so that
# a block gives each at least _LOCKSTEP_EVENTS // _TABLE_WALKERS = 32 events
# and the Python cost per walker and block stays small against its events;
# a walker still running after _LOCKSTEP_BLOCK0 events goes on alone, so
# that one stuck in a trap raises EventCapError after its own events, not
# after those of every walker stuck with it
_TABLE_WALKERS = 1 << 8


class _Block(NamedTuple):
    """Events n..n+m-1 of the B walkers of a lockstep block still running."""

    rows: np.ndarray      # (B,) walker ids
    sites: np.ndarray     # (d, B, m + 1) the site held over each event, then the next
    holdings: np.ndarray  # (B, m)
    weights: np.ndarray   # (B, m) the clock weight of the site held over each event
    vals: np.ndarray      # (B, m + 1) the clock before and after each event
    times: Optional[np.ndarray]  # (B, m + 1) the same for time, given a horizon
    kept: np.ndarray      # (B,) the events a walker keeps: m unless it stops here
    held: np.ndarray      # (B,) it stopped at the horizon, site ``kept`` held to it
    live: np.ndarray      # (B,) it runs on into the next block
    ids: Optional[np.ndarray]  # (B, m + 1) site-table ids of ``sites``, or None


class _SimpleSteps:
    """The block rule of the theta = 0 lattice walk: one integer walk per
    axis from the walkers' sites (``pos``, (d, B)), depths by ``tau_array``
    in the environment of seed env_seeds[b] (of the model's when None), and
    holdings -log(u) / 2d by ``np.log``."""

    def __init__(self, model, starts: np.ndarray, env_seeds):
        self.cfg = model.cfg
        self.rate = float(2 * model.d)
        self.moves = model._steps.T.copy()  # moves[a, j]: axis a of step j
        self.pos = starts.T.astype(np.int64)
        self.env_seeds = env_seeds

    def block(self, u_dir: np.ndarray, u_hold: np.ndarray):
        """(sites, holdings, clock weights, ids) of the (B, m) events drawn
        with the uniforms u_dir and u_hold."""
        (d, B), m = self.pos.shape, u_dir.shape[1]
        sites = np.empty((d, B, m + 1), dtype=np.int64)
        sites[:, :, 0] = self.pos
        _integer_walk(sites, u_dir, self.moves)
        taus = tau_array(self.cfg, sites[:, :, :m].reshape(d, -1).T,
                         None if self.env_seeds is None else np.repeat(self.env_seeds, m))
        self.pos = sites[:, :, m]
        return sites, -np.log(u_hold) / self.rate, taus.reshape(B, m), None

    def keep(self, live: np.ndarray) -> None:
        self.pos = self.pos[:, live]
        if self.env_seeds is not None:
            self.env_seeds = self.env_seeds[live]


class _TableSteps:
    """The block rule of a walk over one model's site table (theta > 0
    lattice, or a table chain): walker b runs ``_walk`` from its site id
    x[b], and its holdings are -log(u) / vsrw(x) by ``np.log``."""

    def __init__(self, model, starts: np.ndarray):
        self.model = model
        self.x = np.array([model.site_id(model.as_site(tuple(s))) for s in starts.tolist()],
                          dtype=np.int64)

    def block(self, u_dir: np.ndarray, u_hold: np.ndarray):
        """As ``_SimpleSteps.block``, with the site-table ids of the sites."""
        (B, m), model = u_dir.shape, self.model
        ids = np.empty((B, m + 1), dtype=np.int64)
        ids[:, 0] = self.x
        for b, (x, u) in enumerate(zip(self.x.tolist(), u_dir.tolist())):
            ids[b, 1:] = _walk(model, x, u)
        table = model.sites
        self.x = ids[:, m]
        with np.errstate(over="ignore"):  # past the float range: held for ever
            h = -np.log(u_hold) / table.column("rate")[ids[:, :-1]]
        return (table.column("coords")[ids].transpose(2, 0, 1), h,
                table.column("tau")[ids[:, :-1]], ids)

    def keep(self, live: np.ndarray) -> None:
        self.x = self.x[live]


def _table_groups(count: int, env_seeds) -> list:
    """Slices of consecutive site-table walkers 0..count-1 of one
    environment each, and at most _TABLE_WALKERS walkers each."""
    bounds = [0, count]
    if env_seeds is not None:
        bounds = np.flatnonzero(np.r_[True, env_seeds[1:] != env_seeds[:-1]]).tolist() + [count]
    return [slice(a, min(a + _TABLE_WALKERS, hi))
            for lo, hi in zip(bounds, bounds[1:]) for a in range(lo, hi, _TABLE_WALKERS)]


def _continuous_blocks(model, seeds: np.ndarray, starts: np.ndarray,
                       env_seeds: Optional[np.ndarray] = None, *, horizon=None,
                       clock_target=None, max_events: Optional[int] = None):
    """Lockstep blocks (``_Block``) of continuous walks, walker b with
    trajectory seed seeds[b] from the site starts[b] (a (B, d) array; on the
    lattice in the environment of seed env_seeds[b] when given), each run as
    run_vsrw runs it, by the model's block rule: ``_SimpleSteps`` for the
    theta = 0 lattice walk, else ``_TableSteps``.

    The stop rules are those of run_vsrw: a horizon keeps the events that end
    before it, a clock target keeps the events up to and including the one
    whose clock passes it (on the same event the horizon wins), and the
    loop ends after ``max_events`` events with the walkers still live; a
    site-table run with no ``max_events`` raises EventCapError at
    DEFAULT_MAX_EVENTS.  Time and clock are build_clock's sums: the row's
    carry prepended to one sequential cumsum per block.  Times are summed
    only when a horizon is set.  A walker leaves after the block in which it
    stops; its events after the stop stay in the block.  A clock that is not
    finite up to a walker's stop is refused.

    A run with neither a horizon nor a clock target makes exactly ``cap``
    events, so its blocks take _LOCKSTEP_EVENTS // B events from the first
    on; any other run's blocks grow from _LOCKSTEP_BLOCK0 events with the
    events made so far.  Site-table walkers step in the groups of
    ``_table_groups``, one group after another, and each walker still
    running after _LOCKSTEP_BLOCK0 events goes on alone.  Every walker's
    floats are those of its own run, whatever walkers it steps with.
    """
    table = not model.simple
    cap = DEFAULT_MAX_EVENTS if max_events is None and table else max_events
    alone = _LOCKSTEP_BLOCK0 if table else math.inf
    capped = horizon is None and clock_target is None

    def steps(rule, bases, rows, clock, t, n):
        while len(rows) and (cap is None or n < cap):
            B = len(rows)
            if B > 1 and n >= alone:
                for one in (rows == r for r in rows.tolist()):
                    part = copy.copy(rule)
                    part.keep(one)
                    yield from steps(part, bases[:, one], rows[one], clock[one], t[one], n)
                return
            m = max(1, _LOCKSTEP_EVENTS // B)
            if not capped:
                m = min(max(_LOCKSTEP_BLOCK0, n), m)
            if cap is not None:
                m = min(m, cap - n)
            u_dir, u_hold = _stream(bases[:, :, None], np.arange(n, n + m, dtype=np.uint64))
            sites, h, w, ids = rule.block(u_dir, u_hold)
            with np.errstate(over="ignore"):  # refused below if before the stop
                vals = _running(clock, h * w)
            times = None if horizon is None else _running(t, h)
            kept, held, live = _cuts(times, vals, horizon, clock_target)
            if not np.all(np.isfinite(vals[np.arange(B), kept])):
                raise ContractViolationError("clock path must be finite")
            yield _Block(rows, sites, h, w, vals, times, kept, held, live, ids)
            rule.keep(live)
            rows, bases, clock = rows[live], bases[:, live], vals[live, m]
            t = t[live] if times is None else times[live, m]
            n += m
        if max_events is None and len(rows):
            raise EventCapError(f"run stopped by the default cap of {cap} events")

    groups = _table_groups(len(seeds), env_seeds) if table else [slice(0, len(seeds))]
    env = None
    for g in groups:
        if not table:
            rule = _SimpleSteps(model, starts, env_seeds)
        else:
            if env_seeds is not None and env_seeds[g.start] != env:
                env = env_seeds[g.start]
                model = LatticeModel(replace(model.cfg, env_seed=int(env)))
            rule = _TableSteps(model, starts[g])
        bases = hash_rows(seeds[g], np.array([[DOM_DIR], [DOM_HOLD]], dtype=np.uint64))
        rows = np.arange(g.start, g.stop)
        yield from steps(rule, bases, rows, np.zeros(len(rows)), np.zeros(len(rows)), 0)


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
    if not 0 <= horizon < math.inf:
        raise ContractViolationError(f"need a finite horizon >= 0, got {horizon}")
    model, kind = as_model(env_or_model), ChainKind(kind)
    if kind is ChainKind.CONTINUOUS_J_VSRW:
        out = np.empty(len(seeds))
        for blk in _continuous_blocks(model, seeds, starts, env_seeds, horizon=horizon):
            # every stop is at the horizon: the clock after the kept events,
            # then the site they reach held to the horizon
            r = np.flatnonzero(blk.held)
            k = blk.kept[r]
            with np.errstate(over="ignore"):
                out[blk.rows[r]] = (blk.vals[r, k]
                                    + (horizon - blk.times[r, k]) * blk.weights[r, k])
        if not np.all(np.isfinite(out)):
            raise ContractViolationError("clock path must be finite and nondecreasing")
        return out
    n_steps = int(math.floor(horizon))
    out = []
    for g in _groups(len(seeds), n_steps):
        env = None if env_seeds is None else env_seeds[g]
        sites = _discrete_sites(model, seeds[g], starts[g], n_steps, env)
        B, d = sites.shape[0], sites.shape[2]
        marks = -np.log(_stream(hash_rows(seeds[g], DOM_MARK)[:, None],
                                np.arange(n_steps + 1)))
        # the clock from 0 as build_clock sums it: column k + 1 is its value
        # after step k's mark; one that overflows is refused below
        with np.errstate(over="ignore"):
            w = model.clock_weights(sites.reshape(-1, d), kind,
                                    None if env is None else np.repeat(env, n_steps + 1))
            vals = _running(0.0, marks * w.reshape(B, n_steps + 1))
        if not (np.all(np.isfinite(vals)) and np.all(np.diff(vals, axis=1) >= 0)):
            raise ContractViolationError("clock path must be finite and nondecreasing")
        out.append(vals[:, -1] - vals[:, 1])
    return np.concatenate(out)


def sites_at(env_or_model, kind: ChainKind, seeds: np.ndarray,
             starts: np.ndarray, times: np.ndarray, env_seeds=None) -> np.ndarray:
    """(B, len(times), d) sites each walker occupies at the increasing
    internal times ``times`` (right-continuous; the discrete kind reads step
    floor(time)).  Arguments as for ``block_clocks``."""
    if not (np.all((times >= 0) & (times < math.inf)) and np.all(np.diff(times) >= 0)):
        raise ContractViolationError("times must be finite, >= 0 and nondecreasing")
    model = as_model(env_or_model)
    if ChainKind(kind) is ChainKind.CONTINUOUS_J_VSRW:
        out = np.empty((len(seeds), len(times), starts.shape[1]), dtype=np.int64)
        for blk in _continuous_blocks(model, seeds, starts, env_seeds,
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
        _discrete_sites(model, seeds[g], starts[g], n_steps,
                        None if env_seeds is None else env_seeds[g])[:, steps]
        for g in _groups(len(seeds), n_steps)])
