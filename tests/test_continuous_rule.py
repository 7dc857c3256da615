"""run_vsrw's block loop against the event-by-event oracles.

Property tests over trajectory seeds (negative and >= 2^63 included, both
taken mod 2^64 as Stream takes them), d in {2, 3}, start shifts and every
stopping rule alone and combined: a horizon, a clock target, ``max_events``
and the default event cap.  The site-table rule (theta = 0.5 and the
five-state table chain) is held to ``continuous_oracle``, and the theta = 0
rule to ``simple_oracle``.  Sites, times, holdings, the final holding and
time, the truncated flag and the ledger (items in insertion order, and the
running total) must be equal, bit for bit.  Stops that land on the loop's
block boundaries are pinned separately, and the batched views ``sites_at``
and ``block_clocks`` must equal one run_vsrw and build_clock per walker, at
theta = 0 and at theta = 0.5, with the blocks read as they come.
"""
from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from continuous_oracle import continuous_oracle, site_record  # noqa: E402
from simple_oracle import simple_oracle  # noqa: E402
from trapclock import chains  # noqa: E402
from trapclock.chains import (ChainKind, LatticeModel,  # noqa: E402
                              TrajectoryConfig, run_vsrw)
from trapclock.clock import build_clock  # noqa: E402
from trapclock.env import EnvConfig  # noqa: E402
from trapclock.errors import EventCapError  # noqa: E402

CONT = ChainKind.CONTINUOUS_J_VSRW
DEFAULT_CAP = 300
# the blocks of a one-walker run with a horizon or a clock target end at
# events 512, 1,024, 2,048, 4,096, 8,192 and 16,384, then every
# _LOCKSTEP_EVENTS = 8,192 events; those of a run stopped by max_events alone
# end every 8,192 events from the first
BOUNDARIES = (511, 512, 513, 1024, 8191, 8192, 8193)
# with max_events = k and k + 1 alone, these also end capped-only runs inside
# the second whole block (10,000) and one event into the third (16,385)
CAPPED_BOUNDARIES = (9999, 16384)

SEEDS = st.one_of(st.integers(-2 ** 63, 2 ** 64 + 5),
                  st.sampled_from([0, 1, -1, 2 ** 63, 2 ** 64 - 1]))
HORIZONS = st.one_of(st.none(), st.just(0.0), st.floats(0.5, 400.0))
TARGETS = st.one_of(st.none(), st.floats(0.0, 1e5))
CAPS = st.one_of(st.none(), st.integers(1, 500), st.sampled_from(BOUNDARIES))
SIMPLE_HORIZONS = st.one_of(HORIZONS, st.floats(150.0, 700.0))
SIMPLE_CAPS = st.one_of(st.none(), st.integers(1, 3000),
                        st.sampled_from([511, 512, 513, 1023, 1024, 1025, 2048]))


def _assert_same_run(model, seed, start, horizon, clock_target, max_events,
                     default_cap=DEFAULT_CAP):
    tcfg = TrajectoryConfig(seed, CONT, start=start, horizon=horizon)
    cap = default_cap if max_events is None else max_events
    want_led, want = continuous_oracle(model, seed, model.as_site(start),
                                       horizon, clock_target, cap)
    with mock.patch.object(chains, "DEFAULT_MAX_EVENTS", default_cap):
        if max_events is None and want.truncated:
            with pytest.raises(EventCapError):
                run_vsrw(model, tcfg, clock_target=clock_target)
            return
        led, jumps = run_vsrw(model, tcfg, clock_target=clock_target,
                              max_events=max_events)
    _assert_equal(led, jumps, want_led, want)


def _assert_same_simple_run(model, seed, start, horizon, clock_target,
                            max_events):
    tcfg = TrajectoryConfig(seed, CONT, start=start, horizon=horizon)
    want_led, want = simple_oracle(model, seed, model.as_site(start), horizon,
                                   clock_target, max_events)
    led, jumps = run_vsrw(model, tcfg, clock_target=clock_target,
                          max_events=max_events)
    _assert_equal(led, jumps, want_led, want)


def _assert_equal(led, jumps, want_led, want):
    assert np.array_equal(jumps.sites, want.sites)
    assert jumps.times.tolist() == want.times.tolist()
    assert jumps.holdings.tolist() == want.holdings.tolist()
    assert jumps.final_holding == want.final_holding
    assert jumps.final_time == want.final_time
    assert jumps.truncated == want.truncated
    assert list(led.items()) == list(want_led.items())
    assert led.total == want_led.total


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(seed=SEEDS, d=st.sampled_from([2, 3]), theta=st.sampled_from([0.0, 0.5]),
       env_seed=st.integers(0, 2 ** 64 - 1), shift=st.integers(-3, 3),
       horizon=HORIZONS, clock_target=TARGETS, max_events=CAPS)
def test_lattice_walk_equals_event_oracle(seed, d, theta, env_seed, shift,
                                          horizon, clock_target, max_events):
    assume(horizon is not None or clock_target is not None
           or max_events is not None)
    model = LatticeModel(EnvConfig(d=d, alpha=0.5, theta=theta,
                                   env_seed=env_seed))
    start = (shift,) + (0,) * (d - 1)
    check = _assert_same_simple_run if theta == 0.0 else _assert_same_run
    check(model, seed, start, horizon, clock_target, max_events)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seed=SEEDS, start=st.integers(0, 4), horizon=HORIZONS,
       clock_target=TARGETS, max_events=CAPS)
def test_table_walk_equals_event_oracle(five_state, seed, start, horizon,
                                        clock_target, max_events):
    assume(horizon is not None or clock_target is not None
           or max_events is not None)
    _assert_same_run(five_state.model, seed, start, horizon, clock_target,
                     max_events)


@pytest.mark.parametrize("k", BOUNDARIES + CAPPED_BOUNDARIES)
def test_stops_on_block_boundaries_equal_event_oracle(five_state, k):
    # The horizon set to the oracle's time of jump k stops the walk at event
    # k; the clock target set to its clock after jump k - 1 stops it right
    # after jump k; max_events = k and k + 1 alone are capped-only runs.
    # The default cap is raised above every k, so that the horizon stops the
    # run alone.
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.5, env_seed=2900)
    for model, start in ((LatticeModel(cfg), (0, 0)),
                         (five_state.model, 2)):
        for seed in (3, 4):
            _, full = continuous_oracle(model, seed, start, max_events=k + 1)
            weights = np.array([site_record(model, model.as_site(tuple(s.tolist())))[0]
                                for s in full.sites[:-1]])
            clock = np.cumsum(full.holdings * weights)
            for stop in (dict(horizon=float(full.times[k])),
                         dict(clock_target=float(clock[k - 1]), max_events=k + 1),
                         dict(max_events=k), dict(max_events=k + 1)):
                _assert_same_run(model, seed, start, stop.get("horizon"),
                                 stop.get("clock_target"),
                                 stop.get("max_events"), default_cap=2 * k + 2)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(seed=SEEDS, d=st.sampled_from([2, 3]), env_seed=st.integers(0, 2 ** 64 - 1),
       shift=st.integers(-3, 3), horizon=SIMPLE_HORIZONS, clock_target=TARGETS,
       max_events=SIMPLE_CAPS)
def test_simple_walk_equals_event_oracle(seed, d, env_seed, shift, horizon,
                                         clock_target, max_events):
    assume(horizon is not None or clock_target is not None
           or max_events is not None)
    model = LatticeModel(EnvConfig(d=d, alpha=0.5, theta=0.0, env_seed=env_seed))
    start = (0,) * (d - 1) + (shift,)
    _assert_same_simple_run(model, seed, start, horizon, clock_target, max_events)


@pytest.mark.parametrize("k", BOUNDARIES)
def test_simple_stops_on_block_boundaries_equal_event_oracle(k):
    # As for the site tables: the oracle's time of jump k as the horizon,
    # its clock after jump k - 1 as the target, and caps at k and k + 1.
    model = LatticeModel(EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=2900))
    start = (0, 0)
    _, full = simple_oracle(model, 3, start, max_events=k + 1)
    weights = np.array([site_record(model, tuple(s.tolist()))[0]
                        for s in full.sites[:-1]])
    clock = np.cumsum(full.holdings * weights)
    for stop in (dict(horizon=float(full.times[k])),
                 dict(clock_target=float(clock[k - 1])),
                 dict(max_events=k), dict(max_events=k + 1)):
        _assert_same_simple_run(model, 3, start, stop.get("horizon"),
                                stop.get("clock_target"), stop.get("max_events"))


def _site_indices(jumps, times):
    """Index into jumps.sites of the site held at each internal time: a
    site is held from its jump on."""
    return np.searchsorted(jumps.times, times, side="right")


def _one_run_each(cfg, seeds, starts, horizon, env_seeds):
    """(model, jump sequence) of run_vsrw per walker, to the horizon."""
    for b, seed in enumerate(seeds):
        env_seed = cfg.env_seed if env_seeds is None else int(env_seeds[b])
        model = LatticeModel(replace(cfg, env_seed=env_seed))
        tcfg = TrajectoryConfig(seed, CONT, start=tuple(starts[b].tolist()),
                                horizon=horizon)
        yield model, run_vsrw(model, tcfg, want_ledger=False)[1]


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=6), d=st.sampled_from([2, 3]),
       env_seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=6, max_size=6),
       theta=st.sampled_from([0.0, 0.5]),
       annealed=st.booleans(), horizon=st.floats(0.0, 60.0),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=5),
       block=st.sampled_from([1, 5, 64, chains._LOCKSTEP_EVENTS]))
def test_batched_simple_runs_equal_one_run_each(seeds, d, theta, env_seeds,
                                                annealed, horizon, fractions,
                                                block):
    # Walkers from different starts, in one environment or one each, in
    # blocks small enough that they leave the lockstep batch one by one; at
    # theta > 0 walkers of one environment step two at a time, and a walker
    # still running after 16 events goes on alone.
    # The theta = 0.5 walk at alpha = 0.5 jumps far faster than rate 2d (a
    # horizon of 30 takes a median of about 8,000 events), so its horizon
    # is cut by 20 to keep the runs a few hundred events long.
    if theta > 0.0:
        horizon /= 20.0
    cfg = EnvConfig(d=d, alpha=0.5, theta=theta, env_seed=env_seeds[-1])
    seed_arr = np.array([s & chains.MASK64 for s in seeds], dtype=np.uint64)
    starts = np.zeros((len(seeds), d), dtype=np.int64)
    starts[:, 0] = np.arange(len(seeds)) - 2
    env_arr = np.array(env_seeds[:len(seeds)], dtype=np.uint64) if annealed else None
    times = np.array(sorted(f * horizon for f in fractions) + [horizon])
    with mock.patch.multiple(chains, _LOCKSTEP_EVENTS=block, _LOCKSTEP_BLOCK0=16,
                             _TABLE_WALKERS=2):
        clocks = chains.block_clocks(LatticeModel(cfg), CONT, seed_arr, starts,
                                     horizon, env_arr)
        rows = chains.sites_at(LatticeModel(cfg), CONT, seed_arr, starts, times,
                               env_arr)
    runs = _one_run_each(cfg, seeds, starts, horizon, env_arr)
    for (model, jumps), got_clock, got_sites in zip(runs, clocks, rows):
        assert got_clock == build_clock(model, jumps).value_at(horizon)
        assert np.array_equal(got_sites, jumps.sites[_site_indices(jumps, times)])


def test_batched_simple_runs_at_jump_times():
    # Query times and a horizon placed exactly on jump times: a site is held
    # from its jump on, and a jump at the horizon itself is not made.
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=41)
    seeds = [5, 6, 7]
    starts = np.zeros((3, 2), dtype=np.int64)
    seed_arr = np.array(seeds, dtype=np.uint64)
    _, probe = next(_one_run_each(cfg, seeds, starts, 30.0, None))
    horizon = float(probe.times[40])
    times = np.array([0.0, probe.times[3], probe.times[17], horizon])
    clocks = chains.block_clocks(cfg, CONT, seed_arr, starts, horizon)
    rows = chains.sites_at(cfg, CONT, seed_arr, starts, times)
    runs = _one_run_each(cfg, seeds, starts, horizon, None)
    for (model, jumps), got_clock, got_sites in zip(runs, clocks, rows):
        assert got_clock == build_clock(model, jumps).value_at(horizon)
        assert np.array_equal(got_sites, jumps.sites[_site_indices(jumps, times)])
    assert len(next(_one_run_each(cfg, seeds, starts, horizon, None))[1]) == 40
