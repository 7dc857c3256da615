"""run_vsrw's general engine against the event-by-event oracle.

Property test over trajectory seeds (negative and >= 2^63 included, both
taken mod 2^64 as Stream takes them), d in {2, 3}, theta = 0.5 and theta = 0
with ``force_general``, the five-state table chain, and every stopping rule
alone and combined: a horizon, a clock target, ``max_events`` and the default
event cap.  Sites, times, holdings, the final holding and time, the truncated
flag and the ledger (items in insertion order, and the running total) must be
equal, bit for bit.  Stops that land on the engine's block boundaries are
pinned separately.
"""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from continuous_oracle import continuous_oracle, site_record  # noqa: E402
from trapclock import chains  # noqa: E402
from trapclock.chains import (ChainKind, LatticeModel,  # noqa: E402
                              TrajectoryConfig, run_vsrw)
from trapclock.env import EnvConfig  # noqa: E402
from trapclock.errors import EventCapError  # noqa: E402

CONT = ChainKind.CONTINUOUS_J_VSRW
DEFAULT_CAP = 300
# event counts at the ends of the engine's first three blocks, and one past
BOUNDARIES = (63, 64, 65, 191, 192, 193, 448)

SEEDS = st.one_of(st.integers(-2 ** 63, 2 ** 64 + 5),
                  st.sampled_from([0, 1, -1, 2 ** 63, 2 ** 64 - 1]))
HORIZONS = st.one_of(st.none(), st.just(0.0), st.floats(0.5, 400.0))
TARGETS = st.one_of(st.none(), st.floats(0.0, 1e5))
CAPS = st.one_of(st.none(), st.integers(1, 500), st.sampled_from(BOUNDARIES))


def _assert_same_run(model, seed, start, horizon, clock_target, max_events,
                     force_general=False):
    tcfg = TrajectoryConfig(seed, CONT, start=start, horizon=horizon)
    cap = DEFAULT_CAP if max_events is None else max_events
    want_led, want = continuous_oracle(model, seed, model.as_site(start),
                                       horizon, clock_target, cap)
    with mock.patch.object(chains, "DEFAULT_MAX_EVENTS", DEFAULT_CAP):
        if max_events is None and want.truncated:
            with pytest.raises(EventCapError):
                run_vsrw(model, tcfg, clock_target=clock_target,
                         force_general=force_general)
            return
        led, jumps = run_vsrw(model, tcfg, clock_target=clock_target,
                              max_events=max_events,
                              force_general=force_general)
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
    _assert_same_run(model, seed, start, horizon, clock_target, max_events,
                     force_general=theta == 0.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seed=SEEDS, start=st.integers(0, 4), horizon=HORIZONS,
       clock_target=TARGETS, max_events=CAPS)
def test_table_walk_equals_event_oracle(five_state, seed, start, horizon,
                                        clock_target, max_events):
    assume(horizon is not None or clock_target is not None
           or max_events is not None)
    _assert_same_run(five_state.model, seed, start, horizon, clock_target,
                     max_events)


@pytest.mark.parametrize("k", BOUNDARIES)
def test_stops_on_block_boundaries_equal_event_oracle(five_state, k):
    # The horizon set to the oracle's time of jump k stops the walk at event
    # k; the clock target set to its clock after jump k - 1 stops it right
    # after jump k.
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
                                 stop.get("max_events"))
