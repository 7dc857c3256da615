"""run_discrete, the one-walker lockstep run, against the scalar oracle.

Property test over trajectory seeds (negative and >= 2^63 included, both
taken mod 2^64 as Stream takes them), d in {2, 3}, theta in {0, 0.5},
integer and fractional horizons (0 included), max_events, and the five-state
table chain: sites, holdings, the final holding and the ledger (items in
insertion order, and the running total) must be equal, bit for bit.
"""
from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from discrete_oracle import discrete_oracle  # noqa: E402
from trapclock.chains import (ChainKind, LatticeModel,  # noqa: E402
                              TrajectoryConfig, run_discrete)
from trapclock.env import EnvConfig  # noqa: E402

DISC = ChainKind.DISCRETE_J

SEEDS = st.one_of(st.integers(-2 ** 63, 2 ** 64 + 5),
                  st.sampled_from([0, 1, -1, 2 ** 63, 2 ** 64 - 1]))
HORIZONS = st.one_of(st.just(0), st.integers(0, 60),
                     st.floats(0.0, 60.0, allow_nan=False))
CAPS = st.one_of(st.none(), st.integers(1, 70))


def _assert_same_run(model, seed, start, horizon, max_events):
    led, jumps = run_discrete(model, TrajectoryConfig(seed, DISC, start=start,
                                                      horizon=horizon),
                              max_events=max_events)
    want_led, want = discrete_oracle(model, seed, model.as_site(start),
                                     horizon, max_events)
    assert np.array_equal(jumps.sites, want.sites)
    assert jumps.holdings.tolist() == want.holdings.tolist()
    assert np.array_equal(jumps.times, want.times)
    assert jumps.final_holding == want.final_holding
    assert jumps.final_time == want.final_time
    assert list(led.items()) == list(want_led.items())
    assert led.total == want_led.total


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(seed=SEEDS, d=st.sampled_from([2, 3]), theta=st.sampled_from([0.0, 0.5]),
       env_seed=st.integers(0, 2 ** 64 - 1), shift=st.integers(-3, 3),
       horizon=HORIZONS, max_events=CAPS)
def test_lattice_run_discrete_equals_scalar_oracle(seed, d, theta, env_seed,
                                                   shift, horizon, max_events):
    model = LatticeModel(EnvConfig(d=d, alpha=0.5, theta=theta,
                                   env_seed=env_seed))
    start = (shift,) + (0,) * (d - 1)
    _assert_same_run(model, seed, start, horizon, max_events)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seed=SEEDS, start=st.integers(0, 4), horizon=HORIZONS, max_events=CAPS)
def test_table_run_discrete_equals_scalar_oracle(five_state, seed, start,
                                                 horizon, max_events):
    _assert_same_run(five_state.model, seed, start, horizon, max_events)
