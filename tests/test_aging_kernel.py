"""The lockstep aging kernel against one run_vsrw and build_clock per window.

Property test over trajectory seeds (negative and >= 2^63 included, both
taken mod 2^64 as Stream takes them), d in {2, 3}, windows that share an age
s and windows that do not (an s below the first clock value included), event
caps that cut rows inside a block and on a block's end, and the block bound
patched down to a few walker-events so that rows run through many blocks and
leave the lockstep batch one by one.  Every window result must equal the
reference bit for bit, and ``aging_grid`` must reduce those results exactly
as a trajectory-by-trajectory loop does, at any worker count.
"""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_aging import _window_reference  # noqa: E402
from trapclock import aging, chains  # noqa: E402
from trapclock.aging import AgingKind, aging_grid, window_stats  # noqa: E402
from trapclock.chains import (ChainKind, LatticeModel,  # noqa: E402
                              TrajectoryConfig, run_vsrw)
from trapclock.clock import ScaleSet, build_clock  # noqa: E402
from trapclock.env import EnvConfig  # noqa: E402
from trapclock.errors import ContractViolationError  # noqa: E402
from trapclock.rng import ENV_FANOUT, MASK64, TRAJ_FANOUT, hash_words  # noqa: E402

SEEDS = st.one_of(st.integers(-2 ** 63, 2 ** 64 + 5),
                  st.sampled_from([0, 1, -1, 2 ** 63, 2 ** 64 - 1]))
# ages on either side of the first clock value, and ages windows share
AGES = st.one_of(st.sampled_from([1e-9, 0.5, 20.0]), st.floats(1e-3, 300.0))
WINDOWS = st.lists(st.tuples(AGES, st.floats(0.01, 3.0)), min_size=1,
                   max_size=4).map(lambda cells: [(s, s * (1.0 + r)) for s, r in cells])
CAPS = st.one_of(st.none(), st.integers(1, 400), st.sampled_from([4, 8, 12, 64]))
BLOCKS = st.sampled_from([1, 3, 8, 64, chains._LOCKSTEP_EVENTS])


def _rows(model, seeds, windows, max_events, env_seeds=None):
    """The kernel's results as window_stats gives them, one list per row."""
    done, same, disp2 = aging._window_rows(
        model, np.array([s & MASK64 for s in seeds], dtype=np.uint64), windows,
        max_events, env_seeds)
    return [[(bool(sm), float(np.sqrt(float(d2)))) if ok else None
             for ok, sm, d2 in zip(*row)] for row in zip(done, same, disp2)]


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=4), d=st.sampled_from([2, 3]),
       env_seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=4, max_size=4),
       per_row_env=st.booleans(), windows=WINDOWS, max_events=CAPS, block=BLOCKS)
def test_kernel_equals_one_run_per_window(seeds, d, env_seeds, per_row_env,
                                          windows, max_events, block):
    cfg = EnvConfig(d=d, alpha=0.5, theta=0.0, env_seed=env_seeds[0])
    envs = env_seeds[:len(seeds)] if per_row_env else [cfg.env_seed] * len(seeds)
    with mock.patch.object(chains, "_LOCKSTEP_EVENTS", block):
        got = _rows(LatticeModel(cfg), seeds, windows, max_events,
                    np.array(envs, dtype=np.uint64) if per_row_env else None)
    for seed, env_seed, row in zip(seeds, envs, got):
        model = LatticeModel(replace(cfg, env_seed=env_seed))
        assert row == [_window_reference(model, seed, s, e, max_events)
                       for s, e in windows]


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_cuts_inside_and_on_block_ends(theta):
    # Two rows in blocks of 4 events each: caps at 4k end a block and caps
    # at 4k + 1 and 4k + 3 cut one; with ages below the first clock value
    # (X(s) is the start) and after it, some windows close and some are cut.
    model = LatticeModel(EnvConfig(d=2, alpha=0.5, theta=theta, env_seed=31))
    seeds = [7, -3]
    first = [_window_reference(model, seed, 1e-12, 1e-12 * 2, 1)
             for seed in seeds]
    assert all(res == (True, 0.0) for res in first)
    windows = [(1e-12, 5.0), (1e-12, 40.0), (3.0, 6.0), (3.0, 90.0)]
    outcomes = set()
    with mock.patch.object(chains, "_LOCKSTEP_EVENTS", 8):
        for cap in (4, 5, 7, 8, 12, 13, 16, 40, 41, None):
            got = _rows(model, seeds, windows, cap)
            for seed, row in zip(seeds, got):
                want = [_window_reference(model, seed, s, e, cap) for s, e in windows]
                assert row == want
                outcomes.update(res is None for res in row)
    assert outcomes == {True, False}


def _clock_values(model, seed, n):
    """The first n + 1 clock values of a trajectory, as build_clock sums them."""
    tcfg = TrajectoryConfig(seed, ChainKind.CONTINUOUS_J_VSRW)
    _, jumps = run_vsrw(model, tcfg, max_events=n, want_ledger=False)
    return build_clock(model, jumps).values


@pytest.mark.parametrize("block", [2, 8, chains._LOCKSTEP_EVENTS])
def test_window_ends_on_clock_values(block):
    # Ages, window ends and the largest end placed exactly on clock values:
    # a site whose clock interval starts at e is outside the window (s, e]
    # read right-continuously, one whose interval ends at s is outside too,
    # and a run stops only past a value above its target.
    model = LatticeModel(EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=23))
    for seed in (4, 2 ** 64 - 9):
        vals = _clock_values(model, seed, 300)
        for k, j in ((1, 2), (3, 40), (17, 18), (40, 300)):
            windows = [(vals[k], vals[j]), (vals[k], vals[j - 1] + 1e-9),
                       (vals[k] * (1 - 1e-15), vals[j])]
            for cap in (j - 1, j, j + 1, None):
                with mock.patch.object(chains, "_LOCKSTEP_EVENTS", block):
                    got = _rows(model, [seed], windows, cap)[0]
                assert got == [_window_reference(model, seed, s, e, cap)
                               for s, e in windows]


def test_blocks_carry_the_build_clock_path():
    # Past the first few thousand events the clock keeps summing from its
    # carry, as build_clock sums the whole path, bit for bit.
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=8)
    model = LatticeModel(cfg)
    seeds = [11, 12, 13]
    n = 5000
    paths = {r: ([], []) for r in range(len(seeds))}
    with mock.patch.object(chains, "_LOCKSTEP_EVENTS", 3000):
        for blk in chains._simple_clock_blocks(
                cfg, np.array(seeds, dtype=np.uint64),
                np.zeros((len(seeds), 2), dtype=np.int64),
                np.full(len(seeds), cfg.env_seed, dtype=np.uint64),
                clock_target=np.inf, max_events=n):
            for b, r in enumerate(blk.rows.tolist()):
                paths[r][0].append(blk.sites[:, b, :-1].T)
                paths[r][1].append(blk.vals[b, 1:])
    for r, seed in enumerate(seeds):
        tcfg = TrajectoryConfig(seed, ChainKind.CONTINUOUS_J_VSRW)
        _, jumps = run_vsrw(model, tcfg, max_events=n, want_ledger=False)
        want = build_clock(model, jumps).values
        assert np.array_equal(np.concatenate(paths[r][0]), jumps.sites[:-1])
        assert np.concatenate(paths[r][1]).tolist() == want[1:].tolist()


def test_window_stats_is_one_row_of_the_kernel():
    model = LatticeModel(EnvConfig(d=3, alpha=0.7, theta=0.0, env_seed=2))
    windows = [(0.7, 1.5), (0.7, 30.0), (10.0, 12.0)]
    seeds = [0, 2 ** 63 + 11, -8, 5]
    rows = _rows(model, seeds, windows, 90)
    assert rows == [window_stats(model, seed, windows, 90) for seed in seeds]
    assert rows == [window_stats(model, seed & MASK64, windows, 90) for seed in seeds]


def test_nonfinite_clock_is_refused():
    model = LatticeModel(EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=3))
    with mock.patch.object(chains, "tau_array",
                           lambda cfg, coords, env_seeds=None: np.full(len(coords), np.inf)):
        with pytest.raises(ContractViolationError):
            window_stats(model, 1, [(1.0, 2.0)], 50)


def _reference_grid(env, cells, eps, n_env, n_traj, max_events):
    """aging_grid by one reference run per trajectory and window, reduced
    trajectory by trajectory as a loop would."""
    out = {}
    for s, rho, scales in cells:
        radius = scales.window_radius()
        eps_radius = math.inf if eps is None else eps * math.sqrt(scales.a_n)
        seeds, means, excluded = [], [], 0
        for i in range(n_env):
            env_seed = hash_words(env.env_seed, ENV_FANOUT, i)
            model = LatticeModel(replace(env, env_seed=env_seed))
            sums, kept = np.zeros(4), 0
            for j in range(n_traj):
                res = _window_reference(model, hash_words(env_seed, TRAJ_FANOUT, j),
                                        s, s * (1.0 + rho), max_events)
                if res is None:
                    excluded += 1
                    continue
                same, m = res
                sums += (same, m <= radius, same and m <= radius, m <= eps_radius)
                kept += 1
            if kept:
                seeds.append(env_seed)
                means.append(sums / kept)
        out[(s, rho)] = (seeds, np.asarray(means), excluded)
    return out


@pytest.mark.parametrize("n_env, n_traj, max_events", [(5, 1, None), (35, 3, 5)])
def test_grid_reduces_like_a_trajectory_loop(n_env, n_traj, max_events):
    # 35 environments make chunks of one and of two environments; the cap
    # excludes some trajectories, and in some environments all of them.
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=17)
    scales = ScaleSet(10, 0.5, 2, 1.0, 20.0, 2.0, 0.5)
    cells = [(2.0, 1.0, scales), (2.0, 3.0, scales), (8.0, 0.5, scales)]
    kinds = [AgingKind.C1, AgingKind.C2, AgingKind.C3, AgingKind.CEPS_BATM]
    want = _reference_grid(env, cells, 0.3, n_env, n_traj, max_events)
    grids = [aging_grid(env, cells, eps=0.3, n_env=n_env, n_traj=n_traj,
                        max_events=max_events, workers=workers)
             for workers in (1, 2)]
    excluded = 0
    for (s, rho), (seeds, means, exc) in want.items():
        for grid in grids:
            for c, kind in enumerate(kinds):
                pt = grid[(s, rho)][kind]
                assert pt.env_seeds == seeds
                assert pt.env_estimates.tolist() == means[:, c].tolist()
                assert pt.excluded == exc
                assert pt.estimate == grids[0][(s, rho)][kind].estimate
                assert pt.std_error == grids[0][(s, rho)][kind].std_error
        excluded += exc
    assert (excluded > 0) == (max_events is not None)


def test_memory_stays_bounded_in_long_runs():
    # At s = 1e9 a path holds about 10^5 events per trajectory; the kernel
    # keeps one block of at most _LOCKSTEP_EVENTS walker-events (about 1 MiB
    # of arrays) at a time, where holding whole paths took 18.5 MiB.
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=3)
    tracemalloc.start()
    try:
        aging_grid(env, [(1e9, 1.0)], n_env=2, n_traj=2, max_events=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
