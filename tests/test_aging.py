"""Tests for two-time window occupation estimators and their scaling-limit twin.

Band rationale: statistical checks compare frozen-seed Monte Carlo runs
against closed-form targets using 3.5-sigma bands plus a small absolute
slack, so they are deterministic given the seeds yet would catch any
systematic bias well above the sampling noise.  Structural identities
(pathwise ordering, exclusion counting, seed fan-out) are asserted exactly.
"""

import math
import warnings

import numpy as np
import pytest

import trapclock.aging

from trapclock.aging import (
    AgingKind,
    AgingPoint,
    aging_grid,
    batm_aging_points,
    estimate_Ceps_fk,
)
from trapclock.chains import ChainKind, LatticeModel, TrajectoryConfig, run_vsrw
from trapclock.clock import ScaleSet, build_clock
from trapclock.env import EnvConfig
from trapclock.errors import ContractViolationError, EventCapError
from trapclock.limits import arcsine_cdf
from trapclock.rng import MASK64
from trapclock.rng import ENV_FANOUT, hash_words

# Small scale set usable at short observation times s, where the default
# lattice schedule would refuse to fit a block inside the rescaled horizon.
TOY_SCALES = ScaleSet(10, 0.5, 2, 1.0, 20.0, 2.0, 0.5)


def test_window_radius_formula():
    scales = ScaleSet(100, 0.5, 1, 1.0, 20.0, 4.0, 0.5)
    assert np.isclose(scales.window_radius(), math.sqrt(4.0 * math.log(4.0)),
                      rtol=1e-12)


def test_frozen_trap_gives_unit_estimates():
    # With a floor of 1e12 on every waiting-time weight, the clock spends
    # vastly longer than the whole window inside the first hold, so every
    # window sees a motionless walker: all four estimates must be exactly 1.
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=4242, c_bar=1e12)
    pts = batm_aging_points(env, 2.0, 1.0, eps=1e-9, n_env=6, n_traj=8,
                            scales=TOY_SCALES, max_events=100)
    assert set(pts) == {AgingKind.C1, AgingKind.C2, AgingKind.C3,
                        AgingKind.CEPS_BATM}
    for kind, pt in pts.items():
        assert pt.estimate == 1.0
        assert pt.std_error == 0.0
        assert pt.excluded == 0
        assert pt.kind is kind
    assert np.isclose(pts[AgingKind.C1].arcsine_target,
                      arcsine_cdf(0.5, 0.5), rtol=1e-12)


def test_narrow_window_gives_unit_estimates():
    # A window of relative width 1e-9 almost surely contains no jump, so
    # the walker is motionless inside it and every estimate is 1.
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=11, c_bar=1.0)
    pts = batm_aging_points(env, 10.0, 1e-9, n_env=4, n_traj=5,
                            max_events=200000)
    assert set(pts) == {AgingKind.C1, AgingKind.C2, AgingKind.C3}
    for pt in pts.values():
        assert pt.estimate == 1.0
        assert pt.excluded == 0


def test_unbounded_radius_forces_c2_one_and_c3_equals_c1():
    # With theta_n = 1e300 the localization radius is ~2.6e151, so every
    # window displacement qualifies: the confinement estimate is exactly 1
    # and the joint estimate degenerates to the same-site one.
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=12, c_bar=1.0)
    scales = ScaleSet(10, 0.5, 2, 1.0, 1e308, 1e300, 0.5)
    pts = batm_aging_points(env, 2.0, 1.0, n_env=4, n_traj=6, scales=scales,
                            max_events=100000)
    assert pts[AgingKind.C2].estimate == 1.0
    assert pts[AgingKind.C3].estimate == pts[AgingKind.C1].estimate
    assert 0.0 < pts[AgingKind.C1].estimate < 1.0


def test_pathwise_ordering_and_cluster_bookkeeping():
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=321, c_bar=1.0)
    eps = 0.4
    pts = batm_aging_points(env, 50.0, 1.0, eps=eps, n_env=40, n_traj=12,
                            max_events=200000)
    c1, c2, c3 = (pts[k] for k in (AgingKind.C1, AgingKind.C2, AgingKind.C3))
    ceps = pts[AgingKind.CEPS_BATM]

    # Joint event implies each marginal event, trajectory by trajectory.
    assert c3.estimate <= min(c1.estimate, c2.estimate)
    # Here the eps-ball is wider than the localization ball, so the
    # eps-confinement event contains the localization event pathwise.
    scales = ScaleSet.for_lattice(50, 2, 0.5)
    assert eps * math.sqrt(scales.a_n) > scales.window_radius()
    assert ceps.estimate >= c2.estimate

    for pt in (c1, c2, c3, ceps):
        assert 0.0 < pt.estimate < 1.0
        assert pt.std_error > 0.0
        assert pt.excluded == 0
        assert pt.n_env == 40
        assert pt.n_traj_per_env == 12
        assert pt.env_estimates.shape == (40,)
        assert len(set(pt.env_seeds)) == 40
        assert np.isclose(pt.env_estimates.mean(), pt.estimate, rtol=1e-12)

    # At s = 50 the same-site fraction already sits near its scaling
    # target for this (alpha, rho); a wide band guards against gross bias.
    assert abs(c1.estimate - arcsine_cdf(0.5, 0.5)) <= 0.15
    assert c1.eps is None and ceps.eps == eps


def test_event_cap_exclusion_is_counted():
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=55, c_bar=1.0)
    pts = batm_aging_points(env, 20.0, 1.0, n_env=6, n_traj=8, max_events=10)
    pt = pts[AgingKind.C1]
    assert 0 < pt.excluded < 6 * 8
    assert pt.n_env == 6
    assert 0.0 <= pt.estimate <= 1.0


def test_all_trajectories_truncated_raises():
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=55, c_bar=1.0)
    with pytest.raises(EventCapError):
        batm_aging_points(env, 1e9, 1.0, n_env=4, n_traj=4,
                          scales=TOY_SCALES, max_events=5)


def test_worker_invariance():
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=777, c_bar=1e12)
    base = batm_aging_points(env, 2.0, 1.0, n_env=3, n_traj=4,
                             scales=TOY_SCALES, max_events=50)
    split = batm_aging_points(env, 2.0, 1.0, n_env=3, n_traj=4,
                              scales=TOY_SCALES, max_events=50, workers=2)
    for kind in base:
        assert split[kind].estimate == base[kind].estimate
        assert split[kind].std_error == base[kind].std_error


def test_wrappers_match_joint_run():
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=321, c_bar=1.0)
    kw = dict(n_env=10, n_traj=6, max_events=200000)
    pts = batm_aging_points(env, 50.0, 1.0, eps=0.4, **kw)
    plain = batm_aging_points(env, 50.0, 1.0, **kw)
    singles = {
        AgingKind.C1: plain[AgingKind.C1],
        AgingKind.C2: plain[AgingKind.C2],
        AgingKind.C3: plain[AgingKind.C3],
        AgingKind.CEPS_BATM: batm_aging_points(
            env, 50.0, 1.0, eps=0.4, **kw)[AgingKind.CEPS_BATM],
    }
    for kind, pt in singles.items():
        assert pt.kind is kind
        assert pt.estimate == pts[kind].estimate
        assert pt.std_error == pts[kind].std_error


def test_batm_eps_monotone_with_shared_seeds():
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=321, c_bar=1.0)
    kw = dict(n_env=10, n_traj=6, max_events=200000)
    lo = batm_aging_points(env, 50.0, 1.0, eps=0.1, **kw)[AgingKind.CEPS_BATM]
    hi = batm_aging_points(env, 50.0, 1.0, eps=0.8, **kw)[AgingKind.CEPS_BATM]
    assert lo.estimate <= hi.estimate
    assert lo.eps == 0.1 and hi.eps == 0.8


def _rows(model, seeds, windows, max_events, env_seeds=None):
    """The aging kernel's windows, one list per trajectory seed: per window
    (same_site, max_displacement), or None when the cap stops the run
    before the window's end."""
    done, same, disp2 = trapclock.aging._window_rows(
        model, np.array([s & MASK64 for s in seeds], dtype=np.uint64), windows,
        max_events, env_seeds)
    return [[(bool(sm), float(np.sqrt(float(d2)))) if ok else None
             for ok, sm, d2 in zip(*row)] for row in zip(done, same, disp2)]


def _window_reference(model, traj_seed, s, window_end, max_events):
    """One window from a run to its own end: (same_site, max_displacement),
    or None when the cap stops the run first."""
    tcfg = TrajectoryConfig(traj_seed, ChainKind.CONTINUOUS_J_VSRW)
    _, jumps = run_vsrw(model, tcfg, clock_target=window_end,
                        max_events=max_events, want_ledger=False)
    if jumps.truncated:
        return None
    vals = build_clock(model, jumps).values
    idx_s = int(np.searchsorted(vals, s, side="right")) - 1
    idx_e = int(np.searchsorted(vals, window_end, side="right")) - 1
    ref = jumps.sites[idx_s]
    disp = (jumps.sites[idx_s:idx_e + 1] - ref).astype(np.float64)
    return (bool(np.all(jumps.sites[idx_e] == ref)),
            float(np.sqrt((disp * disp).sum(axis=1).max())))


@pytest.mark.parametrize("theta, max_events", [(0.0, 100), (0.5, 150)])
def test_window_stats_match_one_run_per_window(theta, max_events):
    # Every window read off the run to the largest end equals a run to that
    # window's own end, including the windows the cap cuts off.
    model = LatticeModel(EnvConfig(d=2, alpha=0.5, theta=theta, env_seed=9))
    windows = [(2.0, 3.0), (20.0, 30.0), (20.0, 80.0), (60.0, 120.0),
               (200.0, 400.0)]
    outcomes = []
    for seed in range(12):
        got = _rows(model, [seed], windows, max_events)[0]
        assert got == [_window_reference(model, seed, s, e, max_events)
                       for s, e in windows]
        outcomes.extend(res is None for res in got)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("theta, max_events", [(0.0, 30), (0.5, 60)])
@pytest.mark.parametrize("workers", [1, 2])
def test_grid_equals_per_cell_runs(theta, max_events, workers):
    # One pass to the largest window end must give every cell exactly what
    # a run to that cell's own end gives, including which trajectories the
    # event cap excludes: the small cap leaves some cells whole and others
    # partly excluded (at theta = 0.5 some environments drop out entirely).
    env = EnvConfig(d=2, alpha=0.5, theta=theta, env_seed=5, c_bar=1.0)
    cells = [(2.0, 1.0, TOY_SCALES), (20.0, 0.5), (20.0, 3.0), (60.0, 1.0)]
    kw = dict(eps=0.5, n_env=8, n_traj=5, max_events=max_events,
              workers=workers)
    grid = aging_grid(env, cells, **kw)
    assert list(grid) == [cell[:2] for cell in cells]
    excluded = []
    for cell in cells:
        s, rho = cell[:2]
        scales = cell[2] if len(cell) > 2 else None
        single = batm_aging_points(env, s, rho, scales=scales, **kw)
        pts = grid[(s, rho)]
        assert set(pts) == set(single)
        for kind, pt in pts.items():
            ref = single[kind]
            assert (pt.s, pt.rho, pt.kind, pt.eps) == (s, rho, kind, ref.eps)
            assert pt.estimate == ref.estimate
            assert pt.std_error == ref.std_error
            np.testing.assert_array_equal(pt.env_estimates, ref.env_estimates)
            assert pt.env_seeds == ref.env_seeds
            assert pt.excluded == ref.excluded
            assert pt.n_env == ref.n_env
        excluded.append(pts[AgingKind.C1].excluded)
    assert excluded[0] == 0 and max(excluded) > 0
    # environments are reduced in fan-out order
    assert grid[(2.0, 1.0)][AgingKind.C1].env_seeds == [
        hash_words(5, ENV_FANOUT, i) for i in range(8)]


def test_argument_guards():
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=1, c_bar=1.0)
    with pytest.raises(ContractViolationError):
        batm_aging_points(env, 0.0, 1.0, n_env=2, n_traj=2,
                          scales=TOY_SCALES)
    with pytest.raises(ContractViolationError):
        batm_aging_points(env, 2.0, 0.0, n_env=2, n_traj=2,
                          scales=TOY_SCALES)
    with pytest.raises(ContractViolationError):
        batm_aging_points(env, 2.0, 1.0, n_env=0, n_traj=2,
                          scales=TOY_SCALES)
    with pytest.raises(ContractViolationError):
        batm_aging_points(env, 2.0, 1.0, n_env=2, n_traj=0,
                          scales=TOY_SCALES)
    with pytest.raises(ContractViolationError):
        batm_aging_points(env, 2.0, 1.0, eps=0.0, n_env=2, n_traj=2,
                          scales=TOY_SCALES)
    with pytest.raises(ContractViolationError):
        aging_grid(env, [(2.0, 1.0, TOY_SCALES)] * 2, n_env=2,
                   n_traj=2)
    assert aging_grid(env, [], n_env=2, n_traj=2) == {}
    with pytest.raises(ContractViolationError):
        AgingPoint(s=1.0, rho=1.0, kind=AgingKind.C1, eps=None, estimate=1.5,
                   std_error=0.0, n_env=1, n_traj_per_env=1,
                   arcsine_target=0.5)
    for bad in (0.0, 1.0):
        with pytest.raises(ContractViolationError):
            estimate_Ceps_fk(bad, 2, 1.0, 0.05, n_samples=10)
    with pytest.raises(ContractViolationError):
        estimate_Ceps_fk(0.5, 0, 1.0, 0.05, n_samples=10)
    with pytest.raises(ContractViolationError):
        estimate_Ceps_fk(0.5, 2, 0.0, 0.05, n_samples=10)
    with pytest.raises(ContractViolationError):
        estimate_Ceps_fk(0.5, 2, 1.0, 0.05, n_samples=1)
    with pytest.raises(ContractViolationError):
        estimate_Ceps_fk(0.5, 2, 1.0, [0.05, 0.0], n_samples=10)


def test_Ceps_fk_refuses_non_finite_rho(monkeypatch):
    # rho = nan once sampled every path and then failed in arcsine_cdf
    calls = []
    monkeypatch.setattr(trapclock.aging, "_inverse_stretches",
                        lambda *a, **k: calls.append(a))
    for rho in (math.nan, math.inf):
        with pytest.raises(ContractViolationError):
            estimate_Ceps_fk(0.5, 2, rho, 0.05, n_samples=10)
    assert calls == []


def test_fk_bridge_matches_arcsine_target():
    # As eps shrinks the eps-confinement probability converges to the
    # arcsine CDF at 1/(1+rho); at alpha=1/2, rho=1 that target is 1/2,
    # and windows jumped over in a single clock increment count as hits.
    pts = estimate_Ceps_fk(0.5, 2, 1.0, [0.02, 0.05], n_samples=2000,
                           seed=99)
    target = arcsine_cdf(0.5, 0.5)
    for pt in pts:
        assert abs(pt.estimate - target) <= 3.5 * pt.std_error + 0.01
        assert pt.kind is AgingKind.CEPS_FK
        assert pt.s == math.inf
        assert pt.n_env == 1
        assert pt.n_traj_per_env == 2000
        assert pt.excluded == 0
        assert np.isclose(pt.arcsine_target, target, rtol=1e-12)
    # Shared samples: a wider ball can only add hits, and the two
    # estimates must agree to well within the sampling noise.
    assert pts[0].estimate <= pts[1].estimate
    assert abs(pts[0].estimate - pts[1].estimate) <= 0.02

    single = estimate_Ceps_fk(0.5, 2, 1.0, 0.05, n_samples=2000, seed=99)
    assert single.estimate == pts[1].estimate

    again = estimate_Ceps_fk(0.5, 2, 1.0, [0.02, 0.05], n_samples=2000,
                             seed=99)
    assert [p.estimate for p in again] == [p.estimate for p in pts]


def test_fk_flags_a_grid_level_that_never_settles(monkeypatch):
    # With no refinement left above the start level, the calibration ends
    # before the estimate has settled, and every point carries the flag.
    monkeypatch.setattr(trapclock.aging, "_BM_MAX_LEVEL",
                        trapclock.aging._BM_START_LEVEL)
    pts = estimate_Ceps_fk(0.5, 2, 1.0, [0.02, 0.05], n_samples=200, seed=99)
    assert [pt.excluded for pt in pts] == [1, 1]


def test_fk_dimension_independence():
    # The eps -> 0 limit does not depend on the spatial dimension.
    target = arcsine_cdf(0.5, 0.5)
    p1 = estimate_Ceps_fk(0.5, 1, 1.0, 0.05, n_samples=2000, seed=100)
    p3 = estimate_Ceps_fk(0.5, 3, 1.0, 0.05, n_samples=2000, seed=101)
    assert abs(p1.estimate - target) <= 3.5 * p1.std_error + 0.01
    assert abs(p3.estimate - target) <= 3.5 * p3.std_error + 0.01
    joint = math.hypot(p1.std_error, p3.std_error)
    assert abs(p1.estimate - p3.estimate) <= 3.5 * joint + 0.01


def test_fk_small_alpha_overshoot_draw():
    # At alpha = 0.2 a Beta(1 - alpha, alpha) draw rounds to exactly 1.0
    # about 570 times in 10^6, so an overshoot B / (1 - B) would divide by
    # zero; the estimate must come without any warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt = estimate_Ceps_fk(0.2, 2, 1.0, 0.05, n_samples=20000)
    target = arcsine_cdf(0.2, 0.5)
    assert abs(pt.estimate - target) <= 3.5 * pt.std_error + 0.01


def test_fk_other_age_ratio():
    pt = estimate_Ceps_fk(0.5, 2, 0.25, 0.03, n_samples=2000, seed=102)
    target = arcsine_cdf(0.5, 1.0 / 1.25)
    assert np.isclose(pt.arcsine_target, target, rtol=1e-12)
    assert abs(pt.estimate - target) <= 3.5 * pt.std_error + 0.01
