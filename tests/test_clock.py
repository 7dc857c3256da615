"""Clock paths, blocking, deep-trap truncation, scale sets.

Oracles: hand-solvable two-state chains with dyadic weights (float-exact
arithmetic), ledger identities S(t) = sum_x local_time(x) * weight(x), and a
seeded three-scale truncation study whose statistics were measured before the
expected values were frozen.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from trapclock.chains import (
    ChainKind,
    JumpSequence,
    LatticeModel,
    TableModel,
    TrajectoryConfig,
    run_discrete,
    run_vsrw,
)
from trapclock.clock import (
    ClockPath,
    ScaleSet,
    block_series,
    build_clock,
    trap_mask,
    truncated_clock_path,
)
from trapclock.env import EnvConfig, tau_array
from trapclock.errors import (
    ContractViolationError,
    DegenerateScaleError,
    RangeExhaustedError,
)
from trapclock.limits import overshoot

CONT = ChainKind.CONTINUOUS_J_VSRW
DISC = ChainKind.DISCRETE_J


def _neighbor_taus(cfg, x):
    """tau of the 2d lattice neighbours of the site x, one at a time."""
    out = []
    for a in range(cfg.d):
        for step in (1, -1):
            y = list(x)
            y[a] += step
            out.append(tau_array(cfg, np.array([y]))[0])
    return out


def _two_state():
    # tau = (10, 3); conductance 3 on the single edge: rates (0.3, 1.0).
    return TableModel(np.array([[0.0, 0.3], [1.0, 0.0]]), np.array([10.0, 3.0]))


# ---------------------------------------------------------------------------
# ClockPath container
# ---------------------------------------------------------------------------


def test_clock_path_validation():
    with pytest.raises(ContractViolationError):
        ClockPath([0.0, 1.0], [0.0], CONT)              # length mismatch
    with pytest.raises(ContractViolationError):
        ClockPath([], [], CONT)                          # empty
    with pytest.raises(ContractViolationError):
        ClockPath([1.0, 0.0], [0.0, 1.0], CONT)          # decreasing bp
    with pytest.raises(ContractViolationError):
        ClockPath([0.0, 1.0], [1.0, 0.0], CONT)          # decreasing values
    with pytest.raises(ContractViolationError):
        ClockPath([0.0, np.inf], [0.0, 1.0], CONT)       # nonfinite


def test_clock_path_cadlag_lookup():
    p = ClockPath([0.0, 1.0, 3.0], [0.0, 10.0, 16.0], CONT)
    assert p.value_at(0.0) == 0.0
    assert p.value_at(0.999) == 0.0
    assert p.value_at(1.0) == 10.0          # right-continuous at breakpoints
    assert p.value_at(2.5) == 10.0
    assert p.value_at(3.0) == 16.0
    assert p.value_at(100.0) == 16.0        # constant after the last breakpoint
    np.testing.assert_array_equal(p.value_at(np.array([0.0, 1.0, 2.0])),
                                  [0.0, 10.0, 10.0])
    with pytest.raises(ContractViolationError):
        p.value_at(-0.5)
    assert p.final_time == 3.0
    assert p.final_value == 16.0
    assert len(p) == 3


def test_clock_path_tied_breakpoints_read_the_last_piece():
    # Jumps closer together than the ulp of the running time share an epoch;
    # the path keeps every piece and a lookup at the tie reads the last one.
    p = ClockPath([0.0, 1.0, 1.0, 3.0], [0.0, 10.0, 12.0, 16.0], CONT)
    assert p.value_at(0.999) == 0.0
    assert p.value_at(1.0) == 12.0
    assert p.value_at(2.0) == 12.0
    np.testing.assert_array_equal(p.value_at(np.array([1.0, 3.0])),
                                  [12.0, 16.0])
    # the first passage over 11 lands on the second tied piece (12), and
    # the one over 12 on the next breakpoint's value
    assert overshoot(p, 11.0) == 1.0
    assert overshoot(p, 12.0) == 4.0


# ---------------------------------------------------------------------------
# build_clock
# ---------------------------------------------------------------------------


def test_build_clock_keeps_tied_jump_times():
    # The second holding, 2^-60, is below the ulp of t = 1, so its jump
    # lands at the same epoch as the first (and its clock increment is
    # below the ulp of 10).
    model = _two_state()
    jumps = JumpSequence(CONT, times=[1.0, 1.0, 2.0],
                         holdings=[1.0, 2.0 ** -60, 1.0],
                         sites=[[0], [1], [0], [1]], final_holding=0.0,
                         final_time=2.0)
    clock = build_clock(model, jumps)
    assert clock.breakpoints.tolist() == [0.0, 1.0, 1.0, 2.0]
    assert clock.values.tolist() == [0.0, 10.0, 10.0, 20.0]
    assert clock.value_at(1.0) == clock.values[2]


def test_build_clock_continuous_synthetic():
    model = _two_state()
    jumps = JumpSequence(CONT, times=[1.0, 2.5], holdings=[1.0, 1.5],
                         sites=[[0], [1], [0]], final_holding=0.5,
                         final_time=3.0)
    clock = build_clock(model, jumps)
    # increments: 1.0 * tau(0), 1.5 * tau(1), then partial 0.5 * tau(0)
    assert clock.breakpoints.tolist() == [0.0, 1.0, 2.5, 3.0]
    assert clock.values.tolist() == [0.0, 10.0, 14.5, 19.5]
    assert clock.kind is CONT


def test_build_clock_continuous_no_final_partial():
    model = _two_state()
    jumps = JumpSequence(CONT, times=[2.0], holdings=[2.0], sites=[[0], [1]],
                         final_holding=0.0, final_time=2.0)
    clock = build_clock(model, jumps)
    assert clock.breakpoints.tolist() == [0.0, 2.0]
    assert clock.values.tolist() == [0.0, 20.0]


def test_build_clock_empty_trajectory():
    model = _two_state()
    jumps = JumpSequence(CONT, times=[], holdings=[], sites=[[0]],
                         final_holding=4.0, final_time=4.0)
    clock = build_clock(model, jumps)
    assert clock.breakpoints.tolist() == [0.0, 4.0]
    assert clock.values.tolist() == [0.0, 40.0]


def test_build_clock_discrete_synthetic():
    model = _two_state()
    # discrete step weights: 1/0.3 = 10/3 at state 0, 1/1.0 = 1 at state 1
    jumps = JumpSequence(DISC, times=[1.0, 2.0], holdings=[2.0, 3.0],
                         sites=[[0], [1], [0]], final_holding=1.5,
                         final_time=2.0)
    clock = build_clock(model, jumps)
    assert clock.breakpoints.tolist() == [0.0, 1.0, 2.0]
    want = [2.0 * 10 / 3, 2.0 * 10 / 3 + 3.0, 2.0 * 10 / 3 + 3.0 + 1.5 * 10 / 3]
    assert clock.values == pytest.approx(want, rel=1e-15)
    # step-0 mark is on the books at time zero
    assert clock.value_at(0.0) > 0.0


def test_discrete_lattice_weight_is_inverse_total_rate():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.6, env_seed=19)
    _, jumps = run_discrete(cfg, TrajectoryConfig(7, DISC, horizon=30))
    clock = build_clock(cfg, jumps)
    marks = np.append(jumps.holdings, jumps.final_holding)
    incr = np.diff(clock.values, prepend=0.0)
    for i in (0, 5, 17, 30):
        x = tuple(int(c) for c in jumps.sites[i])
        tau_x = tau_array(cfg, np.array([x]))[0]
        lam = sum(tau_x ** (cfg.theta - 1.0) * tau_y ** cfg.theta
                  for tau_y in _neighbor_taus(cfg, x))
        assert incr[i] == pytest.approx(marks[i] / lam, rel=1e-12)


def test_clock_identity_against_ledger():
    # S(horizon) = sum_x local_time(x) * tau(x), continuous kind
    cases = [
        (EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=3), 300.0),
        (EnvConfig(d=2, alpha=0.8, theta=0.3, env_seed=11), 50.0),
    ]
    for cfg, horizon in cases:
        led, jumps = run_vsrw(cfg, TrajectoryConfig(3, CONT, horizon=horizon),
                              max_events=10**7)
        clock = build_clock(cfg, jumps)
        want = sum(amount * tau_array(cfg, np.array([site]))[0]
                   for site, amount in led.items())
        assert clock.final_value == pytest.approx(want, rel=1e-10)


def test_discrete_clock_identity_against_ledger(five_state):
    led, jumps = run_discrete(five_state.model,
                              TrajectoryConfig(21, DISC, horizon=200))
    clock = build_clock(five_state.model, jumps)
    want = sum(amount * five_state.step_weight[x] for x, amount in led.items())
    assert clock.final_value == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# ScaleSet
# ---------------------------------------------------------------------------


def test_scale_set_validation():
    ok = dict(n=100, alpha=0.5, d=2, c_n=10.0, a_n=50.0, theta_n=5.0, eps_n=0.2)
    ScaleSet(**ok)
    with pytest.raises(DegenerateScaleError):
        ScaleSet(**{**ok, "theta_n": 1.5})
    with pytest.raises(DegenerateScaleError):
        ScaleSet(**{**ok, "theta_n": 50.0})      # theta_n >= a_n
    with pytest.raises(ContractViolationError):
        ScaleSet(**{**ok, "c_n": 0.0})
    with pytest.raises(ContractViolationError):
        ScaleSet(**{**ok, "eps_n": -1.0})
    # non-finite scales and alpha outside (0, 1); a NaN c_n would make
    # every block-tail count 0
    for key in ("c_n", "a_n", "theta_n", "eps_n"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ContractViolationError):
                ScaleSet(**{**ok, key: bad})
    for bad in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ContractViolationError):
            ScaleSet(**{**ok, "alpha": bad})


def test_for_lattice_d2_formulas():
    sc = ScaleSet.for_lattice(10**4, d=2, alpha=0.5)
    assert sc.c_n == 10**4
    assert sc.a_n == pytest.approx(303.4854258770293, rel=1e-12)
    # n^(alpha*gamma2) = 1.995... falls below the legal minimum and is clamped
    assert sc.theta_n == 2.0
    assert sc.eps_n == pytest.approx(81.30073417696562, rel=1e-12)
    assert sc.k_of(1.0) == 151


def test_for_lattice_d3_desk_policy():
    sc = ScaleSet.for_lattice(10**6, d=3, alpha=0.8)
    assert sc.a_n == pytest.approx(63095.734448019364, rel=1e-12)
    assert sc.theta_n == 3.0
    assert sc.eps_n == pytest.approx(3.0 ** (-1.0 / 3.0), rel=1e-15)


def test_for_lattice_rejections():
    with pytest.raises(DegenerateScaleError):
        ScaleSet.for_lattice(1, d=2, alpha=0.5)
    with pytest.raises(DegenerateScaleError):
        ScaleSet.for_lattice(100, d=1, alpha=0.5)
    with pytest.raises(ContractViolationError):
        ScaleSet.for_lattice(100, d=2, alpha=1.5)
    with pytest.raises(ContractViolationError):
        ScaleSet.for_lattice(100, d=2, alpha=0.5, gamma2=0.2)


def test_k_of_examples():
    sc = ScaleSet(n=10, alpha=0.5, d=2, c_n=1.0, a_n=1000.0, theta_n=10.0,
                  eps_n=0.5)
    assert sc.k_of(2.0) == 200
    assert sc.k_of(0.0) == 0
    assert sc.k_of(0.0105) == 1      # floor(10.5) = 10 -> one complete block
    assert sc.k_of(0.0095) == 0
    with pytest.raises(ContractViolationError):
        sc.k_of(-0.1)


def test_trap_thresholds_and_radii():
    sc = ScaleSet(n=100, alpha=0.5, d=2, c_n=100.0, a_n=200.0, theta_n=30.0,
                  eps_n=0.1)
    assert sc.trap_tau_floor == pytest.approx(10.0)
    assert sc.trap_neighbor_cap == pytest.approx(0.1 ** -4.0)
    assert sc.sup_gap == pytest.approx(0.1 ** 0.25)
    # strict floor, inclusive cap
    assert not sc.is_trap(10.0, 1.0)
    assert sc.is_trap(10.0001, sc.trap_neighbor_cap)
    assert not sc.is_trap(10.0001, sc.trap_neighbor_cap * 1.01)
    assert sc.window_radius() == pytest.approx(math.sqrt(30.0 * math.log(30.0)))
    assert sc.displacement_radius(1.0) == pytest.approx(
        math.sqrt(200.0) * math.log(200.0))
    with pytest.raises(DegenerateScaleError):
        sc.displacement_radius(0.001)


# ---------------------------------------------------------------------------
# block series
# ---------------------------------------------------------------------------


def _toy_scales(c_n=4.0, a_n=50.0, theta_n=5.0, eps_n=0.5):
    return ScaleSet(n=10, alpha=0.5, d=2, c_n=c_n, a_n=a_n, theta_n=theta_n,
                    eps_n=eps_n)


def test_block_series_discrete_initial_term_is_first_mark(five_state):
    _, jumps = run_discrete(five_state.model, TrajectoryConfig(5, DISC, horizon=40))
    clock = build_clock(five_state.model, jumps)
    sc = _toy_scales(c_n=8.0, a_n=30.0, theta_n=3.0)
    assert clock.value_at(0.0) == clock.values[0] > 0.0
    series = block_series(clock, sc, 1.0)
    assert series.Z0 == clock.values[0]                 # unscaled initial term


def test_block_series_continuous_lattice():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=29)
    sc = _toy_scales(c_n=16.0, a_n=50.0, theta_n=5.0)
    K = sc.k_of(1.0)
    assert K == 10
    _, jumps = run_vsrw(cfg, TrajectoryConfig(17, CONT, horizon=5.0 * K))
    clock = build_clock(cfg, jumps)
    series = block_series(clock, sc, 1.0)
    assert series.k_count == K
    assert series.Z0 == 0.0
    for k in range(1, K + 1):
        want = (clock.value_at(5.0 * k) - clock.value_at(5.0 * (k - 1))) / 16.0
        assert series.Z[k - 1] == pytest.approx(want, rel=1e-12)
    assert np.all(series.Z >= 0.0)


def test_block_series_needs_enough_path():
    clock = ClockPath([0.0, 10.0], [0.0, 1.0], CONT)
    sc = _toy_scales(a_n=50.0, theta_n=5.0)
    with pytest.raises(RangeExhaustedError):
        block_series(clock, sc, 1.0)                    # needs S(50)
    series = block_series(clock, sc, 0.2)               # needs S(10): fine
    assert series.k_count == 2


def test_block_series_telescopes_to_rescaled_clock():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=41)
    sc = _toy_scales(c_n=9.0, a_n=50.0, theta_n=5.0)
    _, jumps = run_vsrw(cfg, TrajectoryConfig(23, CONT, horizon=50.0))
    clock = build_clock(cfg, jumps)
    series = block_series(clock, sc, 1.0)
    # t = 0.5: floor(a t) = 25 = theta_n * k with k = 5 complete blocks, so the
    # blocked sum telescopes to the rescaled clock S(floor(a_n t)) / c_n
    # (continuous kind: Z0 = 0).
    assert series.Z0 == 0.0
    assert np.sum(series.Z[:sc.k_of(0.5)]) == pytest.approx(
        clock.value_at(25.0) / 9.0, rel=1e-12)
    assert np.sum(series.Z[:sc.k_of(1.0)]) == pytest.approx(
        clock.value_at(50.0) / 9.0, rel=1e-12)


def test_block_series_discrete_telescopes_from_initial_mark(five_state):
    _, jumps = run_discrete(five_state.model, TrajectoryConfig(6, DISC, horizon=60))
    clock = build_clock(five_state.model, jumps)
    sc = _toy_scales(c_n=8.0, a_n=50.0, theta_n=5.0)
    series = block_series(clock, sc, 1.0)
    # discrete kind: blocked = (S(theta k) - S(0))/c_n + S(0), the initial
    # mark staying unscaled; it differs from the rescaled clock
    # S(floor(a_n t)) / c_n by Z0 (1 - 1/c_n)
    want = clock.value_at(50.0) / 8.0 + series.Z0 * (1.0 - 1.0 / 8.0)
    assert np.sum(series.Z[:sc.k_of(1.0)]) + series.Z0 == pytest.approx(
        want, rel=1e-12)


def test_exact_dyadic_telescoping():
    # dyadic values make float addition exact, so telescoping is equality
    vals = np.array([0.0, 0.25, 1.0, 1.5, 2.75, 4.0])
    clock = ClockPath(np.arange(6.0), vals, CONT)
    sc = ScaleSet(n=2, alpha=0.5, d=2, c_n=2.0, a_n=10.0, theta_n=2.0, eps_n=0.5)
    series = block_series(clock, sc, 0.41)             # floor(4.1)=4 -> 2 blocks
    assert series.Z.tolist() == [0.5, 0.875]
    assert series.Z.sum() + series.Z0 == 1.375 == vals[4] / 2.0


# ---------------------------------------------------------------------------
# deep-trap truncation
# ---------------------------------------------------------------------------


def test_truncated_clock_rejects_discrete(five_state):
    _, jumps = run_discrete(five_state.model, TrajectoryConfig(5, DISC, horizon=5))
    with pytest.raises(ContractViolationError):
        truncated_clock_path(five_state.model, jumps, _toy_scales())


def test_truncated_clock_no_traps_is_zero():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=29)
    _, jumps = run_vsrw(cfg, TrajectoryConfig(11, CONT, horizon=40.0))
    sc = _toy_scales(c_n=1e15, a_n=50.0, theta_n=5.0, eps_n=0.9)  # floor ~ 9e14
    path = truncated_clock_path(cfg, jumps, sc)
    assert np.all(path.values == 0.0)
    assert path.value_at(sc.theta_n * sc.k_of(0.8)) == 0.0


def test_truncated_clock_all_traps_matches_full():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=29)
    _, jumps = run_vsrw(cfg, TrajectoryConfig(11, CONT, horizon=40.0))
    # derive eps from the path so that every visited site provably qualifies:
    # the floor stays below every tau (tau > c_bar = 1) and the neighbor cap
    # above the largest neighbor tau seen anywhere along the trajectory
    max_nbr = max(max(_neighbor_taus(cfg, tuple(int(c) for c in row)))
                  for row in jumps.sites)
    eps = min(0.2, 0.9 * max_nbr ** (-0.5 / 2.0))
    sc = ScaleSet(n=10, alpha=0.5, d=2, c_n=4.0, a_n=50.0, theta_n=5.0,
                  eps_n=eps)
    assert sc.trap_tau_floor < 1.0 and sc.trap_neighbor_cap > max_nbr
    full = build_clock(cfg, jumps)
    trunc = truncated_clock_path(cfg, jumps, sc)
    np.testing.assert_allclose(trunc.values, full.values / 4.0, rtol=1e-12)
    assert trunc.breakpoints.tolist() == full.breakpoints.tolist()


def test_truncated_clock_gates_single_deep_state():
    # state 1 (tau = 1000) is a trap: floor = 50, neighbor tau 10 <= cap = 16;
    # state 0 (tau = 10) is below the floor.
    model = TableModel(np.array([[0.0, 1.0], [0.01, 0.0]]),
                       np.array([10.0, 1000.0]))
    sc = ScaleSet(n=10, alpha=0.5, d=1, c_n=100.0, a_n=50.0, theta_n=5.0,
                  eps_n=0.5)
    assert sc.is_trap(1000.0, 10.0)
    assert not sc.is_trap(10.0, 1000.0)
    jumps = JumpSequence(CONT, times=[1.0, 4.0], holdings=[1.0, 3.0],
                         sites=[[0], [1], [0]], final_holding=2.0,
                         final_time=6.0)
    path = truncated_clock_path(model, jumps, sc)
    # only the 3.0 units held at state 1 count: 3 * 1000 / 100 = 30
    assert path.breakpoints.tolist() == [0.0, 1.0, 4.0, 6.0]
    assert path.values.tolist() == [0.0, 0.0, 30.0, 30.0]
    # ... and when the trajectory ends inside the trap, the partial counts
    jumps2 = JumpSequence(CONT, times=[1.0], holdings=[1.0], sites=[[0], [1]],
                          final_holding=0.5, final_time=1.5)
    path2 = truncated_clock_path(model, jumps2, sc)
    assert path2.values.tolist() == [0.0, 0.0, 5.0]


def test_trap_mask_is_the_per_site_rule(five_state):
    # Vectorized membership must agree with the per-site rule on
    # (tau(x), largest neighbor tau), read one site at a time.
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.5, env_seed=77)
    model = LatticeModel(cfg)
    sc = ScaleSet(100, 0.5, 2, 8.0, 200.0, 30.0, 0.5)
    axis = np.arange(-15, 16)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    want = []
    for row in grid:
        x = tuple(int(c) for c in row)
        max_nbr = max(_neighbor_taus(cfg, x))
        want.append(bool(sc.is_trap(tau_array(cfg, np.array([x]))[0], max_nbr)))
    assert 0 < sum(want) < len(want)
    assert trap_mask(model, sc, grid).tolist() == want
    # Table states: tau = 1..5 on a cycle; floor 2.8 and cap 0.7^-4 ~ 4.16
    # keep states 2 and 4, and drop state 3 for its tau-5 neighbor.
    table = five_state.model
    sc1 = ScaleSet(100, 0.5, 1, 4.0, 20.0, 2.0, 0.7)
    states = np.arange(5)[:, None]
    want = [bool(sc1.is_trap(five_state.tau[x],
                             five_state.tau[five_state.rates[x] > 0].max()))
            for x in range(5)]
    assert want == [False, False, True, False, True]
    assert trap_mask(table, sc1, states).tolist() == want


def test_truncation_gap_study():
    """Three growing scale sets, seeds fixed, statistics frozen from a
    measurement run: the truncated blocked clock is dominated pathwise by the
    full one, enlarging the trap set (smaller eps) shrinks the gap pathwise,
    and the median gap falls as the scales grow.  At the largest scale the
    truncation error bound eps^((1-alpha)/2) holds for >= 90% of samples."""
    alpha, d = 0.5, 2
    settings = [(400, 0.04), (32400, 0.012), (250000, 0.005)]
    theta_n = 4.0
    medians = []
    for n, eps in settings:
        a_n = math.sqrt(n) * math.sqrt(math.log(n))
        sc = ScaleSet(n=n, alpha=alpha, d=d, c_n=float(n), a_n=a_n,
                      theta_n=theta_n, eps_n=eps)
        boundary = theta_n * sc.k_of(1.0)
        gaps = []
        for e in range(20):
            cfg = EnvConfig(d=d, alpha=alpha, theta=0.0, env_seed=1000 + e)
            for s in range(3):
                _, j = run_vsrw(cfg, TrajectoryConfig(s, CONT,
                                                      horizon=float(boundary)),
                                want_ledger=False)
                full = float(np.sum(block_series(build_clock(cfg, j), sc, 1.0).Z))
                trunc = truncated_clock_path(cfg, j, sc).value_at(boundary)
                assert trunc <= full * (1.0 + 1e-12)     # pathwise domination
                gaps.append(full - trunc)
                if e < 3 and s == 0:
                    # pathwise monotonicity: a larger trap set (smaller eps)
                    # can only move the truncated clock up toward the full one
                    sc_wide = ScaleSet(n=n, alpha=alpha, d=d, c_n=float(n),
                                       a_n=a_n, theta_n=theta_n, eps_n=eps / 4)
                    wider = truncated_clock_path(cfg, j, sc_wide).value_at(boundary)
                    assert wider >= trunc * (1.0 - 1e-12)
        gaps = np.asarray(gaps)
        medians.append(float(np.median(gaps)))
        if n == settings[-1][0]:
            assert np.mean(gaps <= sc.sup_gap) >= 0.90   # measured: 0.967
    # measured medians: 0.350, 0.306, 0.218 — strictly falling
    assert medians[0] > medians[1] > medians[2]
    assert medians == pytest.approx([0.350, 0.306, 0.218], abs=0.05)


# ---------------------------------------------------------------------------
# inverse clock
# ---------------------------------------------------------------------------


def test_inverse_clock_round_trip():
    # the clock at its first passage over s, s + overshoot(S, s), is the
    # least value of the path above s, and it never falls as s grows
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=51)
    _, jumps = run_vsrw(cfg, TrajectoryConfig(9, CONT, horizon=60.0))
    clock = build_clock(cfg, jumps)
    prev = 0.0
    for s in np.linspace(0.0, clock.final_value * 0.99, 37).tolist():
        passed = s + overshoot(clock, s)
        assert passed > s
        assert passed == pytest.approx(clock.values[clock.values > s].min(),
                                       rel=1e-12)
        assert passed >= prev
        prev = passed


# ---------------------------------------------------------------------------
# NaN query times
# ---------------------------------------------------------------------------


def _nan_query_path():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=7)
    _, jumps = run_vsrw(cfg, TrajectoryConfig(1, CONT, horizon=5.0))
    return jumps, build_clock(cfg, jumps)


@pytest.mark.parametrize("query", [
    lambda jumps, clock: clock.value_at(math.nan),
    lambda jumps, clock: clock.value_at(np.array([0.0, math.nan])),
    lambda jumps, clock: overshoot(clock, math.nan),
    lambda jumps, clock: ScaleSet(100, 0.5, 2, 1.0, 20.0, 2.0, 0.5).k_of(math.nan),
    lambda jumps, clock: block_series(clock, ScaleSet(100, 0.5, 2, 1.0, 20.0,
                                                      2.0, 0.5), math.nan),
], ids=["value_at", "value_at-array", "overshoot", "k_of", "block_series"])
def test_nan_query_times_refused(query):
    jumps, clock = _nan_query_path()
    with pytest.raises(ContractViolationError):
        query(jumps, clock)
