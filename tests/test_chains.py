"""Trajectory engines: stream discipline, stopping rules, exact small-chain laws.

Oracles: transition-matrix powers for the 5-cycle, exponential laws via
scipy's KS test, binomial/Poisson standard errors for counts, and the
general engine as a cross-check for the vectorized constant-rate path.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from trapclock import chains
from trapclock.chains import (
    ChainKind,
    JumpSequence,
    LatticeModel,
    TableModel,
    TrajectoryConfig,
    jump_distribution,
    occupation_from_jumps,
    position_of_x,
    run_discrete,
    run_vsrw,
)
from trapclock.clock import build_clock
from trapclock.env import EnvConfig, tau_at
from trapclock.errors import (ContractViolationError, EventCapError,
                              RangeExhaustedError)
from trapclock.rng import ENV_FANOUT, hash_words

CONT = ChainKind.CONTINUOUS_J_VSRW
DISC = ChainKind.DISCRETE_J


def _env(theta=0.0, alpha=0.5, d=2, seed=11):
    return EnvConfig(d=d, alpha=alpha, theta=theta, env_seed=seed)


# ---------------------------------------------------------------------------
# config and model validation
# ---------------------------------------------------------------------------


def test_trajectory_config_rejects_negative_horizon():
    with pytest.raises(ContractViolationError):
        TrajectoryConfig(traj_seed=1, chain_kind=CONT, horizon=-1.0)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
def test_trajectory_config_rejects_nonfinite_horizon(horizon):
    # a theta = 0 walk has no default event cap, so it would never stop
    for kind in (CONT, DISC):
        with pytest.raises(ContractViolationError):
            TrajectoryConfig(traj_seed=1, chain_kind=kind, horizon=horizon)


def test_run_vsrw_needs_a_stopping_rule():
    with pytest.raises(ContractViolationError):
        run_vsrw(_env(), TrajectoryConfig(1, CONT))
    # a NaN clock target stops nothing (no clock value is <= NaN), so both
    # engines refuse it, with or without a cap
    for theta in (0.0, 0.5):
        for cap in (None, 10):
            with pytest.raises(ContractViolationError):
                run_vsrw(_env(theta=theta, seed=7), TrajectoryConfig(1, CONT),
                         clock_target=math.nan, max_events=cap)


def test_run_kind_mismatch_rejected():
    with pytest.raises(ContractViolationError):
        run_vsrw(_env(), TrajectoryConfig(1, DISC, horizon=1.0))
    with pytest.raises(ContractViolationError):
        run_discrete(_env(), TrajectoryConfig(1, CONT, horizon=5))


def test_run_discrete_needs_horizon():
    with pytest.raises(ContractViolationError):
        run_discrete(_env(), TrajectoryConfig(1, DISC))


@pytest.mark.parametrize(
    "rates,tau",
    [
        ([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0]),        # detailed balance broken
        ([[0.0, -1.0], [1.0, 0.0]], [1.0, 1.0]),       # negative rate
        ([[1.0, 1.0], [1.0, 0.0]], [1.0, 1.0]),        # nonzero diagonal
        ([[0.0, 1.0], [1.0, 0.0]], [1.0, -1.0]),       # nonpositive tau
        ([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0]),        # absorbing state
        ([[0.0, 1.0]], [1.0]),                          # bad shape
    ],
)
def test_table_model_rejects_bad_input(rates, tau):
    with pytest.raises(ContractViolationError):
        TableModel(np.asarray(rates, dtype=float), np.asarray(tau, dtype=float))


def test_table_model_accepts_reversible_chain(five_state):
    m = five_state.model
    assert m.n_states == 5
    assert m.tau(2) == 3.0


# ---------------------------------------------------------------------------
# jump distribution
# ---------------------------------------------------------------------------


def test_jump_distribution_uniform_at_theta_zero():
    p = jump_distribution(_env(theta=0.0), (3, -7))
    assert np.array_equal(p, np.full(4, 0.25))


def test_jump_distribution_proportional_to_tau_power():
    cfg = _env(theta=0.7, seed=23)
    x = (1, 2)
    nbr_taus = np.array(
        [tau_at(cfg, y) for y in [(2, 2), (0, 2), (1, 3), (1, 1)]])
    want = nbr_taus**0.7 / (nbr_taus**0.7).sum()
    assert jump_distribution(cfg, x) == pytest.approx(want, rel=1e-12)
    assert jump_distribution(cfg, x).sum() == pytest.approx(1.0, abs=1e-15)


def test_jump_distribution_table_row(five_state):
    p = jump_distribution(five_state.model, 2)
    # neighbors of 2 in index order are (1, 3)
    assert p == pytest.approx(np.array([4 / 7, 3 / 7]), rel=1e-14)


def test_one_step_frequencies_match_jump_distribution(five_state):
    # P(J_1 = y | J_0 = 2) estimated over independent seeds.
    n = 3000
    counts = {1: 0, 3: 0}
    for s in range(n):
        _, j = run_discrete(five_state.model,
                            TrajectoryConfig(s, DISC, start=2, horizon=1))
        counts[int(j.sites[1, 0])] += 1
    p_want = 4 / 7
    se = math.sqrt(p_want * (1 - p_want) / n)
    assert abs(counts[1] / n - p_want) < 3 * se


# ---------------------------------------------------------------------------
# continuous kind: holding laws, ledger identity, stopping rules
# ---------------------------------------------------------------------------


def test_ledger_total_equals_horizon():
    # theta > 0 on a heavy-tailed lattice can demand unboundedly many events
    # per unit internal time (flip-flops at a huge-tau neighbor), so the
    # general-path case runs at theta < alpha where E[tau^theta] is finite,
    # with an event cap as a guard rail.
    cases = [
        dict(cfg=_env(theta=0.0), seed=3, horizon=200.0),
        dict(cfg=_env(theta=0.3, alpha=0.8), seed=3, horizon=50.0),
    ]
    for case in cases:
        horizon = case["horizon"]
        led, jumps = run_vsrw(case["cfg"],
                              TrajectoryConfig(case["seed"], CONT, horizon=horizon),
                              max_events=10**7)
        assert not jumps.truncated
        assert led.total == pytest.approx(horizon, rel=1e-10)
        assert led.recomputed_total() == pytest.approx(horizon, rel=1e-10)
        assert jumps.final_time == horizon
        # holdings plus the final partial holding tile the horizon
        assert jumps.holdings.sum() + jumps.final_holding == pytest.approx(
            horizon, rel=1e-10)


def test_holding_times_exponential_two_state_ks():
    # Both states of this chain have symmetrized holding rate 3, so every
    # holding in the run is an independent Exp(3) draw.
    model = TableModel(np.array([[0.0, 3.0], [1.0, 0.0]]), np.array([1.0, 3.0]))
    _, jumps = run_vsrw(model, TrajectoryConfig(12, CONT, horizon=4000.0))
    holds = jumps.holdings
    assert holds.size > 8000
    stat = scipy.stats.kstest(holds, "expon", args=(0, 1 / 3)).statistic
    assert stat < 1.36 / math.sqrt(holds.size) * 1.6  # comfortably un-rejected
    assert holds.mean() == pytest.approx(1 / 3, rel=4 / math.sqrt(holds.size))


def test_theta_zero_holding_rate_is_2d():
    _, jumps = run_vsrw(_env(d=3, seed=9), TrajectoryConfig(2, CONT, horizon=800.0))
    holds = jumps.holdings
    n = holds.size
    assert abs(holds.mean() - 1 / 6) < 3 * (1 / 6) / math.sqrt(n)


def test_every_lattice_jump_moves_by_one():
    _, jumps = run_vsrw(_env(theta=0.5, d=2), TrajectoryConfig(7, CONT),
                        max_events=2000)
    steps = np.abs(np.diff(jumps.sites, axis=0)).sum(axis=1)
    assert steps.size == 2000
    assert np.array_equal(steps, np.ones_like(steps))


def test_clock_target_stop_is_first_crossing():
    cfg = _env(theta=0.0, seed=21)
    for seed in (1, 2, 3):
        for force in (False, True):
            _, jumps = run_vsrw(cfg, TrajectoryConfig(seed, CONT),
                                clock_target=50.0, force_general=force)
            taus = np.array([tau_at(cfg, tuple(s)) for s in jumps.sites[:-1]])
            partial = np.cumsum(jumps.holdings * taus)
            assert partial[-1] > 50.0
            assert np.all(partial[:-1] <= 50.0)
            assert jumps.final_holding == 0.0


def test_max_events_truncates():
    _, jumps = run_vsrw(_env(), TrajectoryConfig(5, CONT, horizon=1e9),
                        max_events=17)
    assert jumps.truncated
    assert len(jumps) == 17
    _, j2 = run_discrete(_env(), TrajectoryConfig(5, DISC, horizon=100),
                         max_events=17)
    assert len(j2) == 17


@pytest.mark.parametrize("cap", [0, -3])
def test_max_events_below_one_rejected(five_state, cap):
    # The theta = 0 kernel, the general engine (theta > 0, forced, or a
    # table chain) and the discrete chain all refuse the cap before running.
    runs = [(_env(theta=0.0), {}), (_env(theta=0.0), dict(force_general=True)),
            (_env(theta=0.5), {}), (five_state.model, {})]
    for model, kw in runs:
        with pytest.raises(ContractViolationError):
            run_vsrw(model, TrajectoryConfig(1, CONT, horizon=5.0),
                     max_events=cap, **kw)
        with pytest.raises(ContractViolationError):
            run_discrete(model, TrajectoryConfig(1, DISC, horizon=5),
                         max_events=cap)
    # one event is the smallest cap, and both continuous engines honour it
    for kw in ({}, dict(force_general=True)):
        _, jumps = run_vsrw(_env(theta=0.0), TrajectoryConfig(1, CONT),
                            max_events=1, **kw)
        assert len(jumps) == 1 and jumps.truncated


def test_default_event_cap_bounds_horizon_only_runs(monkeypatch):
    # Between adjacent deep traps the theta = 0.5 walk jumps at a rate
    # (tau(x) tau(y))^theta: in this run 1e6 events reach only internal time
    # 248 of the horizon 500.  With no max_events of its own it stops at the
    # default cap with EventCapError, not with a truncated path.
    monkeypatch.setattr(chains, "DEFAULT_MAX_EVENTS", 10**5)
    repro = (EnvConfig(d=2, alpha=0.5, theta=0.5, env_seed=77),
             TrajectoryConfig(4, CONT, horizon=500.0))
    with pytest.raises(EventCapError):
        run_vsrw(*repro)
    _, jumps = run_vsrw(*repro, max_events=1000)
    assert jumps.truncated and len(jumps) == 1000
    # the horizon bounds a discrete run's steps and the theta = 0 walk's
    # Poisson(2d * horizon) jumps: neither has a default cap
    _, jumps = run_discrete(_env(), TrajectoryConfig(1, DISC, horizon=10**5 + 1))
    assert len(jumps) == 10**5 + 1
    _, jumps = run_vsrw(_env(theta=0.0), TrajectoryConfig(1, CONT, horizon=3e4))
    assert len(jumps) > 10**5 and not jumps.truncated


def test_site_table_fill_does_not_change_a_walk():
    # A walker run on a fresh model equals the same walker run on a model
    # whose site table other walkers (and a far-away start) already filled,
    # at both block-boundary and mid-block stops.
    for d in (2, 3):
        cfg = _env(theta=0.5, d=d, seed=2900)
        filled = LatticeModel(cfg)
        for seed in range(4):
            run_vsrw(filled, TrajectoryConfig(seed, CONT), max_events=3000)
        run_vsrw(filled, TrajectoryConfig(9, CONT, start=(40,) * d),
                 max_events=500)
        for seed, stop in ((4, dict(max_events=1000)), (5, dict(max_events=64)),
                           (6, dict(clock_target=1e4, max_events=5000))):
            tcfg = TrajectoryConfig(seed, CONT, horizon=20.0)
            led_a, a = run_vsrw(LatticeModel(cfg), tcfg, **stop)
            led_b, b = run_vsrw(filled, tcfg, **stop)
            assert np.array_equal(a.sites, b.sites)
            assert a.times.tolist() == b.times.tolist()
            assert a.holdings.tolist() == b.holdings.tolist()
            assert (a.final_holding, a.final_time, a.truncated) == (
                b.final_holding, b.final_time, b.truncated)
            assert list(led_a.items()) == list(led_b.items())
            assert led_a.total == led_b.total


def test_site_table_depths_are_tau_at():
    # Depths in the site table equal tau_at, both for sites the walk
    # visited and for sites only filled as part of a box around a miss.
    cfg = _env(theta=0.5, seed=77)
    model = LatticeModel(cfg)
    _, jumps = run_vsrw(model, TrajectoryConfig(2, CONT), max_events=2000)
    visited = {jumps.site_tuple(i) for i in range(len(jumps) + 1)}
    table = model.sites
    known = model.site_keys(table.column("coords"))
    unbuilt = [x for i, x in enumerate(known) if table.cum[i] is None]
    box_only = [x for x in known if x not in visited]
    assert unbuilt and len(box_only) > len(unbuilt)
    for x in list(visited) + box_only:
        assert model.tau(x) == tau_at(cfg, x)
    # a site the table has not seen is filled on demand
    far = (500, -500)
    assert far not in set(known)
    assert model.tau(far) == tau_at(cfg, far)


def test_fast_and_general_engines_agree():
    cfg = _env(theta=0.0, seed=77)
    for seed, stop in ((5, dict(horizon=500.0)), (6, dict(horizon=3.0)),
                       (7, dict(clock_target=300.0)),
                       (8, dict(clock_target=5.0))):
        tcfg = TrajectoryConfig(seed, CONT, horizon=stop.get("horizon"))
        kw = {k: v for k, v in stop.items() if k != "horizon"}
        led_f, j_f = run_vsrw(cfg, tcfg, **kw)
        led_g, j_g = run_vsrw(cfg, tcfg, force_general=True, **kw)
        assert len(j_f) == len(j_g)
        assert np.array_equal(j_f.sites, j_g.sites)
        np.testing.assert_allclose(j_f.times, j_g.times, rtol=1e-14)
        np.testing.assert_allclose(j_f.holdings, j_g.holdings, rtol=1e-14)
        assert j_f.final_holding == pytest.approx(j_g.final_holding, abs=1e-12)
        assert j_f.final_time == pytest.approx(j_g.final_time, rel=1e-12)
        assert led_f.total == pytest.approx(led_g.total, rel=1e-12)


def test_msd_of_constant_rate_walk():
    # theta = 0: jumps arrive at rate 2d and displacements are uniform unit
    # steps, so E|X(t)|^2 = 2d * t exactly.
    cfg = _env(theta=0.0, d=2, seed=31)
    t = 25.0
    n = 5000
    sq = np.empty(n)
    for s in range(n):
        _, jumps = run_vsrw(cfg, TrajectoryConfig(s, CONT, horizon=t),
                            want_ledger=False)
        sq[s] = float((jumps.sites[-1].astype(float) ** 2).sum())
    want = 2 * 2 * t
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - want) < 3 * se
    assert abs(sq.mean() / want - 1.0) < 0.05


# ---------------------------------------------------------------------------
# discrete kind
# ---------------------------------------------------------------------------


def test_discrete_zero_steps_single_mark(five_state):
    led, jumps = run_discrete(five_state.model,
                              TrajectoryConfig(3, DISC, start=1, horizon=0))
    assert len(jumps) == 0
    assert jumps.final_time == 0.0
    assert len(led) == 1
    assert led.get(1) == jumps.final_holding > 0.0


def test_discrete_ledger_has_steps_plus_one_marks(five_state):
    n_steps = 400
    led, jumps = run_discrete(five_state.model,
                              TrajectoryConfig(9, DISC, horizon=n_steps))
    assert len(jumps) == n_steps
    assert np.array_equal(jumps.times, np.arange(1, n_steps + 1, dtype=float))
    # total = sum of (n_steps + 1) unit exponential marks
    assert led.total == pytest.approx(jumps.holdings.sum() + jumps.final_holding,
                                      rel=1e-12)
    marks = np.append(jumps.holdings, jumps.final_holding)
    assert marks.size == n_steps + 1
    stat = scipy.stats.kstest(marks, "expon").statistic
    assert stat < 1.36 / math.sqrt(marks.size) * 1.6


def test_discrete_and_continuous_share_site_sequence(five_state):
    # Same seed -> same direction stream elements -> same embedded chain.
    for model, start in ((five_state.model, 0), (_env(theta=0.5), None)):
        _, jd = run_discrete(model, TrajectoryConfig(41, DISC, start=start,
                                                     horizon=60))
        _, jc = run_vsrw(model, TrajectoryConfig(41, CONT, start=start),
                         max_events=60)
        assert np.array_equal(jd.sites, jc.sites)


def test_visit_distribution_matches_matrix_power(five_state):
    # law of J_4 started from 0, against the exact transition-matrix power
    n = 4000
    counts = np.zeros(5)
    for s in range(n):
        _, j = run_discrete(five_state.model,
                            TrajectoryConfig(s, DISC, start=0, horizon=4))
        counts[int(j.sites[4, 0])] += 1
    p4 = np.linalg.matrix_power(five_state.transition, 4)[0]
    for x in range(5):
        se = math.sqrt(max(p4[x] * (1 - p4[x]), 1e-12) / n)
        assert abs(counts[x] / n - p4[x]) <= 3 * se + 1e-9


def test_occupation_matches_matrix_power_sum(five_state):
    # E[ledger mass at x over steps 0..S] = sum_s P^s(0, x) (unit-mean marks)
    S = 12
    n = 4000
    acc = np.zeros(5)
    for s in range(n):
        led, _ = run_discrete(five_state.model,
                              TrajectoryConfig(10_000 + s, DISC, start=0,
                                               horizon=S))
        for x in range(5):
            acc[x] += led.get(x)
    acc /= n
    want = np.zeros(5)
    P = np.eye(5)
    for _ in range(S + 1):
        want += P[0]
        P = P @ five_state.transition
    # per-trajectory variance is O(S); 3 sigma with a measured SE
    assert acc == pytest.approx(want, abs=4 * math.sqrt(S) / math.sqrt(n))
    assert acc.sum() == pytest.approx(S + 1, rel=0.05)


# ---------------------------------------------------------------------------
# replay, indexing, time-change helpers
# ---------------------------------------------------------------------------


def test_trajectories_replay_bitwise():
    tcfg = TrajectoryConfig(99, CONT)
    _, a = run_vsrw(_env(theta=0.5), tcfg, max_events=500)
    _, b = run_vsrw(_env(theta=0.5), tcfg, max_events=500)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.sites, b.sites)
    _, c = run_vsrw(_env(theta=0.5), TrajectoryConfig(100, CONT), max_events=500)
    assert not np.array_equal(a.sites, c.sites)


def test_lattice_as_site_refuses_non_integral_coordinates():
    # (0.5, 1.2) once became the site (0, 1)
    model = LatticeModel(_env())
    with pytest.raises(ContractViolationError):
        model.as_site((0.5, 1.2))
    with pytest.raises(ContractViolationError):
        run_vsrw(model, TrajectoryConfig(1, CONT, start=(0.5, 1.2)), max_events=5)
    assert model.as_site((2.0, -1)) == (2, -1)


def test_table_as_site_refuses_malformed_states():
    # (2, 99) and 2.7 once both became state 2
    rates = np.ones((3, 3)) - np.eye(3)
    model = TableModel(rates, np.ones(3))
    for bad in ((2, 99), 2.7, 2.0, (2.0,), (), "2"):
        with pytest.raises(ContractViolationError):
            model.as_site(bad)
    with pytest.raises(ContractViolationError):
        run_vsrw(model, TrajectoryConfig(1, CONT, start=(2, 99), horizon=1.0))
    assert model.as_site(2) == model.as_site((2,)) == model.as_site(np.int64(2)) == 2


def test_site_indexing_and_jump_records():
    model = TableModel(np.array([[0.0, 3.0], [1.0, 0.0]]), np.array([1.0, 3.0]))
    _, jumps = run_vsrw(model, TrajectoryConfig(4, CONT, horizon=10.0))
    rec = jumps[0]
    assert rec.time == jumps.times[0]
    assert rec.from_site == (int(jumps.sites[0, 0]),)
    assert rec.to_site == (int(jumps.sites[1, 0]),)
    assert jumps[-1].time == jumps.times[-1]
    with pytest.raises(IndexError):
        jumps[len(jumps)]
    # cadlag site lookup: at a jump epoch the walker is already at the target
    t0 = float(jumps.times[0])
    assert jumps.site_index_at(t0) == 1
    assert jumps.site_index_at(t0 / 2) == 0
    assert jumps.site_at(0.0) == (int(jumps.sites[0, 0]),)
    with pytest.raises(RangeExhaustedError):
        jumps.site_index_at(10.0 + 1e-9)
    with pytest.raises(RangeExhaustedError):
        jumps.site_index_at(-0.1)
    idx = jumps.site_indices_at([0.0, t0, 10.0])
    assert idx[0] == 0 and idx[1] == 1


def test_occupation_from_jumps_rebuilds_ledger():
    cfg = _env(theta=0.5, seed=13)
    led, jumps = run_vsrw(cfg, TrajectoryConfig(8, CONT), max_events=2000)
    rebuilt = occupation_from_jumps(cfg, jumps)
    assert len(rebuilt) == len(led)
    for site, amount in led.items():
        assert rebuilt.get(site) == pytest.approx(amount, rel=1e-12)
    assert rebuilt.total == pytest.approx(led.total, rel=1e-12)


def test_ledgers_skip_the_unheld_final_site():
    # A clock-target or max_events stop ends on a jump, so the site it lands
    # on has held nothing.  In these runs that site is new, and no ledger may
    # list it: not the engine's, not the rebuilt one, not the kernel's.
    seed = hash_words(1, ENV_FANOUT, 0)
    runs = ((_env(theta=0.5, seed=seed), 26, dict(max_events=10 ** 4)),
            (_env(theta=0.5, seed=seed), 1,
             dict(clock_target=1e3, max_events=10 ** 4)),
            (_env(theta=0.0, seed=seed), 3, dict(clock_target=1e3)),
            (_env(theta=0.0, seed=seed), 4, dict(max_events=500)))
    for cfg, traj_seed, stop in runs:
        tcfg = TrajectoryConfig(traj_seed, CONT)
        led, jumps = run_vsrw(cfg, tcfg, force_general=True, **stop)
        last = jumps.site_tuple(len(jumps))
        assert last not in {jumps.site_tuple(i) for i in range(len(jumps))}
        assert last not in led
        assert dict(occupation_from_jumps(cfg, jumps).items()) == dict(led.items())
        if cfg.theta == 0.0:
            led_kernel, _ = run_vsrw(cfg, tcfg, **stop)
            assert set(led_kernel.sites()) == set(led.sites())


def test_position_of_x_continuous_synthetic():
    # one jump at internal time 1 from state 0 (tau = 10) to state 1 (tau = 3),
    # then 2 more internal units: clock breakpoints are [0, 10, 16].
    model = TableModel(np.array([[0.0, 0.3], [1.0, 0.0]]), np.array([10.0, 3.0]))
    jumps = JumpSequence(CONT, times=[1.0], holdings=[1.0], sites=[[0], [1]],
                         final_holding=2.0, final_time=3.0)
    clock = build_clock(model, jumps)
    assert clock.values.tolist() == [0.0, 10.0, 16.0]
    assert position_of_x(jumps, clock, 0.0) == (0,)
    assert position_of_x(jumps, clock, 5.0) == (0,)   # mid-holding
    assert position_of_x(jumps, clock, 10.0) == (1,)  # right-continuous
    assert position_of_x(jumps, clock, 15.9) == (1,)
    with pytest.raises(RangeExhaustedError):
        position_of_x(jumps, clock, 16.0)
    with pytest.raises(ContractViolationError):
        position_of_x(jumps, clock, -1.0)


def test_position_of_x_discrete_synthetic():
    model = TableModel(np.array([[0.0, 0.3], [1.0, 0.0]]), np.array([10.0, 3.0]))
    # steps 0,1,2 at sites 0,1,0 with marks 2,3,1: weights w = (10/3, 1)
    jumps = JumpSequence(DISC, times=[1.0, 2.0], holdings=[2.0, 3.0],
                         sites=[[0], [1], [0]], final_holding=1.0,
                         final_time=2.0)
    clock = build_clock(model, jumps)
    want = [2 * 10 / 3, 2 * 10 / 3 + 3 * 1, 2 * 10 / 3 + 3 + 1 * 10 / 3]
    assert clock.values == pytest.approx(want, rel=1e-12)
    assert position_of_x(jumps, clock, 0.0) == (0,)
    assert position_of_x(jumps, clock, want[0] - 1e-9) == (0,)
    assert position_of_x(jumps, clock, want[0]) == (1,)
    assert position_of_x(jumps, clock, want[1]) == (0,)
    with pytest.raises(RangeExhaustedError):
        position_of_x(jumps, clock, want[2])


def test_continuous_engine_stall_gives_a_valid_clock():
    # Between states 1 and 2 the walk rate is 1e24, so once the first
    # holding (rate 1) has carried the internal time to O(1), every later
    # holding (~1e-24) is below the ulp of that time and t + h == t.  A
    # two-state chain cannot stall: both states hold at the one edge's rate.
    tau = np.array([1.0, 1e12, 1e12])
    rates = np.array([[0.0, 1.0, 0.0], [1e-12, 0.0, 1e12],
                      [0.0, 1e12, 0.0]])
    model = TableModel(rates, tau)
    _, jumps = run_vsrw(model, TrajectoryConfig(0, CONT), max_events=200,
                        want_ledger=False)
    assert len(jumps) == 200 and jumps.truncated
    assert np.all(jumps.times == jumps.times[0])
    path = build_clock(model, jumps)
    assert path.breakpoints.tolist() == [0.0] + jumps.times.tolist()
    assert np.all(np.diff(path.values) >= 0.0)
    assert path.final_value > path.values[1]
    assert path.value_at(jumps.times[0]) == path.final_value
