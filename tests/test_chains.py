"""Trajectory engines: stream discipline, stopping rules, exact small-chain laws.

Oracles: transition-matrix powers for the 5-cycle, exponential laws via
scipy's KS test, and binomial/Poisson standard errors for counts.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from trapclock import chains
from trapclock.chains import (
    ChainKind,
    LatticeModel,
    TableModel,
    TrajectoryConfig,
    run_discrete,
    run_vsrw,
)
from trapclock.clock import build_clock
from trapclock.env import EnvConfig, tau_array
from trapclock.errors import ContractViolationError, EventCapError
from trapclock.rng import ENV_FANOUT, hash_words

from continuous_oracle import site_record

CONT = ChainKind.CONTINUOUS_J_VSRW
DISC = ChainKind.DISCRETE_J


def _env(theta=0.0, alpha=0.5, d=2, seed=11):
    return EnvConfig(d=d, alpha=alpha, theta=theta, env_seed=seed)


def _jump_distribution(env_or_model, x):
    """Jump probabilities out of x as the engines draw them: the differences
    of the site table's cumulative neighbour weights, over their total."""
    model = chains.as_model(env_or_model)
    w = np.array(model.sites.cum[model.site_id(model.as_site(x))])
    return np.diff(w, prepend=0.0) / w[-1]


def _sites(jumps):
    """The visited sites of a lattice run as tuples, in order."""
    return [tuple(r) for r in jumps.sites.tolist()]


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
    # block rules refuse it, with or without a cap
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
    # neither an environment nor a chain model
    with pytest.raises(ContractViolationError):
        run_vsrw(object(), TrajectoryConfig(1, CONT, horizon=1.0))


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


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("where", ["rates", "tau"])
def test_table_model_refuses_non_finite_input(where, bad):
    # Refused before the detailed-balance product: an infinite rate pair
    # balances, and an infinite tau times a zero rate is NaN.
    rates, tau = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 1.0])
    if where == "rates":
        rates[0, 1] = rates[1, 0] = bad
    else:
        tau[1] = bad
    with pytest.raises(ContractViolationError, match="finite"):
        TableModel(rates, tau)


def test_table_model_accepts_reversible_chain(five_state):
    m = five_state.model
    assert m.n_states == 5
    assert m.tau(2) == 3.0


# ---------------------------------------------------------------------------
# jump distribution
# ---------------------------------------------------------------------------


def test_jump_distribution_uniform_at_theta_zero():
    p = _jump_distribution(_env(theta=0.0), (3, -7))
    assert np.array_equal(p, np.full(4, 0.25))


def test_jump_distribution_proportional_to_tau_power():
    cfg = _env(theta=0.7, seed=23)
    x = (1, 2)
    nbr_taus = tau_array(cfg, np.array([(2, 2), (0, 2), (1, 3), (1, 1)]))
    want = nbr_taus**0.7 / (nbr_taus**0.7).sum()
    assert _jump_distribution(cfg, x) == pytest.approx(want, rel=1e-12)
    assert _jump_distribution(cfg, x).sum() == pytest.approx(1.0, abs=1e-15)


def test_jump_distribution_table_row(five_state):
    p = _jump_distribution(five_state.model, 2)
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
    # theta > 0 case runs at theta < alpha where E[tau^theta] is finite,
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
        assert sum(a for _, a in led.items()) == pytest.approx(horizon, rel=1e-10)
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
        _, jumps = run_vsrw(cfg, TrajectoryConfig(seed, CONT), clock_target=50.0)
        taus = tau_array(cfg, jumps.sites[:-1])
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
    assert len(j2) == 17 and j2.truncated
    # a cap at or above floor(horizon) cuts nothing, and marks nothing
    for cap in (100, 101):
        _, j3 = run_discrete(_env(), TrajectoryConfig(5, DISC, horizon=100.5),
                             max_events=cap)
        assert len(j3) == 100 and not j3.truncated


@pytest.mark.parametrize("cap", [0, -3])
def test_max_events_below_one_rejected(five_state, cap):
    # Both continuous block rules (theta = 0, and theta > 0 or a table
    # chain) and the discrete chain refuse the cap before running.
    for model in (_env(theta=0.0), _env(theta=0.5), five_state.model):
        with pytest.raises(ContractViolationError):
            run_vsrw(model, TrajectoryConfig(1, CONT, horizon=5.0),
                     max_events=cap)
        with pytest.raises(ContractViolationError):
            run_discrete(model, TrajectoryConfig(1, DISC, horizon=5),
                         max_events=cap)
    # one event is the smallest cap, and both block rules honour it
    for model in (_env(theta=0.0), _env(theta=0.5)):
        _, jumps = run_vsrw(model, TrajectoryConfig(1, CONT), max_events=1)
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


def test_short_batched_theta_runs_walk_short_blocks(monkeypatch):
    # 200 theta = 0.5 walkers to the horizon 0.01 keep about 15 events in
    # all.  They step in lockstep blocks of _LOCKSTEP_EVENTS // 200 events,
    # so the site walk makes fewer than 64 events per walker, where a
    # first block of 64 events per walker walked 12,800 to keep 15.
    walked = []
    walk = chains._walk

    def counted(model, x, u):
        walked.append(len(u))
        return walk(model, x, u)

    monkeypatch.setattr(chains, "_walk", counted)
    chains.block_clocks(_env(theta=0.5, seed=3), CONT, np.arange(1, 201, dtype=np.uint64),
                        np.zeros((200, 2), dtype=np.int64), 0.01)
    assert sum(walked) < 64 * 200


def test_stuck_batched_walker_raises_after_its_own_events(monkeypatch):
    # At env seed 3 and horizon 0.1 several of 200 walkers from the origin
    # are stuck in a trap and reach the default cap.  Each walker still
    # running after _LOCKSTEP_BLOCK0 events goes on alone, so the first
    # stuck one raises after its own cap of events and the short runs
    # before it: about 63,000 events at a cap of 50,000, where walking the
    # stuck walkers to the cap in lockstep walked 558,000.
    walked = []
    walk = chains._walk

    def counted(model, x, u):
        walked.append(len(u))
        return walk(model, x, u)

    monkeypatch.setattr(chains, "_walk", counted)
    monkeypatch.setattr(chains, "DEFAULT_MAX_EVENTS", 50_000)
    with pytest.raises(EventCapError):
        chains.block_clocks(_env(theta=0.5, seed=3), CONT, np.arange(1, 201, dtype=np.uint64),
                            np.zeros((200, 2), dtype=np.int64), 0.1)
    assert sum(walked) < 2 * 50_000


def test_capped_one_walker_run_walks_whole_blocks(monkeypatch):
    # A run with neither a horizon nor a clock target makes exactly
    # max_events events, so its blocks take _LOCKSTEP_EVENTS = 8,192 events
    # from the first: 10,000 events in two blocks.
    walked = []
    walk = chains._walk

    def counted(model, x, u):
        walked.append(len(u))
        return walk(model, x, u)

    monkeypatch.setattr(chains, "_walk", counted)
    _, jumps = run_vsrw(_env(theta=0.5, seed=2900), TrajectoryConfig(7, CONT),
                        max_events=10_000)
    assert len(jumps) == 10_000 and jumps.truncated
    assert walked == [8192, 1808]


@pytest.mark.parametrize("d", [2, 3])
def test_fill_builds_every_site_by_the_per_site_formula(d):
    # Every site the box fills build has the cumulative weights, neighbours
    # (the last repeated), rate and depth of the per-site formula of the
    # event oracle, computed afresh from the environment.
    model = LatticeModel(_env(theta=0.5, d=d, seed=2900))
    run_vsrw(model, TrajectoryConfig(1, CONT), max_events=3000)
    table = model.sites
    keys = model.site_keys(table.column("coords"))
    built = [i for i in range(table.n) if table.cum[i] is not None]
    assert len(built) > 100
    for i in built:
        tau_x, rate, cumw, nbrs = site_record(model, keys[i])
        assert table.cum[i] == tuple(cumw)
        assert [keys[j] for j in table.nbr[i]] == nbrs + nbrs[-1:]
        assert table.rate[i] == rate
        assert table.tau[i] == tau_x


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


def test_site_table_depths_are_tau_array():
    # Depths in the site table equal tau_array's, site by site, both for
    # sites the walk visited and for sites only filled as part of a box
    # around a miss.
    cfg = _env(theta=0.5, seed=77)
    model = LatticeModel(cfg)
    _, jumps = run_vsrw(model, TrajectoryConfig(2, CONT), max_events=2000)
    visited = set(_sites(jumps))
    table = model.sites
    known = model.site_keys(table.column("coords"))
    unbuilt = [x for i, x in enumerate(known) if table.cum[i] is None]
    box_only = [x for x in known if x not in visited]
    assert unbuilt and len(box_only) > len(unbuilt)
    for x in list(visited) + box_only:
        assert model.tau(x) == tau_array(cfg, np.array([x]))[0]
    # a site the table has not seen is filled on demand
    far = (500, -500)
    assert far not in set(known)
    assert model.tau(far) == tau_array(cfg, np.array([far]))[0]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_simple_discrete_clock_weight_is_the_general_formula(d):
    # At theta = 0 the discrete weight tau(x)^(1-theta) / sum_y tau(y)^theta
    # is tau(x) / 2d in closed form: the same floats, with and without a
    # per-row environment.
    cfg = _env(theta=0.0, d=d, seed=31 + d)
    rng = np.random.default_rng(d)
    sites = rng.integers(-1000, 1001, size=(500, d))
    env_seeds = np.array([hash_words(9, ENV_FANOUT, i) for i in range(500)],
                         dtype=np.uint64)
    # the neighbours in canonical order: +e_0, -e_0, +e_1, ...
    shifts = [s * np.eye(d, dtype=np.int64)[a] for a in range(d) for s in (1, -1)]
    for seeds in (None, env_seeds):
        acc = np.zeros(len(sites))
        for shift in shifts:
            acc += tau_array(cfg, sites + shift, seeds) ** cfg.theta
        want = tau_array(cfg, sites, seeds) ** (1.0 - cfg.theta) / acc
        got = LatticeModel(cfg).clock_weights(sites, DISC, seeds)
        assert np.array_equal(got, want)


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


def test_lattice_tau_refuses_malformed_sites_before_filling():
    # tau((1, 2, 3)) once raised a NumPy ValueError, and tau((0.5, 1.2)) and
    # tau((1,)) a KeyError after a box of sites had been added
    model = LatticeModel(_env())
    model.tau((0, 0))
    n = model.sites.n
    for bad in ((1, 2, 3), (0.5, 1.2), (1,)):
        for lookup in (model.tau, model.site_id):
            with pytest.raises(ContractViolationError):
                lookup(bad)
    assert model.sites.n == n
    assert model.tau((5, 5)) == tau_array(model.cfg, np.array([(5, 5)]))[0]


def test_table_as_site_refuses_malformed_states():
    # (2, 99) and 2.7 once both became state 2
    rates = np.ones((3, 3)) - np.eye(3)
    model = TableModel(rates, np.ones(3))
    for bad in ((2, 99), 2.7, 2.0, (2.0,), (), "2", 3, -1, (3,)):
        with pytest.raises(ContractViolationError):
            model.as_site(bad)
    with pytest.raises(ContractViolationError):
        run_vsrw(model, TrajectoryConfig(1, CONT, start=(2, 99), horizon=1.0))
    assert model.as_site(2) == model.as_site((2,)) == model.as_site(np.int64(2)) == 2


def test_site_indexing():
    # a lattice site's id is stable and indexes its coordinates and depth
    # in the site table; a table state is its own id
    cfg = _env(theta=0.5, seed=19)
    model = LatticeModel(cfg)
    ids = {}
    for x in [(0, 0), (7, -3), (500, 500), (7, -3), (8, -3)]:
        i = model.site_id(x)
        assert ids.setdefault(x, i) == i
        assert tuple(model.sites.column("coords")[i].tolist()) == x
        assert model.sites.tau[i] == model.tau(x) == tau_array(cfg, np.array([x]))[0]
        assert model.sites.cum[i] is not None
    assert len(set(ids.values())) == len(ids)
    table = TableModel(np.array([[0.0, 3.0], [1.0, 0.0]]), np.array([1.0, 3.0]))
    assert [table.site_id(k) for k in range(2)] == [0, 1]


@pytest.mark.parametrize("which", ["lattice-0.5", "lattice-1.0", "table"])
def test_step_agrees_with_the_site_table(which, five_state):
    # the batched step and the site-table walk pick the same neighbour for
    # the same uniform, u = 0 and u = 1 included
    if which == "table":
        model = five_state.model
        x = np.arange(5, dtype=np.int64).repeat(40)[:, None]
    else:
        model = LatticeModel(_env(theta=float(which.split("-")[1]), seed=29))
        x = np.random.default_rng(1).integers(-30, 30, size=(200, 2), dtype=np.int64)
    u = np.random.default_rng(2).random(len(x))
    u[:2] = (0.0, 1.0)
    got = model.step(x, u)
    for row, v, y in zip(x.tolist(), u.tolist(), got.tolist()):
        start = model.site_id(row[0] if which == "table" else tuple(row))
        j = chains._walk(model, start, [v])[0]
        assert model.sites.column("coords")[j].tolist() == y


def test_ledger_rebuilt_from_coordinates_matches_run():
    # The theta > 0 run labels its sites by table ids; the ledger rebuilt
    # from the coordinates alone lists the same local times.
    cfg = _env(theta=0.5, seed=13)
    led, jumps = run_vsrw(cfg, TrajectoryConfig(8, CONT), max_events=2000)
    rebuilt = chains._ledger(LatticeModel(cfg), jumps)
    assert len(rebuilt) == len(led)
    for site, amount in led.items():
        assert rebuilt.get(site) == pytest.approx(amount, rel=1e-12)
    assert rebuilt.total == pytest.approx(led.total, rel=1e-12)


@pytest.mark.parametrize("theta, kind, d", [
    (0.0, CONT, 2), (0.5, CONT, 2), (0.0, DISC, 3), (0.5, DISC, 1)])
def test_ledger_lists_sites_in_first_visit_order(theta, kind, d):
    # Each site's holdings summed in event order, the sites in the order the
    # walk first holds them: the per-event dict a ledger stands for, key by
    # key and bit for bit.  The theta = 0 and discrete ledgers label sites
    # from their coordinates, the theta > 0 continuous one from table ids.
    cfg = _env(theta=theta, d=d, seed=13)
    run = run_vsrw if kind is CONT else run_discrete
    for j in range(4):
        led, jumps = run(cfg, TrajectoryConfig(j, kind, horizon=100.0))
        amounts = list(jumps.holdings) + [jumps.final_holding]
        want = {}
        for site, amount in zip(_sites(jumps), amounts):
            want[site] = want.get(site, 0.0) + amount
        assert list(led.items()) == list(want.items())
        assert led.total == float(np.cumsum(amounts)[-1])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_run_labels_match_unique_rows(d):
    sites = np.random.default_rng(d).integers(-3, 3, size=(500, d))
    coords, ids = chains._run_labels(sites)
    want_coords, want_ids = np.unique(sites, axis=0, return_inverse=True)
    assert np.array_equal(coords, want_coords)
    assert np.array_equal(ids, want_ids.reshape(-1))


def test_ledgers_skip_the_unheld_final_site():
    # A clock-target or max_events stop ends on a jump, so the site it lands
    # on has held nothing.  In these runs that site is new, and no ledger may
    # list it: not the run's, and not the rebuilt one.
    seed = hash_words(1, ENV_FANOUT, 0)
    runs = ((_env(theta=0.5, seed=seed), 26, dict(max_events=10 ** 4)),
            (_env(theta=0.5, seed=seed), 1,
             dict(clock_target=1e3, max_events=10 ** 4)),
            (_env(theta=0.0, seed=seed), 3, dict(clock_target=1e3)),
            (_env(theta=0.0, seed=seed), 4, dict(max_events=500)))
    for cfg, traj_seed, stop in runs:
        tcfg = TrajectoryConfig(traj_seed, CONT)
        led, jumps = run_vsrw(cfg, tcfg, **stop)
        *held, last = _sites(jumps)
        assert last not in set(held)
        assert last not in led
        rebuilt = chains._ledger(LatticeModel(cfg), jumps)
        assert dict(rebuilt.items()) == dict(led.items())


@pytest.mark.parametrize("kind, tau, rate, horizon", [
    (DISC, [1.0, 1.0], 1e-310, 5.0),
    (CONT, [1e308, 1e308], 1e-320, 2.0),
])
def test_block_clocks_refuses_an_overflowing_clock(kind, tau, rate, horizon):
    # A discrete weight 1 / 1e-310 and a continuous clock increment
    # 1e308 * h (h about 1e12) overflow to inf.  block_clocks refuses the
    # path with ContractViolationError, also under the suite's
    # warnings-as-errors, where NumPy's overflow warning would be raised.
    model = TableModel([[0.0, rate], [rate, 0.0]], tau)
    with pytest.raises(ContractViolationError, match="finite and nondecreasing"):
        chains.block_clocks(model, kind, np.array([1, 2], dtype=np.uint64),
                            np.zeros((2, 1), dtype=np.int64), horizon)


def test_block_clocks_holds_a_walker_whose_holding_overflows():
    # At the walk rate 1e-320 a holding -log(u) / rate is past the float
    # range: it is inf, so the walker is held at its start to the horizon,
    # with no overflow warning.
    model = TableModel([[0.0, 1e-320], [1e-320, 0.0]], [1.0, 1.0])
    out = chains.block_clocks(model, CONT, np.array([1, 2], dtype=np.uint64),
                              np.zeros((2, 1), dtype=np.int64), 2.0)
    assert out.tolist() == [2.0, 2.0]


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
