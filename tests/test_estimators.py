"""Monte-Carlo estimators for block tails, mark occupation, mark counts,
return sums, trap scans and walk diagnostics.

Oracles, all computed independently of the estimator code paths:

* two-step block tails on the five-state cycle: the block variable over a
  window of two steps is E1*w(X1) + E2*w(X2) with iid Exp(1) marks, so its
  tail is an exact hypoexponential mixture over two-step paths;
* the alternating two-state model: detailed balance forces both variable-speed
  holding rates to equal the edge conductance, so the heavy state's occupation
  time is a Poisson(rate*T)-mixed Beta and the continuous block variable has a
  closed-form tail (checked against raw numpy simulation before freezing);
* simple-random-walk combinatorics: return probabilities from exact binomial /
  multinomial counts (cross-checked against characteristic-function
  integrals), expected range from the first-return recursion, heat kernels
  from products of modified Bessel functions (axis independence at uniform
  rates);
* trap scans: direct per-site recomputation plus a binomial band on a stride-3
  sublattice whose trap indicators are iid by construction.

Statistical bands were sized from pre-run deviations (largest observed
|dev| = 3.15 SE across all frozen seeds) and use 3.5-4 standard errors plus a
small absolute floor; exact assertions are reserved for genuinely
deterministic quantities.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from discrete_oracle import discrete_oracle
from trapclock import chains, estimators
from trapclock.chains import (ChainKind, LatticeModel, TableModel,
                              TrajectoryConfig, as_model, run_vsrw)
from trapclock.clock import ScaleSet, build_clock
from trapclock.env import EnvConfig, tau_array
from trapclock.errors import (ContractViolationError, DegenerateScaleError,
                              EventCapError)
from trapclock.estimators import (
    ConditionName,
    estimate_Q_u,
    estimate_m_eps,
    estimate_mark_conditions,
    estimate_nu_t,
    estimate_pi_t,
    estimate_sigma_t,
    exit_time_cdf,
    heat_kernel_mc,
    range_stat,
    return_sum,
    trap_set,
)
from trapclock.rng import ENV_FANOUT, TRAJ_FANOUT, hash_words

CONT = ChainKind.CONTINUOUS_J_VSRW
DISC = ChainKind.DISCRETE_J

# k_of(1) = floor(floor(a_n)/theta_n) = 10 for both: marks at steps 2k / 10k.
FIVE_SCALES = ScaleSet(100, 0.5, 1, 1.0, 20.0, 2.0, 0.5)
WALK_SCALES_D2 = ScaleSet(100, 0.5, 2, 1.0, 20.0, 2.0, 0.5)
RETURN_SCALES = {2: ScaleSet(100, 0.5, 2, 1.0, 100.0, 10.0, 0.5),
                 3: ScaleSet(100, 0.5, 3, 1.0, 100.0, 10.0, 0.5)}

SRW_D2 = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=901)
SRW_D3 = EnvConfig(d=3, alpha=0.5, theta=0.0, env_seed=902)


def _alternating_two_state():
    # tau = (1, 3), conductance 3 on the edge: chain rates (3, 1), and the
    # variable-speed holding rate is tau(x) * rowsum(x) = 3 in both states.
    return TableModel(np.array([[0.0, 3.0], [1.0, 0.0]]), np.array([1.0, 3.0]))


def _deterministic_alternator():
    # Two-state chain whose jump matrix is a perfect swap: discrete paths are
    # 0,1,0,1,... so every even-step functional is deterministic.
    return TableModel(np.array([[0.0, 2.0], [1.0, 0.0]]), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------


def hypoexp_tail(u, a, b):
    """P(E_a + E_b > u) for independent exponentials with means a != b."""
    if abs(a - b) <= 1e-12 * max(a, b):
        return (1.0 + u / a) * math.exp(-u / a)
    return (a * math.exp(-u / a) - b * math.exp(-u / b)) / (a - b)


def hypoexp_truncated_mean(eps, a, b):
    """E[(E_a + E_b) 1{E_a + E_b <= eps}] for means a != b."""
    if math.isinf(eps):
        return a + b

    def piece(c):
        return c * c - (c * eps + c * c) * math.exp(-eps / c)

    return (piece(a) - piece(b)) / (a - b)


def two_step_tail(P, w, x, u):
    """Exact tail of the two-step block variable from x under jump matrix P."""
    return sum(P[x, y] * P[y, z] * hypoexp_tail(u, w[y], w[z])
               for y in range(len(w)) for z in range(len(w))
               if P[x, y] > 0 and P[y, z] > 0)


def two_step_truncated_mean(P, w, x, eps):
    return sum(P[x, y] * P[y, z] * hypoexp_truncated_mean(eps, w[y], w[z])
               for y in range(len(w)) for z in range(len(w))
               if P[x, y] > 0 and P[y, z] > 0)


def poisson_beta_tail(u, rate=3.0, T=2.0, w_lo=1.0, w_hi=3.0, nmax=120):
    """Tail of the continuous two-state block W = w_lo*T + (w_hi-w_lo)*L1.

    With equal holding rates the jump times are Poisson(rate) and the state
    alternates, so given N = n jumps the n+1 spacings are exchangeable and the
    heavy state owns exactly floor((n+1)/2) of them: L1/T ~ Beta(k, n+1-k).
    P(Pois(6) > 120) ~ 1e-100, far below float noise.
    """
    x = (u - w_lo * T) / ((w_hi - w_lo) * T)
    if x < 0:
        return 1.0
    if x >= 1:
        return 0.0
    lam = rate * T
    total = 0.0
    for n in range(nmax + 1):
        pn = math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1))
        k = (n + 1) // 2
        sf = float(special.betainc(n + 1 - k, k, 1.0 - x)) if k else 0.0
        total += pn * sf
    return total


def srw_return_prob(d, two_m):
    """P(simple random walk on Z^d returns to its start after two_m steps)."""
    m = two_m // 2
    if d == 2:
        return math.comb(2 * m, m) ** 2 / 16 ** m
    total = 0
    fact_m = math.factorial(m)
    for j in range(m + 1):
        for k in range(m - j + 1):
            l = m - j - k
            total += (fact_m // (math.factorial(j) * math.factorial(k)
                                 * math.factorial(l))) ** 2
    return math.comb(2 * m, m) * total / 6 ** (2 * m)


def srw_expected_range_d2(m):
    """E[#distinct sites in m steps] via the first-return recursion:
    each step is fresh iff the reversed walk has not returned by then."""
    p = np.zeros(m + 1)
    p[0] = 1.0
    for j in range(2, m + 1, 2):
        p[j] = srw_return_prob(2, j)
    f = np.zeros(m + 1)
    for n in range(1, m + 1):
        f[n] = p[n] - sum(f[k] * p[n - k] for k in range(1, n))
    surv = 1.0 - np.cumsum(f)          # P(first return > j), j = 0..m
    return 1.0 + float(np.sum(surv[1:m + 1]))


# ---------------------------------------------------------------------------
# argument and mode guards
# ---------------------------------------------------------------------------


def test_argument_guards(five_state):
    model = five_state.model
    with pytest.raises(ContractViolationError):
        estimate_Q_u(model, FIVE_SCALES, 0, -1.0, 10, seed=1)
    with pytest.raises(ContractViolationError):
        estimate_Q_u(model, FIVE_SCALES, 0, 1.0, 0, seed=1)
    with pytest.raises(ContractViolationError):
        estimate_Q_u(model, FIVE_SCALES, 0, 1.0, 10)          # table needs seed
    with pytest.raises(ContractViolationError):
        estimate_Q_u(model, FIVE_SCALES, 0, 1.0, 10, mode="annealed", seed=1)
    with pytest.raises(ContractViolationError):
        estimate_Q_u(SRW_D2, WALK_SCALES_D2, (0, 0), 1.0, 10, mode="tempered")
    with pytest.raises(ContractViolationError):
        estimate_pi_t(model, FIVE_SCALES, 0.0, 10, seed=1)
    with pytest.raises(DegenerateScaleError):
        estimate_pi_t(model, FIVE_SCALES, 0.1, 10, seed=1)    # k_of = 1
    with pytest.raises(ContractViolationError):
        estimate_nu_t(model, FIVE_SCALES, 1.0, [0.5, -0.2], 10, seed=1)
    with pytest.raises(ContractViolationError):
        estimate_m_eps(model, FIVE_SCALES, 1.0, -0.5, 10, seed=1)
    with pytest.raises(DegenerateScaleError):
        return_sum(model, FIVE_SCALES, 0, 0.05, 10, seed=1)
    with pytest.raises(ContractViolationError):
        range_stat(model, -1, 10, seed=1)
    with pytest.raises(ContractViolationError):
        exit_time_cdf(SRW_D2, -1.0, 5, 10)
    with pytest.raises(ContractViolationError):
        exit_time_cdf(SRW_D2, 1.0, -1, 10)
    with pytest.raises(ContractViolationError):
        heat_kernel_mc(SRW_D3, (0, 0, 0), (0, 0, 0), -1.0, 10)


def test_trap_set_guards(five_state):
    scales = ScaleSet(100, 0.5, 2, 8.0, 200.0, 30.0, 0.5)
    with pytest.raises(ContractViolationError):
        trap_set(five_state.model, scales, 10)                # not a lattice
    with pytest.raises(ContractViolationError):
        trap_set(SRW_D2, scales, 0)
    with pytest.raises(ContractViolationError):
        trap_set(SRW_D3, ScaleSet(100, 0.5, 3, 8.0, 200.0, 30.0, 0.5), 80)


# ---------------------------------------------------------------------------
# block tails
# ---------------------------------------------------------------------------


def test_block_tail_five_state_two_step_oracle(five_state):
    P, w = five_state.transition, five_state.step_weight
    for x, u in ((0, 0.5), (0, 1.0), (0, 2.0), (3, 1.0)):
        est = estimate_Q_u(five_state.model, FIVE_SCALES, x, u, 3000,
                           kind=DISC, seed=101)
        want = two_step_tail(P, w, x, u)
        band = 3.5 * max(est.std_error,
                         math.sqrt(want * (1 - want) / 3000)) + 0.004
        assert abs(est.value - want) <= band, (x, u, est.value, want)


def test_block_tail_deterministic_bounds(five_state):
    # The block variable is a.s. positive and a.s. finite.
    low = estimate_Q_u(five_state.model, FIVE_SCALES, 0, 0.0, 200,
                       kind=DISC, seed=7)
    assert low.value == 1.0 and low.std_error == 0.0
    high = estimate_Q_u(five_state.model, FIVE_SCALES, 0, 1e9, 200,
                        kind=DISC, seed=7)
    assert high.value == 0.0 and high.std_error == 0.0


def test_block_tail_binomial_bookkeeping(five_state):
    est = estimate_Q_u(five_state.model, FIVE_SCALES, 0, 1.0, 500,
                       kind=DISC, seed=11)
    assert est.name is ConditionName.Q_U
    assert est.n_samples == 500
    hits = est.value * 500
    assert abs(hits - round(hits)) < 1e-9
    assert est.std_error == pytest.approx(
        math.sqrt(est.value * (1 - est.value) / 500), rel=1e-12)
    assert est.params["u"] == 1.0
    assert est.params["theta_n"] == 2.0
    assert est.params["mode"] == "quenched"
    assert est.params["kind"] == DISC.value


def test_block_tail_continuous_poisson_beta_mixture():
    model = _alternating_two_state()
    scales = ScaleSet(100, 0.5, 1, 1.0, 10.0, 2.0, 0.5)
    for u in (2.5, 3.0, 4.0, 5.0):
        est = estimate_Q_u(model, scales, 0, u, 4000, kind=CONT, seed=55)
        want = poisson_beta_tail(u)
        band = 4.0 * max(est.std_error,
                         math.sqrt(want * (1 - want) / 4000)) + 0.005
        assert abs(est.value - want) <= band, (u, est.value, want)
    # W = weights (1,3) integrated over a window of length 2: 2 <= W <= 6 a.s.
    assert estimate_Q_u(model, scales, 0, 1.5, 300, kind=CONT,
                        seed=55).value == 1.0
    assert estimate_Q_u(model, scales, 0, 6.5, 300, kind=CONT,
                        seed=55).value == 0.0


# ---------------------------------------------------------------------------
# mark occupation
# ---------------------------------------------------------------------------


def test_occupation_five_state_matches_power_sums(five_state):
    est = estimate_pi_t(five_state.model, FIVE_SCALES, 1.0, 4000, box=10.0,
                        kind=DISC, seed=202, start=0)
    assert est.k_count == 10
    assert est.n_samples == 4000
    assert est.box_radius == 10.0
    assert est.remainder == (0.0, 0.0)
    assert set(est.in_box) <= set(range(5))
    powers = [np.linalg.matrix_power(five_state.transition, 2 * k)
              for k in range(1, 10)]
    for x in range(5):
        want = sum(pk[0, x] for pk in powers) / 10.0
        got, se = est.in_box[x]
        assert abs(got - want) <= 3.5 * se + 0.003, (x, got, want)
    assert est.total_mass == pytest.approx(0.9, abs=1e-12)


def test_occupation_lattice_parity_and_mass():
    est = estimate_pi_t(SRW_D2, WALK_SCALES_D2, 1.0, 3000, box=1.0,
                        kind=DISC, seed=303)
    # Marks sit at even steps, so only even-parity sites are reachable.
    assert set(est.in_box) <= {(0, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    want0 = sum(srw_return_prob(2, 2 * k) for k in range(1, 10)) / 10.0
    got0, se0 = est.in_box[(0, 0)]
    assert abs(got0 - want0) <= 3.5 * se0 + 0.003
    assert 0.45 <= est.remainder[0] <= 0.75
    assert est.total_mass == pytest.approx(0.9, abs=1e-12)


def test_occupation_default_box_is_displacement_radius():
    est = estimate_pi_t(SRW_D2, WALK_SCALES_D2, 1.0, 50, kind=DISC, seed=303)
    assert est.box_radius == WALK_SCALES_D2.displacement_radius(1.0)


# ---------------------------------------------------------------------------
# mark counts: fresh-block tails, paired runs, truncated mass
# ---------------------------------------------------------------------------


def _mark_weighted(five_state, site_values):
    """sum over marks k=1..9 of sum_x P^{2k}(0, x) site_values[x]."""
    powers = [np.linalg.matrix_power(five_state.transition, 2 * k)
              for k in range(1, 10)]
    return sum(float(pk[0, :] @ site_values) for pk in powers)


def test_mark_block_tail_counts_match_mixture(five_state):
    P, w = five_state.transition, five_state.step_weight
    us = [0.5, 1.0, 2.0]
    ests = estimate_nu_t(five_state.model, FIVE_SCALES, 1.0, us, 2000,
                         kind=DISC, seed=404, start=0)
    for u, est in zip(us, ests):
        q = np.array([two_step_tail(P, w, x, u) for x in range(5)])
        want = _mark_weighted(five_state, q)
        assert est.name is ConditionName.NU_T
        assert abs(est.value - want) <= 3.5 * est.std_error + 0.01, (u,)
    values = [e.value for e in ests]
    assert values == sorted(values, reverse=True)  # shared runs: exact order
    assert all(0.0 <= v <= 9.0 for v in values)


def test_paired_mark_counts_match_squared_mixture(five_state):
    P, w = five_state.transition, five_state.step_weight
    us = [0.5, 1.0, 2.0]
    sig = estimate_sigma_t(five_state.model, FIVE_SCALES, 1.0, us, 2000,
                           kind=DISC, seed=404, start=0)
    nu = estimate_nu_t(five_state.model, FIVE_SCALES, 1.0, us, 2000,
                       kind=DISC, seed=404, start=0)
    for u, est in zip(us, sig):
        q2 = np.array([two_step_tail(P, w, x, u) ** 2 for x in range(5)])
        want = _mark_weighted(five_state, q2)
        assert est.name is ConditionName.SIGMA_T
        assert abs(est.value - want) <= 3.5 * est.std_error + 0.01, (u,)
    # With one seed the first replica is shared, so the paired count can
    # never exceed the single count.
    for s, n in zip(sig, nu):
        assert s.value <= n.value


def test_truncated_block_mass_matches_exact(five_state):
    P, w = five_state.transition, five_state.step_weight
    for eps in (0.8, math.inf):
        est = estimate_m_eps(five_state.model, FIVE_SCALES, 1.0, eps, 2000,
                             kind=DISC, seed=404, start=0)
        tm = np.array([two_step_truncated_mean(P, w, x, eps)
                       for x in range(5)])
        want = _mark_weighted(five_state, tm)
        assert est.name is ConditionName.M_EPS
        assert abs(est.value - want) <= 3.5 * est.std_error + 0.01, (eps,)
    # eps = 0 truncates everything (blocks are a.s. positive) ...
    zero = estimate_m_eps(five_state.model, FIVE_SCALES, 1.0, 0.0, 300,
                          kind=DISC, seed=404, start=0)
    assert zero.value == 0.0 and zero.std_error == 0.0
    # ... and with a shared seed the mass is pathwise monotone in eps.
    small = estimate_m_eps(five_state.model, FIVE_SCALES, 1.0, 0.8, 2000,
                           kind=DISC, seed=404, start=0)
    full = estimate_m_eps(five_state.model, FIVE_SCALES, 1.0, math.inf, 2000,
                          kind=DISC, seed=404, start=0)
    assert small.value <= full.value


def test_threshold_vector_shares_runs(five_state):
    seq = estimate_nu_t(five_state.model, FIVE_SCALES, 1.0, [0.5, 1.0, 2.0],
                        2000, kind=DISC, seed=404, start=0)
    single = estimate_nu_t(five_state.model, FIVE_SCALES, 1.0, 1.0, 2000,
                           kind=DISC, seed=404, start=0)
    assert isinstance(seq, list) and len(seq) == 3
    assert single.value == seq[1].value
    assert single.std_error == seq[1].std_error


def test_mark_conditions_pass_equals_separate_views(five_state):
    # One joint pass gives exactly the numbers of the single-condition calls,
    # each of which runs only the block runs its own condition needs.
    us, eps = [0.5, 1.0, 2.0], [0.3, math.inf]
    lattice = EnvConfig(d=2, alpha=0.5, theta=0.5, env_seed=31)
    cases = ((five_state.model, FIVE_SCALES, dict(mode="quenched", seed=404)),
             (lattice, WALK_SCALES_D2, dict(mode="annealed")))

    def facts(estimates):
        return [(e.name, e.value, e.std_error, e.n_samples, e.params)
                for e in estimates]

    for model, scales, mode_kw in cases:
        for workers in (1, 2):
            kw = dict(mode_kw, kind=DISC, workers=workers)
            joint = estimate_mark_conditions(model, scales, 1.0, us, 40,
                                             eps=eps, **kw)
            assert facts(joint[ConditionName.NU_T]) == facts(
                estimate_nu_t(model, scales, 1.0, us, 40, **kw))
            assert facts(joint[ConditionName.SIGMA_T]) == facts(
                estimate_sigma_t(model, scales, 1.0, us, 40, **kw))
            assert facts(joint[ConditionName.M_EPS]) == facts(
                [estimate_m_eps(model, scales, 1.0, e, 40, **kw) for e in eps])
            assert 0.0 < joint[ConditionName.M_EPS][0].value \
                < joint[ConditionName.M_EPS][1].value


# ---------------------------------------------------------------------------
# return sums
# ---------------------------------------------------------------------------


def test_return_series_deterministic_alternator():
    scales = ScaleSet(100, 0.5, 1, 1.0, 100.0, 10.0, 0.5)
    est = return_sum(_deterministic_alternator(), scales, 0, 1.0, 40,
                     kind=DISC, seed=5)
    # Marks at even steps of a period-2 path: every mark is a return.
    assert np.array_equal(est.series, np.arange(1.0, 10.0))
    assert est.value == 9.0
    assert est.std_error == 0.0


def test_return_series_planar_walk_matches_combinatorics():
    est = return_sum(SRW_D2, RETURN_SCALES[2], (0, 0), 1.0, 4000,
                     kind=DISC, seed=6)
    assert len(est.series) == 9
    per_k = np.diff(np.concatenate([[0.0], est.series]))
    want = np.array([srw_return_prob(2, 10 * k) for k in range(1, 10)])
    for k in range(9):
        se = math.sqrt(want[k] * (1 - want[k]) / 4000)
        assert abs(per_k[k] - want[k]) <= 4.0 * se + 0.002, (k + 1,)
    assert est.value == pytest.approx(est.series[-1], rel=1e-12)
    assert abs(est.series[-1] - want.sum()) <= 4.0 * est.std_error + 0.003


def test_return_series_transient_walk_stays_bounded():
    est = return_sum(SRW_D3, RETURN_SCALES[3], (0, 0, 0), 1.0, 4000,
                     kind=DISC, seed=7)
    per_k = np.diff(np.concatenate([[0.0], est.series]))
    want = np.array([srw_return_prob(3, 10 * k) for k in range(1, 10)])
    for k in range(9):
        se = math.sqrt(want[k] * (1 - want[k]) / 4000)
        assert abs(per_k[k] - want[k]) <= 4.0 * se + 0.002, (k + 1,)
    # Transience: the exact partial sums converge (full series < 0.05 here).
    assert want.sum() < 0.05
    assert 0.0 <= est.series[-1] <= 0.08
    assert np.all(np.diff(est.series) >= 0.0)


# ---------------------------------------------------------------------------
# trap scans
# ---------------------------------------------------------------------------


def test_trap_scan_equals_direct_recomputation():
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=77)
    scales = ScaleSet(100, 0.5, 2, 8.0, 200.0, 30.0, 0.5)
    assert scales.trap_tau_floor == 4.0
    assert scales.trap_neighbor_cap == 16.0
    sample = trap_set(env, scales, 60)
    assert sample.eps_n == 0.5
    assert sample.box_radius == 60.0

    r = 60
    axis = np.arange(-r, r + 1, dtype=np.int64)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([gx, gy], axis=-1).reshape(-1, 2)
    taus = tau_array(env, grid)
    max_nbr = np.full(len(grid), -np.inf)
    for a, s in ((0, 1), (0, -1), (1, 1), (1, -1)):
        shifted = grid.copy()
        shifted[:, a] += s
        max_nbr = np.maximum(max_nbr, tau_array(env, shifted))
    direct = {tuple(map(int, row))
              for row in grid[(taus > 4.0) & (max_nbr <= 16.0)]}
    assert set(sample.sites) == direct
    assert len(sample.sites) > 0
    assert all(max(abs(c) for c in site) <= r for site in sample.sites)


def test_trap_density_on_spaced_sublattice():
    # Sites at stride 3 have disjoint {site + neighbors} patches, so their
    # trap indicators are iid Bernoulli with
    # p = P(tau > 4) * P(tau <= 16)^4 = 4^(-1/2) * (1 - 16^(-1/2))^4.
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=77)
    scales = ScaleSet(100, 0.5, 2, 8.0, 200.0, 30.0, 0.5)
    sample = trap_set(env, scales, 60)
    count = sum(1 for (x, y) in sample.sites if x % 3 == 0 and y % 3 == 0)
    n_sub = 41 * 41
    p = 0.5 * 0.75 ** 4
    mean, sd = n_sub * p, math.sqrt(n_sub * p * (1 - p))
    assert abs(count - mean) <= 3.5 * sd, (count, mean, sd)


# ---------------------------------------------------------------------------
# walk diagnostics: heat kernel, range, exit times
# ---------------------------------------------------------------------------


def test_heat_kernel_matches_bessel_product():
    # theta = 0 gives unit rate per edge: the three axes are independent
    # rate-2 walks on Z, so q_t(0,y) factorizes into e^{-2t} I_{|y_i|}(2t).
    origin = heat_kernel_mc(SRW_D3, (0, 0, 0), (0, 0, 0), 1.0, 20000, seed=8)
    want0 = float(special.ive(0, 2.0) ** 3)
    assert abs(origin.value - want0) <= 3.5 * origin.std_error + 0.002
    assert origin.name is ConditionName.HEAT_KERNEL
    nbr = heat_kernel_mc(SRW_D3, (0, 0, 0), (1, 0, 0), 1.0, 12000, seed=9)
    want1 = float(special.ive(1, 2.0) * special.ive(0, 2.0) ** 2)
    assert abs(nbr.value - want1) <= 3.5 * nbr.std_error + 0.002
    # t = 0: no time to move.
    same = heat_kernel_mc(SRW_D3, (0, 0, 0), (0, 0, 0), 0.0, 50, seed=10)
    away = heat_kernel_mc(SRW_D3, (0, 0, 0), (1, 0, 0), 0.0, 50, seed=10)
    assert same.value == 1.0 and away.value == 0.0


def test_range_matches_first_return_recursion():
    est = range_stat(SRW_D2, 400, 600, seed=11)
    want = srw_expected_range_d2(400)
    assert abs(est.value - want) <= 3.5 * est.std_error + 0.3
    # second moment bookkeeping matches the returned mean and SE
    assert est.params["second_moment"] == pytest.approx(
        est.value ** 2 + est.std_error ** 2 * (600 - 1), rel=1e-10)


def test_range_exact_small_cases():
    cyc = range_stat(_deterministic_alternator(), 7, 30, seed=12)
    assert cyc.value == 2.0 and cyc.std_error == 0.0
    assert cyc.params["second_moment"] == 4.0
    still = range_stat(_deterministic_alternator(), 0, 10, seed=13)
    assert still.value == 1.0 and still.std_error == 0.0


def test_exit_probability_exact_small_cases():
    # One step always lands at Euclidean distance 1: strict comparison
    # against r^2 makes r = 0.5 certain and r = 1 impossible.
    sure = exit_time_cdf(SRW_D2, 0.5, 1, 400, seed=14)
    assert sure.value == 1.0
    never = exit_time_cdf(SRW_D2, 1.0, 1, 400, seed=14)
    assert never.value == 0.0
    # Two steps leave the unit ball unless the second step backtracks (1/4).
    two = exit_time_cdf(SRW_D2, 1.0, 2, 3000, seed=15)
    assert abs(two.value - 0.75) <= 3.5 * two.std_error + 0.003
    assert two.name is ConditionName.EXIT_TIME


def test_exit_probability_monotone_same_seed():
    # Same seed means same paths (step streams are prefix-stable), so the
    # exit indicator is pathwise monotone in both r and m.
    by_r = [exit_time_cdf(SRW_D2, r, 40, 800, seed=16).value
            for r in (2.0, 5.0, 9.0)]
    assert by_r[0] >= by_r[1] >= by_r[2]
    short = exit_time_cdf(SRW_D2, 3.0, 10, 800, seed=17)
    long = exit_time_cdf(SRW_D2, 3.0, 40, 800, seed=17)
    assert short.value <= long.value


# ---------------------------------------------------------------------------
# determinism, worker fan-out, modes
# ---------------------------------------------------------------------------


def test_worker_fanout_invariance(five_state):
    one = estimate_Q_u(five_state.model, FIVE_SCALES, 0, 1.0, 200,
                       kind=DISC, seed=101)
    two = estimate_Q_u(five_state.model, FIVE_SCALES, 0, 1.0, 200,
                       kind=DISC, seed=101, workers=2)
    assert one.value == two.value and one.std_error == two.std_error
    pi_one = estimate_pi_t(SRW_D2, WALK_SCALES_D2, 1.0, 100, box=2.0,
                           kind=DISC, seed=1)
    pi_two = estimate_pi_t(SRW_D2, WALK_SCALES_D2, 1.0, 100, box=2.0,
                           kind=DISC, seed=1, workers=2)
    assert pi_one.in_box == pi_two.in_box
    assert pi_one.remainder == pi_two.remainder


def test_seed_and_mode_determinism(five_state):
    a = estimate_Q_u(five_state.model, FIVE_SCALES, 0, 1.0, 300,
                     kind=DISC, seed=101)
    b = estimate_Q_u(five_state.model, FIVE_SCALES, 0, 1.0, 300,
                     kind=DISC, seed=101)
    assert a.value == b.value
    # Annealed mode redraws the landscape per trajectory but is still a pure
    # function of the seed; with these seeds it differs from quenched.
    ann1 = estimate_Q_u(SRW_D2, WALK_SCALES_D2, (0, 0), 0.5, 150,
                        kind=DISC, mode="annealed", seed=9)
    ann2 = estimate_Q_u(SRW_D2, WALK_SCALES_D2, (0, 0), 0.5, 150,
                        kind=DISC, mode="annealed", seed=9)
    quen = estimate_Q_u(SRW_D2, WALK_SCALES_D2, (0, 0), 0.5, 150,
                        kind=DISC, seed=9)
    assert ann1.value == ann2.value
    assert ann1.params["mode"] == "annealed"
    assert ann1.value != quen.value


# ---------------------------------------------------------------------------
# batched block and mark runs against one engine run per block
# ---------------------------------------------------------------------------
#
# The reference runs each block and each mark run on its own: the scalar
# discrete oracle (tests/discrete_oracle.py) or run_vsrw, then build_clock,
# then value_at.  chains.block_clocks and
# chains.sites_at must give the same floats and the same sites, bit for bit,
# whether discrete walkers step in one group or in groups of one or two.

KERNEL_ENVS = {(d, theta): EnvConfig(d=d, alpha=0.5 if theta == 0 else 0.7,
                                     theta=theta, env_seed=7_700_000 + d)
               for d in (2, 3) for theta in (0.0, 0.5)}
# theta_n = 2 (integer) on d = 2 and 2.5 (non-integer) on d = 3: K = 10 / 8
KERNEL_SCALES = {2: ScaleSet(100, 0.5, 2, 1.0, 20.0, 2.0, 0.5),
                 3: ScaleSet(100, 0.5, 3, 1.0, 20.0, 2.5, 0.5)}
FIVE_SCALES_FRAC = ScaleSet(100, 0.5, 1, 1.0, 20.0, 2.5, 0.5)


def _ref_run(model, kind, seed, start, horizon):
    """One trajectory: the scalar discrete oracle, or run_vsrw."""
    if kind is DISC:
        return discrete_oracle(model, seed, start, horizon)[1]
    tcfg = TrajectoryConfig(seed, kind, start=start, horizon=horizon)
    return run_vsrw(model, tcfg, want_ledger=False)[1]


def _ref_block(model, scales, kind, start, seed):
    path = build_clock(model, _ref_run(model, kind, seed, start, scales.theta_n))
    return (path.value_at(scales.theta_n) - path.value_at(0.0)) / scales.c_n


def _ref_marks(model, scales, kind, start, seed, K):
    if kind is DISC:
        steps = np.floor(scales.theta_n * np.arange(1, K)).astype(np.int64)
        return _ref_run(model, kind, seed, start, float(steps[-1])).sites[steps]
    jumps = _ref_run(model, kind, seed, start, scales.theta_n * (K - 1))
    return jumps.sites[jumps.site_indices_at(
        scales.theta_n * np.arange(1, K, dtype=np.float64))]


def _site(model, row):
    if isinstance(model, TableModel):
        return int(row[0])
    return tuple(int(c) for c in row)


def _kernel_cases(five):
    cases = [(f"d{d}-theta{theta}-{kind.value}-{mode}", env,
              KERNEL_SCALES[d], kind, mode)
             for (d, theta), env in KERNEL_ENVS.items()
             for kind in (DISC, CONT) for mode in ("quenched", "annealed")]
    cases += [(f"five-{kind.value}-theta_n{sc.theta_n}", five, sc, kind,
               "quenched")
              for kind in (DISC, CONT) for sc in (FIVE_SCALES, FIVE_SCALES_FRAC)]
    # long runs, whose time and clock the theta = 0 kernel carries from one
    # block of events to the next (mark runs of ~8000 events, blocks of
    # ~2800)
    cases += [("d2-theta0-long-marks", KERNEL_ENVS[2, 0.0],
               ScaleSet(100, 0.5, 2, 1.0, 2000.0, 2.0, 0.5), CONT, "annealed"),
              ("d2-theta0-long-blocks", KERNEL_ENVS[2, 0.0],
               ScaleSet(100, 0.5, 2, 1.0, 2000.0, 700.0, 0.5), CONT, "quenched")]
    return cases


@pytest.mark.parametrize("group_steps", [chains._GROUP_STEPS, 40],
                         ids=["one-group", "small-groups"])
def test_kernel_blocks_and_marks_equal_one_run_each(five_state, monkeypatch,
                                                    group_steps):
    # 40 walker-steps hold one or two discrete walkers: groups must not mix
    # up the walkers' seeds, starts or environments.
    monkeypatch.setattr(chains, "_GROUP_STEPS", group_steps)
    n_walkers = 12
    seeds = [hash_words(4321, TRAJ_FANOUT, i) for i in range(n_walkers)]
    for name, env_or_model, scales, kind, mode in _kernel_cases(five_state.model):
        model = as_model(env_or_model)
        env_seeds = None
        models = [model] * n_walkers
        if mode == "annealed":
            env_seeds = [hash_words(55, ENV_FANOUT, i) for i in range(n_walkers)]
            models = [LatticeModel(replace(model.cfg, env_seed=s))
                      for s in env_seeds]
            env_seeds = np.array(env_seeds, dtype=np.uint64)
        starts = np.tile(np.atleast_1d(model.start_default), (n_walkers, 1))
        starts[:, 0] += np.arange(n_walkers) % (2 if model is five_state.model
                                                else 5)
        seed_arr = np.array(seeds, dtype=np.uint64)
        K = scales.k_of(1.0)

        z = chains.block_clocks(model, kind, seed_arr, starts, scales.theta_n,
                                env_seeds) / scales.c_n
        want = [_ref_block(m, scales, kind, _site(model, x), s)
                for m, x, s in zip(models, starts, seeds)]
        assert z.tolist() == want, name

        rows = chains.sites_at(model, kind, seed_arr, starts,
                               scales.theta_n * np.arange(1, K, dtype=np.float64),
                               env_seeds)
        for m, x, s, got in zip(models, starts, seeds, rows):
            ref = _ref_marks(m, scales, kind, _site(model, x), s, K)
            assert np.array_equal(got, ref), name


def _ref_trajectories(env_or_model, mode, seed, n_traj):
    """(model, trajectory seed) per trajectory, by the estimators' fan-out."""
    base = env_or_model.env_seed if seed is None else seed
    for i in range(n_traj):
        if mode == "quenched":
            yield as_model(env_or_model), hash_words(base, TRAJ_FANOUT, i)
        else:
            env_seed = hash_words(base, ENV_FANOUT, i)
            yield (LatticeModel(replace(env_or_model, env_seed=env_seed)),
                   hash_words(env_seed, TRAJ_FANOUT, 0))


def _ref_mark_conditions(env_or_model, scales, t, us, eps, n_traj, kind,
                         mode, seed):
    """Per trajectory: mark run, then per mark k the block runs of sub-seeds
    (k, 0) and (k, 1); nu and m_eps read replica 0, sigma needs both."""
    us, eps = np.asarray(us), np.asarray(eps)
    K = scales.k_of(t)
    sums = {}
    for model, traj_seed in _ref_trajectories(env_or_model, mode, seed,
                                              n_traj):
        rows = _ref_marks(model, scales, kind, model.start_default, traj_seed, K)
        nu, sig, m = np.zeros(len(us)), np.zeros(len(us)), np.zeros(len(eps))
        for k in range(1, K):
            site = _site(model, rows[k - 1])
            z = _ref_block(model, scales, kind, site,
                           hash_words(traj_seed, TRAJ_FANOUT, k, 0))
            z2 = _ref_block(model, scales, kind, site,
                            hash_words(traj_seed, TRAJ_FANOUT, k, 1))
            nu += z > us
            sig += (z > us) & (z2 > us)
            m += np.where(z <= eps, z, 0.0)
        assert np.all(sig <= nu)
        for key, v in (("nu", nu), ("sigma", sig), ("m", m)):
            if key in sums:
                sums[key][0] += v
                sums[key][1] += v * v
            else:
                sums[key] = [v, v * v]
    out = {}
    for key, (s, sq) in sums.items():
        mean = s / n_traj
        var = np.maximum((sq - n_traj * mean * mean) / (n_traj - 1), 0.0)
        out[key] = [(float(a), math.sqrt(float(b) / n_traj))
                    for a, b in zip(mean, var)]
    return out


@pytest.mark.parametrize("workers", [1, 2])
def test_mark_conditions_equal_per_block_reference(five_state, workers):
    # n_traj <= 32 puts one trajectory in each chunk, so the reference's plain
    # trajectory-order sums are the estimator's chunk-order sums.  Equal sigma
    # values show that sigma's replica 0 is nu's block run, mark for mark.
    us, eps, n_traj = [0.1, 0.5, 1.0, 2.0], [0.05, 0.3, math.inf], 5
    cases = [(KERNEL_ENVS[2, 0.0], KERNEL_SCALES[2], DISC, "annealed", None),
             (KERNEL_ENVS[3, 0.5], KERNEL_SCALES[3], CONT, "quenched", None),
             (KERNEL_ENVS[2, 0.5], KERNEL_SCALES[2], DISC, "quenched", 17),
             (KERNEL_ENVS[3, 0.0], KERNEL_SCALES[3], CONT, "annealed", 18),
             (five_state.model, FIVE_SCALES_FRAC, DISC, "quenched", 404),
             (five_state.model, FIVE_SCALES, CONT, "quenched", 405)]
    for env_or_model, scales, kind, mode, seed in cases:
        got = estimate_mark_conditions(env_or_model, scales, 1.0, us, n_traj,
                                       eps=eps, kind=kind, mode=mode,
                                       seed=seed, workers=workers)
        want = _ref_mark_conditions(env_or_model, scales, 1.0, us, eps,
                                    n_traj, kind, mode, seed)
        for name, key in ((ConditionName.NU_T, "nu"),
                          (ConditionName.SIGMA_T, "sigma"),
                          (ConditionName.M_EPS, "m")):
            assert [(e.value, e.std_error) for e in got[name]] == want[key], \
                (kind, mode, key)


def test_block_runs_obey_the_default_event_cap(monkeypatch):
    # Blocks of theta_n = 2 take about 8 events.  The general engine's
    # (theta > 0, tables) stop at a default cap of 3 with EventCapError; the
    # theta = 0 walk and the discrete chain, bounded by the horizon, have no
    # default cap and give the same estimates as without one.
    free = [estimate_Q_u(SRW_D2, WALK_SCALES_D2, (0, 0), 1.0, 20, kind=k,
                         seed=3).value for k in (CONT, DISC)]
    monkeypatch.setattr(chains, "DEFAULT_MAX_EVENTS", 3)
    for env_or_model, x in ((_alternating_two_state(), 0),
                            (KERNEL_ENVS[2, 0.5], (0, 0))):
        with pytest.raises(EventCapError):
            estimate_Q_u(env_or_model, WALK_SCALES_D2, x, 1.0, 20, kind=CONT,
                         seed=3)
    assert [estimate_Q_u(SRW_D2, WALK_SCALES_D2, (0, 0), 1.0, 20, kind=k,
                         seed=3).value for k in (CONT, DISC)] == free


def test_small_batches_give_the_same_estimates(monkeypatch):
    # With at most 10 batched runs per call, every trajectory of a chunk
    # goes to the kernel alone: the estimates must not change by a bit.
    def run():
        out = estimate_mark_conditions(KERNEL_ENVS[2, 0.5], KERNEL_SCALES[2],
                                       1.0, [0.1, 1.0], 70, eps=[0.3],
                                       kind=DISC, mode="annealed", seed=8)
        pi = estimate_pi_t(SRW_D2, WALK_SCALES_D2, 1.0, 70, kind=CONT, seed=8)
        return ([(e.value, e.std_error) for v in out.values() for e in v],
                pi.in_box, pi.remainder)

    whole = run()
    monkeypatch.setattr(estimators, "_BATCH_ROWS", 10)
    assert run() == whole


# ---------------------------------------------------------------------------
# walk diagnostics against one reference run per trajectory
# ---------------------------------------------------------------------------


def _ref_mean_se(values):
    n = len(values)
    s = sum(values)
    mean = s / n
    var = max((sum(v * v for v in values) - n * mean * mean) / (n - 1), 0.0)
    return mean, math.sqrt(var / n)


def _ref_binomial(values):
    p = sum(values) / len(values)
    return p, math.sqrt(p * (1.0 - p) / len(values))


@pytest.mark.parametrize("workers", [1, 2])
def test_walk_diagnostics_equal_per_trajectory_reference(five_state, workers):
    # 40 trajectories put one or two in each of the 32 chunks; every value
    # is a small integer, so its sums are exact in any order.
    n_traj, m, r, t = 40, 30, 4.5, 0.5
    cases = [(KERNEL_ENVS[2, theta], mode, 5, (0, 0), (0, 0))
             for theta in (0.0, 0.5) for mode in ("quenched", "annealed")]
    cases += [(KERNEL_ENVS[3, 0.5], "annealed", None, (0, 0, 0), (1, 0, 0)),
              (five_state.model, "quenched", 3, 0, 1)]
    for env_or_model, mode, seed, x, y in cases:
        ranges, exits, heats = [], [], []
        for model, traj_seed in _ref_trajectories(env_or_model, mode, seed,
                                                  n_traj):
            path = discrete_oracle(model, traj_seed, model.start_default,
                                   m)[1].sites
            ranges.append(float(len(np.unique(path, axis=0))))
            disp = (path[1:] - path[0]).astype(np.float64)
            exits.append(float(np.any((disp ** 2).sum(axis=1) > r * r)))
            jumps = run_vsrw(model, TrajectoryConfig(
                traj_seed, CONT, start=model.as_site(x), horizon=t),
                want_ledger=False)[1]
            heats.append(float(_site(model, jumps.sites[-1])
                               == model.as_site(y)))
        kw = dict(mode=mode, seed=seed, workers=workers)
        got = range_stat(env_or_model, m, n_traj, **kw)
        assert (got.value, got.std_error) == _ref_mean_se(ranges)
        got = exit_time_cdf(env_or_model, r, m, n_traj, **kw)
        assert (got.value, got.std_error) == _ref_binomial(exits)
        got = heat_kernel_mc(env_or_model, x, y, t, n_traj, **kw)
        assert (got.value, got.std_error) == _ref_binomial(heats)
