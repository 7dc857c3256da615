"""Monte-Carlo estimators for mark occupation, mark counts, return sums and
walk diagnostics, with the block tails and trap scans they rest on.

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
from trapclock import aging, chains, estimators, limits
from trapclock.aging import aging_grid, estimate_Ceps_fk
from trapclock.chains import (ChainKind, LatticeModel, TableModel,
                              TrajectoryConfig, as_model, run_discrete,
                              run_vsrw)
from trapclock.clock import ScaleSet, build_clock, trap_mask
from trapclock.env import EnvConfig, tau_array
from trapclock.errors import (ContractViolationError, DegenerateScaleError,
                              EventCapError)
from trapclock.estimators import (
    ConditionEstimate,
    ConditionName,
    PiEstimate,
    estimate_mark_conditions,
    estimate_nu_t,
    estimate_pi_t,
    heat_kernel_mc,
    range_stat,
    return_sum,
)
from trapclock.limits import (fk_msd, passage_values, sample_stable_marginal,
                              subordinator_values)
from trapclock.parallel import index_chunks, run_tasks
from trapclock.rng import ENV_FANOUT, TRAJ_FANOUT, hash_rows, hash_words

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
        estimate_mark_conditions(model, FIVE_SCALES, 1.0, -1.0, 10, seed=1)
    with pytest.raises(ContractViolationError):
        return_sum(model, FIVE_SCALES, 0, 1.0, 0, seed=1)
    with pytest.raises(ContractViolationError):
        return_sum(model, FIVE_SCALES, 0, 1.0, 10)            # table needs seed
    with pytest.raises(ContractViolationError):
        return_sum(model, FIVE_SCALES, 0, 1.0, 10, mode="annealed", seed=1)
    with pytest.raises(ContractViolationError):
        return_sum(SRW_D2, WALK_SCALES_D2, (0, 0), 1.0, 10, mode="tempered")
    with pytest.raises(ContractViolationError):
        estimate_pi_t(model, FIVE_SCALES, 0.0, 10, seed=1)
    with pytest.raises(DegenerateScaleError):
        estimate_pi_t(model, FIVE_SCALES, 0.1, 10, seed=1)    # k_of = 1
    with pytest.raises(ContractViolationError):
        estimate_nu_t(model, FIVE_SCALES, 1.0, [0.5, -0.2], 10, seed=1)
    with pytest.raises(ContractViolationError):
        estimate_mark_conditions(model, FIVE_SCALES, 1.0, (), 10, eps=(-0.5,), seed=1)
    with pytest.raises(DegenerateScaleError):
        return_sum(model, FIVE_SCALES, 0, 0.05, 10, seed=1)
    for m in (-1, 2.5, 0.5):
        with pytest.raises(ContractViolationError):
            range_stat(model, m, 10, seed=1)
    with pytest.raises(ContractViolationError):
        heat_kernel_mc(SRW_D3, (0, 0, 0), (0, 0, 0), -1.0, 10)
    with pytest.raises(ContractViolationError):
        index_chunks(0)


def test_condition_estimate_refuses_bad_provenance():
    ConditionEstimate(ConditionName.NU_T, 0.5, 0.0, 1)
    with pytest.raises(ContractViolationError):
        ConditionEstimate(ConditionName.NU_T, 0.5, -1e-9, 10)
    with pytest.raises(ContractViolationError):
        ConditionEstimate(ConditionName.NU_T, 0.5, 0.1, 0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: estimate_mark_conditions(SRW_D2, WALK_SCALES_D2, 1.0, NAN, 10),
    lambda: estimate_mark_conditions(SRW_D2, WALK_SCALES_D2, NAN, 1.0, 10),
    lambda: estimate_mark_conditions(SRW_D2, WALK_SCALES_D2, 1.0, (), 10,
                                     eps=(NAN,)),
    lambda: estimate_nu_t(SRW_D2, WALK_SCALES_D2, 1.0, NAN, 10),
    lambda: estimate_nu_t(SRW_D2, WALK_SCALES_D2, INF, 1.0, 10),
    lambda: heat_kernel_mc(SRW_D2, (0, 0), (0, 0), NAN, 10),
    lambda: heat_kernel_mc(SRW_D2, (0, 0), (0, 0), INF, 10),
    lambda: range_stat(SRW_D2, NAN, 10),
    lambda: range_stat(SRW_D2, INF, 10),
    lambda: estimate_pi_t(SRW_D2, WALK_SCALES_D2, 1.0, 10, box=NAN),
    lambda: estimate_pi_t(SRW_D2, WALK_SCALES_D2, NAN, 10),
    lambda: estimate_pi_t(SRW_D2, WALK_SCALES_D2, INF, 10),
    lambda: return_sum(SRW_D2, WALK_SCALES_D2, (0, 0), NAN, 10),
    lambda: return_sum(SRW_D2, WALK_SCALES_D2, (0, 0), INF, 10),
    lambda: estimate_Ceps_fk(0.5, 2, 1.0, NAN, n_samples=10),
    lambda: estimate_Ceps_fk(0.5, 2, 1.0, [0.5, NAN], n_samples=10),
], ids=["marks-u-nan", "marks-t-nan", "marks-eps-nan", "nu-u-nan",
        "nu-t-inf", "heat-t-nan", "heat-t-inf", "range-m-nan",
        "range-m-inf", "pi-box-nan", "pi-t-nan", "pi-t-inf", "return-t-nan",
        "return-t-inf", "Ceps_fk-eps-nan", "Ceps_fk-eps-list-nan"])
def test_non_finite_arguments_refused_before_any_run(call, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a run started before the arguments were checked")

    monkeypatch.setattr(estimators, "sites_at", unreachable)
    monkeypatch.setattr(estimators, "block_clocks", unreachable)
    with pytest.raises(ContractViolationError):
        call()


def _unreachable(*args, **kwargs):
    raise AssertionError("a run or draw started before the arguments were checked")


class _NoDraws:
    """A random generator that fails on the first draw."""

    def __getattr__(self, name):
        _unreachable()


@pytest.mark.parametrize("name, call", [
    pytest.param("max_events",
                 lambda: run_vsrw(SRW_D2, TrajectoryConfig(1, CONT), max_events=INF),
                 id="vsrw-cap-inf"),
    pytest.param("max_events",
                 lambda: run_vsrw(SRW_D2, TrajectoryConfig(1, CONT), max_events=NAN),
                 id="vsrw-cap-nan"),
    pytest.param("max_events",
                 lambda: run_vsrw(SRW_D2, TrajectoryConfig(1, CONT), max_events=2.5),
                 id="vsrw-cap-2.5"),
    pytest.param("max_events",
                 lambda: run_discrete(SRW_D2, TrajectoryConfig(1, DISC, horizon=5),
                                      max_events=NAN),
                 id="discrete-cap-nan"),
    pytest.param("traj_seed", lambda: TrajectoryConfig(1.5, CONT), id="traj-seed-1.5"),
    pytest.param("max_events",
                 lambda: aging_grid(SRW_D2, [(100.0, 1.0)], n_env=2, n_traj=2,
                                    max_events=2.5),
                 id="aging-cap-2.5"),
    pytest.param("n_traj",
                 lambda: aging_grid(SRW_D2, [(100.0, 1.0)], n_env=2, n_traj=2.5),
                 id="aging-n_traj-2.5"),
    pytest.param("n_traj",
                 lambda: aging_grid(SRW_D2, [(100.0, 1.0)], n_env=2, n_traj=NAN),
                 id="aging-n_traj-nan"),
    pytest.param("n_env",
                 lambda: aging_grid(SRW_D2, [(100.0, 1.0)], n_env=2.0, n_traj=2),
                 id="aging-n_env-2.0"),
    pytest.param("seed",
                 lambda: estimate_nu_t(SRW_D2, WALK_SCALES_D2, 1.0, 1.0, 10, seed=1.5),
                 id="nu-seed-1.5"),
    pytest.param("n_traj",
                 lambda: estimate_nu_t(SRW_D2, WALK_SCALES_D2, 1.0, 1.0, 2.5),
                 id="nu-n_traj-2.5"),
    pytest.param("n_traj",
                 lambda: estimate_nu_t(SRW_D2, WALK_SCALES_D2, 1.0, 1.0, NAN),
                 id="nu-n_traj-nan"),
    pytest.param("workers",
                 lambda: estimate_nu_t(SRW_D2, WALK_SCALES_D2, 1.0, 1.0, 10, workers=0),
                 id="nu-workers-0"),
    pytest.param("workers",
                 lambda: estimate_nu_t(SRW_D2, WALK_SCALES_D2, 1.0, 1.0, 10, workers=-3),
                 id="nu-workers-neg"),
    pytest.param("m", lambda: range_stat(SRW_D2, 5.0, 10), id="range-m-5.0"),
    pytest.param("env_seed",
                 lambda: EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=1.5),
                 id="env-seed-1.5"),
    pytest.param("d",
                 lambda: EnvConfig(d=2.0, alpha=0.5, theta=0.0, env_seed=1),
                 id="env-d-2.0"),
    pytest.param("d", lambda: ScaleSet.for_lattice(1000, 2.5, 0.5), id="scales-d-2.5"),
    pytest.param("n", lambda: ScaleSet.for_lattice(1000.5, 2, 0.5), id="scales-n-1000.5"),
    pytest.param("d", lambda: fk_msd(0.5, 1.5, [1.0], 40), id="fk_msd-d-1.5"),
    pytest.param("n_samples",
                 lambda: fk_msd(0.5, 2, [1.0], 40.0),
                 id="fk_msd-n_samples-40.0"),
    pytest.param("seed", lambda: fk_msd(0.5, 2, [1.0], 40, seed=1.5), id="fk_msd-seed-1.5"),
    pytest.param("d",
                 lambda: estimate_Ceps_fk(0.5, 2.0, 1.0, 0.5, n_samples=10),
                 id="Ceps_fk-d-2.0"),
    pytest.param("n_samples",
                 lambda: estimate_Ceps_fk(0.5, 2, 1.0, 0.5, n_samples=2.5),
                 id="Ceps_fk-n_samples-2.5"),
    pytest.param("seed",
                 lambda: estimate_Ceps_fk(0.5, 2, 1.0, 0.5, n_samples=10, seed=-1),
                 id="Ceps_fk-seed-neg"),
    pytest.param("n_paths",
                 lambda: passage_values(0.5, 1.0, 2.5, _NoDraws()),
                 id="passage-n_paths-2.5"),
    pytest.param("n_paths",
                 lambda: subordinator_values(0.5, [1.0], 2.5, _NoDraws()),
                 id="subordinator-n_paths-2.5"),
    pytest.param("n",
                 lambda: sample_stable_marginal(0.5, 10.0, _NoDraws()),
                 id="stable-n-10.0"),
    pytest.param("n_total", lambda: index_chunks(2.5), id="index_chunks-2.5"),
    pytest.param("workers",
                 lambda: run_tasks(_unreachable, [1, 2], 0),
                 id="run_tasks-workers-0"),
    pytest.param("workers",
                 lambda: run_tasks(_unreachable, [1, 2], True),
                 id="run_tasks-workers-bool"),
])
def test_non_integer_arguments_refused_before_any_run(name, call, monkeypatch):
    # Every integer argument is an integer in its range, every refusal names
    # the argument, and it comes before the first walk or draw.
    for module, attr in ((estimators, "sites_at"), (estimators, "block_clocks"),
                         (chains, "_continuous_blocks"), (chains, "_discrete_sites"),
                         (chains, "_walk"), (aging, "_window_rows"),
                         (aging, "_inverse_stretches"), (limits, "run_tasks")):
        monkeypatch.setattr(module, attr, _unreachable)
    with pytest.raises(ContractViolationError, match=rf"^(need )?{name} "):
        call()


@pytest.mark.parametrize("bad", [NAN, INF, -1.0])
@pytest.mark.parametrize("kind", [DISC, CONT])
def test_batched_runs_refuse_bad_times(kind, bad):
    seeds = np.array([1, 2], dtype=np.uint64)
    starts = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ContractViolationError):
        chains.sites_at(SRW_D2, kind, seeds, starts, np.array([1.0, bad]))
    with pytest.raises(ContractViolationError):
        chains.block_clocks(SRW_D2, kind, seeds, starts, bad)
    with pytest.raises(ContractViolationError):
        chains.sites_at(SRW_D2, kind, seeds, starts, np.array([2.0, 1.0]))


# ---------------------------------------------------------------------------
# block tails
# ---------------------------------------------------------------------------


def _block_values(model, scales, x, n, kind, seed):
    """Z_1, the clock increment over one window theta_n over c_n, of n
    walkers started at x, with the trajectory seeds the estimators give
    trajectories 0..n-1 in quenched mode."""
    seeds = hash_rows(np.full(n, seed, dtype=np.uint64), TRAJ_FANOUT,
                      np.arange(n, dtype=np.uint64))
    starts = np.full((n, 1), model.as_site(x), dtype=np.int64)
    return chains.block_clocks(model, kind, seeds, starts,
                               scales.theta_n) / scales.c_n


def _tail(z, u):
    """The fraction of block values above u, with its binomial SE."""
    p = float(np.mean(z > u))
    return p, math.sqrt(p * (1.0 - p) / len(z))


def test_block_tail_five_state_two_step_oracle(five_state):
    P, w = five_state.transition, five_state.step_weight
    for x, u in ((0, 0.5), (0, 1.0), (0, 2.0), (3, 1.0)):
        got, se = _tail(_block_values(five_state.model, FIVE_SCALES, x, 3000,
                                      DISC, 101), u)
        want = two_step_tail(P, w, x, u)
        band = 3.5 * max(se, math.sqrt(want * (1 - want) / 3000)) + 0.004
        assert abs(got - want) <= band, (x, u, got, want)


def test_block_tail_deterministic_bounds(five_state):
    # The block variable is a.s. positive and a.s. finite.
    z = _block_values(five_state.model, FIVE_SCALES, 0, 200, DISC, 7)
    assert _tail(z, 0.0) == (1.0, 0.0)
    assert _tail(z, 1e9) == (0.0, 0.0)


def test_binomial_bookkeeping():
    est = heat_kernel_mc(SRW_D2, (0, 0), (0, 0), 0.5, 500, seed=11)
    assert est.name is ConditionName.HEAT_KERNEL
    assert est.n_samples == 500
    hits = est.value * 500
    assert abs(hits - round(hits)) < 1e-9
    assert est.std_error == pytest.approx(
        math.sqrt(est.value * (1 - est.value) / 500), rel=1e-12)
    assert est.params["t"] == 0.5
    assert est.params["mode"] == "quenched"
    assert est.params["kind"] == CONT.value


def test_block_tail_continuous_poisson_beta_mixture():
    model = _alternating_two_state()
    scales = ScaleSet(100, 0.5, 1, 1.0, 10.0, 2.0, 0.5)
    z = _block_values(model, scales, 0, 4000, CONT, 55)
    for u in (2.5, 3.0, 4.0, 5.0):
        got, se = _tail(z, u)
        want = poisson_beta_tail(u)
        band = 4.0 * max(se, math.sqrt(want * (1 - want) / 4000)) + 0.005
        assert abs(got - want) <= band, (u, got, want)
    # W = weights (1,3) integrated over a window of length 2: 2 <= W <= 6 a.s.
    assert _tail(z[:300], 1.5)[0] == 1.0
    assert _tail(z[:300], 6.5)[0] == 0.0


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
    marks = estimate_mark_conditions(five_state.model, FIVE_SCALES, 1.0, us,
                                     2000, kind=DISC, seed=404, start=0)
    sig, nu = marks[ConditionName.SIGMA_T], marks[ConditionName.NU_T]
    for u, est in zip(us, sig):
        q2 = np.array([two_step_tail(P, w, x, u) ** 2 for x in range(5)])
        want = _mark_weighted(five_state, q2)
        assert est.name is ConditionName.SIGMA_T
        assert abs(est.value - want) <= 3.5 * est.std_error + 0.01, (u,)
    # With one seed the first replica is shared, so the paired count can
    # never exceed the single count.
    for s, n in zip(sig, nu):
        assert s.value <= n.value


def _m_eps(model, scales, eps, n_traj, **kw):
    """m_t(eps) at t = 1 alone: a mark pass with no thresholds and no sigma."""
    return estimate_mark_conditions(model, scales, 1.0, (), n_traj, eps=(eps,),
                                    sigma=False, **kw)[ConditionName.M_EPS][0]


def test_truncated_block_mass_matches_exact(five_state):
    P, w = five_state.transition, five_state.step_weight
    kw = dict(kind=DISC, seed=404, start=0)
    for eps in (0.8, math.inf):
        est = _m_eps(five_state.model, FIVE_SCALES, eps, 2000, **kw)
        tm = np.array([two_step_truncated_mean(P, w, x, eps)
                       for x in range(5)])
        want = _mark_weighted(five_state, tm)
        assert est.name is ConditionName.M_EPS
        assert abs(est.value - want) <= 3.5 * est.std_error + 0.01, (eps,)
    # eps = 0 truncates everything (blocks are a.s. positive) ...
    zero = _m_eps(five_state.model, FIVE_SCALES, 0.0, 300, **kw)
    assert zero.value == 0.0 and zero.std_error == 0.0
    # ... and with a shared seed the mass is pathwise monotone in eps.
    small = _m_eps(five_state.model, FIVE_SCALES, 0.8, 2000, **kw)
    full = _m_eps(five_state.model, FIVE_SCALES, math.inf, 2000, **kw)
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
    # each of which runs only the block runs its own condition needs: nu
    # alone, nu and sigma with no eps, and m_eps alone.
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
                estimate_mark_conditions(model, scales, 1.0, us, 40,
                                         **kw)[ConditionName.SIGMA_T])
            assert facts(joint[ConditionName.M_EPS]) == facts(
                [_m_eps(model, scales, e, 40, **kw) for e in eps])
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


TRAP_ENV = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=77)
TRAP_SCALES = ScaleSet(100, 0.5, 2, 8.0, 200.0, 30.0, 0.5)


def _trap_scan():
    """The 121 x 121 box grid around the origin and its trap sites."""
    axis = np.arange(-60, 61, dtype=np.int64)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([gx, gy], axis=-1).reshape(-1, 2)
    return grid, grid[trap_mask(LatticeModel(TRAP_ENV), TRAP_SCALES, grid)]


def test_trap_scan_equals_direct_recomputation():
    assert TRAP_SCALES.trap_tau_floor == 4.0
    assert TRAP_SCALES.trap_neighbor_cap == 16.0
    grid, sites = _trap_scan()
    taus = tau_array(TRAP_ENV, grid)
    max_nbr = np.full(len(grid), -np.inf)
    for a, s in ((0, 1), (0, -1), (1, 1), (1, -1)):
        shifted = grid.copy()
        shifted[:, a] += s
        max_nbr = np.maximum(max_nbr, tau_array(TRAP_ENV, shifted))
    assert np.array_equal(sites, grid[(taus > 4.0) & (max_nbr <= 16.0)])
    assert len(sites) > 0


def test_trap_density_on_spaced_sublattice():
    # Sites at stride 3 have disjoint {site + neighbors} patches, so their
    # trap indicators are iid Bernoulli with
    # p = P(tau > 4) * P(tau <= 16)^4 = 4^(-1/2) * (1 - 16^(-1/2))^4.
    _, sites = _trap_scan()
    count = int(np.count_nonzero(np.all(sites % 3 == 0, axis=1)))
    n_sub = 41 * 41
    p = 0.5 * 0.75 ** 4
    mean, sd = n_sub * p, math.sqrt(n_sub * p * (1 - p))
    assert abs(count - mean) <= 3.5 * sd, (count, mean, sd)


# ---------------------------------------------------------------------------
# walk diagnostics: heat kernel, range
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


# ---------------------------------------------------------------------------
# determinism, worker fan-out, modes
# ---------------------------------------------------------------------------


def test_worker_fanout_invariance(five_state):
    one = estimate_nu_t(five_state.model, FIVE_SCALES, 1.0, 1.0, 200,
                        kind=DISC, seed=101)
    two = estimate_nu_t(five_state.model, FIVE_SCALES, 1.0, 1.0, 200,
                        kind=DISC, seed=101, workers=2)
    assert one.value == two.value and one.std_error == two.std_error
    pi_one = estimate_pi_t(SRW_D2, WALK_SCALES_D2, 1.0, 100, box=2.0,
                           kind=DISC, seed=1)
    pi_two = estimate_pi_t(SRW_D2, WALK_SCALES_D2, 1.0, 100, box=2.0,
                           kind=DISC, seed=1, workers=2)
    assert pi_one.in_box == pi_two.in_box
    assert pi_one.remainder == pi_two.remainder


def test_seed_and_mode_determinism(five_state):
    a = estimate_nu_t(five_state.model, FIVE_SCALES, 1.0, 1.0, 300,
                      kind=DISC, seed=101)
    b = estimate_nu_t(five_state.model, FIVE_SCALES, 1.0, 1.0, 300,
                      kind=DISC, seed=101)
    assert a.value == b.value
    # Annealed mode redraws the landscape per trajectory but is still a pure
    # function of the seed; with these seeds it differs from quenched.
    ann1 = estimate_nu_t(SRW_D2, WALK_SCALES_D2, 1.0, 0.5, 150,
                         kind=DISC, mode="annealed", seed=9)
    ann2 = estimate_nu_t(SRW_D2, WALK_SCALES_D2, 1.0, 0.5, 150,
                         kind=DISC, mode="annealed", seed=9)
    quen = estimate_nu_t(SRW_D2, WALK_SCALES_D2, 1.0, 0.5, 150,
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
    return jumps.sites[np.searchsorted(
        jumps.times, scales.theta_n * np.arange(1, K, dtype=np.float64),
        side="right")]


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
    # Blocks of theta_n = 2 take about 8 events, and mark runs more.
    # Site-table walks (theta > 0, tables) stop at a default cap of 3 with
    # EventCapError; the theta = 0 walk and the discrete chain, bounded by
    # the horizon, have no default cap and give the same estimates as
    # without one.
    free = [estimate_nu_t(SRW_D2, WALK_SCALES_D2, 1.0, 1.0, 20, kind=k,
                          seed=3).value for k in (CONT, DISC)]
    monkeypatch.setattr(chains, "DEFAULT_MAX_EVENTS", 3)
    for env_or_model in (_alternating_two_state(), KERNEL_ENVS[2, 0.5]):
        with pytest.raises(EventCapError):
            estimate_nu_t(env_or_model, WALK_SCALES_D2, 1.0, 1.0, 20,
                          kind=CONT, seed=3)
    assert [estimate_nu_t(SRW_D2, WALK_SCALES_D2, 1.0, 1.0, 20, kind=k,
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


def test_one_worker_runs_one_batch(monkeypatch):
    # The benchmark's conditions cell: 10 annealed trajectories fill 10
    # chunks, and one worker walks them all in one batch, so one mark run
    # call and one block run call.
    calls = {"sites_at": 0, "block_clocks": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(estimators, name), **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(estimators, name, counted)
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=0)
    scales = ScaleSet.for_lattice(10_000, 2, 0.5, gamma2=0.15)
    estimate_mark_conditions(env, scales, 1.0, [0.25, 0.5, 1.0, 2.0, 4.0], 10,
                             eps=[0.1], kind=DISC, mode="annealed")
    assert calls == {"sites_at": 1, "block_clocks": 1}


def _ref_add(totals, key, s, sq):
    old = totals.get(key)
    totals[key] = [s, sq] if old is None else [old[0] + s, old[1] + sq]


def _per_chunk_drive(per_chunk, env_or_model, kind, n_traj, mode, seed,
                     workers, *args, rows=1):
    """The reference reduction: one batch per fixed chunk, each chunk's
    trajectories summed in order, then the chunk sums in chunk order."""
    base = env_or_model.env_seed if seed is None else seed
    model = as_model(env_or_model) if mode == "quenched" else env_or_model
    totals = {}
    for lo, hi in index_chunks(n_traj):
        part = {}
        batch = estimators._Batch(model, mode, base, lo, hi)
        for out in per_chunk(batch, ChainKind(kind), *args):
            for key, v in out.items():
                _ref_add(part, key, v, v * v)
        for key, (s, sq) in part.items():
            _ref_add(totals, key, s, sq)
    return totals


def _driver_calls(five, n_traj):
    """(estimator, args, kwargs): the mark conditions on quenched and
    annealed lattices, discrete at theta 0 and 0.5, continuous at theta 0,
    and on the five-state table, and every other estimator on one of them.
    Continuous table walkers step through the Python site walk, so those
    runs stop at 77 trajectories."""
    lat0, lat5, sc = KERNEL_ENVS[2, 0.0], KERNEL_ENVS[2, 0.5], KERNEL_SCALES[2]
    quenched = dict(mode="quenched")
    annealed0 = dict(mode="annealed", seed=22)
    annealed5 = dict(mode="annealed", seed=21)
    table = dict(seed=404)
    marks = [(lat0, sc, quenched, DISC), (lat0, sc, quenched, CONT),
             (lat0, sc, annealed0, CONT), (lat5, sc, annealed5, DISC),
             (five, FIVE_SCALES, table, DISC)]
    if n_traj < 100:
        marks.append((five, FIVE_SCALES, table, CONT))
    calls = [(estimate_mark_conditions, (env, scales, 1.0, [0.1, 0.5, 1.0, 2.0]),
              dict(kw, kind=kind, eps=[0.3, math.inf]))
             for env, scales, kw, kind in marks]
    return calls + [
        (estimate_pi_t, (lat0, sc, 1.0), dict(quenched, kind=CONT, box=3.0)),
        (estimate_pi_t, (five, FIVE_SCALES, 1.0), dict(table, kind=DISC, box=3.0)),
        (return_sum, (lat5, sc, (0, 0), 1.0), dict(annealed5, kind=DISC)),
        (heat_kernel_mc, (lat0, (0, 0), (0, 1), 0.5), annealed0),
        (range_stat, (lat0, 10), quenched)]


def _summary(est):
    if isinstance(est, dict):
        return {name: _summary(v) for name, v in est.items()}
    if isinstance(est, list):
        return [_summary(e) for e in est]
    if isinstance(est, PiEstimate):
        return est.in_box, est.remainder
    return (est.value, est.std_error, est.n_samples,
            None if est.series is None else est.series.tolist())


@pytest.mark.parametrize("n_traj", [10, 77, 1000])
def test_driver_equals_per_chunk_reference(five_state, monkeypatch, n_traj):
    # 77 and 1,000 trajectories put several in a chunk.  At 300 batch rows a
    # batch holds 11 (mark conditions), 27 (range), 33 (pi, return sums) or
    # 300 (heat kernel) trajectories, so batches end inside chunks and span
    # chunk boundaries; the estimates must not change by a bit.
    calls = _driver_calls(five_state.model, n_traj)
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "_drive", _per_chunk_drive)
        want = [_summary(fn(*args, n_traj=n_traj, **kw))
                for fn, args, kw in calls]
    for batch_rows in (estimators._BATCH_ROWS, 300):
        monkeypatch.setattr(estimators, "_BATCH_ROWS", batch_rows)
        for workers in (1, 2, 3):
            for (fn, args, kw), ref in zip(calls, want):
                got = fn(*args, n_traj=n_traj, workers=workers, **kw)
                assert _summary(got) == ref, (fn.__name__, kw, batch_rows,
                                              workers)


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
    n_traj, m, t = 40, 30, 0.5
    cases = [(KERNEL_ENVS[2, theta], mode, 5, (0, 0), (0, 0))
             for theta in (0.0, 0.5) for mode in ("quenched", "annealed")]
    cases += [(KERNEL_ENVS[3, 0.5], "annealed", None, (0, 0, 0), (1, 0, 0)),
              (five_state.model, "quenched", 3, 0, 1)]
    for env_or_model, mode, seed, x, y in cases:
        ranges, heats = [], []
        for model, traj_seed in _ref_trajectories(env_or_model, mode, seed,
                                                  n_traj):
            path = discrete_oracle(model, traj_seed, model.start_default,
                                   m)[1].sites
            ranges.append(float(len(np.unique(path, axis=0))))
            jumps = run_vsrw(model, TrajectoryConfig(
                traj_seed, CONT, start=model.as_site(x), horizon=t),
                want_ledger=False)[1]
            heats.append(float(_site(model, jumps.sites[-1])
                               == model.as_site(y)))
        kw = dict(mode=mode, seed=seed, workers=workers)
        got = range_stat(env_or_model, m, n_traj, **kw)
        assert (got.value, got.std_error) == _ref_mean_se(ranges)
        got = heat_kernel_mc(env_or_model, x, y, t, n_traj, **kw)
        assert (got.value, got.std_error) == _ref_binomial(heats)
