"""Acceptance gate: twelve pinned criteria, one pass/fail line each.

Each test prints a ``[criterion NN] name: PASS/FAIL (detail)`` line on the
live terminal (bypassing capture) and then asserts.  Tolerances are pinned
constants; statistical checks run on frozen seeds, so every run of this gate
is deterministic.  Runtime budgets are asserted only where the measured
single-core margin is comfortable; this is a one-CPU environment, so the
multi-worker wall-clock budgets of the larger studies are read as CPU
budgets (see the repository notes), while worker-count invariance itself is
asserted bitwise in criterion 12.

Criteria summary:
 1. reversibility of the engine's rates across (alpha, theta, d), 1e4 edges;
 2. event-stream clock == per-site ledger recomputation, 1e3 x 1e4 events;
 3. closed-form arcsine CDF at alpha = 1/2 on a 1001-point grid;
 4. subordinator first-passage overshoot law vs the arcsine CDF, N = 1e5;
 5. stable self-similarity V(2)/2^(1/alpha) ~ V(1) by two-sample KS, N = 1e5;
 6. five-state estimates vs exact matrix-power/hypoexponential oracles, 1e5;
 7. annealed block-tail log-log slope = -alpha over a five-point grid;
 8. doubling the horizon doubles the block-tail count (linearity in t);
 9. fractional-kinetics MSD log-log slope = alpha on t in [1, 100], N = 1e4;
10. aging window statistics at the full pinned design (200 env x 50 traj):
    absolute band at rho = 1, exact joint-estimate ordering, improvement
    with s, and rho-ordering against the arcsine targets;
11. return-sum dichotomy: bounded in d = 3 vs linear growth on a 2-cycle;
12. byte-identical CSV outputs across reruns and worker counts.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from trapclock.aging import AgingKind, aging_grid
from trapclock.chains import (ChainKind, LatticeModel, TableModel,
                              TrajectoryConfig, as_model, run_vsrw)
from trapclock.cli import main as cli_main
from trapclock.clock import ScaleSet, build_clock
from trapclock.env import EnvConfig
from trapclock.estimators import (ConditionName, estimate_mark_conditions,
                                  estimate_nu_t, estimate_pi_t, return_sum)
from trapclock.limits import (arcsine_cdf, fk_msd, passage_values,
                              subordinator_values)
from trapclock.stats import slope_and_se

DISC = ChainKind.DISCRETE_J
CONT = ChainKind.CONTINUOUS_J_VSRW


def _report(capsys, num, title, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {title}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. reversibility
# ---------------------------------------------------------------------------


def test_criterion_01_reversibility(capsys):
    started = time.perf_counter()
    combos = [(a, th, 2) for a in (0.3, 0.5, 0.8) for th in (0.0, 0.5, 1.0)]
    combos.append((0.5, 0.5, 3))
    worst = 0.0
    for i, (alpha, theta, d) in enumerate(combos):
        env = EnvConfig(d=d, alpha=alpha, theta=theta, env_seed=1001 + i)
        rng = np.random.default_rng(2100 + i)
        xs = rng.integers(-50, 51, size=(1000, d))
        axes = rng.integers(0, d, size=1000)
        signs = rng.choice([-1, 1], size=1000)
        ys = xs.copy()
        ys[np.arange(1000), axes] += signs
        # the engine's rates: lambda(x, y) = p(x, y) / clock_weights(x),
        # p(x, y) the share of y in the weights ``step`` draws from (+e_a
        # at column 2a, -e_a at 2a + 1)
        model = LatticeModel(env)
        tau_x = model.clock_weights(xs, CONT)
        tau_y = model.clock_weights(ys, CONT)

        def rate(x, col):
            w = model._neighbor_taus(x) ** theta
            p = w[np.arange(len(x)), col] / w.sum(axis=1)
            return p / model.clock_weights(x, DISC)

        lam_xy = rate(xs, 2 * axes + (signs < 0))
        lam_yx = rate(ys, 2 * axes + (signs > 0))
        rel = np.abs(tau_x * lam_xy - tau_y * lam_yx) / (tau_x * lam_xy)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(capsys, 1, "rate reversibility", ok,
            f"worst rel asymmetry {worst:.2e} <= 1e-12 over 1e4 edges, "
            f"{elapsed:.2f}s < 1s")


# ---------------------------------------------------------------------------
# 2. clock identity
# ---------------------------------------------------------------------------


def test_criterion_02_clock_identity(capsys):
    started = time.perf_counter()
    env = EnvConfig(d=2, alpha=0.5, theta=0.5, env_seed=2900)
    model = as_model(env)
    worst = 0.0
    for j in range(1000):
        ledger, jumps = run_vsrw(model, TrajectoryConfig(3000 + j, CONT),
                                 max_events=10**4)
        assert len(jumps) == 10**4
        clock_val = build_clock(model, jumps).values[-1]
        recomputed = sum(model.tau(site) * ell for site, ell in ledger.items())
        worst = max(worst, abs(clock_val - recomputed) / recomputed)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(capsys, 2, "clock identity", ok,
            f"worst rel err {worst:.2e} <= 1e-10 over 1e3 trajectories of "
            f"1e4 events, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 3. arcsine closed form
# ---------------------------------------------------------------------------


def test_criterion_03_arcsine_closed_form(capsys):
    grid = np.linspace(0.0, 1.0, 1001)
    dev = float(np.max(np.abs(arcsine_cdf(0.5, grid) -
                              (2.0 / math.pi) * np.arcsin(np.sqrt(grid)))))
    endpoints_exact = (arcsine_cdf(0.5, 0.0) == 0.0 and
                       arcsine_cdf(0.5, 1.0) == 1.0)
    ok = dev <= 1e-10 and endpoints_exact
    _report(capsys, 3, "arcsine closed form", ok,
            f"max |dev| {dev:.2e} <= 1e-10 on 1001 points, endpoints exact")


# ---------------------------------------------------------------------------
# 4. overshoot law
# ---------------------------------------------------------------------------


def test_criterion_04_overshoot_law(capsys):
    started = time.perf_counter()
    n_paths = 10**5
    worst_ratio = 0.0
    detail = []
    for i, alpha in enumerate((0.3, 0.5, 0.8)):
        rng = np.random.default_rng(4101 + i)
        vals = passage_values(alpha, 1.0, n_paths, rng, mode="moment")
        for rho in (0.5, 1.0, 3.0):
            p = float(np.mean(vals >= 1.0 + rho))
            target = arcsine_cdf(alpha, 1.0 / (1.0 + rho))
            band = max(3.0 * math.sqrt(p * (1.0 - p) / n_paths), 0.01)
            worst_ratio = max(worst_ratio, abs(p - target) / band)
            detail.append(abs(p - target))
    elapsed = time.perf_counter() - started
    ok = worst_ratio <= 1.0 and elapsed < 120.0
    _report(capsys, 4, "subordinator overshoot law", ok,
            f"max |dev| {max(detail):.4f} within max(3*SE, 0.01) on 9 "
            f"(alpha, rho) cells at N=1e5, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 5. stable self-similarity
# ---------------------------------------------------------------------------


def test_criterion_05_self_similarity(capsys):
    n_paths = 10**5
    worst = 0.0
    for i, alpha in enumerate((0.3, 0.5, 0.8)):
        v2 = subordinator_values(alpha, [2.0], n_paths,
                                 np.random.default_rng(5101 + 2 * i))[:, 0]
        v1 = subordinator_values(alpha, [1.0], n_paths,
                                 np.random.default_rng(5102 + 2 * i))[:, 0]
        ks = stats.ks_2samp(v2 / 2.0 ** (1.0 / alpha), v1).statistic
        worst = max(worst, float(ks))
    ok = worst <= 0.02
    _report(capsys, 5, "stable self-similarity", ok,
            f"max KS {worst:.4f} <= 0.02 at N=1e5 for alpha in "
            "{0.3, 0.5, 0.8}")


# ---------------------------------------------------------------------------
# 6. small-graph oracle equivalence
# ---------------------------------------------------------------------------


def _hypoexp_tail(u, a, b):
    if abs(a - b) <= 1e-12 * max(a, b):
        return (1.0 + u / a) * math.exp(-u / a)
    return (a * math.exp(-u / a) - b * math.exp(-u / b)) / (a - b)


def _two_step_tail(P, w, x, u):
    return sum(P[x, y] * P[y, z] * _hypoexp_tail(u, w[y], w[z])
               for y in range(len(w)) for z in range(len(w))
               if P[x, y] > 0 and P[y, z] > 0)


def test_criterion_06_small_graph_oracles(capsys, five_state):
    scales = ScaleSet(100, 0.5, 1, 1.0, 20.0, 2.0, 0.5)  # marks at steps 2k
    P, w = five_state.transition, five_state.step_weight
    powers = [np.linalg.matrix_power(P, 2 * k) for k in range(1, 10)]
    n = 10**5
    worst = 0.0

    pi = estimate_pi_t(five_state.model, scales, 1.0, n, box=10.0, kind=DISC,
                       seed=600, start=0)
    for x in range(5):
        want = sum(pk[0, x] for pk in powers) / 10.0
        got, se = pi.in_box[x]
        worst = max(worst, abs(got - want) / (3.0 * se))

    us = [0.5, 1.0, 2.0]
    marks = estimate_mark_conditions(five_state.model, scales, 1.0, us, n,
                                     kind=DISC, seed=601, start=0)
    nus, sigs = marks[ConditionName.NU_T], marks[ConditionName.SIGMA_T]
    for u, est in zip(us, nus):
        q = np.array([_two_step_tail(P, w, x, u) for x in range(5)])
        want = sum(float(pk[0, :] @ q) for pk in powers)
        worst = max(worst, abs(est.value - want) / (3.0 * est.std_error))
    for u, est in zip(us, sigs):
        q2 = np.array([_two_step_tail(P, w, x, u) ** 2 for x in range(5)])
        want = sum(float(pk[0, :] @ q2) for pk in powers)
        worst = max(worst, abs(est.value - want) / (3.0 * est.std_error))

    ok = worst <= 1.0
    _report(capsys, 6, "small-graph oracle equivalence", ok,
            f"worst |dev| = {3.0 * worst:.2f} SE <= 3 SE across occupation, "
            f"tail-count and replica-pair estimates at n_traj=1e5")


# ---------------------------------------------------------------------------
# 7 & 8. annealed block-tail exponent and horizon linearity
# ---------------------------------------------------------------------------

TAIL_US = [0.25, 0.5, 1.0, 2.0, 4.0]


@pytest.fixture(scope="module")
def annealed_runs():
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=700, c_bar=1.0)
    scales = ScaleSet.for_lattice(10**4, 2, 0.5)
    runs = {}
    for t, seed in ((1.0, 700), (2.0, 701)):
        runs[t] = estimate_nu_t(env, scales, t, TAIL_US, 1000, kind=DISC,
                                mode="annealed", seed=seed)
    return runs


def test_criterion_07_tail_exponent(capsys, annealed_runs):
    vals = [e.value for e in annealed_runs[1.0]]
    slope, se = slope_and_se(np.log(TAIL_US), np.log(vals))
    ok = abs(slope - (-0.5)) <= 0.1
    _report(capsys, 7, "block-tail exponent", ok,
            f"log-log slope {slope:.4f} +- {se:.4f} within -0.5 +- 0.1 "
            f"(d=2, alpha=0.5, theta=0, n=1e4, annealed, 1000 trajectories)")


def test_criterion_08_horizon_linearity(capsys, annealed_runs):
    worst = 0.0
    devs = []
    for e1, e2 in zip(annealed_runs[1.0], annealed_runs[2.0]):
        ratio = e2.value / e1.value
        se = ratio * math.hypot(e1.std_error / e1.value,
                                e2.std_error / e2.value)
        worst = max(worst, abs(ratio - 2.0) / (3.0 * se))
        devs.append(abs(ratio - 2.0))
    ok = worst <= 1.0
    _report(capsys, 8, "horizon linearity", ok,
            f"max |ratio - 2| = {max(devs):.3f} within 3*combined SE at "
            f"every threshold (doubling t doubles the tail count)")


# ---------------------------------------------------------------------------
# 9. fractional-kinetics anomalous diffusion
# ---------------------------------------------------------------------------


def test_criterion_09_fk_anomalous_diffusion(capsys):
    t_grid = np.exp(np.linspace(math.log(1.0), math.log(100.0), 6))
    detail = []
    ok = True
    for alpha, seed in ((0.5, 900), (0.8, 901)):
        msd, _ = fk_msd(alpha, 2, t_grid, 10**4, seed=seed)
        slope, se = slope_and_se(np.log(t_grid), np.log(msd))
        ok = ok and abs(slope - alpha) <= 0.05
        detail.append(f"alpha={alpha}: slope {slope:.4f}")
    _report(capsys, 9, "anomalous diffusion exponent", ok,
            "; ".join(detail) + " within alpha +- 0.05 at N=1e4, "
            "t in [1, 100]")


# ---------------------------------------------------------------------------
# 10. aging at the pinned design
# ---------------------------------------------------------------------------


def test_criterion_10_aging(capsys):
    # The full pinned design (200 environments x 50 trajectories) runs in
    # seconds here because the event count to reach clock level s grows
    # like sqrt(s) in this heavy-tailed regime, so no reduced smoke variant
    # is needed; the CI budget is asserted outright.
    started = time.perf_counter()
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=1000, c_bar=1.0)
    cells = aging_grid(env, [(1e5, 0.5), (1e5, 1.0), (1e5, 3.0), (1e3, 1.0)],
                       n_env=200, n_traj=50, max_events=10**9)
    elapsed = time.perf_counter() - started

    ordering_exact = True
    no_exclusions = True
    for pts in cells.values():
        c1, c2, c3 = (pts[k] for k in (AgingKind.C1, AgingKind.C2,
                                       AgingKind.C3))
        ordering_exact &= c3.estimate <= min(c1.estimate, c2.estimate)
        no_exclusions &= all(p.excluded == 0 for p in pts.values())

    big = cells[(1e5, 1.0)][AgingKind.C1]
    small = cells[(1e3, 1.0)][AgingKind.C1]
    band_ok = abs(big.estimate - 0.5) <= 0.1
    improvement_ok = (abs(big.estimate - 0.5) <=
                      abs(small.estimate - 0.5) +
                      2.0 * (big.std_error + small.std_error))

    # rho-ordering: estimates ordered like the arcsine targets, allowing
    # 3 * combined SE of slack per adjacent pair.
    seq = [cells[(1e5, r)][AgingKind.C1] for r in (0.5, 1.0, 3.0)]
    rho_order_ok = all(
        a.estimate + 3.0 * math.hypot(a.std_error, b.std_error) >= b.estimate
        for a, b in zip(seq, seq[1:]))

    ok = (ordering_exact and no_exclusions and band_ok and improvement_ok
          and rho_order_ok and elapsed < 600.0)
    _report(capsys, 10, "aging window statistics", ok,
            f"C1(1e5, rho=1) = {big.estimate:.4f} within 0.5 +- 0.1; joint "
            f"<= min(marginals) exact; improvement vs s=1e3 holds; "
            f"rho-ordering vs arcsine targets holds; {elapsed:.0f}s < 600s")


# ---------------------------------------------------------------------------
# 11. return-sum dichotomy
# ---------------------------------------------------------------------------


def test_criterion_11_return_sum_dichotomy(capsys):
    scales3 = ScaleSet(100, 0.5, 3, 1.0, 100.0, 10.0, 0.5)
    env3 = EnvConfig(d=3, alpha=0.5, theta=0.0, env_seed=1100)
    transient = return_sum(env3, scales3, None, 1.0, 3000, kind=DISC,
                           seed=1101)
    bounded_ok = transient.value + 3.0 * transient.std_error < 1.0

    # Positive-recurrent toy: a deterministic 2-cycle returns at every mark,
    # so the partial sums grow with slope exactly 1.
    alternator = TableModel(np.array([[0.0, 2.0], [1.0, 0.0]]),
                            np.array([1.0, 2.0]))
    scales2 = ScaleSet(100, 0.5, 2, 1.0, 20.0, 2.0, 0.5)
    recurrent = return_sum(alternator, scales2, 0, 1.0, 200, kind=DISC,
                           seed=1102)
    ks = np.arange(1, len(recurrent.series) + 1, dtype=np.float64)
    slope, se = slope_and_se(ks, recurrent.series)
    growing_ok = slope - 3.0 * se > 0.0

    ok = bounded_ok and growing_ok
    _report(capsys, 11, "return-sum dichotomy", ok,
            f"d=3 final {transient.value:.4f} + 3*SE < 1 (bounded); 2-cycle "
            f"slope {slope:.2f} - 3*SE > 0 (linear growth)")


# ---------------------------------------------------------------------------
# 12. byte-identical outputs
# ---------------------------------------------------------------------------


def _run_cli_twice_and_with_workers(tmp_path, command, args):
    outs = []
    for tag, extra in (("a", []), ("b", []), ("w", ["--workers", "2"])):
        out = tmp_path / f"{command}_{tag}"
        rc = cli_main([command, "--out", str(out), "--master-seed", "12"]
                      + args + extra)
        assert rc == 0
        outs.append(out)
    return outs


def test_criterion_12_determinism(capsys, tmp_path):
    grids = {
        "simulate": ["--n", "500", "--n-traj", "2", "--t-max", "0.5"],
        "conditions": ["--n-list", "400", "--t-list", "1.0",
                       "--u-list", "0.5,1.0", "--n-traj", "60",
                       "--eps-list", "0.1"],
        "overshoot": ["--alpha-list", "0.5", "--rho-list", "1.0",
                      "--n-paths", "2000"],
        "aging": ["--s-list", "1000", "--rho-list", "1.0", "--n-env", "2",
                  "--n-traj", "2"],
    }
    all_equal = True
    n_files = 0
    for command, args in grids.items():
        out_a, out_b, out_w = _run_cli_twice_and_with_workers(
            tmp_path, command, args)
        manifest = json.loads((out_a / "manifest.json").read_text())
        for name in manifest["files"]:
            blob = (out_a / name).read_bytes()
            all_equal &= (out_b / name).read_bytes() == blob
            all_equal &= (out_w / name).read_bytes() == blob
            n_files += 1
    ok = all_equal and n_files >= 6
    _report(capsys, 12, "byte-identical outputs", ok,
            f"{n_files} CSVs identical across rerun and workers=2 for all "
            f"four commands")
