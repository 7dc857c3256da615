"""Arcsine law, stable subordinators, first passages, fractional kinetics.

Oracles:

* the hand-rolled regularized incomplete beta is compared against scipy's,
  and the generalized arcsine CDF at index 1/2 against (2/pi) arcsin(sqrt(u));
* synthetic subordinator paths with hand-picked jumps/drift exercise every
  first-passage branch (drift creep before a jump, jump crossing, creep after
  the final jump, exhaustion) with hand-computed answers;
* the truncated Poissonian sampler has an exactly computable Laplace
  transform exp(-integral of (1 - e^(-lambda u)) against the jump intensity
  above the cutoff, plus lambda * drift in compensated mode), evaluated by
  quadrature;
* the exponential/uniform transform sampler is exact, so it cross-validates
  the path sampler's marginal (two-sample KS) and its own Laplace transform;
* first-passage overshoots follow the generalized arcsine law, tying the
  sampled paths to the closed-form CDF;
* the batched first-passage kernel reproduces the values of
  ``SubordinatorPath.first_passage`` exactly on hand-built jumps;
* the sliced Poisson path kernels return the floats of the whole-batch
  kernels in ``limits_oracle`` bit for bit, at path counts on both sides of
  a slice and of a batch, and stay within a traced-memory bound;
* the exact inverse-subordinator draws (E_t = (t / V_1)^alpha, and the
  stretch E_{1+rho} - E_1 from the overshoot of level 1) match the passage
  times of the per-path sampler of ``limits_oracle`` in law (two-sample KS),
  and the stretch is 0 with the arcsine probability;
* fractional-kinetics mean squared displacement has the closed form
  d * t^alpha / (Gamma(1+alpha) Gamma(1-alpha)), at every grid time
  whatever the grid's last time.

Statistical bands were sized from pre-run deviations (largest |dev| = 1.8 SE,
largest KS = 0.027 across the frozen seeds).
"""
from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

from limits_oracle import (SubordinatorPath, extend_path, first_passages_oneshot,
                           oneshot_draw, passage_times, passage_values_oneshot,
                           sample_fk, sample_subordinator,
                           subordinator_values_oneshot)
import trapclock.limits
from trapclock.chains import ChainKind
from trapclock.clock import ClockPath
from trapclock.errors import (
    ContractViolationError,
    DomainError,
    RangeExhaustedError,
)
from trapclock.limits import (
    _compensation,
    _first_passages,
    _inverse_draws,
    _jump_draws,
    _inverse_stretches,
    arcsine_cdf,
    default_cutoff,
    fk_msd,
    inverse_mean,
    overshoot,
    passage_values,
    regularized_incomplete_beta,
    sample_stable_marginal,
    subordinator_values,
)

CONT = ChainKind.CONTINUOUS_J_VSRW


# ---------------------------------------------------------------------------
# closed forms: incomplete beta, arcsine CDF, cutoffs, inverse mean
# ---------------------------------------------------------------------------


def test_incomplete_beta_matches_scipy():
    for a in (0.3, 0.5, 1.0, 1.7, 4.2):
        for b in (0.3, 0.5, 1.0, 1.7, 4.2):
            for x in (0.0, 1e-6, 0.2, 0.5, 0.9, 0.999, 1.0):
                ours = regularized_incomplete_beta(a, b, x)
                ref = float(special.betainc(a, b, x))
                assert abs(ours - ref) <= 1e-10, (a, b, x)
    with pytest.raises(DomainError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        regularized_incomplete_beta(1.0, -2.0, 0.5)
    with pytest.raises(DomainError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_arcsine_cdf_closed_form_and_symmetry():
    for u in (0.0, 0.1, 0.25, 0.5, 0.8, 1.0):
        want = 2.0 / math.pi * math.asin(math.sqrt(u))
        assert abs(arcsine_cdf(0.5, u) - want) <= 1e-10
    for alpha in (0.15, 0.5, 0.85):
        assert arcsine_cdf(alpha, 0.0) == 0.0
        assert arcsine_cdf(alpha, 1.0) == 1.0
        for u in (0.2, 0.7):
            # I_u(a, b) + I_{1-u}(b, a) = 1
            total = arcsine_cdf(alpha, u) + arcsine_cdf(1.0 - alpha, 1.0 - u)
            assert abs(total - 1.0) <= 1e-10
    vec = arcsine_cdf(0.3, [0.1, 0.9])
    assert np.allclose(
        vec, [arcsine_cdf(0.3, 0.1), arcsine_cdf(0.3, 0.9)], rtol=0, atol=0)
    with pytest.raises(DomainError):
        arcsine_cdf(1.0, 0.5)
    with pytest.raises(DomainError):
        arcsine_cdf(0.5, 1.5)


def test_incomplete_beta_refuses_a_stalled_fraction(monkeypatch):
    # One Lentz iteration cannot converge the continued fraction
    monkeypatch.setattr(trapclock.limits, "_BETA_ITMAX", 1)
    with pytest.raises(RangeExhaustedError):
        arcsine_cdf(0.3, 0.4)


def test_default_cutoff_formula():
    assert default_cutoff(0.5, 1e-3) == 1e-6          # floor wins
    assert default_cutoff(0.5, 200.0) == pytest.approx(0.01, rel=1e-12)
    assert default_cutoff(0.8, 200.0) == pytest.approx(
        0.1 ** 1.25, rel=1e-12)
    # the budget of 2,000 jumps keeps a unit horizon at the floor at
    # alpha = 1/2: (1 / 2000)^2 = 2.5e-7 < 1e-6
    assert default_cutoff(0.5, 1.0) == 1e-6


def test_inverse_mean_values():
    assert inverse_mean(0.5, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert inverse_mean(0.3, 7.0) == pytest.approx(
        7.0 ** 0.3 * inverse_mean(0.3, 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# synthetic paths: values, passages, creep
# ---------------------------------------------------------------------------


def test_subordinator_path_pure_jump():
    path = SubordinatorPath(0.5, [1.0, 2.0, 3.5], [2.0, 1.0, 4.0],
                            0.0, 0.1, 5.0)
    assert path.value(0.0) == 0.0
    assert path.value(0.999) == 0.0
    assert path.value(1.0) == 2.0          # jumps count at their epoch
    assert path.value(3.5) == 7.0
    assert path.value(5.0) == 7.0
    assert path.final_value == 7.0
    with pytest.raises(RangeExhaustedError):
        path.value(5.1)
    with pytest.raises(RangeExhaustedError):
        path.value(-0.1)
    assert path.first_passage(0.0) == (1.0, 2.0)
    assert path.first_passage(2.0) == (2.0, 3.0)   # strict: level == value
    assert path.first_passage(2.5) == (2.0, 3.0)
    assert path.first_passage(6.9) == (3.5, 7.0)
    with pytest.raises(RangeExhaustedError):
        path.first_passage(7.0)
    with pytest.raises(ContractViolationError):
        path.first_passage(-1.0)
    assert path.first_passage(2.5)[1] - 2.5 == pytest.approx(0.5, abs=1e-15)


def test_subordinator_path_validation():
    with pytest.raises(ContractViolationError):
        SubordinatorPath(0.5, [1.0, 2.0], [1.0], 0.0, 0.1, 5.0)
    with pytest.raises(ContractViolationError):
        SubordinatorPath(0.5, [2.0, 1.0], [1.0, 1.0], 0.0, 0.1, 5.0)


def test_subordinator_path_drift_creep_single_jump():
    # V(t) = 0.5 t + 1{t >= 1}; horizon 4.
    path = SubordinatorPath(0.5, [1.0], [1.0], 0.5, 0.1, 4.0)
    assert path.first_passage(0.25) == (0.5, 0.25)      # creep before the jump
    assert path.first_passage(0.5) == (1.0, 1.5)        # strict: jump crosses
    assert path.first_passage(1.0) == (1.0, 1.5)
    assert path.first_passage(1.5) == (1.0, 1.5)        # creep at the jump value
    assert path.first_passage(2.0) == (2.0, 2.0)        # creep after the jump
    with pytest.raises(RangeExhaustedError):
        path.first_passage(3.0)                          # V(4) = 3, never above
    assert path.value(4.0) == 3.0
    assert path.final_value == 3.0


def test_subordinator_path_drift_creep_two_jumps():
    # V(t) = t + 0.5 * 1{t >= 1} + 1.0 * 1{t >= 2}; horizon 3.
    path = SubordinatorPath(0.5, [1.0, 2.0], [0.5, 1.0], 1.0, 0.1, 3.0)
    assert path.first_passage(0.7) == (0.7, 0.7)
    assert path.first_passage(1.2) == (1.0, 1.5)
    assert path.first_passage(2.0) == (1.5, 2.0)        # creep between jumps
    assert path.first_passage(4.0) == (2.5, 4.0)        # creep after last jump
    with pytest.raises(RangeExhaustedError):
        path.first_passage(4.5)


def _hand_draw(gaps, sizes, chunk):
    """(draw_gaps, draw_sizes) for one path: the given jumps in blocks of
    ``chunk``, then far jumps after long gaps, so any level left is crept
    over first."""
    gaps = list(gaps) + [100.0] * chunk
    sizes = list(sizes) + [1000.0] * chunk
    pos = [0]

    def draw_gaps(m):
        assert m == 1
        return np.array([gaps[pos[0]:pos[0] + chunk]])

    def draw_sizes(k):
        assert k == 1
        i = pos[0]
        pos[0] += chunk
        return np.array([sizes[i:i + chunk]])
    return draw_gaps, draw_sizes


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_first_passage_kernel_matches_path_oracle(chunk):
    cases = [
        # drift 0: strict crossing at a jump value, levels from 0 up
        (SubordinatorPath(0.5, [1.0, 2.0, 3.5], [2.0, 1.0, 4.0], 0.0, 0.1, 5.0),
         [0.0, 2.0, 2.5, 6.9]),
        # creep before the jump, strict crossing at the pre-jump value, creep
        # from the jump value, creep after the last jump
        (SubordinatorPath(0.5, [1.0], [1.0], 0.5, 0.1, 2.5),
         [0.25, 0.5, 1.0, 1.5, 2.0]),
        (SubordinatorPath(0.5, [1.0, 2.0], [0.5, 1.0], 1.0, 0.1, 3.0),
         [0.7, 1.2, 2.0, 4.0]),
    ]
    for path, levels in cases:
        gaps = np.diff(path.jump_times, prepend=0.0)
        for u in levels:
            values = _first_passages(
                u, 1, *_hand_draw(gaps, path.jump_sizes, chunk), path.drift)
            want_v = path.first_passage(u)[1]
            assert values[0] == pytest.approx(want_v, rel=1e-12, abs=1e-12)


# path counts on both sides of the 512-row slices (2^16 jumps of 128) and of
# the 20,000-path batches
SLICED_COUNTS = [1, 511, 513, 1537, 20_001]


@pytest.mark.parametrize("n_paths", SLICED_COUNTS)
@pytest.mark.parametrize("alpha, mode, cutoff, levels", [
    # many rounds of jumps, the alive rows thinning out
    (0.5, "overshoot", 1e-5, [0.5, 1.0, 2.0]),
    # a fast creep: one round, most levels passed by the drift
    (0.8, "moment", 1e-2, [0.0, 0.5, 2.0, 2.5]),
])
def test_sliced_first_passages_equal_the_one_shot_kernel(
        n_paths, alpha, mode, cutoff, levels):
    drift = _compensation(alpha, cutoff) if mode == "moment" else 0.0
    for u in levels:
        got = _first_passages(u, n_paths, *_jump_draws(
            alpha, cutoff, np.random.default_rng(n_paths)), drift)
        want = first_passages_oneshot([u], n_paths, oneshot_draw(
            alpha, cutoff, np.random.default_rng(n_paths)), drift)[:, 0]
        assert got.tobytes() == want.tobytes(), u


@pytest.mark.parametrize("n_paths", SLICED_COUNTS)
@pytest.mark.parametrize("alpha, mode", [(0.5, "moment"), (0.8, "overshoot")])
def test_sliced_passage_values_equal_the_one_shot_kernel(n_paths, alpha, mode):
    got = passage_values(alpha, 1.0, n_paths, np.random.default_rng(n_paths),
                         mode=mode)
    want = passage_values_oneshot(alpha, 1.0, n_paths,
                                  np.random.default_rng(n_paths), mode=mode)
    assert got.tobytes() == want.tobytes()


def test_passage_values_working_set_is_bounded():
    # the whole-round kernel peaked at 40-46 MiB: three round-sized arrays
    # and their temporaries; the sliced one keeps only the gaps whole
    tracemalloc.start()
    try:
        passage_values(0.5, 1.0, 10**4, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak / 2**20


def test_overshoot_of_clock_paths_and_reparametrization():
    clock = ClockPath([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 3.0, 7.0], CONT)
    squashed = ClockPath([0.0, 0.1, 0.2, 0.3], [0.0, 2.0, 3.0, 7.0], CONT)
    assert overshoot(clock, 2.5) == pytest.approx(0.5, abs=1e-15)
    assert overshoot(squashed, 2.5) == overshoot(clock, 2.5)
    assert overshoot(clock, 3.0) == pytest.approx(4.0, abs=1e-15)  # strict
    with pytest.raises(RangeExhaustedError):
        overshoot(clock, 7.0)
    with pytest.raises(ContractViolationError):
        overshoot([0.0, 1.0], 0.5)


# ---------------------------------------------------------------------------
# the Poissonian sampler
# ---------------------------------------------------------------------------


def test_sample_subordinator_contracts():
    rng = np.random.default_rng(1)
    with pytest.raises(DomainError):
        sample_subordinator(1.2, 1.0, rng)
    with pytest.raises(ContractViolationError):
        sample_subordinator(0.5, 0.0, rng)
    with pytest.raises(ContractViolationError):
        sample_subordinator(0.5, 1.0, rng, mode="midpoint")
    with pytest.raises(ContractViolationError):
        sample_subordinator(0.5, 1.0, rng, cutoff=0.0)
    path = sample_subordinator(0.5, 2.0, rng, cutoff=0.05, mode="moment")
    assert path.drift == pytest.approx(0.05 ** 0.5, rel=1e-12)
    assert path.small_jump_cutoff == 0.05
    assert path.horizon == 2.0
    plain = sample_subordinator(0.5, 2.0, rng, cutoff=0.05, mode="overshoot")
    assert plain.drift == 0.0
    grid = np.linspace(0.0, 2.0, 9)
    vals = [path.value(t) for t in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert path.value(2.0) == path.final_value


def test_jump_statistics_match_levy_measure():
    rng = np.random.default_rng(31)
    total = 0
    sizes = []
    for _ in range(400):
        p = sample_subordinator(0.5, 1.0, rng, cutoff=0.04, mode="overshoot")
        total += len(p)
        sizes.append(p.jump_sizes)
    lam = 400 * 0.04 ** -0.5            # 400 paths, rate delta^(-alpha) each
    assert abs(total - lam) <= 3.5 * math.sqrt(lam)
    s = np.concatenate(sizes)
    assert s.min() >= 0.04
    # (delta / size)^alpha is uniform on (0, 1)
    ks = stats.kstest((0.04 / s) ** 0.5, "uniform")
    assert ks.statistic < 0.035


def test_marginal_matches_exact_stable_sampler():
    rng = np.random.default_rng(77)
    path_vals = subordinator_values(0.5, [1.0], 4000, rng, cutoff=1e-4,
                                    mode="moment").ravel()
    exact = sample_stable_marginal(0.5, 4000, rng)
    ks = stats.ks_2samp(path_vals, exact)
    assert ks.statistic < 0.035


def test_self_similarity_with_matched_cutoffs():
    # V_delta(c t) has the law of c^(1/alpha) V_{delta c^(-1/alpha)}(t):
    # the rescaling leaves the jump intensity measure invariant.
    rng = np.random.default_rng(88)
    at4 = subordinator_values(0.5, [4.0], 4000, rng, cutoff=0.02,
                              mode="overshoot").ravel()
    scaled = 16.0 * subordinator_values(0.5, [1.0], 4000, rng,
                                        cutoff=0.02 / 16.0,
                                        mode="overshoot").ravel()
    ks = stats.ks_2samp(at4, scaled)
    assert ks.statistic < 0.04


def test_increments_stationary_and_uncorrelated():
    rng = np.random.default_rng(99)
    vals = subordinator_values(0.5, [1.0, 2.0], 4000, rng, cutoff=1e-3,
                               mode="overshoot")
    assert np.all(vals[:, 1] >= vals[:, 0])
    inc = vals[:, 1] - vals[:, 0]
    ks = stats.ks_2samp(vals[:, 0], inc)
    assert ks.statistic < 0.04
    # rank correlation: the tails are too heavy for Pearson
    assert abs(stats.spearmanr(vals[:, 0], inc).statistic) < 0.05


@pytest.mark.parametrize("n_paths", SLICED_COUNTS)
@pytest.mark.parametrize("alpha, mode, cutoff, grid", [
    # 128 expected jumps per path on [0, 2]: slices of 512 paths
    (0.5, "moment", 2.0 ** -12, [0.0, 0.5, 1.0, 2.0]),
    (0.8, "overshoot", 1e-2, [2.0, 0.0, 1.5]),
])
def test_sliced_subordinator_values_equal_the_one_shot_kernel(
        n_paths, alpha, mode, cutoff, grid):
    got = subordinator_values(alpha, grid, n_paths,
                              np.random.default_rng(n_paths), cutoff=cutoff,
                              mode=mode)
    want = subordinator_values_oneshot(alpha, grid, n_paths,
                                       np.random.default_rng(n_paths),
                                       cutoff=cutoff, mode=mode)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha, grid, n_paths", [
    (0.5, [0.0, 1.0, 2.0], 1),      # the default cutoff: 2000 jumps a path
    (0.3, [1.0], 513),
    (0.5, [0.0, 0.0], 3),           # an all-zero grid: no jumps, all zeros
])
def test_subordinator_values_at_the_default_cutoff_equal_the_one_shot_kernel(
        alpha, grid, n_paths):
    for mode in ("moment", "overshoot"):
        got = subordinator_values(alpha, grid, n_paths,
                                  np.random.default_rng(9), mode=mode)
        want = subordinator_values_oneshot(alpha, grid, n_paths,
                                           np.random.default_rng(9), mode=mode)
        assert got.tobytes() == want.tobytes()


def test_subordinator_values_refuses_no_paths():
    for n_paths in (0, -3):
        with pytest.raises(ContractViolationError):
            subordinator_values(0.5, [1.0], n_paths, np.random.default_rng(1))


def test_subordinator_values_working_set_is_bounded():
    # only the batch's size array is whole; the one-shot kernel peaked at
    # 315 MiB here, four times that array
    rate = default_cutoff(0.5, 2.0) ** -0.5
    size_bytes = 8 * int(np.random.default_rng(4).poisson(2.0 * rate, 5000).sum())
    tracemalloc.start()
    try:
        subordinator_values(0.5, [1.0, 2.0], 5000, np.random.default_rng(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * size_bytes + 8 * 2**20, (peak / 2**20, size_bytes / 2**20)


def test_laplace_transform_exact_for_truncated_sampler():
    alpha, lam = 0.5, 1.0
    seeds = {("overshoot", 1e-2): 901, ("moment", 1e-2): 902,
             ("overshoot", 1e-4): 903, ("moment", 1e-4): 904}
    for (mode, cutoff), seed in seeds.items():
        big_jumps, _ = integrate.quad(
            lambda u: (1.0 - math.exp(-lam * u)) * alpha * u ** (-alpha - 1.0),
            cutoff, np.inf)
        drift = alpha / (1.0 - alpha) * cutoff ** (1.0 - alpha)
        exponent = big_jumps + (lam * drift if mode == "moment" else 0.0)
        want = math.exp(-exponent)
        rng = np.random.default_rng(seed)
        v = subordinator_values(alpha, [1.0], 8000, rng, cutoff=cutoff,
                                mode=mode).ravel()
        probe = np.exp(-lam * v)
        se = float(np.std(probe, ddof=1)) / math.sqrt(len(v))
        assert abs(float(np.mean(probe)) - want) <= 3.5 * se + 1e-4, (mode, cutoff)
        if mode == "moment":
            # compensation converges to the exact Laplace exponent
            assert abs(want - math.exp(-math.gamma(1.0 - alpha) * lam ** alpha)) \
                <= 2e-4 if cutoff == 1e-4 else True


def test_exact_stable_sampler_laplace_transform():
    rng = np.random.default_rng(11)
    # the default draw over Gamma(1-alpha)^(1/alpha) has Laplace transform
    # exp(-lambda^alpha)
    unit = sample_stable_marginal(0.5, 20000, rng) / math.gamma(0.5) ** 2.0
    for lam in (1.0, 2.0):
        probe = np.exp(-lam * unit)
        se = float(np.std(probe, ddof=1)) / math.sqrt(len(unit))
        assert abs(float(np.mean(probe)) - math.exp(-lam ** 0.5)) \
            <= 3.5 * se + 1e-4
    scaled = sample_stable_marginal(0.5, 20000, rng)
    probe = np.exp(-scaled)
    se = float(np.std(probe, ddof=1)) / math.sqrt(len(scaled))
    want = math.exp(-math.gamma(0.5))
    assert abs(float(np.mean(probe)) - want) <= 3.5 * se + 1e-4
    with pytest.raises(DomainError):
        sample_stable_marginal(1.0, 5, rng)


# ---------------------------------------------------------------------------
# first passages and the overshoot law
# ---------------------------------------------------------------------------


def test_overshoot_law_matches_arcsine():
    rng = np.random.default_rng(2025)
    vals = passage_values(0.5, 1.0, 20000, rng, mode="moment")
    assert np.all(vals >= 1.0)
    assert float(np.mean(vals == 1.0)) < 0.01      # creep is a cutoff artifact
    for rho in (0.25, 1.0, 4.0):
        p = float(np.mean(vals >= 1.0 + rho))
        want = arcsine_cdf(0.5, 1.0 / (1.0 + rho))
        se = math.sqrt(want * (1.0 - want) / 20000)
        assert abs(p - want) <= 3.5 * se + 0.006, (rho, p, want)
    rng = np.random.default_rng(2026)
    vals8 = passage_values(0.8, 1.0, 20000, rng, mode="moment")
    for rho in (0.5, 2.0):
        p = float(np.mean(vals8 >= 1.0 + rho))
        want = arcsine_cdf(0.8, 1.0 / (1.0 + rho))
        se = math.sqrt(want * (1.0 - want) / 20000)
        assert abs(p - want) <= 3.5 * se + 0.006, (rho, p, want)


def test_passage_drift_creep_dominates_at_huge_cutoff():
    # cutoff 50 makes jumps rare and the compensating drift huge: almost all
    # paths creep over the level and must record it exactly.
    rng = np.random.default_rng(5)
    vals = passage_values(0.5, 1.0, 2000, rng, cutoff=50.0, mode="moment")
    assert np.all(vals >= 1.0)
    assert float(np.mean(vals == 1.0)) > 0.9


def test_passage_contracts_and_determinism():
    rng = np.random.default_rng(6)
    with pytest.raises(DomainError):
        passage_values(1.5, 1.0, 10, rng)
    with pytest.raises(ContractViolationError):
        passage_values(0.5, 0.0, 10, rng)
    with pytest.raises(ContractViolationError):
        passage_values(0.5, 1.0, 0, rng)
    with pytest.raises(ContractViolationError):
        passage_values(0.5, 1.0, 10, rng, mode="drop")
    a = passage_values(0.5, 1.0, 500, np.random.default_rng(6), mode="moment")
    b = passage_values(0.5, 1.0, 500, np.random.default_rng(6), mode="moment")
    assert np.array_equal(a, b)


@pytest.mark.parametrize("level", [math.nan, math.inf])
def test_passage_values_refuses_non_finite_level(level):
    # NaN once returned uninitialised memory, and infinity never returned
    # (with the default cutoff it divided by zero)
    for cutoff in (1e-3, None):
        with pytest.raises(ContractViolationError):
            passage_values(0.5, level, 10, np.random.default_rng(6), cutoff=cutoff)


@pytest.mark.parametrize("mode, levels, seed", [
    ("moment", [0.5, 1.0, 2.0], 41),
    ("overshoot", [1.0, 3.0], 42),
])
def test_inverse_draws_match_per_path_oracle(mode, levels, seed):
    # Two-sample KS of the exact draws E_t = (t / V_1)^alpha against the
    # passage times of per-path sorted paths at a fine cutoff; the threshold
    # is the 0.1% critical value.
    alpha, cutoff, n = 0.5, 1e-3, 2000
    rng = np.random.default_rng(seed)
    exact = _inverse_draws(alpha, np.tile(levels, (n, 1)), rng)
    horizon = 2.0 * inverse_mean(alpha, levels[-1]) + 1.0
    ref = np.array([passage_times(alpha, levels, horizon, cutoff, mode, rng)
                    for _ in range(n)])
    critical = 1.95 * math.sqrt(2.0 / n)
    for k in range(len(levels)):
        ks = stats.ks_2samp(exact[:, k], ref[:, k]).statistic
        assert ks < critical, (mode, levels[k], ks)


@pytest.mark.parametrize("alpha, rho, seed", [(0.5, 1.0, 43), (0.8, 0.5, 44)])
def test_inverse_stretch_matches_path_stretch(alpha, rho, seed):
    # The exact stretch E_{1+rho} - E_1 is 0 with probability
    # Asl_alpha(1/(1+rho)), the chance that the jump over level 1 also
    # clears 1+rho; its positive part matches the per-path sampler's
    # stretches at a fine cutoff (two-sample KS, 0.1% critical value).
    n_exact, n_path = 20_000, 2000
    rng = np.random.default_rng(seed)
    exact = _inverse_stretches(alpha, rho, n_exact, rng)
    assert np.all(exact >= 0.0)
    want = arcsine_cdf(alpha, 1.0 / (1.0 + rho))
    p0 = float(np.mean(exact == 0.0))
    assert abs(p0 - want) <= 3.5 * math.sqrt(want * (1.0 - want) / n_exact)
    levels = [1.0, 1.0 + rho]
    horizon = 2.0 * inverse_mean(alpha, levels[-1]) + 1.0
    path = np.array([np.diff(passage_times(alpha, levels, horizon, 1e-3,
                                           "moment", rng))[0]
                     for _ in range(n_path)])
    a, b = exact[exact > 0.0], path[path > 0.0]
    critical = 1.95 * math.sqrt((a.size + b.size) / (a.size * b.size))
    assert stats.ks_2samp(a, b).statistic < critical


# SHA-256 of passage_values(alpha, 1.0, 1e5, default_rng(seed), mode="moment")
# at the criterion-04 seeds, from the per-level sampler the kernel replaced.
CRITERION_04_SHA256 = {
    (0.3, 4101): "6dfbb9dba15b161f5a33d3ca613103f9e85fe7e64dfb1adaa4a14105ec5977e3",
    (0.5, 4102): "b533701fa5235395602de154cca4d2be3f5e7d75ab642dd6837695d68a1fd8ef",
    (0.8, 4103): "33a3949e4b8571b302fc825038d230ebae1d80bc8f9a096462bd71c4d1c573f3",
}


@pytest.mark.parametrize("alpha, seed", sorted(CRITERION_04_SHA256))
def test_passage_values_bit_identical_at_criterion_04_seeds(alpha, seed):
    vals = passage_values(alpha, 1.0, 10**5, np.random.default_rng(seed),
                          mode="moment")
    digest = hashlib.sha256(vals.tobytes()).hexdigest()
    assert digest == CRITERION_04_SHA256[(alpha, seed)]


def test_extend_path_preserves_prefix():
    rng = np.random.default_rng(7)
    path = sample_subordinator(0.5, 2.0, rng, cutoff=0.05)
    longer = extend_path(path, 5.0, rng)
    assert longer.horizon == 5.0
    assert longer.small_jump_cutoff == path.small_jump_cutoff
    assert longer.drift == path.drift
    for t in (0.0, 0.7, 1.9, 2.0):
        assert longer.value(t) == pytest.approx(path.value(t), abs=1e-12)
    fresh = longer.jump_times[len(path):]
    assert np.all(fresh >= 2.0)
    with pytest.raises(ContractViolationError):
        extend_path(path, 1.0, rng)


# ---------------------------------------------------------------------------
# fractional kinetics
# ---------------------------------------------------------------------------


def test_fk_msd_matches_theory():
    grid = [0.25, 1.0, 4.0]
    msd, se = fk_msd(0.5, 2, grid, 600, seed=123)
    for t, m, s in zip(grid, msd, se):
        want = 2.0 * inverse_mean(0.5, t)
        assert abs(m - want) <= 3.5 * s + 0.02 * want, (t, m, want)


def test_fk_msd_worker_invariance():
    m1, s1 = fk_msd(0.5, 2, [0.5, 2.0], 40, seed=123)
    m2, s2 = fk_msd(0.5, 2, [0.5, 2.0], 40, seed=123, workers=2)
    assert np.array_equal(m1, m2) and np.array_equal(s1, s2)
    with pytest.raises(ContractViolationError):
        fk_msd(0.5, 2, [1.0], 0)
    # no time elapses at t = 0
    assert np.array_equal(fk_msd(0.5, 2, [0.0, 0.0], 5)[0], [0.0, 0.0])


def test_fk_msd_early_time_ignores_grid_end():
    # One small-jump cutoff for the whole grid, set by its last time, once
    # read the MSD at t = 1 on [1, 1e8] as 0.729 +- 0.012 against 1.273.
    want = 2.0 * inverse_mean(0.5, 1.0)
    short, short_se = fk_msd(0.5, 2, [1.0, 1e2], 4000, seed=3)
    long, long_se = fk_msd(0.5, 2, [1.0, 1e8], 4000, seed=3)
    for msd, se in ((short, short_se), (long, long_se)):
        assert abs(msd[0] - want) <= 3.5 * se[0]
    assert short[0] == long[0] and short_se[0] == long_se[0]


def test_fk_msd_validates_before_any_chunk(monkeypatch):
    # Bad arguments are refused in the calling process, before the chunks
    # go to the worker pool.
    calls = []
    monkeypatch.setattr(trapclock.limits, "run_tasks",
                        lambda *a, **k: calls.append(a))
    bad = [((1.5, 2, [1.0]), DomainError),
           ((0.0, 2, [1.0]), DomainError),
           ((0.5, 0, [1.0]), ContractViolationError),
           ((0.5, 2, []), ContractViolationError),
           ((0.5, 2, [[1.0, 2.0]]), ContractViolationError),
           ((0.5, 2, [1.0, 0.5]), ContractViolationError),
           ((0.5, 2, [-1.0, 0.5]), ContractViolationError)]
    for args, err in bad:
        with pytest.raises(err):
            fk_msd(*args, 40, seed=1, workers=2)
    assert calls == []


def test_fk_msd_refuses_non_finite_grid_times(monkeypatch):
    # the grid [1, nan] once reported the MSD at t = 1 twice
    calls = []
    monkeypatch.setattr(trapclock.limits, "run_tasks",
                        lambda *a, **k: calls.append(a))
    for grid in ([1.0, math.nan], [math.nan], [1.0, math.inf]):
        with pytest.raises(ContractViolationError):
            fk_msd(0.5, 2, grid, 40, seed=1)
    assert calls == []


def test_subordinator_values_refuses_non_finite_grid_times():
    for grid in ([1.0, math.nan], [math.inf]):
        with pytest.raises(ContractViolationError):
            subordinator_values(0.5, grid, 10, np.random.default_rng(1))


def test_sample_fk_contracts():
    rng = np.random.default_rng(8)
    sample = sample_fk(0.5, 3, [0.0, 0.5, 2.0], rng)
    assert sample.positions.shape == (3, 3)
    assert sample.inverse_times[0] == 0.0
    assert np.all(np.diff(sample.inverse_times) >= 0.0)
    assert np.all(sample.positions[0] == 0.0)      # no time elapsed at t = 0
    assert sample.path.final_value > 2.0
    with pytest.raises(ContractViolationError):
        sample_fk(0.5, 0, [1.0], rng)
    with pytest.raises(ContractViolationError):
        sample_fk(0.5, 2, [], rng)
    with pytest.raises(ContractViolationError):
        sample_fk(0.5, 2, [1.0, 0.5], rng)
    with pytest.raises(ContractViolationError):
        sample_fk(0.5, 2, [-1.0, 0.5], rng)
