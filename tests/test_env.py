"""Hashed Pareto environments: marginals, rates, reversibility.

Oracles: the inverse-transform law is checked against independent
recomputation (math.exp/log), the marginal tail against exact binomial
bands, and the full distribution against scipy's exponential KS test —
alpha * log(tau/c_bar) must be a unit exponential.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from trapclock.env import (
    EnvConfig,
    edge_rate,
    is_edge,
    neighbors,
    tail_probability,
    tau_array,
    tau_at,
    uniform_at,
    vsrw_rate,
)
from trapclock.errors import ContractViolationError
from trapclock.rng import units_from


def _grid(cfg, n_side):
    axes = [np.arange(n_side)] * cfg.d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=0, alpha=0.5, theta=0.0, env_seed=1),
        dict(d=2, alpha=0.0, theta=0.0, env_seed=1),
        dict(d=2, alpha=1.0, theta=0.0, env_seed=1),
        dict(d=2, alpha=0.5, theta=-0.1, env_seed=1),
        dict(d=2, alpha=0.5, theta=1.1, env_seed=1),
        dict(d=2, alpha=0.5, theta=0.0, env_seed=1, c_bar=0.0),
        dict(d=2, alpha=0.5, theta=0.0, env_seed=-1),
        dict(d=2, alpha=0.5, theta=0.0, env_seed=1 << 64),
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ContractViolationError):
        EnvConfig(**kwargs)


def test_config_rejects_overflowing_depths():
    # The smallest hashed uniform, unit_from(0) = 2^-53, gives the deepest
    # site c_bar * 2^(53/alpha); that is finite at alpha = 0.052 and not at
    # alpha = 0.05 (nor at alpha = 0.5 with c_bar = 1e300).
    cfg = EnvConfig(d=2, alpha=0.052, theta=0.0, env_seed=1)
    deepest = cfg.c_bar * units_from(np.zeros(1, dtype=np.uint64)) ** (
        -1.0 / cfg.alpha)
    assert np.isfinite(deepest[0]) and deepest[0] > 1e306
    with pytest.raises(ContractViolationError):
        EnvConfig(d=2, alpha=0.05, theta=0.0, env_seed=1)
    with pytest.raises(ContractViolationError):
        EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=1, c_bar=1e300)


def test_origin_property():
    assert EnvConfig(d=3, alpha=0.5, theta=0.0, env_seed=0).origin == (0, 0, 0)


def test_wrong_dimension_site_rejected():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=0)
    with pytest.raises(ContractViolationError):
        tau_at(cfg, (1, 2, 3))


# ---------------------------------------------------------------------------
# the inverse-transform law
# ---------------------------------------------------------------------------


def test_tau_is_pareto_transform_of_uniform():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=31, c_bar=2.0)
    for x in [(0, 0), (1, -4), (-100, 55), (7, 7)]:
        u = uniform_at(cfg, x)
        assert 0.0 < u < 1.0
        t = tau_at(cfg, x)
        # independent recomputation through exp/log
        assert t == pytest.approx(2.0 * math.exp(-math.log(u) / 0.5), rel=1e-13)
        assert t > cfg.c_bar
        # and the inverse map recovers the uniform
        assert (t / 2.0) ** (-0.5) == pytest.approx(u, rel=1e-13)


def test_tau_floor_and_open_interval_bulk():
    cfg = EnvConfig(d=2, alpha=0.3, theta=0.0, env_seed=5, c_bar=0.7)
    taus = tau_array(cfg, _grid(cfg, 1000))
    assert taus.shape == (1_000_000,)
    assert np.all(taus > cfg.c_bar)
    assert np.isfinite(taus).all()


def test_tau_array_matches_scalar_bitwise():
    cfg = EnvConfig(d=3, alpha=0.8, theta=0.5, env_seed=11, c_bar=1.5)
    rng = np.random.default_rng(3)
    coords = rng.integers(-1000, 1000, size=(200, 3), dtype=np.int64)
    vec = tau_array(cfg, coords)
    for row, t in zip(coords, vec):
        assert t == tau_at(cfg, tuple(int(c) for c in row))


def test_environment_determinism_and_seed_separation():
    a = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=42)
    b = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=43)
    coords = _grid(a, 30)
    ta = tau_array(a, coords)
    assert np.array_equal(ta, tau_array(a, coords))
    assert not np.any(ta == tau_array(b, coords))


def test_site_hash_is_order_sensitive():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=8)
    assert tau_at(cfg, (1, 2)) != tau_at(cfg, (2, 1))


# ---------------------------------------------------------------------------
# marginal law: exact tail and KS against the exponential oracle
# ---------------------------------------------------------------------------


def test_tail_probability_closed_form():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=0)
    assert tail_probability(cfg, 0.5) == 1.0
    assert tail_probability(cfg, 1.0) == 1.0
    assert tail_probability(cfg, 16.0) == 0.25
    cfg2 = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=0, c_bar=2.0)
    assert tail_probability(cfg2, 8.0) == 0.5


def test_empirical_tail_matches_pareto():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=97, c_bar=1.0)
    taus = tau_array(cfg, _grid(cfg, 1000))
    n = taus.size
    for u in (2.0, 10.0, 100.0):
        p = tail_probability(cfg, u)
        emp = np.mean(taus > u)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(emp - p) < 3 * se


def test_log_tau_is_exponential_ks():
    # alpha * log(tau / c_bar) = -log U ~ Exp(1); scipy KS is the oracle.
    for alpha, seed in ((0.3, 1), (0.5, 2), (0.8, 3)):
        cfg = EnvConfig(d=2, alpha=alpha, theta=0.0, env_seed=seed, c_bar=3.0)
        taus = tau_array(cfg, _grid(cfg, 317))  # ~1e5 sites
        sample = alpha * np.log(taus / cfg.c_bar)
        stat = scipy.stats.kstest(sample, "expon").statistic
        assert stat < 0.01


# ---------------------------------------------------------------------------
# lattice structure
# ---------------------------------------------------------------------------


def test_neighbors_canonical_order():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=0)
    assert neighbors(cfg, (3, -1)) == [(4, -1), (2, -1), (3, 0), (3, -2)]
    cfg1 = EnvConfig(d=1, alpha=0.5, theta=0.0, env_seed=0)
    assert neighbors(cfg1, (5,)) == [(6,), (4,)]


def test_is_edge():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=0)
    assert is_edge(cfg, (0, 0), (1, 0))
    assert is_edge(cfg, (0, 0), (0, -1))
    assert not is_edge(cfg, (0, 0), (1, 1))
    assert not is_edge(cfg, (0, 0), (0, 0))
    assert not is_edge(cfg, (0, 0), (2, 0))


def test_rates_reject_non_edges():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.5, env_seed=0)
    with pytest.raises(ContractViolationError):
        edge_rate(cfg, (0, 0), (1, 1))
    with pytest.raises(ContractViolationError):
        vsrw_rate(cfg, (0, 0), (0, 0))


# ---------------------------------------------------------------------------
# rates: closed forms, reversibility, symmetrization
# ---------------------------------------------------------------------------


def test_edge_rate_closed_forms():
    cfg0 = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=55)
    x, y = (2, 3), (2, 4)
    # theta = 0: rate out of x is 1/tau(x), independent of y
    assert edge_rate(cfg0, x, y) == pytest.approx(1.0 / tau_at(cfg0, x), rel=1e-14)
    assert edge_rate(cfg0, x, y) == edge_rate(cfg0, x, (1, 3))

    cfg1 = EnvConfig(d=2, alpha=0.5, theta=1.0, env_seed=55)
    # theta = 1: rate equals tau(y), independent of x
    assert edge_rate(cfg1, x, y) == pytest.approx(tau_at(cfg1, y), rel=1e-14)

    cfgh = EnvConfig(d=2, alpha=0.5, theta=0.5, env_seed=55)
    want = math.sqrt(tau_at(cfgh, y) / tau_at(cfgh, x))
    assert edge_rate(cfgh, x, y) == pytest.approx(want, rel=1e-12)


def test_detailed_balance_sampled_edges():
    rng = np.random.default_rng(2024)
    for alpha in (0.3, 0.5, 0.8):
        for theta in (0.0, 0.5, 1.0):
            cfg = EnvConfig(d=2, alpha=alpha, theta=theta, env_seed=123)
            for _ in range(300):
                x = tuple(int(c) for c in rng.integers(-10**6, 10**6, size=2))
                y = list(x)
                y[int(rng.integers(0, 2))] += int(rng.integers(0, 2)) * 2 - 1
                y = tuple(y)
                lhs = tau_at(cfg, x) * edge_rate(cfg, x, y)
                rhs = tau_at(cfg, y) * edge_rate(cfg, y, x)
                assert abs(lhs - rhs) <= 1e-12 * lhs


def test_vsrw_rate_symmetric_bitwise():
    cfg = EnvConfig(d=3, alpha=0.5, theta=0.7, env_seed=9)
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = tuple(int(c) for c in rng.integers(-50, 50, size=3))
        y = list(x)
        y[int(rng.integers(0, 3))] += 1
        y = tuple(y)
        assert vsrw_rate(cfg, x, y) == vsrw_rate(cfg, y, x)


def test_vsrw_rate_is_symmetrized_dynamics_rate():
    # (tau_x tau_y)^theta = tau_x * lambda(x, y) up to float rounding.
    cfg = EnvConfig(d=2, alpha=0.8, theta=0.6, env_seed=77)
    for x in [(0, 0), (5, -2), (-3, 3)]:
        for y in neighbors(cfg, x):
            sym = vsrw_rate(cfg, x, y)
            assert sym == pytest.approx(tau_at(cfg, x) * edge_rate(cfg, x, y), rel=1e-12)
            assert sym == pytest.approx(tau_at(cfg, y) * edge_rate(cfg, y, x), rel=1e-12)


def test_vsrw_theta_zero_is_unit_rate():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=1)
    assert vsrw_rate(cfg, (0, 0), (0, 1)) == 1.0
