"""Hashed Pareto environments: site checks, the inverse-transform law,
marginals, and the lattice rates the site table reads off the depths.

Oracles: the inverse-transform law is checked against independent
recomputation (math.exp/log), the marginal tail against exact binomial
bands, and the full distribution against scipy's exponential KS test —
alpha * log(tau/c_bar) must be a unit exponential.  The site table's
neighbour order, weights and rates are checked against depths recomputed
with ``tau_array``.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from trapclock.chains import LatticeModel
from trapclock.env import EnvConfig, tau_array
from trapclock.errors import ContractViolationError
from trapclock.rng import hash_coords, hash_words, unit_from, units_from


def _tau(cfg, x):
    """tau(x) of one site."""
    return tau_array(cfg, np.array([x]))[0]


def _table_row(model, x):
    """The site table's row of the site x: the neighbours in table order,
    the cumulative neighbour weights and the site's rate."""
    i = model.site_id(x)
    table = model.sites
    coords = table.column("coords")
    nbrs = [tuple(coords[j].tolist()) for j in table.nbr[i][:-1]]
    return nbrs, table.cum[i], table.rate[i]


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
    model = LatticeModel(EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=0))
    with pytest.raises(ContractViolationError):
        model.as_site((1, 2, 3))


def test_non_integral_site_rejected():
    # the site check once truncated (0.5, 1.2) to the site (0, 1)
    model = LatticeModel(EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=0))
    for bad in ((0.5, 1.2), (0, 1.2), (math.nan, 0), (math.inf, 0), ("0", 1)):
        with pytest.raises(ContractViolationError):
            model.as_site(bad)
    assert model.as_site((0.0, 1.0)) == model.as_site((0, 1))
    assert model.as_site(np.array([0, 1])) == model.as_site((0, 1))


# ---------------------------------------------------------------------------
# the inverse-transform law
# ---------------------------------------------------------------------------


def test_tau_is_pareto_transform_of_uniform():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=31, c_bar=2.0)
    for x in [(0, 0), (1, -4), (-100, 55), (7, 7)]:
        u = unit_from(hash_words(cfg.env_seed, *x))
        assert 0.0 < u < 1.0
        t = _tau(cfg, x)
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
    # a site's depth does not depend on the batch it is read in
    cfg = EnvConfig(d=3, alpha=0.8, theta=0.5, env_seed=11, c_bar=1.5)
    rng = np.random.default_rng(3)
    coords = rng.integers(-1000, 1000, size=(200, 3), dtype=np.int64)
    vec = tau_array(cfg, coords)
    for row, t in zip(coords, vec):
        assert t == _tau(cfg, tuple(int(c) for c in row))


def test_environment_determinism_and_seed_separation():
    a = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=42)
    b = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=43)
    coords = _grid(a, 30)
    ta = tau_array(a, coords)
    assert np.array_equal(ta, tau_array(a, coords))
    assert not np.any(ta == tau_array(b, coords))


def test_site_hash_is_order_sensitive():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=8)
    assert _tau(cfg, (1, 2)) != _tau(cfg, (2, 1))


# ---------------------------------------------------------------------------
# marginal law: exact tail and KS against the exponential oracle
# ---------------------------------------------------------------------------


def test_empirical_tail_matches_pareto():
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=97, c_bar=1.0)
    taus = tau_array(cfg, _grid(cfg, 1000))
    n = taus.size
    for u in (2.0, 10.0, 100.0):
        p = (u / cfg.c_bar) ** (-cfg.alpha)     # exact Pareto tail
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


@pytest.mark.parametrize("c_bar, u, p", [(1.0, 16.0, 0.25), (2.0, 8.0, 0.5),
                                         (1.0, 1.0, 1.0)])
def test_tail_probability_closed_form(c_bar, u, p):
    # P(tau > u) = (u / c_bar)^(-alpha): tau(x) > u is exactly the event
    # U(x) < p of the site's uniform
    cfg = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=0, c_bar=c_bar)
    assert (u / c_bar) ** (-cfg.alpha) == p
    coords = _grid(cfg, 200)
    units = units_from(hash_coords(cfg.env_seed, coords))
    np.testing.assert_array_equal(tau_array(cfg, coords) > u, units < p)


# ---------------------------------------------------------------------------
# lattice structure
# ---------------------------------------------------------------------------


def test_neighbors_canonical_order():
    # +e_0, -e_0, +e_1, ...: the order of the site table and of step, which
    # at theta = 0 gives each neighbour a quarter of [0, 1)
    for d, x, want in [(2, (3, -1), [(4, -1), (2, -1), (3, 0), (3, -2)]),
                       (1, (5,), [(6,), (4,)])]:
        model = LatticeModel(EnvConfig(d=d, alpha=0.5, theta=0.0, env_seed=0))
        assert _table_row(model, x)[0] == want
        u = (np.arange(2 * d) + 0.5) / (2 * d)
        got = model.step(np.array([x] * (2 * d), dtype=np.int64), u)
        assert [tuple(r) for r in got.tolist()] == want


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_step_moves_along_an_edge(theta):
    # a jump changes one coordinate by one; u = 0 picks +e_0 and u = 1 is
    # capped at the last neighbour, -e_(d-1)
    rng = np.random.default_rng(6)
    for d in (1, 2, 3):
        model = LatticeModel(EnvConfig(d=d, alpha=0.5, theta=theta, env_seed=5))
        x = rng.integers(-10**6, 10**6, size=(500, d), dtype=np.int64)
        u = rng.random(500)
        u[:2] = (0.0, 1.0)
        diff = model.step(x, u) - x
        assert np.all(np.abs(diff).sum(axis=1) == 1)
        assert diff[0].tolist() == [1] + [0] * (d - 1)
        assert diff[1].tolist() == [0] * (d - 1) + [-1]


# ---------------------------------------------------------------------------
# rates: closed forms, reversibility, symmetrization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_edge_rate_closed_forms(theta):
    # the table weighs the edge x -> y by tau(y)^theta, cumulated in
    # neighbour order, so lambda(x, y) = tau(x)^(theta-1) tau(y)^theta; the
    # site's rate is the walk's total rate tau(x)^theta sum_y tau(y)^theta
    cfg = EnvConfig(d=2, alpha=0.5, theta=theta, env_seed=55)
    model = LatticeModel(cfg)
    for x in [(2, 3), (-40, 7)]:
        nbrs, cum, rate = _table_row(model, x)
        nbr_taus = tau_array(cfg, np.array(nbrs))
        want = np.cumsum(nbr_taus ** theta)
        assert cum == tuple(want.tolist())
        assert rate == pytest.approx(_tau(cfg, x) ** theta * want[-1], rel=1e-15)
        if theta == 0.0:
            assert cum == (1.0, 2.0, 3.0, 4.0)
        if theta == 1.0:
            assert np.diff(cum, prepend=0.0) == pytest.approx(nbr_taus, rel=1e-12,
                                                              abs=1e-15 * cum[-1])


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_detailed_balance_sampled_edges(theta):
    # pi(x) p(x, y) = tau(x)^theta w_x(y) with pi(x) the site's rate and
    # w_x(y) the weight the table gives the edge: both orientations equal
    # (tau(x) tau(y))^theta, up to the rounding of differencing cumulative
    # weights, which is relative to each site's total
    rng = np.random.default_rng(2024)
    for alpha in (0.3, 0.5, 0.8):
        model = LatticeModel(EnvConfig(d=2, alpha=alpha, theta=theta, env_seed=123))
        for _ in range(60):
            x = tuple(rng.integers(-10**6, 10**6, size=2).tolist())
            a, step = int(rng.integers(0, 2)), int(rng.integers(0, 2)) * 2 - 1
            y = tuple(c + step * (i == a) for i, c in enumerate(x))
            flows = []
            for here, there in ((x, y), (y, x)):
                nbrs, cum, rate = _table_row(model, here)
                w = np.diff(cum, prepend=0.0)[nbrs.index(there)]
                flows.append((rate * w / cum[-1], rate))
            (lhs, rate_x), (rhs, rate_y) = flows
            assert abs(lhs - rhs) <= 1e-14 * (rate_x + rate_y)
            if theta == 0.0:
                assert lhs == rhs == 1.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_vsrw_theta_zero_is_unit_rate(d):
    # every edge of the theta = 0 walk has rate 1: a site's rate is 2d
    model = LatticeModel(EnvConfig(d=d, alpha=0.5, theta=0.0, env_seed=1))
    for x in [(0,) * d, (9,) * d, (-3,) + (4,) * (d - 1)]:
        _, cum, rate = _table_row(model, x)
        assert cum == tuple(float(k) for k in range(1, 2 * d + 1))
        assert rate == 2.0 * d


def test_vsrw_rate_is_symmetrized_dynamics_rate():
    # the site's rate is the sum over its edges of the symmetric
    # (tau(x) tau(y))^theta = tau(x) lambda(x, y)
    cfg = EnvConfig(d=2, alpha=0.8, theta=0.6, env_seed=77)
    model = LatticeModel(cfg)
    for x in [(0, 0), (5, -2), (-3, 3)]:
        nbrs, _, rate = _table_row(model, x)
        tau_x = _tau(cfg, x)
        sym = [(tau_x * _tau(cfg, y)) ** cfg.theta for y in nbrs]
        lam = [tau_x ** (cfg.theta - 1.0) * _tau(cfg, y) ** cfg.theta for y in nbrs]
        assert rate == pytest.approx(sum(sym), rel=1e-12)
        assert sym == pytest.approx([tau_x * v for v in lam], rel=1e-12)
