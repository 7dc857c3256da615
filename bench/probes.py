"""Layer probes: each layer's public function timed alone on fixed inputs.

The rows reproduce the "Measured baseline" table of ROADMAP.md (taken on a
2-vCPU machine with Python 3.11.7 and NumPy 2.4.6, read as +-20%).  Each
probe runs its call ``REPEATS`` times and reports the median rate; a row
more than 20% away from the ROADMAP figure is flagged.  Inputs never depend
on the benchmark seed, so the table compares across runs and machines.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

import trapclock.aging
import trapclock.chains
import trapclock.clock
import trapclock.env
import trapclock.estimators
import trapclock.limits
import trapclock.rng

REPEATS = 3
FLAG_FRACTION = 0.2

# probe metric name -> ROADMAP baseline rate
ROADMAP_BASELINE = {
    "probe.rng.hash_coords.sites_per_s": 4.2e7,
    "probe.env.tau_array.sites_per_s": 3.3e7,
    "probe.chains.fast.events_per_s": 1.05e7,
    "probe.chains.general.events_per_s": 4.2e5,
    "probe.chains.discrete.steps_per_s": 1.3e5,
    "probe.clock.build_clock.events_per_s": 3.1e7,
    "probe.clock.build_clock_discrete.steps_per_s": 8.2e6,
    "probe.estimators.block_runs_per_s": 2.8e3,
    "probe.limits.passage_values.paths_per_s": 6.9e4,
    "probe.limits.fk_msd.samples_per_s": 1.7e3,
    "probe.aging.trajectories_per_s": 1.6e3,
}


def _rate(work: int, call) -> float:
    rates = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        call()
        rates.append(work / (time.perf_counter() - started))
    return statistics.median(rates)


def run_probes() -> dict:
    """Rate per probe (units of work per second), keyed by metric name."""
    chains, env_mod, rng = trapclock.chains, trapclock.env, trapclock.rng
    cont, disc = chains.ChainKind.CONTINUOUS_J_VSRW, chains.ChainKind.DISCRETE_J
    env0 = env_mod.EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=12345)
    env_half = env_mod.EnvConfig(d=2, alpha=0.5, theta=0.5, env_seed=12345)
    coords = np.random.default_rng(0).integers(-10**6, 10**6, size=(10**6, 2))
    out = {}

    out["probe.rng.hash_coords.sites_per_s"] = _rate(
        len(coords), lambda: rng.hash_coords(env0.env_seed, coords))
    out["probe.env.tau_array.sites_per_s"] = _rate(
        len(coords), lambda: env_mod.tau_array(env0, coords))

    # every repeat starts from a fresh model, so its per-site cache is cold
    # and the repeats do identical work
    n_fast = 10**6
    out["probe.chains.fast.events_per_s"] = _rate(n_fast, lambda: chains.run_vsrw(
        chains.LatticeModel(env0), chains.TrajectoryConfig(1, cont),
        max_events=n_fast, want_ledger=False))
    n_gen = 10**5
    out["probe.chains.general.events_per_s"] = _rate(n_gen, lambda: chains.run_vsrw(
        chains.LatticeModel(env_half), chains.TrajectoryConfig(1, cont),
        max_events=n_gen, want_ledger=False))
    n_disc = 3 * 10**4
    out["probe.chains.discrete.steps_per_s"] = _rate(n_disc, lambda: chains.run_discrete(
        chains.LatticeModel(env0), chains.TrajectoryConfig(1, disc, horizon=n_disc),
        want_ledger=False))

    model = chains.LatticeModel(env0)
    _, fast_jumps = chains.run_vsrw(model, chains.TrajectoryConfig(2, cont),
                                    max_events=n_fast, want_ledger=False)
    out["probe.clock.build_clock.events_per_s"] = _rate(
        n_fast, lambda: trapclock.clock.build_clock(model, fast_jumps))
    _, disc_jumps = chains.run_discrete(model, chains.TrajectoryConfig(
        2, disc, horizon=n_disc), want_ledger=False)
    out["probe.clock.build_clock_discrete.steps_per_s"] = _rate(
        10 * n_disc, lambda: [trapclock.clock.build_clock(model, disc_jumps)
                              for _ in range(10)])

    scales = trapclock.clock.ScaleSet.for_lattice(10**4, 2, 0.5)
    n_traj = 4
    blocks = n_traj * (scales.k_of(1.0) - 1)
    out["probe.estimators.block_runs_per_s"] = _rate(
        blocks, lambda: trapclock.estimators.estimate_nu_t(
            env0, scales, 1.0, [0.5, 1.0, 2.0], n_traj, kind=disc,
            mode="annealed", seed=3))

    n_paths = 20_000
    out["probe.limits.passage_values.paths_per_s"] = _rate(
        n_paths, lambda: trapclock.limits.passage_values(
            0.5, 1.0, n_paths, np.random.default_rng(5)))
    n_fk = 300
    grid = np.exp(np.linspace(0.0, np.log(100.0), 6))
    out["probe.limits.fk_msd.samples_per_s"] = _rate(
        n_fk, lambda: trapclock.limits.fk_msd(0.5, 2, grid, n_fk, seed=9))

    n_env, n_traj = 20, 10
    out["probe.aging.trajectories_per_s"] = _rate(
        n_env * n_traj, lambda: trapclock.aging.batm_aging_points(
            env0, 1e4, 1.0, n_env=n_env, n_traj=n_traj))
    return out


def flagged(rates: dict) -> list:
    """Probe names whose rate is more than FLAG_FRACTION away from ROADMAP."""
    return [name for name, base in ROADMAP_BASELINE.items()
            if abs(rates[name] / base - 1.0) > FLAG_FRACTION]
