"""Quenched-disorder clock processes: heavy-tailed trap dynamics on Z^d.

The package simulates reversible trap-model dynamics in random environments,
accumulates and rescales their clock processes, estimates the block
conditions that drive convergence to stable subordinators, and runs aging
experiments whose limit is the generalized arcsine law.

Layers (importable a la carte):

* env         random environment: heavy-tailed site depths on Z^d
* chains      trajectory engines (variable-speed walk, discrete chain)
* clock       clock accumulation, rescaling, blocking, truncation, inversion
* estimators  Monte Carlo / exact small-graph condition estimators
* limits      arcsine law, stable subordinators, fractional kinetics
* aging       two-time correlation experiments vs the arcsine prediction
* cli         batch front end (``trapclock`` entry point)
"""

from .errors import (ContractViolationError, DegenerateScaleError, DomainError,
                     EventCapError, RangeExhaustedError, TrapclockError)
from .env import EnvConfig, edge_rate, neighbors, tail_probability, tau_array, \
    tau_at, vsrw_rate
from .rng import ENV_FANOUT, TRAJ_FANOUT, Stream, hash_coords, hash_words, mix64
from .chains import (ChainKind, JumpRecord, JumpSequence, LatticeModel,
                     LocalTimeLedger, TableModel, TrajectoryConfig,
                     jump_distribution, occupation_from_jumps, position_of_x,
                     run_discrete, run_vsrw)
from .clock import (BlockSeries, ClockPath, ScaleSet, block_series,
                    blocked_clock, build_clock, inverse_clock, rescale,
                    truncated_blocked_clock, truncated_clock_path)
from .estimators import (ConditionEstimate, ConditionName, PiEstimate,
                         TrapSetSample, estimate_m_eps,
                         estimate_mark_conditions, estimate_nu_t,
                         estimate_pi_t, estimate_Q_u, estimate_sigma_t,
                         exit_time_cdf, heat_kernel_mc, range_stat, return_sum,
                         trap_set)
from .limits import (arcsine_cdf, default_cutoff, fk_msd, inverse_mean,
                     overshoot, passage_values, regularized_incomplete_beta,
                     sample_stable_marginal, subordinator_values)
from .aging import (AgingKind, AgingPoint, aging_grid, batm_aging_points,
                    estimate_Ceps_fk, window_stats)
from .stats import slope_and_se

__version__ = "1.0.0"

__all__ = [
    "AgingKind", "AgingPoint", "BlockSeries", "ChainKind", "ClockPath",
    "ConditionEstimate", "ConditionName", "ContractViolationError",
    "DegenerateScaleError", "DomainError", "EnvConfig", "ENV_FANOUT",
    "EventCapError", "JumpRecord", "JumpSequence", "LatticeModel",
    "LocalTimeLedger", "PiEstimate", "RangeExhaustedError",
    "ScaleSet", "Stream", "TableModel", "TrajectoryConfig",
    "TrapSetSample", "TrapclockError", "TRAJ_FANOUT", "aging_grid",
    "arcsine_cdf", "batm_aging_points", "block_series", "blocked_clock",
    "build_clock", "default_cutoff", "edge_rate", "estimate_Ceps_fk",
    "estimate_m_eps", "estimate_mark_conditions", "estimate_nu_t",
    "estimate_pi_t", "estimate_Q_u", "estimate_sigma_t", "exit_time_cdf",
    "fk_msd", "hash_coords", "hash_words",
    "heat_kernel_mc", "inverse_clock", "inverse_mean", "jump_distribution",
    "mix64", "neighbors", "occupation_from_jumps", "overshoot",
    "passage_values", "position_of_x", "range_stat",
    "regularized_incomplete_beta", "rescale", "return_sum", "run_discrete",
    "run_vsrw", "sample_stable_marginal", "slope_and_se", "subordinator_values", "tail_probability", "tau_array",
    "tau_at", "trap_set", "truncated_blocked_clock", "truncated_clock_path",
    "vsrw_rate", "window_stats",
]
