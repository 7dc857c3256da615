"""Quenched-disorder clock processes: heavy-tailed trap dynamics on Z^d.

The package simulates reversible trap-model dynamics in random environments,
accumulates and rescales their clock processes, estimates the block
conditions that drive convergence to stable subordinators, and runs aging
experiments whose limit is the generalized arcsine law.

Layers (importable a la carte):

* env         random environment: heavy-tailed site depths on Z^d
* chains      trajectory engines (variable-speed walk, discrete chain)
* clock       clock accumulation, scale sets, blocking, truncation
* estimators  Monte Carlo / exact small-graph condition estimators
* limits      arcsine law, stable subordinators, fractional kinetics
* aging       two-time correlation experiments vs the arcsine prediction
* cli         batch front end (``trapclock`` entry point)
"""

from .errors import (ContractViolationError, DegenerateScaleError, DomainError,
                     EventCapError, RangeExhaustedError, TrapclockError)
from .env import EnvConfig, tau_array
from .rng import ENV_FANOUT, TRAJ_FANOUT, Stream, hash_coords, hash_words, mix64
from .chains import (ChainKind, JumpSequence, LatticeModel, LocalTimeLedger,
                     TableModel, TrajectoryConfig, run_discrete, run_vsrw)
from .clock import (BlockSeries, ClockPath, ScaleSet, block_series,
                    build_clock, truncated_clock_path)
from .estimators import (ConditionEstimate, ConditionName, PiEstimate,
                         estimate_mark_conditions, estimate_nu_t,
                         estimate_pi_t, heat_kernel_mc, range_stat, return_sum)
from .limits import (arcsine_cdf, default_cutoff, fk_msd, inverse_mean,
                     overshoot, passage_values, sample_stable_marginal,
                     subordinator_values)
from .aging import (AgingKind, AgingPoint, aging_grid, batm_aging_points,
                    estimate_Ceps_fk)
from .stats import slope_and_se

__version__ = "1.0.0"

__all__ = [
    "AgingKind", "AgingPoint", "BlockSeries", "ChainKind", "ClockPath",
    "ConditionEstimate", "ConditionName", "ContractViolationError",
    "DegenerateScaleError", "DomainError", "EnvConfig", "ENV_FANOUT",
    "EventCapError", "JumpSequence", "LatticeModel",
    "LocalTimeLedger", "PiEstimate", "RangeExhaustedError",
    "ScaleSet", "Stream", "TableModel", "TrajectoryConfig",
    "TrapclockError", "TRAJ_FANOUT", "aging_grid",
    "arcsine_cdf", "batm_aging_points", "block_series", "build_clock",
    "default_cutoff", "estimate_Ceps_fk", "estimate_mark_conditions",
    "estimate_nu_t", "estimate_pi_t", "fk_msd",
    "hash_coords", "hash_words", "heat_kernel_mc", "inverse_mean", "mix64",
    "overshoot", "passage_values", "range_stat", "return_sum",
    "run_discrete", "run_vsrw", "sample_stable_marginal", "slope_and_se",
    "subordinator_values", "tau_array", "truncated_clock_path",
]
