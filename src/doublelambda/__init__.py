"""Simulator for joint-quadrature entanglement of two bright pump fields in a
closed double-Lambda four-level medium with interfering spontaneous decay.

The oracle's names load with the oracle, on first use: it is the one module
that imports scipy, and only validation needs it.
"""

from .atom import (DarkStateAnalysis, Generator, RateMatrices,
                   build_generator, build_rate_matrices, dark_state_analysis)
from .entanglement import DuanResult, duan_v12
from .experiments import (ScalingRule, SweepResult, SweepRow, SweepSpec,
                          alignment_spec, amplitude_spec, calibrate_coupling,
                          compute_point, dephasing_spec, detuning_spec,
                          evaluate_points, run_sweep, spectrum)
from .fluctuations import LinearizedSystem, linearize
from .params import CALIBRATED_G, AtomicBasis, BASIS, SystemParams
from .propagation import (FieldCovariance, PropagationSetup, input_covariance,
                          make_setup, propagate_covariance)
from .steady import AtomState, Observables, observables, solve_steady_state

__version__ = "0.1.0"

_ORACLE_NAMES = ("EvolutionResult", "ValidationReport", "cross_validate",
                 "lyapunov_covariance", "regression_covariance", "time_evolve")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
