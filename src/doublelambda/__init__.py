"""Simulator for joint-quadrature entanglement of two bright pump fields in a
closed double-Lambda four-level medium with interfering spontaneous decay.

The package runs on numpy alone; scipy serves only as the tests' reference
for the in-package matrix functions, root finder and Lyapunov solve.
"""

from .atom import Generator, build_generator
from .experiments import (ScalingRule, SweepResult, SweepRow, SweepSpec,
                          alignment_spec, amplitude_spec, calibrate_coupling,
                          compute_point, dephasing_spec, detuning_spec,
                          evaluate_points, run_sweep, spectrum)
from .oracle import (EvolutionResult, ValidationReport, cross_validate,
                     lyapunov_covariance, regression_covariance, time_evolve)
from .params import CALIBRATED_G, AtomicBasis, BASIS, SystemParams
from .propagation import (FieldCovariance, PropagationSetup, input_covariance,
                          make_setup, propagate_covariance)
from .steady import AtomState, solve_steady_state

__version__ = "0.1.0"
