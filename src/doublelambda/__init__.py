"""Simulator for joint-quadrature entanglement of two bright pump fields in a
closed double-Lambda four-level medium with interfering spontaneous decay."""

from .atom import (DarkStateAnalysis, Generator, RateMatrices,
                   build_generator, build_hamiltonian, build_rate_matrices,
                   dark_state_analysis)
from .entanglement import DuanResult, duan_v12
from .experiments import (ScalingRule, SweepResult, SweepRow, SweepSpec,
                          alignment_spec, amplitude_spec, calibrate_coupling,
                          compute_point, dephasing_spec, detuning_spec,
                          evaluate_points, run_sweep, spectrum)
from .fluctuations import LinearizedSystem, linearize
from .oracle import (EvolutionResult, ValidationReport, cross_validate,
                     lyapunov_covariance, regression_covariance, time_evolve)
from .params import CALIBRATED_G, AtomicBasis, BASIS, SystemParams
from .propagation import (FieldCovariance, PropagationSetup, input_covariance,
                          make_setup, propagate_covariance)
from .steady import AtomState, Observables, observables, solve_steady_state

__version__ = "0.1.0"
