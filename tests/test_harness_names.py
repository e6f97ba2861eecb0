"""The package names that the benchmark harness in benchmarks/ reads.

The harness drives the package from outside it and does not change with
it, so a name it reads that is renamed or deleted breaks the benchmark;
these tests hold every such name in the tier-1 suite.
"""

import importlib
import inspect

import numpy as np

import doublelambda
from doublelambda import (SystemParams, atom, cli, experiments, oracle,
                          propagation, steady)
from conftest import linearized

#: the modules whose public functions the harness's tracer wraps
TRACED_LAYERS = ("atom", "steady", "fluctuations", "propagation",
                 "entanglement", "experiments", "oracle", "io", "cli")


def test_entry_points():
    assert callable(cli.main)
    assert doublelambda.cli is cli
    row = doublelambda.compute_point(SystemParams())
    assert np.isfinite(row.v12) and row.method
    assert doublelambda.compute_point is experiments.compute_point
    g = experiments.calibrate_coupling(SystemParams(), target=0.05)
    assert np.isfinite(g)


def test_experiments_reexports():
    assert experiments.pr is propagation
    assert experiments.build_generator is atom.build_generator
    assert experiments.build_generator.__module__ == "doublelambda.atom"


def test_one_point_views():
    p = SystemParams()
    report = oracle.cross_validate(p)
    assert report.passed and len(report.checks) == 11
    assert list(inspect.signature(steady.solve_steady_state).parameters) \
        == ["gen", "params", "method"]
    gen = atom.build_generator(p)
    state = steady.solve_steady_state(gen, p)
    assert state.method == "null-space" and state.populations.shape == (4,)
    setup = propagation.make_setup(*linearized(gen, state, p), p)
    result = propagation.propagate_covariance(setup,
                                              propagation.input_covariance())
    assert result.converged is True and result.slabs == 0


def test_traced_layers_are_modules():
    for layer in TRACED_LAYERS:
        module = importlib.import_module(f"doublelambda.{layer}")
        assert any(inspect.isfunction(obj)
                   and obj.__module__ == module.__name__
                   for obj in vars(module).values()), layer
