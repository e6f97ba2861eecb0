"""Tests of the benchmark harness itself.

    python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import json
import math

import pytest

import run

run.prepare()

import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {"fig2-sweep": 3, "spectrum-dense": 3, "validate-battery": 2,
         "calibrate-batch": 2}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(7, tmp_path / "a").input_bytes()
    assert cls(7, tmp_path / "b").input_bytes() == first
    assert cls(8, tmp_path / "c").input_bytes() != first


def test_default_seed_is_the_fig2_grid(tmp_path):
    wl = workloads.WORKLOADS["fig2-sweep"](0, tmp_path)
    assert "grid = -4.0:4.0:201\n" in wl.input_bytes().decode()


def _write_spectrum(wl, rows):
    (wl.out_dir / "spectrum.json").write_text(json.dumps({"spectrum": rows}))


def test_corrupted_spectrum_output_counts_as_failed(tmp_path):
    wl = workloads.WORKLOADS["spectrum-dense"](0, tmp_path)
    rows = [dict(r) for r in wl.golden["rows"]]
    _write_spectrum(wl, rows)
    assert wl.check(0) == 0
    assert wl.check(0) == wl.items  # the pass wrote no output
    rows[5]["v12"] *= 1.0 + 1e-9
    rows[9]["dv2"] = math.nan
    _write_spectrum(wl, rows)
    assert wl.check(0) == 2
    _write_spectrum(wl, rows[:-3])
    assert wl.check(0) == 5
    _write_spectrum(wl, rows)
    assert wl.check(1) == wl.items


def test_wrong_coupling_counts_as_failed(tmp_path):
    wl = workloads.WORKLOADS["calibrate-batch"](0, tmp_path)
    couplings = list(wl.golden["g"])
    assert wl.check(couplings) == 0
    couplings[3] *= 1.0 + 1e-9
    couplings[4] = None
    assert wl.check(couplings) == 2
    assert wl.check(couplings[:-1]) == 3


def test_failed_validation_counts_as_failed(tmp_path):
    wl = workloads.WORKLOADS["validate-battery"](0, tmp_path)
    assert wl.check([True] * wl.items) == 0
    assert wl.check([True, False] + [True] * (wl.items - 2)) == 1


def test_failing_item_raises_failed_count(tmp_path):
    wl = workloads.WORKLOADS["calibrate-batch"](1, tmp_path, items=2)
    # a population no coupling in the bracket reaches: the root finder fails
    wl.cases[1] = workloads.Calibration(wl.cases[1].base, 0.9)
    result = run.measure(wl, 0.0, tracing.NullTracer())
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_cli_error_fails_every_item(tmp_path):
    wl = workloads.WORKLOADS["fig2-sweep"](1, tmp_path, items=3)
    wl.config_path.write_text("[run]\nnoise_model = none\n")
    result = run.measure(wl, 0.0, tracing.NullTracer())
    assert (result["attempted"], result["failed"]) == (3, 3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_add_up_to_traced_wall(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path, items=SMALL[name])
    tracer = tracing.Tracer()
    result = run.measure(wl, 0.0, tracer)
    assert result["failed"] == 0
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == len(result["walls"]) == 1
    root_wall = roots[0].end - roots[0].start
    assert sum(tracer.self_times()) == pytest.approx(root_wall, rel=1e-9)
    probe = sum(s.end - s.start for s in tracer.spans if s.name == "bench.probe")
    assert root_wall - probe == pytest.approx(result["raw_walls"][0], abs=1e-3)
    metrics = tracing.layer_metrics(tracer, result, result, wl.items)
    assert set(tracing.metric_units()) <= set(metrics)
    assert metrics["trace.overhead_s"] == 0.0
    shares = sum(metrics[f"{layer}.self_share"] for layer in tracing.LAYERS)
    assert 0.5 < shares <= 1.0 + 1e-12
    assert all(s.item is not None for s in tracer.spans)


def test_tracing_leaves_the_package_unpatched(tmp_path):
    from doublelambda import experiments, propagation

    original = propagation.propagate_covariance
    tracer = tracing.Tracer()
    with tracer.install():
        assert experiments.pr.propagate_covariance is not original
    assert propagation.propagate_covariance is original
    assert experiments.build_generator.__module__ == "doublelambda.atom"
