"""Benchmark of the doublelambda pipeline, end to end and per layer.

    python3 benchmarks/run.py --workload fig2-sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run is a closed loop: one client, one process, one
worker, BLAS pinned to one thread.  It repeats passes over the seeded inputs
for ``--seconds`` seconds and checks every pass's outputs outside the timed
window.  Times are scaled to nominal machine speed by the speed probe in
``speed.py``, because the cores are shared and their speed drifts; the raw
times go to the run record under ``.bench_out/``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half
the time untraced and half traced and reports the per-layer metrics, with
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give the environment, the failed fraction and each metric with its unit.
CPU frequency and other load on the machine are not controlled.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Unpinned, the OpenBLAS pool made validate-battery use about twice the CPU
#: and run slower on a 2-core machine; threadpoolctl is not available, so the
#: pin goes through the environment before numpy loads.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "SIMULATE_WORKERS": "1"}
os.environ.update(PINNED_ENV)

import speed  # noqa: E402  (loads numpy, so after the pin)

SETUP_RUNS = 5
SETUP_PROBE_S = 0.1
SETUP_CODE = ("from doublelambda import cli, SystemParams, compute_point; "
              "print(repr(compute_point(SystemParams()).v12))")

END_TO_END = {"items_per_s": "1/s", "wall_s": "s", "cpu_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def prepare() -> None:
    """Put the checkout's package first on the import path."""
    if not (SRC / "doublelambda" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no doublelambda package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment(seed: int, items: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "seed": seed, "items_per_pass": items,
        "pinned_env": PINNED_ENV,
        "speed_nominal_kernel_s": speed.NOMINAL_S,
        "not_controlled": "CPU frequency and other system-wide load; times "
                          "are scaled to nominal speed by the speed probe",
    }


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU.

    The speed probe then samples the CPU the measured work runs on; the
    work itself is single-threaded, so it loses nothing.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh-interpreter import of the package up to its first result.

    Returns the times scaled to nominal machine speed by the speed kernel
    run for SETUP_PROBE_S just before and just after each, and the raw
    times.  In two sets of ten runs per workload, the median raw time moved
    between sets by up to 37 % and the median scaled time by at most 4.5 %.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        samples = speed.sample_for(SETUP_PROBE_S)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        raw.append(time.perf_counter() - t0)
        samples += speed.sample_for(SETUP_PROBE_S)
        scaled.append(raw[-1] / speed.slowdown(samples))
        if proc.returncode != 0 or not 3.0 < float(proc.stdout) < 5.0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return scaled, raw


def measure(workload, seconds: float, tracer) -> dict:
    """Timed passes until the next one would overrun `seconds`.

    `walls` and `cpus` are per-pass times at nominal machine speed, with the
    speed probe's own time taken out; `raw_walls` are the unscaled times.
    """
    run = {"walls": [], "cpus": [], "raw_walls": [], "factors": [],
           "probe_samples": [], "failed": 0, "attempted": 0}
    while sum(run["raw_walls"]) + statistics.median(
            run["raw_walls"] or [0.0]) <= seconds or not run["walls"]:
        with tracer.install(), speed.SpeedProbe(tracer) as probe:
            with tracer.span("bench.pass"):
                probe.start()
                w0, c0 = time.perf_counter(), time.process_time()
                output = workload.run_pass(tracer)
                probe.stop()
                wall = time.perf_counter() - w0 - probe.inside_wall
                cpu = time.process_time() - c0 - probe.inside_cpu
        run["raw_walls"].append(wall)
        run["factors"].append(probe.factor)
        run["probe_samples"].append(len(probe.inside))
        run["walls"].append(wall / probe.factor)
        run["cpus"].append(cpu / probe.factor)
        run["failed"] += workload.check(output)
        run["attempted"] += workload.items
    return run


def main(argv=None) -> int:
    prepare()
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    env = environment(args.seed, workload.items)
    env["cpu"] = pin_to_one_cpu()
    print("# environment: " + json.dumps(env))
    setup, setup_raw = ([], []) if args.trace else measure_setup()
    workload.warmup()

    record = {"environment": env, "setup_s": setup, "setup_raw_s": setup_raw}
    if args.trace:
        untraced = measure(workload, args.seconds / 2, tracing.NullTracer())
        tracer = tracing.Tracer()
        traced = measure(workload, args.seconds / 2, tracer)
        runs = [untraced, traced]
        metrics = tracing.layer_metrics(tracer, traced, untraced,
                                        workload.items)
        units = tracing.metric_units()
        trace_path = out_dir / "spans.json"
        trace_path.write_text(json.dumps(
            [dataclasses.asdict(s) for s in tracer.spans]), encoding="utf-8")
        record["untraced"], record["traced"] = untraced, traced
        record["tail_pct"] = {k: v for k, v in metrics.items()
                              if k.endswith(".tail_pct")}
    else:
        run = measure(workload, args.seconds, tracing.NullTracer())
        runs = [run]
        metrics = {
            "items_per_s": statistics.median(
                workload.items / w for w in run["walls"]),
            "wall_s": statistics.median(run["walls"]),
            "cpu_s": statistics.median(run["cpus"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        record["run"] = run

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record["failed_frac"] = failed / attempted
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]}
                         for k in units}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1),
                                         encoding="utf-8")
    passes = sum(len(r["walls"]) for r in runs)
    print(f"# {args.workload} seed {args.seed}: {passes} passes of "
          f"{workload.items} items, failed_frac {failed / attempted:g} "
          f"({failed}/{attempted})")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
