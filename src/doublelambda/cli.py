"""Command-line entry point.

    simulate <command> [--config PATH] [--out DIR] [--format csv|json]
                       [--svg] [--omega W] [--noise-model M]

Commands: steady, spectrum, sweep, validate, calibrate.  Exit codes:
0 success, 2 validation failure, 1 error.  Every command runs in this
process; outputs go to --out, which is created with the first file written,
so a run refused before it writes leaves no directory.  A run keeps the heap
its stacked stages free for the next stage (see _keep_freed_heap).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments as ex
from . import fluctuations as fl
from . import io as io_mod
from .atom import build_generator
from .config import (COMMANDS, FORMATS, OPTIONS, ConfigError, RunConfig,
                     finite, parse_config)
from .oracle import cross_validate
from .steady import absorption, solve_steady_state


#: mallopt(3) parameters, from glibc's <malloc.h>
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3

#: glibc settings sized by the stack caps.  A stack of STACK_ROWS = 128 rows
#: makes no temporary above 0.46 MB (a complex (128, 15, 15) response; the
#: Van Loan slices are complex (128, 8, 8)), so under a 2 MiB mmap threshold
#: every stack array comes from the heap.  A stacked pass holds at most 3.4
#: MiB of heap above its start (128 frequencies; 1.7 MiB for a fig2 sweep in
#: stacks of STACK_POINTS = 64), so a 4 MiB trim threshold keeps a freed
#: heap top for the next stage and the next run.  Under a 3 MiB one, a
#: second 128-frequency spectrum in one process still took 1,600 minor page
#: faults.  Larger stacks pass these sizes: under STACK_ROWS = 256, 1024
#: frequencies took 72 ms of CPU against 54 ms under 128.
MALLOPT = ((M_TRIM_THRESHOLD, 4 << 20), (M_MMAP_THRESHOLD, 2 << 20))


def _keep_freed_heap() -> None:
    """Keep freed stack memory in this process instead of returning it to
    the OS, where the next stage would page-fault it in again.  Nothing is
    set on a C library without mallopt (not glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in MALLOPT:
        mallopt(param, value)


def _options():
    """(key, RunConfig field) of every [run] and [sweep] option."""
    return [(key, name) for options in OPTIONS.values()
            for key, (name, _) in options.items()]


def _config_dict(cfg: RunConfig) -> dict:
    """The manifest's record of the config: params and every option."""
    values = dataclasses.asdict(cfg)
    return {"params": values["params"],
            **{key: values[name] for key, name in _options()}}


def _write_manifest(cfg: RunConfig, elapsed: float, path: Path,
                    **sections) -> Path:
    """Write the run manifest with the given sections (see run_manifest)."""
    return io_mod.write_manifest(io_mod.run_manifest(
        _config_dict(cfg), {cfg.command: elapsed}, **sections), path)


def _sweep_spec(cfg: RunConfig) -> ex.SweepSpec:
    common = dict(omega=cfg.omega, noise_model=cfg.noise_model,
                  validate_every=cfg.validate_every)
    if cfg.selector == "custom":
        return ex.SweepSpec(base=cfg.params, axis=cfg.axis,
                            grid=np.linspace(*cfg.grid),
                            scalings=cfg.scalings, **common)
    return ex.SWEEP_SELECTORS[cfg.selector](cfg.params, **common)


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    spec = _sweep_spec(cfg)
    if cfg.svg and spec.grid.size < 2:  # refused before anything is written
        raise ValueError(f"svg needs a sweep of at least 2 points, "
                         f"got {spec.grid.size}")
    result = ex.run_sweep(spec)
    elapsed = time.perf_counter() - t0
    name = cfg.selector if cfg.selector != "custom" else f"sweep_{spec.axis}"
    table = out / f"{name}.{cfg.fmt}"
    io_mod.write_results(result, cfg.fmt, table)
    written = [str(table)]
    if cfg.svg:
        written += [str(p) for p in io_mod.emit_plot(result, out / name)]
    _write_manifest(cfg, elapsed, out / f"{name}_manifest.json",
                    extra={"sweep_manifest": result.manifest})
    failed = np.count_nonzero(result.columns["error"] != "")
    print(f"sweep {cfg.selector}: {spec.grid.size} points "
          f"({failed} failed) in {elapsed:.2f} s -> {', '.join(written)}")
    return 0


def cmd_steady(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    gen = build_generator(cfg.params)
    state = solve_steady_state(gen, cfg.params)
    s1, s2, alpha1, alpha2 = absorption(state.expectations, cfg.params)
    elapsed = time.perf_counter() - t0
    record = {
        "method": state.method,
        "populations": [float(x) for x in state.populations],
        "s1": [float(np.real(s1)), float(np.imag(s1))],
        "s2": [float(np.real(s2)), float(np.imag(s2))],
        # null for a field that is off, which absorption leaves NaN
        "alpha1": float(alpha1) if cfg.params.a1_mean > 0 else None,
        "alpha2": float(alpha2) if cfg.params.a2_mean > 0 else None,
        "expectations_re": [float(x) for x in np.real(state.expectations)],
        "expectations_im": [float(x) for x in np.imag(state.expectations)],
    }
    path = _write_manifest(cfg, elapsed, out / "steady.json",
                           extra={"steady_state": record})
    print(f"steady state ({state.method}): populations = "
          f"{np.round(state.populations, 6).tolist()} -> {path}")
    return 0


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    rows = ex.spectrum(cfg.params, np.linspace(*cfg.omega_grid),
                       noise_model=cfg.noise_model)
    elapsed = time.perf_counter() - t0
    records = [{"omega": r.axis_value, "v12": r.v12, "du2": r.du2,
                "dv2": r.dv2, "error": r.error, "warnings": list(r.warnings)}
               for r in rows]
    path = _write_manifest(cfg, elapsed, out / "spectrum.json",
                           extra={"spectrum": records})
    failed = [r for r in rows if r.failed]
    if failed:  # the first failed frequency, as the run's error
        print(f"error: {failed[0].error}", file=sys.stderr)
        return 1
    print(f"spectrum: {len(rows)} frequencies in {elapsed:.2f} s -> {path}")
    return 0


def cmd_validate(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    report = cross_validate(cfg.params)
    elapsed = time.perf_counter() - t0
    _write_manifest(cfg, elapsed, out / "validate.json",
                    validation=report.as_dict())
    for check in report.checks:
        mark = "pass" if check.passed else "FAIL"
        print(f"  [{mark}] {check.name}: residual {check.residual:.2e} "
              f"(tol {check.tolerance:.0e})")
    if not report.passed:
        names = ", ".join(c.name for c in report.failures)
        print(f"validation FAILED: {names}")
        return 2
    print("validation passed")
    return 0


def cmd_calibrate(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    g = ex.calibrate_coupling(cfg.params)
    elapsed = time.perf_counter() - t0
    params = cfg.params.replace(g=g, delta1=-cfg.params.omega42 / 2)
    state = solve_steady_state(build_generator(params), params)
    record = {"g": g, "populations": [float(x) for x in state.populations]}
    _write_manifest(cfg, elapsed, out / "calibrate.json",
                    extra={"calibration": record})
    print(f"calibrated g = {g:.6f} "
          f"(midpoint populations {np.round(state.populations, 4).tolist()})")
    return 0


COMMAND_HANDLERS = {
    "sweep": cmd_sweep,
    "steady": cmd_steady,
    "spectrum": cmd_spectrum,
    "validate": cmd_validate,
    "calibrate": cmd_calibrate,
}


def _finite_omega(raw: str) -> float:
    try:
        return finite("omega")(raw)
    except ValueError as exc:  # argparse prints its message
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Double-lambda medium simulator: steady states, "
                    "fluctuation spectra, and joint-quadrature correlations.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="sectioned key = value config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=FORMATS, default=None)
    parser.add_argument("--svg", action="store_true", default=None,
                        help="also emit SVG plots")
    parser.add_argument("--omega", type=_finite_omega, default=None,
                        help="sideband analysis frequency")
    parser.add_argument("--noise-model", choices=fl.NOISE_MODELS, default=None)
    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig() if args.config is None else \
            parse_config(Path(args.config).read_text(encoding="utf-8"))
        # each flag is named after the option it overrides
        overrides = {name: getattr(args, key) for key, name in _options()
                     if getattr(args, key, None) is not None}
        cfg = dataclasses.replace(cfg, **overrides)
        return COMMAND_HANDLERS[cfg.command](cfg, Path(cfg.out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
