"""Command-line entry point.

    simulate <command> [--config PATH] [--out DIR] [--format csv|json]
                       [--svg] [--omega W] [--noise-model M]

Commands: steady, spectrum, sweep, validate, calibrate.  Exit codes:
0 success, 2 validation failure, 1 error.  SIMULATE_WORKERS sets the sweep
worker count unless the config's [run] workers key sets it.
"""

from __future__ import annotations

import argparse
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
                     parse_config)
from .oracle import cross_validate
from .steady import observables, solve_steady_state


def _options():
    """(key, RunConfig field) of every [run] and [sweep] option."""
    return [(key, name) for options in OPTIONS.values()
            for key, (name, _, _) in options.items()]


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
                            grid=cfg.grid_array(), scalings=cfg.scalings,
                            **common)
    return ex.SWEEP_SELECTORS[cfg.selector](cfg.params, **common)


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    spec = _sweep_spec(cfg)
    cfg = dataclasses.replace(
        cfg, workers=ex.pool_size(cfg.workers, spec.grid.size))
    result = ex.run_sweep(spec, workers=cfg.workers)
    elapsed = time.perf_counter() - t0
    name = cfg.selector if cfg.selector != "custom" else f"sweep_{spec.axis}"
    table = out / f"{name}.{cfg.fmt}"
    io_mod.write_results(result, cfg.fmt, table)
    written = [str(table)]
    if cfg.svg:
        written += [str(p) for p in io_mod.emit_plot(result, out / name)]
    _write_manifest(cfg, elapsed, out / f"{name}_manifest.json",
                    extra={"sweep_manifest": result.manifest})
    failed = sum(1 for r in result.rows if r.failed)
    print(f"sweep {cfg.selector}: {len(result.rows)} points "
          f"({failed} failed) in {elapsed:.2f} s -> {', '.join(written)}")
    return 0


def cmd_steady(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    gen = build_generator(cfg.params)
    state = solve_steady_state(gen, cfg.params)
    obs = observables(state, cfg.params)
    elapsed = time.perf_counter() - t0
    record = {
        "method": state.method,
        "populations": [float(x) for x in state.populations],
        "s1": [float(np.real(obs.s1)), float(np.imag(obs.s1))],
        "s2": [float(np.real(obs.s2)), float(np.imag(obs.s2))],
        "alpha1": obs.alpha1,
        "alpha2": obs.alpha2,
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
    path = _write_manifest(cfg, elapsed, out / "spectrum.json",
                           extra={"spectrum": rows})
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
    parser.add_argument("--omega", type=float, default=None,
                        help="sideband analysis frequency")
    parser.add_argument("--noise-model", choices=fl.NOISE_MODELS, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig() if args.config is None else \
            parse_config(Path(args.config).read_text(encoding="utf-8"))
        # each flag is named after the option it overrides
        overrides = {name: getattr(args, key) for key, name in _options()
                     if getattr(args, key, None) is not None}
        if cfg.workers is None:
            overrides["workers"] = ex.worker_count()
        cfg = dataclasses.replace(cfg, **overrides)
        if cfg.command != "sweep":  # no pool runs: one process does the work
            cfg = dataclasses.replace(cfg, workers=ex.pool_size(cfg.workers, 1))
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return COMMAND_HANDLERS[cfg.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
