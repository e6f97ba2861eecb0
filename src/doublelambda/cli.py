"""Command-line entry point.

    simulate <command> [--config PATH] [--out DIR] [--format csv|json]
                       [--svg] [--omega W] [--noise-model M]

Commands: steady, spectrum, sweep, validate, calibrate.  Exit codes:
0 success, 2 validation failure, 1 error.  SIMULATE_WORKERS sets the sweep
worker count unless the config overrides it.
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
from . import propagation as pr
from .atom import build_generator
from .config import COMMANDS, ConfigError, RunConfig, parse_config
from .entanglement import duan_v12
from .oracle import cross_validate
from .steady import observables, solve_steady_state


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    text = Path(path).read_text(encoding="utf-8")
    return parse_config(text)


def _config_dict(cfg: RunConfig) -> dict:
    return {
        "params": cfg.params.as_dict(),
        "command": cfg.command,
        "selector": cfg.selector,
        "axis": cfg.axis,
        "grid": list(cfg.grid),
        "omega": cfg.omega,
        "omega_grid": list(cfg.omega_grid),
        "noise_model": cfg.noise_model,
        "workers": cfg.workers,
        "format": cfg.fmt,
        "svg": cfg.svg,
        "validate_every": cfg.validate_every,
    }


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
    result = ex.run_sweep(spec, workers=cfg.workers)
    elapsed = time.perf_counter() - t0
    name = cfg.selector if cfg.selector != "custom" else f"sweep_{spec.axis}"
    table = out / f"{name}.{cfg.fmt}"
    io_mod.write_results(result, cfg.fmt, table)
    written = [str(table)]
    if cfg.svg:
        written += [str(p) for p in io_mod.emit_plot(result, out / name)]
    manifest = io_mod.run_manifest(
        _config_dict(cfg), {"sweep": elapsed},
        extra={"sweep_manifest": result.manifest})
    io_mod.write_manifest(manifest, out / f"{name}_manifest.json")
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
    manifest = io_mod.run_manifest(_config_dict(cfg), {"steady": elapsed},
                                   extra={"steady_state": record})
    path = io_mod.write_manifest(manifest, out / "steady.json")
    print(f"steady state ({state.method}): populations = "
          f"{np.round(state.populations, 6).tolist()} -> {path}")
    return 0


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    gen = build_generator(cfg.params)
    state = solve_steady_state(gen, cfg.params)
    lin = fl.linearize(gen, state, cfg.params, noise_model=cfg.noise_model)
    rows = []
    for omega in cfg.omega_array():
        setup = pr.make_setup(lin, cfg.params, omega=float(omega))
        res = pr.propagate_covariance(setup, pr.input_covariance(omega=float(omega)))
        duan = duan_v12(res.covariance)
        rows.append({"omega": float(omega), "v12": duan.v12,
                     "du2": duan.du2, "dv2": duan.dv2,
                     "warnings": list(res.warnings)})
    elapsed = time.perf_counter() - t0
    manifest = io_mod.run_manifest(_config_dict(cfg), {"spectrum": elapsed},
                                   extra={"spectrum": rows})
    path = io_mod.write_manifest(manifest, out / "spectrum.json")
    print(f"spectrum: {len(rows)} frequencies in {elapsed:.2f} s -> {path}")
    return 0


def cmd_validate(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    report = cross_validate(cfg.params)
    elapsed = time.perf_counter() - t0
    manifest = io_mod.run_manifest(_config_dict(cfg), {"validate": elapsed},
                                   validation=report.as_dict())
    io_mod.write_manifest(manifest, out / "validate.json")
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
    manifest = io_mod.run_manifest(_config_dict(cfg), {"calibrate": elapsed},
                                   extra={"calibration": record})
    io_mod.write_manifest(manifest, out / "calibrate.json")
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
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--svg", action="store_true", default=None,
                        help="also emit SVG plots")
    parser.add_argument("--omega", type=float, default=None,
                        help="sideband analysis frequency")
    parser.add_argument("--noise-model", choices=fl.NOISE_MODELS, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        overrides = {"command": args.command}
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.format is not None:
            overrides["fmt"] = args.format
        if args.svg:
            overrides["svg"] = True
        if args.omega is not None:
            overrides["omega"] = args.omega
        if args.noise_model is not None:
            overrides["noise_model"] = args.noise_model
        if cfg.workers == 1:
            overrides["workers"] = ex.worker_count()
        cfg = dataclasses.replace(cfg, **overrides)
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
