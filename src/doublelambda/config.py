"""Run configuration: strict sectioned key = value files.

Sections: [params] (physical constants), [run] (command, integration and
output options), [sweep] (selector, axis, grid, scalings).  Unknown sections
or keys are rejected with the offending line number, as are malformed
numbers, physically invalid parameter combinations and retired keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

import numpy as np

from .experiments import AXES, ScalingRule
from .fluctuations import NOISE_MODELS
from .params import SystemParams

COMMANDS = ("steady", "spectrum", "sweep", "validate", "calibrate")
SELECTORS = ("fig2", "fig2-inset", "fig3", "fig4", "custom")
FORMATS = ("csv", "json")

PARAM_KEYS = tuple(f.name for f in fields(SystemParams))

_CLOSED_FORM = "covariance propagation is now closed-form"
_FIXED_GUARD = "the numerical guards are fixed constants of the solvers"

#: retired keys by section, each rejected with the reason it went away
RETIRED_KEYS = {
    "run": {"slabs": _CLOSED_FORM},
    "tolerances": {"slab_convergence": _CLOSED_FORM,
                   "steady_residual": _FIXED_GUARD,
                   "degeneracy_ratio": _FIXED_GUARD,
                   "response_condition": _FIXED_GUARD,
                   "dark_activity": _FIXED_GUARD},
}


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams = field(default_factory=SystemParams)
    command: str = "sweep"
    selector: str = "fig2"
    axis: str = "delta1"
    grid: tuple = (-4.0, 4.0, 201)     # start, stop, points
    scalings: tuple = ()
    omega: float = 0.0
    omega_grid: tuple = (0.0, 0.0, 1)  # for the spectrum command
    noise_model: str = "einstein"
    workers: int = 1
    out_dir: str = "out"
    fmt: str = "csv"
    svg: bool = False
    validate_every: int = 0

    def grid_array(self) -> np.ndarray:
        start, stop, points = self.grid
        return np.linspace(start, stop, int(points))

    def omega_array(self) -> np.ndarray:
        start, stop, points = self.omega_grid
        return np.linspace(start, stop, int(points))


def _parse_float(raw: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"malformed number {raw!r}", line)


def _parse_int(raw: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"malformed integer {raw!r}", line)


def _parse_bool(raw: str, line: int) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"malformed boolean {raw!r}", line)


def _parse_grid(raw: str, line: int) -> tuple:
    parts = [p.strip() for p in raw.split(":")]
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:points, got {raw!r}", line)
    start = _parse_float(parts[0], line)
    stop = _parse_float(parts[1], line)
    points = _parse_int(parts[2], line)
    if points < 1:
        raise ConfigError("grid needs at least one point", line)
    return (start, stop, points)


_SCALING_RE = re.compile(
    r"^(?P<param>\w+)\s*=\s*(?:(?P<base>base\*axis)"
    r"|(?P<coef_axis>[-+0-9.eE]+)\s*\*\s*axis"
    r"|(?P<coef>[-+0-9.eE]+))$")


def _parse_scalings(raw: str, line: int) -> tuple:
    rules = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _SCALING_RE.match(chunk)
        if not m:
            raise ConfigError(
                f"malformed scaling rule {chunk!r} "
                "(expected 'param=base*axis', 'param=COEF*axis' or 'param=COEF')",
                line)
        param = m.group("param")
        if param not in PARAM_KEYS:
            raise ConfigError(f"unknown scaling target {param!r}", line)
        if m.group("base"):
            rules.append(ScalingRule(param, "base*axis"))
        elif m.group("coef_axis") is not None:
            rules.append(ScalingRule(param, "value*axis",
                                     _parse_float(m.group("coef_axis"), line)))
        else:
            rules.append(ScalingRule(param, "value",
                                     _parse_float(m.group("coef"), line)))
    return tuple(rules)


def parse_config(text: str) -> RunConfig:
    """Parse a sectioned key = value config; defaults are the reference setup."""
    param_overrides: dict = {}
    run_kv: dict = {}
    sweep_kv: dict = {}
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in ("params", "run", "sweep", *RETIRED_KEYS):
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key = value, got {stripped!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any section", lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.split("#", 1)[0].strip()
        if section == "params":
            if key not in PARAM_KEYS:
                raise ConfigError(f"unknown parameter {key!r}", lineno)
            param_overrides[key] = _parse_float(raw, lineno)
        elif key in RETIRED_KEYS.get(section, {}):
            raise ConfigError(f"[{section}] {key} is retired: "
                              f"{RETIRED_KEYS[section][key]}", lineno)
        elif section == "run":
            if key == "command":
                if raw not in COMMANDS:
                    raise ConfigError(f"unknown command {raw!r}", lineno)
                run_kv["command"] = raw
            elif key == "format":
                if raw not in FORMATS:
                    raise ConfigError(f"unknown format {raw!r}", lineno)
                run_kv["fmt"] = raw
            elif key == "noise_model":
                if raw not in NOISE_MODELS:
                    raise ConfigError(f"unknown noise model {raw!r}", lineno)
                run_kv["noise_model"] = raw
            elif key == "workers":
                run_kv["workers"] = _parse_int(raw, lineno)
            elif key == "omega":
                run_kv["omega"] = _parse_float(raw, lineno)
            elif key == "omega_grid":
                run_kv["omega_grid"] = _parse_grid(raw, lineno)
            elif key == "out":
                run_kv["out_dir"] = raw
            elif key == "svg":
                run_kv["svg"] = _parse_bool(raw, lineno)
            elif key == "validate_every":
                run_kv["validate_every"] = _parse_int(raw, lineno)
            else:
                raise ConfigError(f"unknown run option {key!r}", lineno)
        elif section == "sweep":
            if key == "selector":
                if raw not in SELECTORS:
                    raise ConfigError(f"unknown sweep selector {raw!r}", lineno)
                sweep_kv["selector"] = raw
            elif key == "axis":
                if raw not in AXES:
                    raise ConfigError(f"unknown sweep axis {raw!r}", lineno)
                sweep_kv["axis"] = raw
            elif key == "grid":
                sweep_kv["grid"] = _parse_grid(raw, lineno)
            elif key == "scalings":
                sweep_kv["scalings"] = _parse_scalings(raw, lineno)
            else:
                raise ConfigError(f"unknown sweep option {key!r}", lineno)
        else:
            raise ConfigError(
                f"unknown option {key!r} in retired section [{section}]", lineno)
    try:
        params = SystemParams(**param_overrides)
    except ValueError as exc:
        raise ConfigError(f"invalid parameters: {exc}")
    return RunConfig(params=params, **run_kv, **sweep_kv)


def render_config(cfg: RunConfig) -> str:
    """Serialize a config so that parse(render(cfg)) == cfg."""
    lines = ["[params]"]
    for key in PARAM_KEYS:
        lines.append(f"{key} = {getattr(cfg.params, key)!r}")
    lines.append("")
    lines.append("[run]")
    lines.append(f"command = {cfg.command}")
    lines.append(f"format = {cfg.fmt}")
    lines.append(f"noise_model = {cfg.noise_model}")
    lines.append(f"workers = {cfg.workers}")
    lines.append(f"omega = {cfg.omega!r}")
    og = cfg.omega_grid
    lines.append(f"omega_grid = {og[0]!r}:{og[1]!r}:{og[2]}")
    lines.append(f"out = {cfg.out_dir}")
    lines.append(f"svg = {'true' if cfg.svg else 'false'}")
    lines.append(f"validate_every = {cfg.validate_every}")
    lines.append("")
    lines.append("[sweep]")
    lines.append(f"selector = {cfg.selector}")
    lines.append(f"axis = {cfg.axis}")
    g = cfg.grid
    lines.append(f"grid = {g[0]!r}:{g[1]!r}:{g[2]}")
    if cfg.scalings:
        chunks = []
        for r in cfg.scalings:
            if r.mode == "base*axis":
                chunks.append(f"{r.param}=base*axis")
            elif r.mode == "value*axis":
                chunks.append(f"{r.param}={r.coef!r}*axis")
            else:
                chunks.append(f"{r.param}={r.coef!r}")
        lines.append(f"scalings = {'; '.join(chunks)}")
    return "\n".join(lines) + "\n"
