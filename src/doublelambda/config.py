"""Run configuration: strict sectioned key = value files.

Sections: [params] (physical constants), [run] (command, integration and
output options), [sweep] (selector, axis, grid, scalings).  Unknown sections
or keys are rejected with the offending line number, as are malformed
numbers, physically invalid parameter combinations, retired keys, an axis,
grid or scalings key under any selector but custom, and scaling rules that
set a parameter twice or take the axis over.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .experiments import (AXES, SWEEP_SELECTORS, ScalingRule, check_grid,
                          check_scalings)
from .fluctuations import NOISE_MODELS
from .params import SystemParams

COMMANDS = ("steady", "spectrum", "sweep", "validate", "calibrate")
SELECTORS = (*SWEEP_SELECTORS, "custom")
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
    workers: int = 1                   # sweeps run in one process
    out_dir: str = "out"
    fmt: str = "csv"
    svg: bool = False
    validate_every: int = 0


def _strip_comment(line: str) -> str:
    """The line without its comment, which starts at a '#' after whitespace
    (so 'results#1' is a value), and without surrounding whitespace."""
    return re.split(r"\s#", line, maxsplit=1)[0].strip()


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"malformed number {raw!r}") from None


def finite(key: str) -> Callable[[str], float]:
    """Parser of a number that must be finite, refused as key's value."""
    def parse(raw: str) -> float:
        value = _parse_float(raw)
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        return value
    return parse


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"malformed integer {raw!r}") from None


def _int_at_least(key: str, low: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = _parse_int(raw)
        if value < low:
            raise ValueError(f"{key} must be >= {low}, got {value}")
        return value
    return parse


def _parse_workers(raw: str) -> int:
    """The one accepted count, which manifests record."""
    if _parse_int(raw) != 1:
        raise ValueError(f"workers must be 1, got {raw}: sweeps run in one "
                         "process")
    return 1


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"malformed boolean {raw!r}")


def _grid(key: str) -> Callable[[str], tuple]:
    def parse(raw: str) -> tuple:
        parts = [p.strip() for p in raw.split(":")]
        if len(parts) != 3:
            raise ValueError(f"{key} must be start:stop:points, got {raw!r}")
        return (finite(f"{key} start")(parts[0]),
                finite(f"{key} stop")(parts[1]),
                _int_at_least(f"{key} points", 1)(parts[2]))
    return parse


def _parse_scalings(raw: str) -> tuple:
    return tuple(ScalingRule.parse(chunk.strip())
                 for chunk in raw.split(";") if chunk.strip())


def _choice(what: str, choices) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"unknown {what} {raw!r}")
        return raw
    return parse


#: section -> key -> (RunConfig field, parser).  A parser takes the raw
#: text and raises ValueError naming what is wrong.
OPTIONS = {
    "run": {
        "command": ("command", _choice("command", COMMANDS)),
        "format": ("fmt", _choice("format", FORMATS)),
        "noise_model": ("noise_model", _choice("noise model", NOISE_MODELS)),
        "workers": ("workers", _parse_workers),
        "omega": ("omega", finite("omega")),
        "omega_grid": ("omega_grid", _grid("omega_grid")),
        "out": ("out_dir", str),
        "svg": ("svg", _parse_bool),
        "validate_every": ("validate_every",
                           _int_at_least("validate_every", 0)),
    },
    "sweep": {
        "selector": ("selector", _choice("sweep selector", SELECTORS)),
        "axis": ("axis", _choice("sweep axis", AXES)),
        "grid": ("grid", _grid("grid")),
        "scalings": ("scalings", _parse_scalings),
    },
}

#: the [sweep] keys that only selector = custom reads
CUSTOM_KEYS = ("axis", "grid", "scalings")


def parse_config(text: str) -> RunConfig:
    """Parse a sectioned key = value config; defaults are the reference setup."""
    values = {"params": {}, "run": {}}
    # last line of each [params] key and of each CUSTOM_KEYS key given
    param_lines, custom_lines = {}, {}
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(rawline)
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in ("params", *OPTIONS, *RETIRED_KEYS):
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key = value, got {stripped!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any section", lineno)
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if section == "params":
            if key not in PARAM_KEYS:
                raise ConfigError(f"unknown parameter {key!r}", lineno)
            target, name, parse = values["params"], key, _parse_float
            param_lines[key] = lineno
        elif key in RETIRED_KEYS.get(section, {}):
            raise ConfigError(f"[{section}] {key} is retired: "
                              f"{RETIRED_KEYS[section][key]}", lineno)
        elif section in OPTIONS:
            if key not in OPTIONS[section]:
                raise ConfigError(f"unknown {section} option {key!r}", lineno)
            name, parse = OPTIONS[section][key]
            target = values["run"]
            if section == "sweep" and key in CUSTOM_KEYS:
                custom_lines[key] = lineno
        else:
            raise ConfigError(
                f"unknown option {key!r} in retired section [{section}]", lineno)
        try:
            target[name] = parse(raw)
        except ValueError as exc:
            raise ConfigError(str(exc), lineno) from None
    selector = values["run"].get("selector", RunConfig.selector)
    if custom_lines and selector != "custom":
        key, lineno = next(iter(custom_lines.items()))  # the first given
        raise ConfigError(f"[sweep] {key} applies to selector = custom only, "
                          f"not {selector}", lineno)
    if "scalings" in custom_lines:  # refused at the scalings line read
        try:
            check_scalings(values["run"].get("axis", RunConfig.axis),
                           values["run"]["scalings"])
        except ValueError as exc:
            raise ConfigError(str(exc), custom_lines["scalings"]) from None
    if "grid" in custom_lines:  # the points the sweep would run
        try:
            check_grid(np.linspace(*values["run"]["grid"]))
        except ValueError as exc:
            raise ConfigError(str(exc), custom_lines["grid"]) from None
    try:
        params = SystemParams(**values["params"])
    except ValueError as exc:  # each check is on one field, named first
        field_name = re.match(r"\|?(\w+)", str(exc))[1]
        raise ConfigError(f"invalid parameters: {exc}",
                          param_lines[field_name]) from None
    return RunConfig(params=params, **values["run"])
