"""Run configuration: strict sectioned key = value files.

Sections: [params] (physical constants), [run] (command, integration and
output options), [sweep] (selector, axis, grid, scalings).  Unknown sections
or keys are rejected with the offending line number, as are malformed
numbers, physically invalid parameter combinations and retired keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .experiments import AXES, SWEEP_SELECTORS, ScalingRule
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
    workers: Optional[int] = None      # None: SIMULATE_WORKERS decides
    out_dir: str = "out"
    fmt: str = "csv"
    svg: bool = False
    validate_every: int = 0

    def grid_array(self) -> np.ndarray:
        start, stop, points = self.grid
        return np.linspace(start, stop, int(points))


def _strip_comment(line: str) -> str:
    """The line without its comment, which starts at a '#' after whitespace
    (so 'results#1' is a value), and without surrounding whitespace."""
    return re.split(r"\s#", line, maxsplit=1)[0].strip()


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"malformed number {raw!r}") from None


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"malformed integer {raw!r}") from None


def _parse_workers(raw: str) -> int:
    workers = _parse_int(raw)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"malformed boolean {raw!r}")


def _parse_grid(raw: str) -> tuple:
    parts = [p.strip() for p in raw.split(":")]
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:points, got {raw!r}")
    start, stop, points = (_parse_float(parts[0]), _parse_float(parts[1]),
                           _parse_int(parts[2]))
    if points < 1:
        raise ValueError("grid needs at least one point")
    return (start, stop, points)


def _render_grid(grid: tuple) -> str:
    return f"{grid[0]!r}:{grid[1]!r}:{grid[2]}"


def _parse_scalings(raw: str) -> tuple:
    return tuple(ScalingRule.parse(chunk.strip())
                 for chunk in raw.split(";") if chunk.strip())


def _choice(what: str, choices) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"unknown {what} {raw!r}")
        return raw
    return parse


#: section -> key -> (RunConfig field, parser, renderer).  A parser takes
#: the raw text and raises ValueError naming what is wrong; a renderer
#: writes the text that parser reads back.  Options left unset (None or
#: empty) are not rendered.
OPTIONS = {
    "run": {
        "command": ("command", _choice("command", COMMANDS), str),
        "format": ("fmt", _choice("format", FORMATS), str),
        "noise_model": ("noise_model", _choice("noise model", NOISE_MODELS),
                        str),
        "workers": ("workers", _parse_workers, str),
        "omega": ("omega", _parse_float, repr),
        "omega_grid": ("omega_grid", _parse_grid, _render_grid),
        "out": ("out_dir", str, str),
        "svg": ("svg", _parse_bool, lambda v: "true" if v else "false"),
        "validate_every": ("validate_every", _parse_int, str),
    },
    "sweep": {
        "selector": ("selector", _choice("sweep selector", SELECTORS), str),
        "axis": ("axis", _choice("sweep axis", AXES), str),
        "grid": ("grid", _parse_grid, _render_grid),
        "scalings": ("scalings", _parse_scalings,
                     lambda rules: "; ".join(map(str, rules))),
    },
}


def parse_config(text: str) -> RunConfig:
    """Parse a sectioned key = value config; defaults are the reference setup."""
    values = {"params": {}, "run": {}}
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
        elif key in RETIRED_KEYS.get(section, {}):
            raise ConfigError(f"[{section}] {key} is retired: "
                              f"{RETIRED_KEYS[section][key]}", lineno)
        elif section in OPTIONS:
            if key not in OPTIONS[section]:
                raise ConfigError(f"unknown {section} option {key!r}", lineno)
            name, parse, _ = OPTIONS[section][key]
            target = values["run"]
        else:
            raise ConfigError(
                f"unknown option {key!r} in retired section [{section}]", lineno)
        try:
            target[name] = parse(raw)
        except ValueError as exc:
            raise ConfigError(str(exc), lineno) from None
    try:
        params = SystemParams(**values["params"])
    except ValueError as exc:
        raise ConfigError(f"invalid parameters: {exc}")
    return RunConfig(params=params, **values["run"])


def render_config(cfg: RunConfig) -> str:
    """Serialize a config so that parse(render(cfg)) == cfg, else ValueError."""
    lines = ["[params]"]
    lines += [f"{key} = {getattr(cfg.params, key)!r}" for key in PARAM_KEYS]
    for section, options in OPTIONS.items():
        lines += ["", f"[{section}]"]
        for key, (name, _, render) in options.items():
            value = getattr(cfg, name)
            if value is not None and value != ():
                text = render(value)
                if _strip_comment(text) != text or len(text.splitlines()) > 1:
                    raise ValueError(f"[{section}] {key} = {text!r} would "
                                     "not read back as written")
                lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
