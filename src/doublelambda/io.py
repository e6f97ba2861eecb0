"""Result persistence (CSV / JSON), SVG plot emission, and run manifests."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import fields
from io import StringIO
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .experiments import AXES, SweepResult, SweepRow, _values


_ROW_FIELDS = fields(SweepRow)


def _table(result: SweepResult) -> dict:
    """Table column header -> its values over the rows: the axis in its
    unit, then one column per field, or per entry of a split field."""
    axis = AXES[result.axis]
    table = {f"{result.axis} {axis.unit}": result.columns["axis_value"]}
    for f in _ROW_FIELDS[1:]:
        column, unit = result.columns[f.name], f.metadata.get("unit", "")
        table.update((f"{name} {unit}".strip(), values) for name, values in
                     zip(f.metadata.get("split") or (f.name,),
                         column.reshape(len(column), -1).T))
    return table


def _cells(values: np.ndarray) -> list:
    """CSV cells: text as it is, a tuple of strings joined with "; ", a
    number by repr and NaN as an empty cell."""
    if values.dtype == object:
        return [v if isinstance(v, str) else "; ".join(v) for v in values]
    return ["" if v != v else repr(v) for v in values.tolist()]


def _write_text(path, text: str) -> Path:
    """Replace the file at `path` (or a symlink's target) by a new one with
    `text`: never truncated in place or renamed over, which ext4's
    `auto_da_alloc` makes wait for the disk (README, "Command line").
    Only a regular file is replaced; a device, FIFO, socket or directory
    at the target raises FileExistsError and is left as it is."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    target = path.resolve()
    if target.is_file():
        target.unlink()
    elif target.exists():
        raise FileExistsError(f"{target} is not a regular file; not replaced")
    with open(target, "x", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_results(result: SweepResult, fmt: str, path) -> Path:
    """Persist a sweep table; CSV gets RFC-4180 quoting, JSON full provenance.

    Float cells use repr, which round-trips every finite double exactly.
    """
    if fmt == "csv":
        params = result.manifest.get("base_params", {})
        buf = StringIO(newline="")
        # resolved parameter block as a comment preamble; the data table
        # below it is plain RFC-4180
        for key in sorted(params):
            buf.write(f"# {key} = {params[key]!r}\n")
        buf.write(f"# noise_model = {result.manifest.get('noise_model')}\n")
        buf.write(f"# omega = {result.manifest.get('omega')!r}\n")
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
        table = _table(result)
        writer.writerow(table)
        writer.writerows(zip(*map(_cells, table.values())))
        text = buf.getvalue()
    elif fmt == "json":
        payload = {
            "manifest": result.manifest,
            "axis": result.axis,
            "rows": [dict(zip((f.name for f in _ROW_FIELDS), cells))
                     for cells in zip(*(_values(f, result.columns[f.name])
                                        for f in _ROW_FIELDS))],
        }
        text = json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return _write_text(path, text)


# -- SVG ----------------------------------------------------------------------

SVG_W, SVG_H = 640, 420
MARGIN = {"left": 64, "right": 16, "top": 28, "bottom": 64}
SERIES_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _svg_line_plot(x: np.ndarray, series: dict, xlabel: str, ylabel: str,
                   title: str, footer: str) -> str:
    """One SVG document; x has at least 2 points and every series a finite
    value (emit_plot passes no other)."""
    finite_y = np.concatenate([y[np.isfinite(y)] for y in series.values()])
    x_min, x_max = float(np.min(x)), float(np.max(x))
    y_min, y_max = float(np.min(finite_y)), float(np.max(finite_y))
    if x_max == x_min:
        raise ValueError(f"degenerate axis range for column {xlabel!r}")
    if y_max == y_min:
        y_min -= 0.5
        y_max += 0.5
    px0, px1 = MARGIN["left"], SVG_W - MARGIN["right"]
    py0, py1 = SVG_H - MARGIN["bottom"], MARGIN["top"]

    def sx(v):
        return px0 + (v - x_min) / (x_max - x_min) * (px1 - px0)

    def sy(v):
        return py0 + (v - y_min) / (y_max - y_min) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" '
        f'height="{SVG_H}" viewBox="0 0 {SVG_W} {SVG_H}">',
        f'<rect width="{SVG_W}" height="{SVG_H}" fill="white"/>',
        f'<text x="{SVG_W/2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]
    # axes and ticks
    parts.append(f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" '
                 'stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_min + frac * (x_max - x_min)
        yv = y_min + frac * (y_max - y_min)
        parts.append(f'<line x1="{sx(xv):.1f}" y1="{py0}" x2="{sx(xv):.1f}" '
                     f'y2="{py0 + 4}" stroke="black"/>')
        parts.append(f'<text x="{sx(xv):.1f}" y="{py0 + 18}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{xv:.4g}</text>')
        parts.append(f'<line x1="{px0 - 4}" y1="{sy(yv):.1f}" x2="{px0}" '
                     f'y2="{sy(yv):.1f}" stroke="black"/>')
        parts.append(f'<text x="{px0 - 8}" y="{sy(yv) + 3:.1f}" '
                     'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10">{yv:.4g}</text>')
    parts.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{py0 + 34}" '
                 'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(py0 + py1) / 2:.1f}" '
                 'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12" transform="rotate(-90 16 '
                 f'{(py0 + py1) / 2:.1f})">{ylabel}</text>')
    for idx, (label, y) in enumerate(series.items()):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        pts = [f"{sx(xv):.2f},{sy(yv):.2f}"
               for xv, yv in zip(x, y) if np.isfinite(yv)]
        if len(pts) >= 2:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{px1 - 8}" y="{py1 + 14 + 14 * idx}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append(f'<text x="{px0}" y="{SVG_H - 8}" font-family="monospace" '
                 f'font-size="9">{footer}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


#: one SVG per entry: file suffix, y label, title, legend label -> table
#: column
PLOTS = (
    ("v12", "V12", "joint-quadrature correlation", {"V12": "v12 [1]"}),
    ("populations", "population", "steady-state populations",
     {f"pop{k}": f"pop{k} [1]" for k in range(1, 5)}),
    ("absorption", "alpha [1/m]", "absorption coefficients",
     {"alpha1": "alpha1 [1/m]", "alpha2": "alpha2 [1/m]"}),
)


def emit_plot(result: SweepResult, stem) -> list:
    """Render the sweep as static SVG documents (one per observable family).

    Decorative output only; nothing downstream ever reads these files back.
    """
    stem = Path(stem)
    x = result.columns["axis_value"]
    if len(x) < 2:
        raise ValueError("plot needs a sweep with at least 2 rows")
    base = result.manifest.get("base_params", {})

    def fmt(key):
        value = base.get(key)
        return f"{value:.6g}" if isinstance(value, (int, float)) else "?"

    footer = (f"g={fmt('g')} n0={fmt('n0')} L={fmt('cell_length')} "
              f"noise={result.manifest.get('noise_model')}")
    table = _table(result)
    written = []
    for suffix, ylabel, title, legend in PLOTS:
        series = {label: table[column] for label, column in legend.items()
                  if np.isfinite(table[column]).any()}
        if series:
            doc = _svg_line_plot(x, series, result.axis, ylabel, title, footer)
            path = stem.with_name(f"{stem.name}_{suffix}.svg")
            written.append(_write_text(path, doc))
    return written


# -- manifest -----------------------------------------------------------------

def run_manifest(config_dict: dict, timings: dict,
                 validation: Optional[dict] = None,
                 extra: Optional[dict] = None) -> dict:
    """Machine-readable record of a completed run."""
    record = {
        "package": "doublelambda",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": config_dict,
        "timings_s": timings,
        "validation": validation,
    }
    if extra:
        record.update(extra)
    return record


def write_manifest(manifest: dict, path) -> Path:
    return _write_text(path, json.dumps(manifest, indent=2) + "\n")
