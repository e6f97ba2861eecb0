"""Result persistence (CSV / JSON), SVG plot emission, and run manifests."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .experiments import AXES, SweepResult, SweepRow


_ROW_FIELDS = fields(SweepRow)


def _table(rows) -> dict:
    """Table column -> its values over the rows: a split field gives one
    column per entry, a tuple of strings one column joined with "; "."""
    table = {}
    for f in _ROW_FIELDS:
        values = [getattr(row, f.name) for row in rows]
        split = f.metadata.get("split")
        if split:
            table.update((name, [None if v is None else v[k] for v in values])
                         for k, name in enumerate(split))
        else:
            table[f.name] = ["; ".join(v) if isinstance(v, tuple) else v
                             for v in values]
    return table


def _cells(values: list) -> list:
    return [value if isinstance(value, str) else
            "" if value is None else repr(float(value)) for value in values]


def _header(axis: str) -> list:
    header = [f"{axis} {AXES[axis].unit}"]  # the axis_value column
    for f in _ROW_FIELDS[1:]:
        unit = f.metadata.get("unit", "")
        header += [f"{name} {unit}".strip()
                   for name in f.metadata.get("split") or (f.name,)]
    return header


def write_results(result: SweepResult, fmt: str, path) -> Path:
    """Persist a sweep table; CSV gets RFC-4180 quoting, JSON full provenance.

    Float cells use repr, which round-trips every finite double exactly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        params = result.manifest.get("base_params", {})
        with open(path, "w", newline="", encoding="utf-8") as fh:
            # resolved parameter block as a comment preamble; the data table
            # below it is plain RFC-4180
            for key in sorted(params):
                fh.write(f"# {key} = {params[key]!r}\n")
            fh.write(f"# noise_model = {result.manifest.get('noise_model')}\n")
            fh.write(f"# omega = {result.manifest.get('omega')!r}\n")
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(_header(result.axis))
            columns = [_cells(c) for c in _table(result.rows).values()]
            writer.writerows(zip(*columns))
    elif fmt == "json":
        payload = {
            "manifest": result.manifest,
            "axis": result.axis,
            "rows": [asdict(r) for r in result.rows],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=np.ndarray.tolist)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


def read_results_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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


#: one SVG per entry: file suffix, y label, title, legend label -> column
PLOTS = (
    ("v12", "V12", "joint-quadrature correlation", {"V12": "v12"}),
    ("populations", "population", "steady-state populations",
     {f"pop{k}": f"pop{k}" for k in range(1, 5)}),
    ("absorption", "alpha [1/m]", "absorption coefficients",
     {"alpha1": "alpha1", "alpha2": "alpha2"}),
)


def emit_plot(result: SweepResult, stem) -> list:
    """Render the sweep as static SVG documents (one per observable family).

    Decorative output only; nothing downstream ever reads these files back.
    """
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    if len(result.rows) < 2:
        raise ValueError("plot needs a sweep with at least 2 rows")
    x = result.axis_values
    base = result.manifest.get("base_params", {})

    def fmt(key):
        value = base.get(key)
        return f"{value:.6g}" if isinstance(value, (int, float)) else "?"

    footer = (f"g={fmt('g')} n0={fmt('n0')} L={fmt('cell_length')} "
              f"noise={result.manifest.get('noise_model')}")
    table = _table(result.rows)
    written = []
    for suffix, ylabel, title, legend in PLOTS:
        series = {}
        for label, column in legend.items():
            vals = np.array(table[column], dtype=float)
            if np.any(np.isfinite(vals)):
                series[label] = vals
        if series:
            doc = _svg_line_plot(x, series, result.axis, ylabel, title, footer)
            path = stem.with_name(f"{stem.name}_{suffix}.svg")
            path.write_text(doc, encoding="utf-8")
            written.append(path)
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path
