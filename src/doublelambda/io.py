"""Result persistence (CSV / JSON), SVG plot emission, and run manifests."""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .experiments import SweepResult, SweepRow

CSV_COLUMNS = [
    ("axis", ""),           # replaced by the swept-quantity name + unit
    ("v12", "[1]"),
    ("du2", "[1]"),
    ("dv2", "[1]"),
    ("pop1", "[1]"),
    ("pop2", "[1]"),
    ("pop3", "[1]"),
    ("pop4", "[1]"),
    ("alpha1", "[1/m]"),
    ("alpha2", "[1/m]"),
    ("method", ""),
    ("error", ""),
    ("warnings", ""),       # joined with "; "
]

AXIS_UNITS = {
    "delta1": "[gamma1]",
    "amplitude": "[1]",
    "gamma0": "[gamma1]",
    "p": "[1]",
}


def _row_cells(row: SweepRow) -> list:
    pops = row.populations
    def num(x):
        return "" if x is None else repr(float(x))
    return [
        repr(float(row.axis_value)),
        num(row.v12), num(row.du2), num(row.dv2),
        num(pops[0]) if pops is not None else "",
        num(pops[1]) if pops is not None else "",
        num(pops[2]) if pops is not None else "",
        num(pops[3]) if pops is not None else "",
        num(row.alpha1), num(row.alpha2),
        row.method, row.error, "; ".join(row.warnings),
    ]


def _row_dict(row: SweepRow) -> dict:
    pops = row.populations
    return {
        "axis_value": float(row.axis_value),
        "v12": None if row.v12 is None else float(row.v12),
        "du2": None if row.du2 is None else float(row.du2),
        "dv2": None if row.dv2 is None else float(row.dv2),
        "populations": None if pops is None else [float(x) for x in pops],
        "alpha1": None if row.alpha1 is None else float(row.alpha1),
        "alpha2": None if row.alpha2 is None else float(row.alpha2),
        "method": row.method,
        "error": row.error,
        "warnings": list(row.warnings),
    }


def write_results(result: SweepResult, fmt: str, path) -> Path:
    """Persist a sweep table; CSV gets RFC-4180 quoting, JSON full provenance.

    Float cells use repr, which round-trips every finite double exactly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        header = [f"{result.axis} {AXIS_UNITS.get(result.axis, '')}".strip()]
        header += [f"{name} {unit}".strip() for name, unit in CSV_COLUMNS[1:]]
        params = result.manifest.get("base_params", {})
        with open(path, "w", newline="", encoding="utf-8") as fh:
            # resolved parameter block as a comment preamble; the data table
            # below it is plain RFC-4180
            for key in sorted(params):
                fh.write(f"# {key} = {params[key]!r}\n")
            fh.write(f"# noise_model = {result.manifest.get('noise_model')}\n")
            fh.write(f"# omega = {result.manifest.get('omega')!r}\n")
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(header)
            for row in result.rows:
                writer.writerow(_row_cells(row))
    elif fmt == "json":
        payload = {
            "manifest": result.manifest,
            "axis": result.axis,
            "rows": [_row_dict(r) for r in result.rows],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
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
    finite_y = np.concatenate([
        y[np.isfinite(y)] for y in series.values()
        if np.any(np.isfinite(y))] or [np.array([])])
    if x.size < 2:
        raise ValueError("plot needs at least 2 rows")
    if finite_y.size == 0:
        raise ValueError(f"no finite data to plot for {ylabel!r}")
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
    written = []
    v12 = result.column("v12")
    if np.any(np.isfinite(v12)):
        doc = _svg_line_plot(x, {"V12": v12}, result.axis, "V12",
                             "joint-quadrature correlation", footer)
        path = stem.with_name(stem.name + "_v12.svg")
        path.write_text(doc, encoding="utf-8")
        written.append(path)
    pop_series = {}
    for k in range(4):
        vals = np.array([r.populations[k] if r.populations is not None
                         else np.nan for r in result.rows], dtype=float)
        if np.any(np.isfinite(vals)):
            pop_series[f"pop{k + 1}"] = vals
    if pop_series:
        doc = _svg_line_plot(x, pop_series, result.axis, "population",
                             "steady-state populations", footer)
        path = stem.with_name(stem.name + "_populations.svg")
        path.write_text(doc, encoding="utf-8")
        written.append(path)
    alphas = {}
    for name in ("alpha1", "alpha2"):
        vals = result.column(name)
        if np.any(np.isfinite(vals)):
            alphas[name] = vals
    if alphas:
        doc = _svg_line_plot(x, alphas, result.axis, "alpha [1/m]",
                             "absorption coefficients", footer)
        path = stem.with_name(stem.name + "_absorption.svg")
        path.write_text(doc, encoding="utf-8")
        written.append(path)
    return written


# -- manifest -----------------------------------------------------------------

PACKAGE_VERSION = "0.1.0"


def run_manifest(config_dict: dict, timings: dict,
                 validation: Optional[dict] = None,
                 extra: Optional[dict] = None) -> dict:
    """Machine-readable record of a completed run."""
    record = {
        "package": "doublelambda",
        "version": PACKAGE_VERSION,
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
