"""Physics fingerprint: the figure sweeps, two spectra and the calibrated g.

    PYTHONPATH=src python tests/fingerprint.py            # compare, print diff
    PYTHONPATH=src python tests/fingerprint.py --write    # then overwrite

The golden file tests/golden/fingerprint.json.gz holds the 201-point rows of
the fig2, fig2-inset, fig3 and fig4 sweeps under both noise models, the
+-omega spectra at the reference point (both noise models) and at the
n0 x1000 vacuum-reservoir point, and the calibrated coupling.
test_fingerprint.py compares a fresh computation against it: numbers to
RTOL times the largest golden magnitude of their column, strings exactly.
Without --write the script only prints the differences; write only from a
commit whose physics is trusted.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from doublelambda.experiments import (SWEEP_SELECTORS, calibrate_coupling,
                                      run_sweep, spectrum)
from doublelambda.fluctuations import NOISE_MODELS
from doublelambda.params import SystemParams

GOLDEN = Path(__file__).resolve().parent / "golden" / "fingerprint.json.gz"
RTOL = 1e-12

SWEEP_COLUMNS = ["axis", "v12", "du2", "dv2", "pop1", "pop2", "pop3", "pop4",
                 "alpha1", "alpha2", "method", "error", "warnings"]
SPECTRUM_COLUMNS = ["omega", "v12", "du2", "dv2", "warnings"]
OMEGAS = np.linspace(-3.0, 3.0, 13)
SPECTRUM_POINTS = {
    "reference/einstein": (SystemParams(), "einstein"),
    "reference/vacuum-reservoir": (SystemParams(), "vacuum-reservoir"),
    "n0x1000/vacuum-reservoir": (SystemParams(n0=3e19), "vacuum-reservoir"),
}


def _sweep_rows(selector: str, noise_model: str) -> list:
    spec = SWEEP_SELECTORS[selector](SystemParams(), noise_model=noise_model)
    rows = []
    for r in run_sweep(spec).rows:
        pops = [None] * 4 if r.populations is None else \
            [float(x) for x in r.populations]
        rows.append([float(r.axis_value), r.v12, r.du2, r.dv2, *pops,
                     r.alpha1, r.alpha2, r.method, r.error,
                     "; ".join(r.warnings)])
    return rows


def compute() -> dict:
    """The fingerprint of the working tree, in the golden file's layout."""
    tables = {}
    for selector in SWEEP_SELECTORS:
        for noise_model in NOISE_MODELS:
            tables[f"{selector}/{noise_model}"] = {
                "columns": SWEEP_COLUMNS,
                "rows": _sweep_rows(selector, noise_model)}
    for name, (params, noise_model) in SPECTRUM_POINTS.items():
        rows = spectrum(params, OMEGAS, noise_model=noise_model)
        tables[f"spectrum/{name}"] = {
            "columns": SPECTRUM_COLUMNS,
            "rows": [[r.axis_value, r.v12, r.du2, r.dv2, "; ".join(r.warnings)]
                     for r in rows]}
    tables["calibrated-g"] = {"columns": ["g"],
                              "rows": [[calibrate_coupling()]]}
    return tables


@dataclass
class Column:
    """One column of a table, fresh and golden, and how it moved."""

    table: str
    column: str
    got: list
    ref: list
    numeric: bool = False  # holds a number in both
    worst: float = 0.0  # max relative move of its numbers
    moved: list = field(default_factory=list)  # rows moved beyond RTOL
    changed: list = field(default_factory=list)  # rows whose other cells differ


def load() -> dict:
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _number(x) -> bool:
    return isinstance(x, float) and not math.isnan(x)


def compare(tables: dict, golden: dict) -> tuple[list, list]:
    """The fresh tables against the golden file, column by column.

    Returns the layout lines (a missing or extra table, or one whose column
    list or row count differs) and, for each column of every other table,
    a Column.  A cell that is not a number on both sides (None, a string,
    NaN) is changed unless it is equal, and NaN never is.
    """
    layout = [f"{name}: missing" for name in golden if name not in tables]
    layout += [f"{name}: not in the golden file"
               for name in tables if name not in golden]
    columns = []
    for name in sorted(golden.keys() & tables.keys()):
        gold, new = golden[name], tables[name]
        if gold["columns"] != new["columns"] or \
                len(gold["rows"]) != len(new["rows"]):
            layout.append(f"{name}: layout differs")
            continue
        for j, column in enumerate(gold["columns"]):
            col = Column(name, column, [row[j] for row in new["rows"]],
                         [row[j] for row in gold["rows"]])
            scale = max((abs(y) for y in col.ref if _number(y)), default=0.0)
            for i, (x, y) in enumerate(zip(col.got, col.ref)):
                if _number(x) and _number(y):
                    col.numeric = True
                    dev = abs(x - y)
                    col.worst = max(col.worst, dev / scale if scale else dev)
                    if dev > RTOL * scale:
                        col.moved.append(i)
                elif x != y:
                    col.changed.append(i)
            columns.append(col)
    return layout, columns


def differences(tables: dict, golden: dict) -> list:
    """One line per table column that differs from the golden file."""
    layout, columns = compare(tables, golden)
    lines = list(layout)
    for col in columns:
        bad = sorted(col.moved + col.changed)
        if bad:
            lines.append(f"{col.table} {col.column}: {len(bad)} rows differ "
                         f"(first {bad[0]}: {col.got[bad[0]]!r} vs golden "
                         f"{col.ref[bad[0]]!r}; max relative {col.worst:.2e})")
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite the golden file after the diff, "
                             "if only numbers moved")
    args = parser.parse_args(argv)
    tables = compute()
    golden = load() if GOLDEN.exists() else None
    diff = differences(tables, golden) if golden else ["no golden file"]
    print("\n".join(diff) if diff else "fingerprint matches the golden file")
    if not args.write:
        return 1 if diff else 0
    if golden:
        layout, columns = compare(tables, golden)
        refused = layout + [f"{c.table} {c.column}: {len(c.changed)} "
                            f"non-numeric cells differ (first row "
                            f"{c.changed[0]})" for c in columns if c.changed]
        if refused:
            print("not written, since only numbers may move:\n"
                  + "\n".join(refused))
            return 1
        print("max relative move of each numeric column:")
        for c in columns:
            if c.numeric:
                print(f"  {c.table} {c.column}: {c.worst:.2e}")
    GOLDEN.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(GOLDEN, "wb", mtime=0) as fh:
        fh.write(json.dumps(tables, separators=(",", ":")).encode("utf-8"))
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
