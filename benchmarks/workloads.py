"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

A workload generates its inputs from the seed alone (`input_bytes` is their
exact serialization), runs one pass over them in `run_pass` and checks that
pass's outputs in `check`, outside the timed window.  `check` returns the
number of failed items: error rows, failed validations, a non-zero CLI exit
or a mismatch against the golden outputs of the default seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from doublelambda import cli, experiments, oracle, steady, atom
from doublelambda.params import SystemParams

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 0

#: refactor tolerance: relative to the largest magnitude in each column
GOLDEN_RTOL = 1e-12
#: |<sigma_22>(g) - target| allowed for a calibrated coupling
CALIBRATION_TOL = 1e-9


def column_mismatches(rows, golden_rows, columns) -> set:
    """Indices of `rows` differing from `golden_rows` beyond GOLDEN_RTOL.

    Numbers are compared to GOLDEN_RTOL times the column's largest golden
    magnitude; other cells (None, strings) must be equal.  Rows beyond the
    shorter table count as mismatches.
    """
    n = max(len(rows), len(golden_rows))
    bad = set(range(min(len(rows), len(golden_rows)), n))
    scale = {}
    for c in columns:
        mags = [abs(r[c]) for r in golden_rows if isinstance(r[c], float)]
        scale[c] = max(mags, default=0.0)
    for i, (row, gold) in enumerate(zip(rows, golden_rows)):
        for c in columns:
            x, y = row[c], gold[c]
            if isinstance(y, float) and isinstance(x, float):
                ok = abs(x - y) <= GOLDEN_RTOL * scale[c]
            else:
                ok = x == y
            if not ok:
                bad.add(i)
                break
    return bad


def load_golden(name: str):
    path = GOLDEN_DIR / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


class Workload:
    name = ""
    items = 0
    has_golden = True

    def __init__(self, seed: int, out_dir: Path, items: int | None = None,
                 compare_golden: bool = True):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if items is not None:
            self.items = items
        self.golden = None
        if (compare_golden and self.has_golden and seed == DEFAULT_SEED
                and items is None):
            self.golden = load_golden(self.name)

    def input_bytes(self) -> bytes:
        raise NotImplementedError

    def warmup(self) -> None:
        """One small call through the same path, so lazy set-up is done."""
        raise NotImplementedError

    def run_pass(self, tracer):
        """One pass over the inputs; item spans go on `tracer`."""
        raise NotImplementedError

    def check(self, output) -> int:
        raise NotImplementedError

    def golden_record(self, output):
        """Golden-file content for `output` (used only at the default seed)."""
        raise NotImplementedError


class CliWorkload(Workload):
    """A `simulate` invocation run in-process through `cli.main`."""

    command = ""

    def __init__(self, seed, out_dir, items=None, compare_golden=True):
        super().__init__(seed, out_dir, items, compare_golden)
        self.config_path = self.out_dir / "input.cfg"
        self.config_path.write_bytes(self.input_bytes())

    def config_text(self) -> str:
        raise NotImplementedError

    def input_bytes(self) -> bytes:
        return self.config_text().encode("utf-8")

    def run_pass(self, tracer):
        argv = [self.command, "--config", str(self.config_path),
                "--out", str(self.out_dir)]
        return cli.main(argv)

    def check(self, code) -> int:
        """Failed items of one pass; removes the pass's output table, so a
        pass that writes none fails every item."""
        if code != 0 or not self.output_path.exists():
            return self.items
        rows = self.read_rows()
        self.output_path.unlink()
        bad = self.row_failures(rows)
        bad.update(range(len(rows), self.items))
        if self.golden is not None:
            bad |= column_mismatches(rows, self.golden["rows"],
                                     self.golden["columns"])
        return min(self.items, len(bad))

    def golden_record(self, code):
        return {"columns": self.golden_columns, "rows": self.read_rows()}


class Fig2Sweep(CliWorkload):
    """201-point detuning sweep (the fig2 protocol) via `simulate sweep`."""

    name = "fig2-sweep"
    items = 201
    command = "sweep"
    golden_columns = ["axis", "v12", "du2", "dv2", "pop1", "pop2", "pop3",
                      "pop4", "alpha1", "alpha2", "method", "error"]

    def grid(self) -> tuple[float, float]:
        # the fig2 grid, shifted by a seeded fraction of one step
        step = 8.0 / (self.items - 1)
        shift = 0.0 if self.seed == DEFAULT_SEED else \
            float(np.random.default_rng(self.seed).uniform(0.0, 1.0)) * step
        return -4.0 + shift, 4.0 + shift

    def config_text(self) -> str:
        start, stop = self.grid()
        return ("[run]\ncommand = sweep\nformat = csv\nnoise_model = einstein\n"
                "omega = 0.0\nworkers = 1\n"
                "[sweep]\nselector = custom\naxis = delta1\n"
                f"grid = {start!r}:{stop!r}:{self.items}\n")

    @property
    def output_path(self) -> Path:
        return self.out_dir / "sweep_delta1.csv"

    def read_rows(self) -> list[dict]:
        with open(self.output_path, newline="", encoding="utf-8") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        table = list(csv.reader(lines))[1:]
        rows = []
        for cells in table:
            row = dict(zip(self.golden_columns, cells))
            for c in self.golden_columns[:-2]:
                row[c] = float(row[c]) if row[c] != "" else None
            rows.append(row)
        return rows

    def row_failures(self, rows) -> set:
        """Error rows, non-finite V12 and axis values off the input grid."""
        start, stop = self.grid()
        grid = np.linspace(start, stop, self.items)
        bad = set(range(self.items, len(rows)))
        for i, (row, x) in enumerate(zip(rows, grid)):
            finite = row["v12"] is not None and math.isfinite(row["v12"])
            if row["error"] or not finite or row["axis"] != float(x):
                bad.add(i)
        return bad

    def warmup(self) -> None:
        experiments.compute_point(SystemParams())


class SpectrumDense(CliWorkload):
    """128-frequency spectrum at the stressed density via `simulate spectrum`."""

    name = "spectrum-dense"
    items = 128
    command = "spectrum"
    golden_columns = ["omega", "v12", "du2", "dv2"]

    def stop(self) -> float:
        # the 0:5 grid with a seeded endpoint jitter of up to 5 %
        if self.seed == DEFAULT_SEED:
            return 5.0
        return 5.0 * (1.0 + float(
            np.random.default_rng(self.seed).uniform(-0.05, 0.05)))

    def config_text(self) -> str:
        return ("[params]\nn0 = 3e19\n"
                "[run]\ncommand = spectrum\nnoise_model = vacuum-reservoir\n"
                f"omega_grid = 0.0:{self.stop()!r}:{self.items}\n")

    @property
    def output_path(self) -> Path:
        return self.out_dir / "spectrum.json"

    def read_rows(self) -> list[dict]:
        text = self.output_path.read_text(encoding="utf-8")
        return json.loads(text)["spectrum"]

    def row_failures(self, rows) -> set:
        """Rows with a non-finite entry, and rows beyond the grid."""
        bad = set(range(self.items, len(rows)))
        for i, r in enumerate(rows):
            if not all(isinstance(r[c], float) and math.isfinite(r[c])
                       for c in self.golden_columns):
                bad.add(i)
        return bad

    def warmup(self) -> None:
        experiments.compute_point(SystemParams(n0=3e19), omega=1.0,
                                  noise_model="vacuum-reservoir")


def draw_params(rng) -> SystemParams:
    """A random valid working point with fields, as the acceptance suite draws."""
    kw = dict(
        gamma1=rng.uniform(0.1, 2), gamma2=rng.uniform(0.1, 2),
        gamma3=rng.uniform(0.1, 2), gamma4=rng.uniform(0.1, 2),
        gamma0=rng.uniform(0.1, 2),
        p1=rng.uniform(-1, 1), p2=rng.uniform(-1, 1),
        omega42=rng.uniform(0.5, 3), delta1=rng.uniform(-4, 4),
        g=rng.uniform(0.1, 0.6),
        a1_mean=rng.uniform(0.5, 2), a2_mean=rng.uniform(0.5, 2),
    )
    return SystemParams(**kw)


def params_bytes(points) -> bytes:
    return json.dumps([p.as_dict() for p in points]).encode("utf-8")


class ValidateBattery(Workload):
    """`oracle.cross_validate` on the reference point plus seeded draws."""

    name = "validate-battery"
    items = 64
    has_golden = False

    def __init__(self, seed, out_dir, items=None, compare_golden=True):
        super().__init__(seed, out_dir, items, compare_golden)
        rng = np.random.default_rng(seed)
        self.points = [SystemParams()] + [draw_params(rng)
                                          for _ in range(self.items - 1)]

    def input_bytes(self) -> bytes:
        return params_bytes(self.points)

    def run_pass(self, tracer):
        passed = []
        for p in self.points:
            with tracer.span("bench.item", item=True):
                try:
                    passed.append(oracle.cross_validate(p).passed)
                except Exception:
                    passed.append(False)
        return passed

    def check(self, passed) -> int:
        return sum(not ok for ok in passed) + self.items - len(passed)

    def warmup(self) -> None:
        oracle.cross_validate(self.points[0])


@dataclass(frozen=True)
class Calibration:
    base: SystemParams
    target: float


class CalibrateBatch(Workload):
    """`experiments.calibrate_coupling` on seeded targets and base points."""

    name = "calibrate-batch"
    items = 200

    def __init__(self, seed, out_dir, items=None, compare_golden=True):
        super().__init__(seed, out_dir, items, compare_golden)
        rng = np.random.default_rng(seed)
        self.cases = []
        for _ in range(self.items):
            target = float(rng.uniform(0.02, 0.1))
            base = SystemParams(gamma0=float(rng.uniform(5e-4, 2e-3)),
                                a1_mean=float(rng.uniform(0.8, 1.2)))
            self.cases.append(Calibration(base, target))

    def input_bytes(self) -> bytes:
        return json.dumps([{"target": c.target, "base": c.base.as_dict()}
                           for c in self.cases]).encode("utf-8")

    def run_pass(self, tracer):
        couplings = []
        for c in self.cases:
            with tracer.span("bench.item", item=True):
                try:
                    couplings.append(experiments.calibrate_coupling(
                        c.base, target=c.target))
                except Exception:
                    couplings.append(None)
        return couplings

    def residual(self, case: Calibration, g: float) -> float:
        """|<sigma_22>(g) - target| recomputed at the symmetric midpoint."""
        p = case.base.replace(g=g, delta1=-case.base.omega42 / 2.0)
        state = steady.solve_steady_state(atom.build_generator(p), p)
        return abs(float(state.populations[1]) - case.target)

    def check(self, couplings) -> int:
        bad = self.items - len(couplings)
        golden = self.golden["g"] if self.golden is not None else None
        scale = max(abs(g) for g in golden) if golden else 0.0
        for i, (case, g) in enumerate(zip(self.cases, couplings)):
            if g is None or self.residual(case, g) > CALIBRATION_TOL or (
                    golden and abs(g - golden[i]) > GOLDEN_RTOL * scale):
                bad += 1
        return bad

    def golden_record(self, couplings):
        return {"g": couplings}

    def warmup(self) -> None:
        c = self.cases[0]
        experiments.calibrate_coupling(c.base, target=c.target)


WORKLOADS = {w.name: w for w in (Fig2Sweep, SpectrumDense, ValidateBattery,
                                 CalibrateBatch)}
