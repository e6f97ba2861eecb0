import ctypes
import json
import os
import platform
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from doublelambda import propagation as pr
from doublelambda.cli import build_parser, main
from doublelambda.config import OPTIONS


def run_cli(args):
    return main(args)


def run_fresh(code: str):
    """The JSON that `code` prints last, run in a new interpreter that
    imports this package from the same source tree."""
    import doublelambda
    src = Path(doublelambda.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestCommands:
    def test_steady(self, tmp_path, capsys):
        code = run_cli(["steady", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.436" in out
        payload = json.loads((tmp_path / "steady.json").read_text())
        assert payload["steady_state"]["method"] == "null-space"

    def test_steady_absorption_null_for_a_field_that_is_off(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[params]\na2_mean = 0\n")
        assert run_cli(["steady", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "steady.json").read_text())[
            "steady_state"]
        assert record["alpha2"] is None
        assert record["alpha1"] > 0

    def test_sweep_csv_and_manifest(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nselector = custom\naxis = delta1\n"
                       "grid = -2.0:0.0:5\n")
        code = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                        "--format", "csv", "--svg"])
        assert code == 0
        table = tmp_path / "sweep_delta1.csv"
        assert table.exists()
        assert (tmp_path / "sweep_delta1_manifest.json").exists()
        assert (tmp_path / "sweep_delta1_v12.svg").exists()
        data_lines = [ln for ln in table.read_text().strip().splitlines()
                      if not ln.startswith("#")]
        assert len(data_lines) == 6  # header + 5 grid points

    def test_rerun_into_the_same_directory(self, tmp_path):
        """A second run replaces every output: tables and plots byte for
        byte, the manifest but for its timestamp and timings."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nselector = custom\naxis = delta1\n"
                       "grid = -2.0:0.0:5\n")
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--svg"]
        names = ["sweep_delta1.csv", "sweep_delta1_manifest.json"] + [
            f"sweep_delta1_{s}.svg" for s in ("v12", "populations",
                                              "absorption")]
        runs = []
        for _ in range(2):
            assert run_cli(argv) == 0
            runs.append({n: (out / n).read_bytes() for n in names})
        manifests = [json.loads(r.pop("sweep_delta1_manifest.json"))
                     for r in runs]
        assert runs[0] == runs[1]
        for m in manifests:
            del m["timestamp"], m["timings_s"]
        assert manifests[0] == manifests[1]

    def test_preset_sweep_json(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nselector = fig4\n")
        code = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                        "--format", "json"])
        assert code == 0
        payload = json.loads((tmp_path / "fig4.json").read_text())
        assert payload["axis"] == "gamma0"
        assert payload["rows"][0]["v12"] == pytest.approx(4.0)

    def test_validate_exit_codes(self, tmp_path):
        assert run_cli(["validate", "--out", str(tmp_path)]) == 0

    def test_spectrum(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nomega_grid = 0.0:1.0:3\n")
        code = run_cli(["spectrum", "--config", str(cfg),
                        "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert len(payload["spectrum"]) == 3
        assert all(row["warnings"] == [] for row in payload["spectrum"])

    def test_spectrum_rows_carry_propagation_warnings(self, tmp_path, capsys,
                                                      monkeypatch):
        # at this density the zero-frequency Raman gain overflows exp(L M):
        # the spectrum fails, naming it, rather than report a bare number
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[params]\nn0 = 3e24\ndelta1 = 0.0\n"
                       "[run]\nomega_grid = 0.0:1.0:2\n")
        assert run_cli(["spectrum", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 1
        assert "propagation overflow" in capsys.readouterr().err
        # a finite row that fails the self-check carries the warning
        monkeypatch.setattr(pr, "SELF_CHECK_TOL", -1.0)
        cfg.write_text("[run]\nomega_grid = 0.0:1.0:2\n")
        assert run_cli(["spectrum", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "spectrum.json").read_text())["spectrum"]
        assert len(rows) == 2
        for row in rows:
            assert len(row["warnings"]) == 1
            assert "propagator residual" in row["warnings"][0]

    def test_failed_spectrum_replaces_the_previous_file(self, tmp_path,
                                                       capsys):
        # a failed run still writes its rows, so no earlier run's file stays
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nomega_grid = 0.0:1.0:3\n")
        out = tmp_path / "out"
        assert run_cli(["spectrum", "--config", str(cfg),
                        "--out", str(out)]) == 0
        # at this density only the zero-frequency Raman gain overflows
        cfg.write_text("[params]\nn0 = 3e24\ndelta1 = 0.0\n"
                       "[run]\nomega_grid = -1.0:1.0:5\n")
        assert run_cli(["spectrum", "--config", str(cfg),
                        "--out", str(out)]) == 1
        rows = json.loads((out / "spectrum.json").read_text())["spectrum"]
        assert [row["omega"] for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        failed = rows.pop(2)
        assert "propagation overflow" in failed["error"]
        assert capsys.readouterr().err == f"error: {failed['error']}\n"
        assert [failed[k] for k in ("v12", "du2", "dv2")] == [None] * 3
        for row in rows:
            assert row["error"] == ""
            assert all(isinstance(row[k], float)
                       for k in ("v12", "du2", "dv2"))

    def test_svg_of_one_point_refused_before_any_output(self, tmp_path,
                                                         capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nsvg = true\n[sweep]\nselector = custom\n"
                       "grid = -1.0:1.0:1\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: ValueError: svg needs a sweep of at least 2 points, "
            "got 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("rules, refused", [
        ("delta1=0.5", "scaling rules delta1=0.5"),
        ("delta1=base*axis", "scaling rules delta1=base*axis")],
        ids=["value", "base-times-axis"])
    def test_scaling_of_the_swept_parameter_refused(self, tmp_path, capsys,
                                                    rules, refused):
        # the first wrote one row labelled -2.0 at delta1 = 0.5, the second
        # labelled the point at delta1 = +2 as -2.0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nselector = custom\naxis = delta1\n"
                       f"grid = -2:2:3\nscalings = {rules}\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: line 5: {refused} take over the delta1 axis: "
            "they set every parameter it sweeps (delta1)\n")
        assert not out.exists()

    def test_degenerate_grid_refused_at_its_line(self, tmp_path, capsys):
        # before: "error: ValueError: grid must be strictly monotone"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nselector = custom\ngrid = 1:1:3\n")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: line 3: grid must be strictly monotone\n")
        assert not out.exists()

    def test_sampled_validation_failure_keeps_the_sweep(self, tmp_path):
        # fig4's first point (gamma0 = 0) has a degenerate null space, which
        # the dual-method check refuses; the sweep and its outputs stay
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nworkers = 1\nvalidate_every = 50\n"
                       "[sweep]\nselector = fig4\n")
        assert run_cli(["sweep", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        table = (tmp_path / "fig4.csv").read_text().splitlines()
        assert len([ln for ln in table if not ln.startswith("#")]) == 202
        manifest = json.loads((tmp_path / "fig4_manifest.json").read_text())
        validations = manifest["sweep_manifest"]["validations"]
        assert sorted(validations, key=int) == ["0", "50", "100", "150", "200"]
        assert validations["0"]["passed"] is False
        assert validations["0"]["error"].startswith(
            "SteadyStateError: null space degenerate")
        assert all(validations[k]["passed"] for k in ("50", "100", "150",
                                                      "200"))

    def test_spectrum_dense_matches_benchmark_golden(self, tmp_path):
        # the benchmark's spectrum-dense run at its default seed, checked by
        # its rule: 1e-12 times the largest golden magnitude of each column
        golden = json.loads((Path(__file__).resolve().parents[1] / "benchmarks"
                             / "golden" / "spectrum-dense.json").read_text())
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[params]\nn0 = 3e19\n[run]\ncommand = spectrum\n"
                       "noise_model = vacuum-reservoir\n"
                       "omega_grid = 0.0:5.0:128\n")
        assert run_cli(["spectrum", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "spectrum.json").read_text())["spectrum"]
        assert len(rows) == len(golden["rows"]) == 128
        for column in golden["columns"]:
            x = np.array([row[column] for row in rows])
            y = np.array([row[column] for row in golden["rows"]])
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y)), column

    def test_calibrate(self, tmp_path, capsys):
        code = run_cli(["calibrate", "--out", str(tmp_path)])
        assert code == 0
        assert "0.2938" in capsys.readouterr().out

    def test_no_command_loads_scipy(self, tmp_path):
        """In a fresh interpreter where any import of scipy raises, steady,
        a sweep, spectrum, calibrate and validate each succeed and leave no
        scipy module loaded: importing scipy.linalg would double a short
        run's start-up time and peak memory."""
        (tmp_path / "sweep.cfg").write_text(
            "[sweep]\nselector = custom\naxis = delta1\ngrid = -1.0:1.0:5\n")
        (tmp_path / "spectrum.cfg").write_text("[run]\nomega_grid = 0.0:1.0:3\n")
        code = f"""
import json, sys
sys.modules["scipy"] = None
from doublelambda import cli
out = {str(tmp_path)!r}
loaded = {{}}
for args in (["steady"], ["sweep", "--config", out + "/sweep.cfg"],
             ["spectrum", "--config", out + "/spectrum.cfg"], ["calibrate"],
             ["validate"]):
    assert cli.main(args + ["--out", out]) == 0, args
    loaded[args[0]] = sorted(name for name, module in sys.modules.items()
                             if name.partition(".")[0] == "scipy"
                             and module is not None)
print(json.dumps(loaded))
"""
        assert run_fresh(code) == {
            "steady": [], "sweep": [], "spectrum": [], "calibrate": [],
            "validate": []}

    def test_oracle_imports_without_scipy(self):
        """In a fresh interpreter, the package and its oracle module import
        without scipy and export the oracle's names as its own, and the
        battery, with its Lyapunov solve, loads no scipy module either."""
        code = """
import json, sys
import doublelambda, doublelambda.oracle
oracle = doublelambda.oracle
names = ("EvolutionResult", "ValidationReport", "cross_validate",
         "lyapunov_covariance", "regression_covariance", "time_evolve")
exported = all(getattr(doublelambda, n) is getattr(oracle, n) for n in names)
same = doublelambda.cross_validate is oracle.cross_validate
def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
before = scipy_modules()
oracle.cross_validate(doublelambda.SystemParams())
print(json.dumps([before, exported, same, scipy_modules()]))
"""
        assert run_fresh(code) == [[], True, True, []]

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[params]\np1 = 2.0\n")
        assert run_cli(["steady", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_noise_model_flag(self, tmp_path):
        code = run_cli(["sweep", "--out", str(tmp_path), "--noise-model",
                        "vacuum-reservoir", "--config", str(_mini(tmp_path))])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "sweep_delta1_manifest.json").read_text())
        assert manifest["config"]["noise_model"] == "vacuum-reservoir"

    @pytest.mark.parametrize("command", ["steady", "validate", "calibrate"])
    def test_non_sweep_manifest_records_one_worker(self, tmp_path, command):
        # every command runs in one process, which its manifest records
        assert run_cli([command, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / f"{command}.json").read_text())
        assert manifest["config"]["workers"] == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_omega_flag_refused(self, tmp_path, capsys, value):
        # refused by argparse, as a bad --format is
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "--omega", value, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"argument --omega: omega must be finite, got {value}\n")
        assert not out.exists()

    def test_slabs_flag_retired(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "--out", str(tmp_path), "--slabs", "200"])
        assert exc.value.code == 2


def _mini(tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text("[sweep]\nselector = custom\naxis = delta1\n"
                   "grid = -1.5:-0.5:3\n")
    return cfg


class TestHeapPolicy:
    """cli.main keeps the memory its stacked stages free (cli.MALLOPT)."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the trim and mmap thresholds are glibc's")
    def test_second_spectrum_takes_no_page_faults(self, tmp_path):
        # about 1,600 minor faults with glibc's default thresholds
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[params]\nn0 = 3e19\n[run]\nnoise_model = "
                       "vacuum-reservoir\nomega_grid = 0.0:5.0:128\n")
        argv = ["spectrum", "--config", str(cfg), "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert run_cli(argv) == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before \
            < 100

    @pytest.mark.parametrize("loads", [False, True],
                             ids=["no-library", "no-mallopt"])
    def test_runs_without_mallopt(self, tmp_path, monkeypatch, loads):
        calls = []

        class Library:  # a C library without mallopt
            def __init__(self, name):
                calls.append(name)
                if not loads:
                    raise OSError("no C library")

        def run(out):
            assert run_cli(["sweep", "--config", str(_mini(tmp_path)),
                            "--out", str(out)]) == 0
            return (out / "sweep_delta1.csv").read_bytes()

        expected = run(tmp_path / "ref")
        monkeypatch.setattr(ctypes, "CDLL", Library)
        assert run(tmp_path / "out") == expected
        assert calls == [None]


def test_readme_names_every_option():
    """README's option table has one row per [run] and [sweep] key, and
    names every flag."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `\[(run|sweep)\]` \| `(\w+)` \|", readme, re.M)
    assert sorted(rows) == sorted((section, key) for section in OPTIONS
                                  for key in OPTIONS[section])
    flags = [flag for action in build_parser()._actions
             for flag in action.option_strings if flag.startswith("--")]
    assert [flag for flag in flags if f"`{flag}" not in readme] == []
