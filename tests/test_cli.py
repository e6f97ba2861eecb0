import json
import os
from pathlib import Path

import pytest

from doublelambda import experiments as ex
from doublelambda import propagation as pr
from doublelambda.cli import build_parser, main
from doublelambda.config import OPTIONS


def run_cli(args):
    return main(args)


class TestCommands:
    def test_steady(self, tmp_path, capsys):
        code = run_cli(["steady", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.436" in out
        payload = json.loads((tmp_path / "steady.json").read_text())
        assert payload["steady_state"]["method"] == "null-space"

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
            assert "Kronecker residual" in row["warnings"][0]

    def test_calibrate(self, tmp_path, capsys):
        code = run_cli(["calibrate", "--out", str(tmp_path)])
        assert code == 0
        assert "0.2938" in capsys.readouterr().out

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

    def test_malformed_worker_count_falls_back_to_one(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("SIMULATE_WORKERS", "abc")
        code = run_cli(["sweep", "--out", str(tmp_path),
                        "--config", str(_mini(tmp_path))])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "sweep_delta1_manifest.json").read_text())
        assert manifest["config"]["workers"] == 1

    @pytest.mark.parametrize("key, used", [("workers = 1\n", 1), ("", 2)])
    def test_workers_key_beats_environment(self, tmp_path, monkeypatch, key,
                                           used):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool's bound
        monkeypatch.setenv("SIMULATE_WORKERS", "2")
        real, seen = ex.run_sweep, []

        def serial(spec, workers=None):
            seen.append(workers)
            return real(spec, workers=1)

        monkeypatch.setattr(ex, "run_sweep", serial)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\n" + key + _mini(tmp_path).read_text())
        assert run_cli(["sweep", "--out", str(tmp_path),
                        "--config", str(cfg)]) == 0
        assert seen == [used]
        manifest = json.loads(
            (tmp_path / "sweep_delta1_manifest.json").read_text())
        assert manifest["config"]["workers"] == used

    @pytest.mark.parametrize("key, env", [("workers = 5000\n", "1"),
                                          ("", "5000")],
                             ids=["key", "environment"])
    def test_manifest_records_the_bounded_pool(self, tmp_path, monkeypatch,
                                               key, env):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("SIMULATE_WORKERS", env)
        real, seen = ex.run_sweep, []

        def serial(spec, workers=None):
            seen.append(workers)
            return real(spec, workers=1)

        monkeypatch.setattr(ex, "run_sweep", serial)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\n" + key + _mini(tmp_path).read_text())
        assert run_cli(["sweep", "--out", str(tmp_path),
                        "--config", str(cfg)]) == 0
        # 3 grid points: at most 3 workers, whatever was asked for
        assert seen == [3]
        manifest = json.loads(
            (tmp_path / "sweep_delta1_manifest.json").read_text())
        assert manifest["config"]["workers"] == 3

    @pytest.mark.parametrize("command", ["steady", "validate", "calibrate"])
    def test_non_sweep_manifest_records_one_worker(self, tmp_path,
                                                   monkeypatch, command):
        # no pool runs outside a sweep, whatever SIMULATE_WORKERS asks for
        monkeypatch.setenv("SIMULATE_WORKERS", "5000")

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(ex, "ProcessPoolExecutor", no_pool)
        assert run_cli([command, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / f"{command}.json").read_text())
        assert manifest["config"]["workers"] == 1

    def test_slabs_flag_retired(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "--out", str(tmp_path), "--slabs", "200"])
        assert exc.value.code == 2


def _mini(tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text("[sweep]\nselector = custom\naxis = delta1\n"
                   "grid = -1.5:-0.5:3\n")
    return cfg


def test_readme_names_every_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    flags = [flag for action in build_parser()._actions
             for flag in action.option_strings if flag.startswith("--")]
    names = [f"`{key}`" for options in OPTIONS.values() for key in options]
    names += [f"`{flag}" for flag in flags] + ["`SIMULATE_WORKERS"]
    assert [name for name in names if name not in readme] == []
