import csv
import json

import numpy as np
import pytest

from doublelambda.config import (OPTIONS, ConfigError, RunConfig, parse_config,
                                 render_config)
from doublelambda.experiments import detuning_spec, run_sweep
from doublelambda.io import (emit_plot, read_results_json, run_manifest,
                             write_manifest, write_results)
from doublelambda.params import SystemParams


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep(detuning_spec(SystemParams(), points=7))


class TestConfigParsing:
    def test_empty_gives_reference_defaults(self):
        cfg = parse_config("")
        ref = SystemParams()
        assert cfg.params == ref
        assert cfg.params.gamma1 == 1.0
        assert cfg.params.omega42 == 2.0
        assert cfg.params.a1_mean == 1.0
        assert cfg.params.beam_radius == 2.2e-4
        assert cfg.params.cell_length == 0.06
        assert cfg.params.gamma0 == 0.001
        assert cfg.params.n0 == 3e16
        assert cfg.command == "sweep"

    def test_invalid_alignment_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[params]\np1 = 1.5\n")
        assert "p1" in str(err.value)

    @pytest.mark.parametrize("text, field, value", [
        ("[params]\ndelta1 = nan\n", "delta1", "nan"),
        ("[params]\ng = 0.3\nn0 = inf\n", "n0", "inf")], ids=["nan", "inf"])
    def test_nonfinite_parameter_rejected(self, text, field, value):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == (f"invalid parameters: {field} must be "
                                  f"finite, got {value}")
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SystemParams(**{field: float(value)})

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_workers_below_one_rejected(self, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[run]\ncommand = sweep\nworkers = {value}\n")
        assert str(err.value) == f"line 3: workers must be >= 1, got {value}"

    def test_hash_inside_a_value_is_kept(self):
        cfg = parse_config("[run]\nout = results#1\n")
        assert cfg.out_dir == "results#1"
        assert parse_config(render_config(cfg)) == cfg

    def test_comment_after_a_section_header(self):
        cfg = parse_config("[params]  # physical constants\ndelta1 = -1.5\n"
                           "[run]\t# options\nout = results#1\n")
        assert cfg.params.delta1 == -1.5
        assert cfg.out_dir == "results#1"

    @pytest.mark.parametrize("out_dir", ["my dir #1", "out\t#x", " out",
                                         "two\nlines"],
                             ids=["comment", "tab-comment", "leading-space",
                                  "line-break"])
    def test_render_refuses_a_value_that_would_not_read_back(self, out_dir):
        with pytest.raises(ValueError, match=r"\[run\] out = "):
            render_config(RunConfig(out_dir=out_dir))

    def test_comment_after_whitespace_is_stripped(self):
        cfg = parse_config("[params]\ndelta1 = -1.5        # detuning\n"
                           "[run]\nout = results\t# where to write\n"
                           "format = json # a comment\n")
        assert cfg.params.delta1 == -1.5
        assert cfg.out_dir == "results"
        assert cfg.fmt == "json"

    def test_single_override(self):
        cfg = parse_config("[params]\ndelta1 = -1.0\n")
        assert cfg.params.delta1 == -1.0
        assert cfg.params == SystemParams(delta1=-1.0)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[params]\ngamma1 = 1.0\nnonsense = 2\n")
        assert "line 3" in str(err.value)

    def test_malformed_number_with_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[params]\n\ngamma1 = abc\n")
        assert "line 3" in str(err.value)
        assert "abc" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[wrong]\nx = 1\n")
        assert "line 1" in str(err.value)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError):
            parse_config("gamma1 = 1\n")

    def test_sweep_and_run_options(self):
        text = """
[run]
command = validate
format = json
omega = 0.25
svg = true
noise_model = vacuum-reservoir

[sweep]
selector = custom
axis = amplitude
grid = 1.0:9.0:5
scalings = n0=base*axis; gamma0=0.001*axis
"""
        cfg = parse_config(text)
        assert cfg.command == "validate"
        assert cfg.fmt == "json"
        assert cfg.omega == 0.25
        assert cfg.svg is True
        assert cfg.noise_model == "vacuum-reservoir"
        assert cfg.selector == "custom"
        assert np.allclose(cfg.grid_array(), np.linspace(1, 9, 5))
        assert cfg.scalings[0].param == "n0"
        assert cfg.scalings[0].mode == "base*axis"
        assert cfg.scalings[1].coef == 0.001

    @pytest.mark.parametrize("text, line, reason", [
        ("[run]\ncommand = sweep\nslabs = 200\n", 3, "closed-form"),
        ("[params]\ng = 0.3\n\n[tolerances]\nslab_convergence = 1e-6\n", 5,
         "closed-form"),
        ("[tolerances]\ndegeneracy_ratio = 2.5e-7\n", 2, "fixed constants"),
        ("[run]\nworkers = 1\n[tolerances]\nsteady_residual = 1e-10\n", 4,
         "fixed constants"),
        ("[tolerances]\nresponse_condition = 1e12\n", 2, "fixed constants"),
        ("[tolerances]\n\ndark_activity = 1e-12\n", 3, "fixed constants"),
        ("[tolerances]\nnonsense = 1\n", 2, "retired section"),
    ], ids=["run-slabs", "tolerances-slab_convergence",
            "tolerances-degeneracy_ratio", "tolerances-steady_residual",
            "tolerances-response_condition", "tolerances-dark_activity",
            "tolerances-unknown"])
    def test_retired_slab_keys_rejected(self, text, line, reason):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert f"line {line}" in str(err.value)
        assert reason in str(err.value)

    def test_roundtrip_fixed_point(self):
        text = """
[params]
delta1 = -0.75
g = 0.31
[run]
command = sweep
workers = 2
[sweep]
selector = custom
axis = p
grid = 0.0:1.0:11
scalings = n0=base*axis
"""
        cfg1 = parse_config(text)
        printed = render_config(cfg1)
        cfg2 = parse_config(printed)
        assert cfg1 == cfg2
        assert render_config(cfg2) == printed

    #: a value other than the default for every option
    NON_DEFAULT = {
        "command": "calibrate", "format": "json",
        "noise_model": "vacuum-reservoir", "workers": "3", "omega": "0.25",
        "omega_grid": "-1.5:2.5:7", "out": "results/run 1", "svg": "yes",
        "validate_every": "5", "selector": "custom", "axis": "amplitude",
        "grid": "1.0:9.0:5",
        "scalings": "n0=base*axis; gamma0=0.001*axis; g=0.3",
    }

    @pytest.mark.parametrize("section, key", [
        (section, key) for section in OPTIONS for key in OPTIONS[section]])
    def test_every_option_roundtrips(self, section, key):
        cfg = parse_config(f"[{section}]\n{key} = {self.NON_DEFAULT[key]}\n")
        name = OPTIONS[section][key][0]
        assert getattr(cfg, name) != getattr(RunConfig(), name)
        assert parse_config(render_config(cfg)) == cfg


def read_csv_table(path):
    """Rows of the data table, skipping the parameter-block preamble."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


class TestCsv:
    def test_parameter_block_preamble(self, small_sweep, tmp_path):
        path = write_results(small_sweep, "csv", tmp_path / "fig2.csv")
        preamble = [ln for ln in path.read_text().splitlines()
                    if ln.startswith("#")]
        keys = {ln.split("=")[0].strip("# ") for ln in preamble}
        assert {"g", "n0", "cell_length", "gamma0", "noise_model"} <= keys
        g_line = next(ln for ln in preamble if ln.startswith("# g ="))
        assert float(g_line.split("=")[1]) == SystemParams().g

    def test_schema_and_roundtrip(self, small_sweep, tmp_path):
        path = write_results(small_sweep, "csv", tmp_path / "fig2.csv")
        rows = read_csv_table(path)
        header = rows[0]
        assert header[0] == "delta1 [gamma1]"
        assert header[1] == "v12 [1]"
        assert "pop1 [1]" in header and "alpha2 [1/m]" in header
        assert header[-3:] == ["method", "error", "warnings"]
        assert len(rows) == 1 + len(small_sweep.rows)
        # repr round-trip: every numeric cell reparses to the exact double
        for row, src in zip(rows[1:], small_sweep.rows):
            assert float(row[0]) == src.axis_value
            assert float(row[1]) == src.v12

    def test_quoting(self, small_sweep, tmp_path):
        from dataclasses import replace
        bad = replace(small_sweep.rows[0], error='Cell died, "badly"',
                      warnings=("residual 1e-3, tolerance 1e-10", "second"))
        hacked = type(small_sweep)(axis=small_sweep.axis,
                                   rows=(bad,) + small_sweep.rows[1:],
                                   manifest=small_sweep.manifest)
        path = write_results(hacked, "csv", tmp_path / "q.csv")
        rows = read_csv_table(path)
        assert rows[1][-2] == 'Cell died, "badly"'
        assert rows[1][-1] == "residual 1e-3, tolerance 1e-10; second"
        assert rows[2][-1] == ""


class TestJson:
    def test_bit_identical_roundtrip(self, small_sweep, tmp_path):
        path = write_results(small_sweep, "json", tmp_path / "fig2.json")
        payload = read_results_json(path)
        for row, src in zip(payload["rows"], small_sweep.rows):
            assert row["v12"] == src.v12  # exact repr serialization
            assert row["axis_value"] == src.axis_value
            assert row["populations"][0] == src.populations[0]
        assert payload["manifest"]["base_params"]["g"] == SystemParams().g

    def test_failed_row_marker(self, small_sweep, tmp_path):
        from dataclasses import replace
        bad = replace(small_sweep.rows[2], v12=None, error="BoomError: x")
        hacked = type(small_sweep)(axis=small_sweep.axis,
                                   rows=small_sweep.rows[:2] + (bad,),
                                   manifest=small_sweep.manifest)
        path = write_results(hacked, "json", tmp_path / "f.json")
        payload = read_results_json(path)
        assert payload["rows"][2]["error"] == "BoomError: x"
        assert payload["rows"][2]["v12"] is None
        assert payload["rows"][2]["axis_value"] == small_sweep.rows[2].axis_value


class TestSvg:
    def test_emits_documents(self, small_sweep, tmp_path):
        paths = emit_plot(small_sweep, tmp_path / "fig2")
        names = {p.name for p in paths}
        assert "fig2_v12.svg" in names
        assert "fig2_populations.svg" in names
        for p in paths:
            text = p.read_text()
            assert text.startswith("<svg")
            assert "polyline" in text

    def test_single_row_rejected(self, small_sweep, tmp_path):
        hacked = type(small_sweep)(axis=small_sweep.axis,
                                   rows=small_sweep.rows[:1],
                                   manifest=small_sweep.manifest)
        with pytest.raises(ValueError):
            emit_plot(hacked, tmp_path / "one")

    def test_degenerate_axis_named(self, small_sweep, tmp_path):
        from dataclasses import replace
        rows = tuple(replace(r, axis_value=0.5) for r in small_sweep.rows)
        hacked = type(small_sweep)(axis="delta1", rows=rows,
                                   manifest=small_sweep.manifest)
        with pytest.raises(ValueError) as err:
            emit_plot(hacked, tmp_path / "deg")
        assert "delta1" in str(err.value)


class TestManifest:
    def test_embeds_validation(self, tmp_path):
        from doublelambda.oracle import cross_validate
        report = cross_validate(SystemParams()).as_dict()
        manifest = run_manifest({"command": "validate"}, {"validate": 0.1},
                                validation=report)
        path = write_manifest(manifest, tmp_path / "m.json")
        loaded = json.loads(path.read_text())
        assert loaded["validation"]["passed"] is True
        assert loaded["package"] == "doublelambda"

    def test_identical_runs_differ_only_in_timing(self):
        cfg = {"command": "sweep", "noise_model": "vacuum-reservoir"}
        m1 = run_manifest(cfg, {"sweep": 1.0})
        m2 = run_manifest(cfg, {"sweep": 2.0})
        for key in m1:
            if key in ("timestamp", "timings_s"):
                continue
            assert m1[key] == m2[key]
        # the overridden option appears verbatim
        assert m1["config"]["noise_model"] == "vacuum-reservoir"
