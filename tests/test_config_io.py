import ast
import csv
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import doublelambda
from doublelambda.config import (CUSTOM_KEYS, OPTIONS, ConfigError, RunConfig,
                                 parse_config)
from doublelambda.experiments import (ScalingRule, SweepSpec, detuning_spec,
                                      run_sweep)
from doublelambda.io import (emit_plot, run_manifest, write_manifest,
                             write_results)
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

    @pytest.mark.parametrize("text, field, value, line", [
        ("[params]\ndelta1 = nan\n", "delta1", "nan", 2),
        ("[params]\ng = 0.3\nn0 = inf\n", "n0", "inf", 3)],
        ids=["nan", "inf"])
    def test_nonfinite_parameter_rejected(self, text, field, value, line):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == (f"line {line}: invalid parameters: {field} "
                                  f"must be finite, got {value}")
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SystemParams(**{field: float(value)})

    @pytest.mark.parametrize("text, message", [
        ("[run]\nomega = nan\n", "line 2: omega must be finite, got nan"),
        ("[run]\ncommand = spectrum\nomega_grid = 0.0:inf:3\n",
         "line 3: omega_grid stop must be finite, got inf"),
        ("[run]\nomega_grid = -inf:1.0:3\n",
         "line 2: omega_grid start must be finite, got -inf"),
        ("[sweep]\nselector = custom\ngrid = 0:nan:3\n",
         "line 3: grid stop must be finite, got nan"),
        ("[sweep]\nselector = custom\n\ngrid = inf:1:3\n",
         "line 4: grid start must be finite, got inf")],
        ids=["omega", "omega_grid-stop", "omega_grid-start", "grid-stop",
             "grid-start"])
    def test_nonfinite_run_value_rejected(self, text, message):
        # before, omega = nan wrote a sweep of "SVD did not converge" rows
        # and grid = 0:nan:3 was refused as not monotone, with no line
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("key, value, message", [
        ("p1", "2.0", "|p1| must be <= 1, got 2.0"),
        ("gamma0", "-1", "gamma0 must be >= 0, got -1.0"),
        ("cell_length", "0", "cell_length must be > 0, got 0.0")])
    def test_invalid_parameter_names_its_line(self, key, value, message):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[params]\n{key} = {value}\n")
        assert err.value.line == 2
        assert str(err.value) == f"line 2: invalid parameters: {message}"

    def test_refusal_names_the_last_assignment(self):
        # the last assignment of a key is its value, and so its line
        text = "[params]\ng = -1\na1_mean = -1\n\n[run]\n[params]\ng = -2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == "line 3: invalid parameters: a1_mean must " \
            "be >= 0 (mean fields real positive)"
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace("a1_mean = -1", "a1_mean = 1"))
        assert str(err.value) == "line 7: invalid parameters: g must be >= 0"
        # a bad value overridden by a later line is accepted
        assert parse_config("[params]\np1 = 2.0\np1 = 0.5\n").params.p1 == 0.5

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_workers_below_one_rejected(self, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[run]\ncommand = sweep\nworkers = {value}\n")
        assert str(err.value) == (f"line 3: workers must be 1, got {value}: "
                                  "sweeps run in one process")

    @pytest.mark.parametrize("value", ["2", "5000"])
    def test_workers_above_one_rejected(self, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[run]\nworkers = {value}\n")
        assert str(err.value) == (f"line 2: workers must be 1, got {value}: "
                                  "sweeps run in one process")

    def test_negative_validate_every_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\ncommand = sweep\nvalidate_every = -3\n")
        assert str(err.value) == "line 3: validate_every must be >= 0, got -3"

    @pytest.mark.parametrize("selector", ["", "selector = fig2\n"])
    def test_custom_keys_rejected_under_a_figure_selector(self, selector):
        # under fig2 these would be ignored: the 201-point delta1 sweep ran
        text = f"[sweep]\n{selector}axis = gamma0\ngrid = 0:1:3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        line = 3 if selector else 2
        assert str(err.value) == (f"line {line}: [sweep] axis applies to "
                                  "selector = custom only, not fig2")
        cfg = parse_config(text.replace(selector, "") + "selector = custom\n")
        assert (cfg.axis, cfg.grid) == ("gamma0", (0.0, 1.0, 3))

    @pytest.mark.parametrize("axis, rules, message", [
        ("delta1", "delta1=0.5", "scaling rules delta1=0.5 take over the "
         "delta1 axis: they set every parameter it sweeps (delta1)"),
        ("p", "p1=0.5; p2=-1*axis", "scaling rules p1=0.5; p2=-1.0*axis take "
         "over the p axis: they set every parameter it sweeps (p1, p2)"),
        ("delta1", "n0=base*axis; n0=0.001*axis", "scaling rule n0=0.001*axis "
         "sets n0 a second time (axis delta1)"),
    ], ids=["take-over", "both-of-a-pair", "twice"])
    def test_scaling_rules_refused_at_their_line(self, axis, rules, message):
        # the axis comes after the rules it refuses them for; a second
        # scalings line replaces the first, so the error names the second
        text = (f"[sweep]\nselector = custom\nscalings = n0=base*axis\n"
                f"scalings = {rules}\naxis = {axis}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == f"line 4: {message}"
        first = text.replace(f"scalings = {rules}\n", "")
        assert parse_config(first).scalings == (ScalingRule("n0", "base*axis"),)

    @pytest.mark.parametrize("grid", ["1:1:3", "-2.5:-2.5:2"])
    def test_degenerate_grid_refused_at_its_line(self, grid):
        # before, it parsed, and SweepSpec refused it with no line
        text = f"[sweep]\nselector = custom\ngrid = {grid}\naxis = gamma0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == "line 3: grid must be strictly monotone"
        start, stop, points = (float(x) for x in grid.split(":"))
        with pytest.raises(ValueError, match="^grid must be strictly monotone$"):
            SweepSpec(base=SystemParams(), axis="gamma0",
                      grid=np.linspace(start, stop, int(points)))
        assert parse_config(text.replace(grid, "1:1:1")).grid == (1.0, 1.0, 1)

    def test_hash_inside_a_value_is_kept(self):
        cfg = parse_config("[run]\nout = results#1\n")
        assert cfg.out_dir == "results#1"

    def test_comment_after_a_section_header(self):
        cfg = parse_config("[params]  # physical constants\ndelta1 = -1.5\n"
                           "[run]\t# options\nout = results#1\n")
        assert cfg.params.delta1 == -1.5
        assert cfg.out_dir == "results#1"

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
        assert np.allclose(np.linspace(*cfg.grid), np.linspace(1, 9, 5))
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
        """A whole config reads to the RunConfig it spells out."""
        text = """
[params]
delta1 = -0.75
g = 0.31
[run]
command = sweep
workers = 1
[sweep]
selector = custom
axis = p
grid = 0.0:1.0:11
scalings = n0=base*axis
"""
        assert parse_config(text) == RunConfig(
            params=SystemParams(delta1=-0.75, g=0.31), command="sweep",
            workers=1, selector="custom", axis="p", grid=(0.0, 1.0, 11),
            scalings=(ScalingRule("n0", "base*axis"),))

    #: every option's text other than the default, and the value it reads
    #: to; workers accepts only its default, 1
    NON_DEFAULT = {
        "command": ("calibrate", "calibrate"),
        "format": ("json", "json"),
        "noise_model": ("vacuum-reservoir", "vacuum-reservoir"),
        "workers": ("1", 1),
        "omega": ("0.25", 0.25),
        "omega_grid": ("-1.5:2.5:7", (-1.5, 2.5, 7)),
        "out": ("results/run 1", "results/run 1"),
        "svg": ("yes", True),
        "validate_every": ("5", 5),
        "selector": ("custom", "custom"),
        "axis": ("amplitude", "amplitude"),
        "grid": ("1.0:9.0:5", (1.0, 9.0, 5)),
        "scalings": ("n0=base*axis; gamma0=0.001*axis; g=0.3",
                     (ScalingRule("n0", "base*axis"),
                      ScalingRule("gamma0", "value*axis", 0.001),
                      ScalingRule("g", "value", 0.3))),
    }

    @pytest.mark.parametrize("section, key", [
        (section, key) for section in OPTIONS for key in OPTIONS[section]])
    def test_every_option_roundtrips(self, section, key):
        """The option's text reads to its stated value, not the default."""
        text, expected = self.NON_DEFAULT[key]
        config = f"[{section}]\n{key} = {text}\n"
        if key in CUSTOM_KEYS:  # read under selector = custom only
            config += "selector = custom\n"
        name = OPTIONS[section][key][0]
        value = getattr(parse_config(config), name)
        assert repr(value) == repr(expected)  # the type too: 3, not 3.0
        if key != "workers":
            assert value != getattr(RunConfig(), name)


def read_csv_table(path):
    """Rows of the data table, skipping the parameter-block preamble."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def with_cells(result, rows, **cells):
    """result with the given cells of the given rows replaced."""
    columns = dict(result.columns)
    for name, value in cells.items():
        columns[name] = columns[name].copy()
        columns[name][rows] = value
    return replace(result, columns=columns)


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
        hacked = with_cells(small_sweep, 0, error='Cell died, "badly"',
                            warnings=("residual 1e-3, tolerance 1e-10",
                                      "second"))
        path = write_results(hacked, "csv", tmp_path / "q.csv")
        rows = read_csv_table(path)
        assert rows[1][-2] == 'Cell died, "badly"'
        assert rows[1][-1] == "residual 1e-3, tolerance 1e-10; second"
        assert rows[2][-1] == ""


class TestJson:
    def test_bit_identical_roundtrip(self, small_sweep, tmp_path):
        path = write_results(small_sweep, "json", tmp_path / "fig2.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        for row, src in zip(payload["rows"], small_sweep.rows):
            assert row["v12"] == src.v12  # exact repr serialization
            assert row["axis_value"] == src.axis_value
            assert row["populations"][0] == src.populations[0]
        assert payload["manifest"]["base_params"]["g"] == SystemParams().g

    def test_failed_row_marker(self, small_sweep, tmp_path):
        hacked = with_cells(small_sweep, 2, v12=np.nan, error="BoomError: x")
        path = write_results(hacked, "json", tmp_path / "f.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
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
        hacked = replace(small_sweep, columns={
            name: column[:1] for name, column in small_sweep.columns.items()})
        with pytest.raises(ValueError):
            emit_plot(hacked, tmp_path / "one")

    def test_degenerate_axis_named(self, small_sweep, tmp_path):
        hacked = with_cells(small_sweep, slice(None), axis_value=0.5)
        with pytest.raises(ValueError) as err:
            emit_plot(hacked, tmp_path / "deg")
        assert "delta1" in str(err.value)


GOLDEN = Path(__file__).parent / "golden"


class TestWriterGolden:
    """The writers' bytes against files written by the row-object writers:
    a sweep with a successful row, a dark row with no second field, a
    failed row and a row with no second field, and the spectrum.json
    records of a spectrum with one overflowing frequency."""

    @staticmethod
    def four_row_sweep():
        from doublelambda.experiments import SweepResult, _evaluate
        from doublelambda.params import ParamStack
        base = SystemParams()
        points = [base.replace(delta1=-2.0),
                  base.replace(delta1=-1.0, gamma0=0.0, gamma4=0.0,
                               a2_mean=0.0),
                  base.replace(delta1=0.0, gamma0=0.0, gamma1=0.0,
                               gamma2=0.0, gamma3=0.0, gamma4=0.0),
                  base.replace(delta1=1.0, a2_mean=0.0)]
        columns = _evaluate(ParamStack.of(points), np.zeros(1), "einstein")
        columns["axis_value"] = np.array([p.delta1 for p in points])
        manifest = {"axis": "delta1", "noise_model": "einstein", "omega": 0.0,
                    "base_params": base.as_dict()}
        return SweepResult(axis="delta1", columns=columns, manifest=manifest)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_bytes(self, fmt, tmp_path):
        path = write_results(self.four_row_sweep(), fmt, tmp_path / f"t.{fmt}")
        golden = GOLDEN / f"writer_sweep.{fmt}"
        assert path.read_bytes() == golden.read_bytes()

    def test_spectrum_records(self, tmp_path):
        from doublelambda import cli
        config = tmp_path / "spectrum.ini"
        config.write_text("[params]\nn0 = 3e24\ndelta1 = 0.0\n"
                          "[run]\ncommand = spectrum\nomega_grid = -1.0:1.0:5\n"
                          f"out = {tmp_path / 'run'}\n")
        # the zero-frequency gain overflows: exit 1, and every record written
        assert cli.main(["spectrum", "--config", str(config)]) == 1
        written = json.loads((tmp_path / "run" / "spectrum.json").read_text())
        text = json.dumps({"spectrum": written["spectrum"]}, indent=2) + "\n"
        assert text.encode() == (GOLDEN / "writer_spectrum.json").read_bytes()


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


#: writer name -> call writing `result` to `path`; emit_plot writes
#: <stem>_v12.svg, so its stem is the path without that suffix
WRITERS = {
    "csv": lambda result, path: write_results(result, "csv", path),
    "json": lambda result, path: write_results(result, "json", path),
    "svg": lambda result, path: emit_plot(
        result, path.with_name(path.name[:-len("_v12.svg")])),
    "manifest": lambda result, path: write_manifest(result.manifest, path),
}
WRITER_FILES = {"csv": "t.csv", "json": "t.json", "svg": "t_v12.svg",
                "manifest": "t_manifest.json"}


@pytest.mark.parametrize("writer", sorted(WRITERS))
class TestReplaceNotTruncate:
    """Every writer replaces its output file by a new one: a reader that
    opened the previous file keeps all of it, and the path gets the new."""

    OLD = b"previous output\n" * 64

    def fresh_bytes(self, writer, result, tmp_path) -> bytes:
        path = tmp_path / "fresh" / WRITER_FILES[writer]
        WRITERS[writer](result, path)
        return path.read_bytes()

    def test_open_reader_keeps_old_bytes(self, writer, small_sweep, tmp_path):
        path = tmp_path / "out" / WRITER_FILES[writer]
        path.parent.mkdir()
        path.write_bytes(self.OLD)
        with open(path, "rb") as old:
            WRITERS[writer](small_sweep, path)
            assert old.read() == self.OLD
        assert path.read_bytes() == self.fresh_bytes(writer, small_sweep,
                                                     tmp_path)

    def test_symlink_target_replaced(self, writer, small_sweep, tmp_path):
        target = tmp_path / "real" / WRITER_FILES[writer]
        target.parent.mkdir()
        target.write_bytes(self.OLD)
        link = tmp_path / "out" / WRITER_FILES[writer]
        link.parent.mkdir()
        link.symlink_to(target)
        WRITERS[writer](small_sweep, link)
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == self.fresh_bytes(writer, small_sweep,
                                                       tmp_path)

    @pytest.mark.parametrize("kind", ["fifo", "link to fifo", "directory"])
    def test_non_regular_target_refused(self, writer, small_sweep, tmp_path,
                                        kind):
        """Only a regular file is replaced: a FIFO or directory at the path,
        or at the end of a symlink, makes the writer raise and stays."""
        target = tmp_path / "real" / WRITER_FILES[writer]
        target.parent.mkdir()
        if kind == "directory":
            target.mkdir()
        else:
            os.mkfifo(target)
        mode = target.lstat().st_mode
        path = target
        if kind == "link to fifo":
            path = tmp_path / "out" / WRITER_FILES[writer]
            path.parent.mkdir()
            path.symlink_to(target)
        with pytest.raises(FileExistsError, match="not a regular file"):
            WRITERS[writer](small_sweep, path)
        assert target.lstat().st_mode == mode
        assert path.is_symlink() == (kind == "link to fifo")


class TestFailedSerialization:
    """A document that cannot be serialized leaves the previous file."""

    def test_manifest_keeps_previous_file(self, tmp_path):
        path = write_manifest({"a": 1.0}, tmp_path / "m.json")
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_manifest({"a": 1.0, "b": np.int64(3)}, path)
        assert path.read_bytes() == before

    def test_json_results_keep_previous_file(self, small_sweep, tmp_path):
        path = write_results(small_sweep, "json", tmp_path / "r.json")
        before = path.read_bytes()
        hacked = replace(small_sweep,
                         manifest={**small_sweep.manifest, "bad": object()})
        with pytest.raises(TypeError):
            write_results(hacked, "json", path)
        assert path.read_bytes() == before


#: calls that write a file in place, or rename over one
_RENAMES = {("os", "rename"), ("os", "replace"), ("shutil", "move")}


def _in_place_writes(tree: ast.Module, skip: str = "") -> list:
    """(line, source) of each call in `tree` that opens a file for writing
    or appending, calls .write_text/.write_bytes/.rename, or renames through
    os or shutil; the body of a function named `skip` is not searched."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            return
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            base = getattr(getattr(func, "value", None), "id", None)
            # open(file, mode), but p.open(mode)
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        args[0] if args else None)
            read_only = mode is None or (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))
            if ((name == "open" and not read_only)
                    or name in ("write_text", "write_bytes", "rename")
                    or (base, name) in _RENAMES):
                found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


class TestOneWriter:
    """io._write_text is the only place in the package that writes a file."""

    def test_no_other_writer_in_the_package(self):
        package = Path(doublelambda.__file__).parent
        offenders = {}
        for module in sorted(package.glob("*.py")):
            tree = ast.parse(module.read_text(encoding="utf-8"))
            found = _in_place_writes(
                tree, skip="_write_text" if module.name == "io.py" else "")
            if found:
                offenders[module.name] = found
        assert offenders == {}

    def test_the_writer_itself_is_seen(self):
        """The check finds the one writer it exempts, and the forms it bans."""
        io_src = Path(doublelambda.__file__).with_name("io.py")
        tree = ast.parse(io_src.read_text(encoding="utf-8"))
        writer = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "_write_text")
        found = _in_place_writes(tree)
        assert len(found) == 1
        assert writer.lineno < found[0][0] <= writer.end_lineno
        banned = ('open(p, "w")', 'open(p, mode="a")', "p.open('w')",
                  'open(p, "r+")', "open(p, m)", "p.write_text(t)",
                  "p.write_bytes(b)", "p.rename(q)", "os.replace(p, q)")
        for src in banned:
            assert _in_place_writes(ast.parse(src)), src
        assert _in_place_writes(ast.parse(
            'open(p)\nopen(p, "rb")\np.open()\nq.read_text()')) == []


#: os attributes that read the environment
_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module) -> list:
    """(line, source) of each os.environ / os.getenv reference in `tree`,
    and of each import of those names from os."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
                and getattr(node.value, "id", None) == "os"):
            found.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in _ENVIRONMENT for a in node.names)):
            found.append((node.lineno, ast.unparse(node)))
    return found


class TestNoEnvironment:
    """No package module reads an environment variable: a run is set by its
    config and flags alone, which its manifest records."""

    def test_no_module_reads_the_environment(self):
        package = Path(doublelambda.__file__).parent
        offenders = {}
        for module in sorted(package.glob("*.py")):
            found = _environment_reads(
                ast.parse(module.read_text(encoding="utf-8")))
            if found:
                offenders[module.name] = found
        assert offenders == {}

    def test_the_reads_are_seen(self):
        for src in ('os.environ.get("X", "1")', 'os.environ["X"]',
                    'os.getenv("X")', "from os import environ",
                    "from os import getenv as g", "dict(os.environ)"):
            assert _environment_reads(ast.parse(src)), src
        assert _environment_reads(ast.parse(
            "os.cpu_count()\nenv.environ\nfrom os import path")) == []


#: the modules that may invert a matrix with np.linalg.inv: the certified
#: stack inverse, and the independent references of the oracle
_INVERTERS = {"matfuncs.py", "oracle.py"}


def _inv_calls(tree: ast.Module) -> list:
    """(line, source) of each linalg.inv reference in `tree`, and of each
    import of inv from numpy.linalg."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "inv"
                and getattr(node.value, "attr", None) == "linalg"):
            found.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.ImportFrom)
              and node.module == "numpy.linalg"
              and any(a.name == "inv" for a in node.names)):
            found.append((node.lineno, ast.unparse(node)))
    return found


class TestOneInverse:
    """A stage inverts its stack through matfuncs.inv_stack, which certifies
    each inverse by its kappa_1 and isolates an exactly singular member."""

    def test_only_the_inverters_call_inv(self):
        package = Path(doublelambda.__file__).parent
        found = {module.name: _inv_calls(
                     ast.parse(module.read_text(encoding="utf-8")))
                 for module in sorted(package.glob("*.py"))}
        assert {name for name, calls in found.items() if calls} == _INVERTERS

    def test_the_calls_are_seen(self):
        for src in ("np.linalg.inv(m)", "numpy.linalg.inv(m)",
                    "f = la.linalg.inv", "from numpy.linalg import inv",
                    "from numpy.linalg import solve, inv as i"):
            assert _inv_calls(ast.parse(src)), src
        assert _inv_calls(ast.parse(
            "np.linalg.pinv(m)\nnp.linalg.solve(m, b)\ninv_stack(m)\n"
            "from numpy.linalg import pinv")) == []


#: names that reach the C allocator
_ALLOCATOR = {"ctypes", "mallopt"}


def _allocator_references(tree: ast.Module) -> list:
    """(line, source) of each reference to ctypes or mallopt in `tree`:
    a name, an attribute or an import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            names = [a.name for a in node.names] + [getattr(node, "module",
                                                            None) or ""]
            hit = any(n.split(".")[0] in _ALLOCATOR for n in names)
        else:
            hit = (isinstance(node, ast.Name) and node.id in _ALLOCATOR
                   or isinstance(node, ast.Attribute)
                   and node.attr in _ALLOCATOR)
        if hit:
            found.append((node.lineno, ast.unparse(node)))
    return found


class TestAllocatorLeftAlone:
    """Only the simulate process sets the C allocator (cli._keep_freed_heap):
    importing the package leaves it as the host program set it."""

    def test_only_cli_references_the_allocator(self):
        package = Path(doublelambda.__file__).parent
        found = {module.name: _allocator_references(
                     ast.parse(module.read_text(encoding="utf-8")))
                 for module in sorted(package.glob("*.py"))}
        assert {name: refs for name, refs in found.items() if refs} == {
            "cli.py": found["cli.py"]}
        assert found["cli.py"]

    def test_the_references_are_seen(self):
        for src in ("import ctypes", "import ctypes.util as u",
                    "from ctypes import CDLL", "from ctypes.util import x",
                    "ctypes.CDLL(None).mallopt(-1, 0)", "libc.mallopt",
                    "from libc import mallopt", "f(ctypes)"):
            assert _allocator_references(ast.parse(src)), src
        assert _allocator_references(ast.parse(
            "import os\nx.malloc\n'mallopt'\nctype = 1")) == []


def _scipy_imports(tree: ast.Module) -> list:
    """Source of each import of scipy anywhere in `tree`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.partition(".")[0] == "scipy" for name in names):
            found.append(ast.unparse(node))
    return found


class TestScipyBoundary:
    """No package module imports scipy, at module level or inside a
    function: the package runs on numpy alone, and scipy is a test
    dependency only."""

    def test_no_module_imports_scipy(self):
        package = Path(doublelambda.__file__).parent
        found = {}
        for module in sorted(package.glob("*.py")):
            imports = _scipy_imports(
                ast.parse(module.read_text(encoding="utf-8")))
            if imports:
                found[module.name] = imports
        assert found == {}

    def test_the_imports_are_seen(self):
        src = ("import scipy\n"
               "import numpy, scipy.linalg as sl\n"
               "from scipy import linalg\n"
               "if x:\n    from scipy.linalg import expm\n"
               "class C:\n    import scipy.sparse\n"
               "def f():\n    def g():\n        import scipy.fft\n")
        assert len(_scipy_imports(ast.parse(src))) == 6
        assert _scipy_imports(ast.parse(
            "import numpy\nimport scipyx\nfrom . import scipy\n"
            "from .scipy import linalg")) == []
