"""The physics fingerprint stays within RTOL of its golden file."""

import gzip
import json

import pytest

import fingerprint


@pytest.fixture(scope="module")
def tables():
    return fingerprint.compute()


def test_matches_golden(tables):
    assert fingerprint.differences(tables, fingerprint.load()) == []


def test_diff_names_a_moved_column(tables):
    golden = fingerprint.load()
    row = golden["fig2/einstein"]["rows"][7]
    row[1] *= 1 + 1e-9
    row[10] = "long-time-integration"
    diff = fingerprint.differences(tables, golden)
    assert len(diff) == 2
    assert diff[0].startswith("fig2/einstein method: 1 rows differ (first 7")
    assert diff[1].startswith("fig2/einstein v12: 1 rows differ (first 7")


def _golden_at(path, golden, monkeypatch):
    """Point the script at a golden file holding `golden`."""
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(golden).encode("utf-8"))
    monkeypatch.setattr(fingerprint, "GOLDEN", path)
    return path.read_bytes()


def _changed_method(golden):
    golden["fig2/einstein"]["rows"][7][10] = "long-time-integration"
    return "fig2/einstein method: 1 non-numeric cells differ (first row 7)"


def _dropped_row(golden):
    del golden["fig4/einstein"]["rows"][-1]
    return "fig4/einstein: layout differs"


def _renamed_column(golden):
    golden["calibrated-g"]["columns"] = ["coupling"]
    return "calibrated-g: layout differs"


@pytest.mark.parametrize("change", [_changed_method, _dropped_row,
                                    _renamed_column])
def test_write_refuses_all_but_numeric_moves(tables, tmp_path, monkeypatch,
                                              capsys, change):
    golden = fingerprint.load()
    golden["fig2/einstein"]["rows"][7][1] *= 1 + 1e-9  # a move it would take
    refusal = change(golden)
    before = _golden_at(tmp_path / "golden.json.gz", golden, monkeypatch)
    monkeypatch.setattr(fingerprint, "compute", lambda: tables)
    assert fingerprint.main(["--write"]) == 1
    assert fingerprint.GOLDEN.read_bytes() == before
    out = capsys.readouterr().out
    assert f"not written, since only numbers may move:\n{refusal}\n" in out
    assert "wrote" not in out


def test_write_reports_every_numeric_move(tables, tmp_path, monkeypatch,
                                          capsys):
    golden = fingerprint.load()
    golden["fig2/einstein"]["rows"][7][1] *= 1 + 1e-9
    _golden_at(tmp_path / "golden.json.gz", golden, monkeypatch)
    monkeypatch.setattr(fingerprint, "compute", lambda: tables)
    assert fingerprint.main(["--write"]) == 0
    lines = capsys.readouterr().out.splitlines()
    moves = lines[lines.index("max relative move of each numeric column:")
                  + 1:-1]
    # one line per numeric column, within RTOL or not; strings have none
    assert len(moves) == sum(
        any(isinstance(row[j], float) for row in t["rows"])
        for t in tables.values() for j in range(len(t["columns"])))
    assert "  fig2/einstein method" not in "\n".join(moves)
    v12 = next(m for m in moves if m.startswith("  fig2/einstein v12: "))
    assert 1e-10 < float(v12.split(": ")[1]) < 1e-8
    assert fingerprint.differences(tables, fingerprint.load()) == []
