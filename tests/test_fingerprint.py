"""The physics fingerprint stays within RTOL of its golden file."""

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
