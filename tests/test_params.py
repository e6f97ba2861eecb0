"""ParamStack: columns that validate and derive exactly as their points."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelambda.params import FIELDS, ParamStack, SystemParams

#: valid for every field: rates and fields >= 0, |p| <= 1, lengths > 0
VALID = st.floats(0.01, 1.0)
#: invalid for some fields and valid for others
SUSPECT = st.sampled_from([-1.0, -1e-300, 0.0, 1.5, math.nan, math.inf,
                           -math.inf])
DERIVED = ("delta2", "gamma13", "atom_number", "chi1", "chi2")


@st.composite
def raw_columns(draw):
    """Columns of 1 to 5 rows with up to three suspect entries."""
    n = draw(st.integers(1, 5))
    columns = {name: draw(st.lists(VALID, min_size=n, max_size=n))
               for name in FIELDS}
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(FIELDS))
        columns[name][draw(st.integers(0, n - 1))] = draw(SUSPECT)
    return columns


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(raw_columns())
def test_stack_validates_and_derives_as_its_points(columns):
    n = len(columns["g"])
    points, first_error = [], None
    for i in range(n):
        try:
            points.append(SystemParams(**{k: v[i] for k, v in columns.items()}))
        except ValueError as exc:
            first_error = first_error or str(exc)
    if first_error is not None:
        with pytest.raises(ValueError) as info:
            ParamStack(**columns)
        assert str(info.value) == first_error
        return
    ps = ParamStack(**columns)
    assert len(ps) == n
    assert [ps.point(i) for i in range(n)] == points
    assert [ParamStack.of(points).point(i) for i in range(n)] == points
    assert [ps[1:].point(i) for i in range(n - 1)] == points[1:]
    for name in DERIVED:
        # the same arithmetic on a column as on a point: equal bits
        assert getattr(ps, name).tolist() == [getattr(p, name) for p in points]


def test_scalars_broadcast_against_columns():
    columns = SystemParams().as_dict()
    columns["delta1"] = np.linspace(-1.0, 1.0, 3)
    ps = ParamStack(**columns)
    assert ps.g.tolist() == [SystemParams().g] * 3
    assert ps[np.array([2, 0])].delta1.tolist() == [1.0, -1.0]

