"""Invariants of the Hermitian-frame fluctuations over valid parameters.

Every point whose rows under both noise models are neither errors nor dark
must have a drift that is real in the frame, an R(-omega) = conj(R(omega))
that passes its own residual, and, under the einstein noise model, field
commutators that survive the medium: C01 - C10 = 1 at omega = 0 and
C01(omega) - C10(-omega) = 1 at omega != 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelambda import SystemParams
from doublelambda.atom import build_generator
from doublelambda.experiments import compute_point
from doublelambda.fluctuations import (NOISE_MODELS, drift_stack, linearize,
                                       response_stack)
from doublelambda.propagation import (input_covariance, make_setup,
                                      propagate_covariance)
from doublelambda.steady import solve_steady_state

OMEGAS = [0.0, 0.5, 3.0]
RATE = st.floats(0, 2)

VALID_PARAMS = st.builds(
    SystemParams,
    gamma1=RATE, gamma2=RATE, gamma3=RATE, gamma4=RATE, gamma0=RATE,
    gamma_phi=st.floats(0, 1), p1=st.floats(-1, 1), p2=st.floats(-1, 1),
    omega42=st.floats(0, 3), delta1=st.floats(-4, 4), g=st.floats(0, 0.6),
    a1_mean=st.floats(0, 2), a2_mean=st.floats(0, 2),
    n0=st.floats(1, 1000).map(lambda scale: 3e16 * scale))


def field_covariance(lin, params, omega):
    setup = make_setup(lin, params, omega=omega)
    c_in = input_covariance(omega=omega)
    return propagate_covariance(setup, c_in).covariance


def check_invariants(params, omega) -> bool:
    """Check the invariants at one point; False if its rows exclude it."""
    rows = [compute_point(params, omega, model) for model in NOISE_MODELS]
    if any(row.failed or row.method.endswith("dark-transparent")
           for row in rows):
        return False
    gen = build_generator(params)
    a, failures = drift_stack(gen.adjoint[None])
    assert failures == {}
    _, _, failures = response_stack(a, np.array([omega]))
    assert failures == {}
    # under vacuum-reservoir the commutator deficit is physical
    lin = linearize(gen, solve_steady_state(gen, params), params, "einstein")
    plus = field_covariance(lin, params, omega)
    if omega == 0.0:
        c1, c2 = plus.commutator_blocks()
    else:
        minus = field_covariance(lin, params, -omega).c
        c1 = plus.c[0, 1] - minus[1, 0]
        c2 = plus.c[2, 3] - minus[3, 2]
    assert abs(c1 - 1.0) <= 1e-6 and abs(c2 - 1.0) <= 1e-6
    return True


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(VALID_PARAMS, st.sampled_from(OMEGAS))
def test_frame_invariants(params, omega):
    check_invariants(params, omega)


@pytest.mark.parametrize("omega", OMEGAS)
def test_reference_point_is_checked(omega):
    # the property skips error rows: a pipeline that fails every point
    # would pass it vacuously
    assert check_invariants(SystemParams(), omega)
