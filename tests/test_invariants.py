"""Invariants of the Hermitian-frame fluctuations over valid parameters.

Every valid point has a steady state that is a density matrix, and a
sandwich diffusion matrix that the channelwise route reproduces.  Every
point whose rows under both noise models are neither errors nor dark
must have a stable drift, an R(-omega) = conj(R(omega)) that passes its
own residual, and, under the einstein noise model, field
commutators that survive the medium: C01 - C10 = 1 at omega = 0 and
C01(omega) - C10(-omega) = 1 at omega != 0.  No row that reports success
holds a non-finite number.  A point symmetric under the reflection that
swaps levels 1 and 3 gives rows and field covariances symmetric under it.
"""

import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublelambda import SystemParams
from doublelambda.atom import build_generator
from doublelambda.experiments import compute_point
from doublelambda.fluctuations import (NOISE_MODELS,
                                       diffusion_matrix_channelwise,
                                       diffusion_stack, drift_stack,
                                       response_stack)
from doublelambda.params import hermitian_coordinates
from doublelambda.propagation import (input_covariance, make_setup,
                                      propagate_covariance)
from doublelambda.steady import solve_steady_state
from conftest import linearized

OMEGAS = [0.0, 0.5, 3.0]
#: sideband frequencies drawn by the properties; 0 is always in reach
OMEGA = st.just(0.0) | st.floats(0, 5)
RATE = st.floats(0, 2)


def valid_params(max_density_scale: float):
    """Valid SystemParams with n0 from x1 to x max_density_scale of 3e16."""
    return st.builds(
        SystemParams,
        gamma1=RATE, gamma2=RATE, gamma3=RATE, gamma4=RATE, gamma0=RATE,
        gamma_phi=st.floats(0, 1), p1=st.floats(-1, 1), p2=st.floats(-1, 1),
        omega42=st.floats(0, 3), delta1=st.floats(-4, 4), g=st.floats(0, 0.6),
        a1_mean=st.floats(0, 2), a2_mean=st.floats(0, 2),
        n0=st.floats(1, max_density_scale).map(lambda scale: 3e16 * scale))


VALID_PARAMS = valid_params(1000)

#: max Re eig(M) L = 728.6: the output covariance overflows float64
OVERFLOWING = SystemParams(
    gamma1=0.12493415772628436, gamma2=1.1170273089941891,
    gamma3=0.03673142105271632, gamma4=0.8567875050512954,
    gamma0=0.004152890026941264, p1=-0.8291193461202715,
    p2=-0.8358600652967656, delta1=0.696354758036855, n0=3e22)

#: the bordered solve does not certify this valid point, and the SVD's raw
#: state fails Hermiticity by 1.84e-10; long-time integration returns the
#: state (its symmetrized SVD state is within 2.9e-12 of the 40-digit one)
SVD_NOT_HERMITIAN = SystemParams(
    gamma1=2.0**-24, gamma2=0.0, gamma3=0.0, gamma4=1.5, gamma0=1.0, p1=0.0,
    p2=0.0, omega42=0.0, delta1=2.0, g=0.0, a1_mean=0.0, a2_mean=0.0)


def field_covariance(lin, params, omega):
    setup = make_setup(*lin, params, omega=omega)
    c_in = input_covariance(omega=omega)
    return propagate_covariance(setup, c_in).covariance


def check_invariants(params, omega) -> bool:
    """Check the invariants at one point; False if its rows exclude it."""
    rows = [compute_point(params, omega, model) for model in NOISE_MODELS]
    if any(row.failed or row.method.endswith("dark-transparent")
           for row in rows):
        return False
    gen = build_generator(params)
    a, failures = drift_stack(gen.real[None], gen.rates[None])
    assert failures == {}
    _, failures = response_stack(a, np.array([omega]))
    assert failures == {}
    # under vacuum-reservoir the commutator deficit is physical
    lin = linearized(gen, solve_steady_state(gen, params), params, "einstein")
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
@given(VALID_PARAMS, OMEGA)
def test_frame_invariants(params, omega):
    check_invariants(params, omega)


@pytest.mark.parametrize("omega", OMEGAS)
def test_reference_point_is_checked(omega):
    # the property skips error rows: a pipeline that fails every point
    # would pass it vacuously
    assert check_invariants(SystemParams(), omega)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(valid_params(1e6), OMEGA)
@example(OVERFLOWING, 0.0)
def test_successful_rows_are_finite(params, omega):
    for model in NOISE_MODELS:
        row = compute_point(params, omega, model)
        if row.failed:
            continue
        for f in fields(row):
            value = getattr(row, f.name)
            # axis_value is NaN until a sweep sets it
            if (f.name != "axis_value" and value is not None
                    and not isinstance(value, (str, tuple))):
                assert np.all(np.isfinite(value)), (model, f.name, value)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(VALID_PARAMS)
@example(SVD_NOT_HERMITIAN)
def test_steady_state_is_a_density_matrix(params):
    gen = build_generator(params)
    rho = solve_steady_state(gen, params).rho
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) >= -1e-10


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(VALID_PARAMS)
@example(SVD_NOT_HERMITIAN)
def test_einstein_dual_path_identity(params):
    # the generator sandwich against the channel tensor, which is built
    # from the jump operators alone
    gen = build_generator(params)
    rho = solve_steady_state(gen, params).rho[None]
    d = diffusion_stack("einstein", gen.rates[None], hermitian_coordinates(rho))
    d_channel = diffusion_matrix_channelwise(gen.rates[None], rho)
    assert np.max(np.abs(d - d_channel)) <= 1e-12


@pytest.mark.parametrize("noise_model", NOISE_MODELS)
def test_overflowing_point_fails_by_name(noise_model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the named error, and nothing else
        row = compute_point(OVERFLOWING, 0.0, noise_model)
    assert row.error == ("ValueError: propagation overflow: output covariance "
                         "not finite, gain exponent max Re eig(M)·L = 728.6")


def symmetric_params(g13, g24, p, a, **kw):
    return SystemParams(gamma1=g13, gamma3=g13, gamma2=g24, gamma4=g24,
                        p1=p, p2=p, a1_mean=a, a2_mean=a, **kw)


#: the modes (a1, a1+, a2, a2+) with fields 1 and 2 swapped
MODE_SWAP = np.array([2, 3, 0, 1])


def close(x, y) -> bool:
    return abs(x - y) <= 1e-10 * max(1.0, abs(y))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(st.builds(symmetric_params, RATE, RATE, st.floats(-1, 1),
                 st.floats(0, 2), delta1=st.floats(-4, 4), gamma0=RATE,
                 gamma_phi=st.floats(0, 1), omega42=st.floats(0, 3),
                 g=st.floats(0, 0.6)),
       st.sampled_from([0.0, 0.7]))
def test_reflection_symmetry(params, omega):
    # gamma1 = gamma3, gamma2 = gamma4, p1 = p2 and a1 = a2 make levels 1
    # and 3, and with them fields 1 and 2, mirror images of each other
    for model in NOISE_MODELS:
        row = compute_point(params, omega, model)
        if row.failed:
            continue
        pops = row.populations
        assert close(pops[0], pops[2]), (model, pops)
        assert (row.alpha1 is None) == (row.alpha2 is None)
        assert row.alpha1 is None or close(row.alpha1, row.alpha2)
        if row.method.endswith("dark-transparent"):
            continue
        gen = build_generator(params)
        lin = linearized(gen, solve_steady_state(gen, params), params, model)
        c = field_covariance(lin, params, omega).c
        swapped = c[np.ix_(MODE_SWAP, MODE_SWAP)]
        scale = max(1.0, float(np.max(np.abs(c))))
        assert np.max(np.abs(swapped - c)) <= 1e-10 * scale, model
