"""A 40-digit error budget of the steady stage, the drift, R(0) (inverted,
and read off the bordered inverse) and the diffusion D at four fixed
points.

The reference Liouvillian is built in mpmath from the point's
double-precision coefficient rows (atom.coefficient_stack) and the
superoperator tables, whose entries are exact (0, +-1/2, +-1, +-2, +-i).  It
is therefore exactly trace-preserving, and its bordered solve is the exact
steady state of the inputs both double-precision routes see.  Its real
generator B = U^H L U, drift A = (O B O^T)[1:, 1:] and R(0) = (-A)^-1 are
formed at 40 digits with U = HERMITIAN_FRAME and the population rotation O
exact (entries 0, 1, 1/sqrt(n)).  D is the channelwise sandwich sum of the
exact state and the exact rate row, whose tensor entries are integers, in
FRAME = (O U^T)[1:] at 40 digits.
"""

import numpy as np
import pytest

from doublelambda import atom, steady
from doublelambda.experiments import amplitude_spec, dephasing_spec
from doublelambda.fluctuations import (CHANNEL_SANDWICHES, FRAME,
                                       O1_BORDERED, ROTATION,
                                       diffusion_stack, drift_stack,
                                       response_stack)
from doublelambda.matfuncs import inv_stack
from doublelambda.params import (HERMITIAN_FRAME, ParamStack, SystemParams,
                                hermitian_coordinates)
from conftest import full_generator_diffusion

mpmath = pytest.importorskip(
    "mpmath", reason="mpmath (the test extra) is not installed: no "
    "40-digit reference")

DIGITS = 40
#: the vec(rho) positions of the diagonal: the trace functional
VEC_TRACE = (0, 5, 10, 15)

POINTS = {
    "reference": SystemParams(),
    # the SVD route's largest error on the fig3 grid, 2.5e-12
    "fig3-worst": amplitude_spec(SystemParams()).param_stack().point(197),
    # n0 enters no steady-state coefficient: the reference point's L again
    "n0x1000": SystemParams(n0=3e19),
    # gamma0 = 2.5e-5, next to fig4's dark gamma0 = 0
    "fig4-next-to-dark": dephasing_spec(SystemParams()).param_stack().point(1),
}


def liouvillians(params):
    """(the real generator and L as the pipeline builds them, L at
    DIGITS)."""
    h, r = atom.coefficient_stack(ParamStack.of([params]))
    lmat = atom.liouvillian_stack(h, atom.dissipator_stack(r))
    tables = np.concatenate([atom.COHERENT_BASIS, atom.DISSIPATOR_BASIS])
    with mpmath.workdps(DIGITS):
        exact = mpmath.zeros(16, 16)
        for c, table in zip(np.concatenate([h[0], r[0]]), tables):
            for i, j in zip(*np.nonzero(table)):
                exact[i, j] += mpmath.mpf(float(c)) * mpmath.mpc(
                    table[i, j].real, table[i, j].imag)
    return atom.real_generator_stack(h, r), lmat, exact


def steady_stack(params):
    """steady_state_stack's states, methods and failures at params."""
    h, r = atom.coefficient_stack(ParamStack.of([params]))
    rhos, _, methods, failures, _ = steady.steady_state_stack(
        atom.real_generator_stack(h, r), h, r)
    return rhos, methods, failures


def exact_state(lmat, row: int = 0):
    """The state with unit trace, from L with `row` replaced by the trace."""
    with mpmath.workdps(DIGITS):
        bordered, rhs = lmat.copy(), mpmath.zeros(16, 1)
        for j in range(16):
            bordered[row, j] = 1 if j in VEC_TRACE else 0
        rhs[row] = 1
        return mpmath.lu_solve(bordered, rhs)


def relative_error(rho, exact) -> float:
    ref = np.array([complex(x) for x in exact]).reshape(4, 4)
    return float(np.max(np.abs(rho - ref)) / np.max(np.abs(ref)))


def test_reference_does_not_depend_on_the_replaced_row():
    _, _, exact = liouvillians(POINTS["fig4-next-to-dark"])
    x0, x5 = exact_state(exact, 0), exact_state(exact, 5)
    with mpmath.workdps(DIGITS):
        assert max(abs(a - b) for a, b in zip(x0, x5)) < mpmath.mpf("1e-40")


@pytest.mark.parametrize("name", POINTS)
def test_bordered_route_within_budget_and_no_worse_than_svd(name,
                                                            monkeypatch):
    real, lmat, exact = liouvillians(POINTS[name])
    exact = exact_state(exact)
    assert steady._bordered_stack(real)[1].all()  # certified
    rhos, methods, failures = steady_stack(POINTS[name])
    assert (methods, failures) == (["null-space"], {})
    error = relative_error(rhos[0], exact)
    # a bound of 0 certifies nothing, so every point takes the SVD
    monkeypatch.setattr(steady, "BORDERED_KAPPA_MAX", 0.0)
    rhos, methods, _ = steady_stack(POINTS[name])
    assert methods == ["null-space"]
    assert error <= 1e-12
    assert error <= relative_error(rhos[0], exact)


def exact_frame():
    """U = HERMITIAN_FRAME at DIGITS: its entries are 0, 1 and
    +-1/sqrt(2), times 1 or i."""
    def exact(v: float):
        return mpmath.mpf(v) if v in (0, 1) else np.sign(v) / mpmath.sqrt(2)
    assert set(np.abs(HERMITIAN_FRAME).ravel()) == {0, 1, 1 / np.sqrt(2)}
    return mpmath.matrix([[mpmath.mpc(exact(v.real), exact(v.imag))
                           for v in row] for row in HERMITIAN_FRAME])


def exact_rotation():
    """O at DIGITS: the sum over 2 and the zero-sum rows on the four
    populations, the identity on the coherences."""
    o = mpmath.eye(16)
    rows = [[1, 1, 1, 1], [1, -1, 0, 0], [1, 1, -2, 0], [1, 1, 1, -3]]
    for i, (row, n) in enumerate(zip(rows, (4, 2, 6, 12))):
        for j, v in enumerate(row):
            o[i, j] = v / mpmath.sqrt(n)
    return o


def exact_linearization(lmat):
    """B = U^H L U, A and R(0) at DIGITS, as float64 arrays of their
    (real) values."""
    with mpmath.workdps(DIGITS):
        u, o = exact_frame(), exact_rotation()
        b = u.H * lmat * u
        ob = o * b * o.T
        a = mpmath.matrix([[mpmath.re(ob[i, j]) for j in range(1, 16)]
                           for i in range(1, 16)])
        r0 = (-a) ** -1
        return [np.array(x.tolist(), dtype=complex).real for x in (b, a, r0)]


def product_route(lmat):
    """B, A and R(0) as the frame products built them before the real
    tables: B = (U^H L U).real, A = (FRAME.conj() L FRAME^T).real, and
    R(0) from a complex inverse of -A."""
    b = (HERMITIAN_FRAME.conj().T @ lmat @ HERMITIAN_FRAME).real
    a = (FRAME.conj() @ lmat @ FRAME.T).real
    return b[0], a[0], inv_stack(-a.astype(complex))[0][0].real


def forward_error(x, exact) -> float:
    return float(np.max(np.abs(x - exact)) / np.max(np.abs(exact)))


#: the budget of B, A and R(0), relative to each exact matrix's largest
#: entry.  Worst over the four points, tables (products): B 2.2e-16
#: (2.2e-16), A 2.2e-16 (2.2e-16), R(0) 7.6e-13 (7.0e-13); R(0) at the
#: reference point 1.7e-14 (6.4e-14), at fig3-worst 5.4e-13 (4.3e-13)
LINEARIZATION_BUDGET = (1e-15, 1e-15, 2e-12)


@pytest.mark.parametrize("name", POINTS)
def test_real_tables_within_budget_and_no_worse_than_products(name):
    real, lmat, exact = liouvillians(POINTS[name])
    exact = exact_linearization(exact)
    a, failures = drift_stack(real, atom.coefficient_stack(
        ParamStack.of([POINTS[name]]))[1])
    r0, more = response_stack(a, np.zeros(1))
    assert failures == more == {}
    tables = (real[0], a[0], r0[0].real)
    for x, old, ref, budget in zip(tables, product_route(lmat), exact,
                                   LINEARIZATION_BUDGET):
        error = forward_error(x, ref)
        assert error <= budget
        assert error <= 2.0 * forward_error(old, ref)


#: the block R(0) = -O_1 B'^-1 O1_BORDERED against the direct inverse of
#: -A, each relative to the exact R(0)'s largest entry: reference 3.8e-14
#: (1.7e-14), fig3-worst 1.2e-14 (5.4e-13), n0x1000 3.8e-14 (1.7e-14),
#: fig4-next-to-dark 1.26e-12 (7.6e-13).  The block inherits the rounding of
#: the 16 x 16 B'^-1, so at the reference point it is 2.3 times the direct
#: error, both about 1e-3 of n kappa_1 eps (kappa_1 = 1.8e4)
BLOCK_FACTOR = 3.0


@pytest.mark.parametrize("name", POINTS)
def test_bordered_block_within_budget(name):
    real, _, exact = liouvillians(POINTS[name])
    exact = exact_linearization(exact)[2]
    h, r = atom.coefficient_stack(ParamStack.of([POINTS[name]]))
    *_, failures, binv = steady.steady_state_stack(real, h, r)
    a, more = drift_stack(real, r)
    block, refused = response_stack(a, np.zeros(1), binv)
    direct, _ = response_stack(a, np.zeros(1))
    assert failures == more == refused == {}
    # the block passed the response test and was taken as it is
    assert np.array_equal(block, -ROTATION[1:] @ binv @ O1_BORDERED)
    error = forward_error(block[0], exact)
    assert error <= LINEARIZATION_BUDGET[2]
    assert error <= BLOCK_FACTOR * forward_error(direct[0], exact)


def exact_diffusion(rates, x):
    """D in FRAME at DIGITS, as a complex array, of the rate row and the
    exact vec(rho) x: sum_j r_j Tr(rho S_j[mu, nu]) / 2 over the integer
    CHANNEL_SANDWICHES entries S_j, which act on vec(rho)."""
    assert np.array_equal(CHANNEL_SANDWICHES, CHANNEL_SANDWICHES.real.round())
    with mpmath.workdps(DIGITS):
        d = mpmath.zeros(16, 16)
        for j, mu, nu, k in zip(*np.nonzero(CHANNEL_SANDWICHES)):
            d[mu, nu] += (mpmath.mpf(float(rates[j]))
                          * int(CHANNEL_SANDWICHES[j, mu, nu, k].real) * x[int(k)])
        frame = exact_rotation()[1:, :] * exact_frame().T
        return np.array((frame * d * frame.T / 2).tolist(), dtype=complex)


#: the budget of D, relative to the exact D's largest entry, from the
#: pipeline's state and (formation alone) from the exact state rounded to
#: double.  Worst over the four points, table route (full L): 2.7e-13
#: (2.7e-13) at fig4-next-to-dark, set by the state; formed from the exact
#: state, 3.8e-16 (2.5e-16)
DIFFUSION_BUDGET = (1e-12, 1e-15)


@pytest.mark.parametrize("name", POINTS)
def test_rates_diffusion_within_budget_and_no_worse_than_full_l(name):
    _, lmat, exact = liouvillians(POINTS[name])
    x = exact_state(exact)
    rates = atom.coefficient_stack(POINTS[name])[1]
    ref = exact_diffusion(rates, x)
    rho, _, failures = steady_stack(POINTS[name])
    assert failures == {}
    rounded = np.array([complex(v) for v in x]).reshape(1, 4, 4)
    for state, budget in zip((rho, rounded), DIFFUSION_BUDGET):
        d = diffusion_stack("einstein", rates[None],
                            hermitian_coordinates(state))[0]
        error = forward_error(d, ref)
        assert error <= budget
        if state is rho:
            old = full_generator_diffusion(lmat, state)[0]
            assert error <= 2.0 * forward_error(old, ref)
