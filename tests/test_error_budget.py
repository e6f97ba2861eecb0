"""A 40-digit error budget of the steady stage at four fixed points.

The reference Liouvillian is built in mpmath from the point's
double-precision coefficient rows (atom.coefficient_stack) and the
superoperator tables, whose entries are exact (0, +-1/2, +-1, +-2, +-i).  It
is therefore exactly trace-preserving, and its bordered solve is the exact
steady state of the inputs both double-precision routes see.
"""

import numpy as np
import pytest

from doublelambda import atom, steady
from doublelambda.experiments import amplitude_spec, dephasing_spec
from doublelambda.params import ParamStack, SystemParams

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
    """(double-precision L as the pipeline builds it, the same at DIGITS)."""
    h, r = atom.coefficient_stack(ParamStack.of([params]))
    lmat = atom.liouvillian_stack(h, atom.dissipator_stack(r))[1]
    tables = np.concatenate([atom.COHERENT_BASIS, atom.DISSIPATOR_BASIS])
    with mpmath.workdps(DIGITS):
        exact = mpmath.zeros(16, 16)
        for c, table in zip(np.concatenate([h[0], r[0]]), tables):
            for i, j in zip(*np.nonzero(table)):
                exact[i, j] += mpmath.mpf(float(c)) * mpmath.mpc(
                    table[i, j].real, table[i, j].imag)
    return lmat, exact


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
    _, exact = liouvillians(POINTS["fig4-next-to-dark"])
    x0, x5 = exact_state(exact, 0), exact_state(exact, 5)
    with mpmath.workdps(DIGITS):
        assert max(abs(a - b) for a, b in zip(x0, x5)) < mpmath.mpf("1e-40")


@pytest.mark.parametrize("name", POINTS)
def test_bordered_route_within_budget_and_no_worse_than_svd(name,
                                                            monkeypatch):
    lmat, exact = liouvillians(POINTS[name])
    exact = exact_state(exact)
    assert steady._bordered_stack(lmat)[1].all()  # certified
    rhos, methods, failures = steady.steady_state_stack(lmat)
    assert (methods, failures) == (["null-space"], {})
    error = relative_error(rhos[0], exact)
    # a bound of 0 certifies nothing, so every point takes the SVD
    monkeypatch.setattr(steady, "BORDERED_KAPPA_MAX", 0.0)
    rhos, methods, _ = steady.steady_state_stack(lmat)
    assert methods == ["null-space"]
    assert error <= 1e-12
    assert error <= relative_error(rhos[0], exact)
