import numpy as np
import pytest

from doublelambda import SystemParams, compute_point
from doublelambda.experiments import amplitude_spec, run_sweep
from doublelambda.entanglement import (DUAN_BOUND, duan_stack,
                                       quadrature_variance_stack)
from doublelambda.fluctuations import NOISE_MODELS
from doublelambda.propagation import FieldCovariance, input_covariance

X1 = np.array([1, 1, 0, 0], dtype=complex)
P1 = np.array([-1j, 1j, 0, 0])


def duan(cov: FieldCovariance) -> tuple:
    """V12, <du^2> and <dv^2> of one covariance, from duan_stack."""
    du2, dv2, failures = duan_stack(cov.c[None])
    assert failures == {}
    return du2[0] + dv2[0], du2[0], dv2[0]


def single_mode_squeezed(r: float) -> FieldCovariance:
    """Mode 1 squeezed in x (a -> a cosh r - a+ sinh r on vacuum), mode 2 vacuum."""
    ch, sh = np.cosh(r), np.sinh(r)
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0] = c[1, 1] = -ch * sh
    c[0, 1] = ch**2
    c[1, 0] = sh**2
    c[2, 3] = 1.0
    return FieldCovariance(c=c)


def two_mode_squeezed(r: float) -> FieldCovariance:
    """Bogoliubov transform a1 -> c a1 - s a2+, a2 -> c a2 - s a1+ on vacuum.

    Derived directly from the transformation: the only nonvanishing vacuum
    expectation is <a a+> = 1, giving <a1 a2> = -cs, <a1 a1+> = c^2, etc.
    """
    ch, sh = np.cosh(r), np.sinh(r)
    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = c[2, 3] = ch**2          # <a a+>
    c[1, 0] = c[3, 2] = sh**2          # <a+ a>
    c[0, 2] = c[2, 0] = -ch * sh       # <a1 a2>
    c[1, 3] = c[3, 1] = -ch * sh       # <a1+ a2+>
    return FieldCovariance(c=c)


class TestQuadratureVariance:
    def test_vacuum_unit(self):
        c = input_covariance().c[None]
        for weights in (X1, P1):
            value, failures = quadrature_variance_stack(c, weights)
            assert failures == {}
            assert value[0] == pytest.approx(1.0)

    def test_squeezed_mode(self):
        rs = np.array([0.3, 1.0, 2.0])
        c = np.stack([single_mode_squeezed(r).c for r in rs])
        x, failures = quadrature_variance_stack(c, X1)
        assert failures == {}
        assert x == pytest.approx(np.exp(-2 * rs))
        p, failures = quadrature_variance_stack(c, P1)
        assert failures == {}
        assert p == pytest.approx(np.exp(+2 * rs))

    def test_bilinearity(self):
        c = single_mode_squeezed(0.7).c[None]
        v1, _ = quadrature_variance_stack(c, X1)
        v2, _ = quadrature_variance_stack(c, 3.0 * X1)
        assert v2[0] == pytest.approx(9.0 * v1[0])

    def test_bad_weights_shape(self):
        with pytest.raises(ValueError):
            quadrature_variance_stack(input_covariance().c[None], [1, 1])

    def test_nonreal_variance_rejected(self):
        c = np.zeros((4, 4), dtype=complex)
        c[0, 1] = 1.0
        c[2, 3] = 1.0
        c[0, 2] = 5j  # inconsistent correlation: variance picks up imag part
        _, failures = quadrature_variance_stack(
            np.stack([input_covariance().c, c]),
            np.array([1, 0, 1, 0], dtype=complex))
        assert list(failures) == [1]
        assert isinstance(failures[1], ValueError)

    def test_overflowing_sum_refused_by_name(self):
        # finite entries whose symmetrized sum passes the float64 maximum;
        # the overflow is named, silently (RuntimeWarnings are errors here)
        c = input_covariance().c.copy()
        c[0, 1] = c[1, 0] = 1.5e308
        values, failures = quadrature_variance_stack(
            np.stack([input_covariance().c, c]), X1)
        assert list(failures) == [1] and np.isfinite(values[0])
        assert str(failures[1]).startswith(
            "variance overflow: the quadrature sum of a finite covariance "
            "(max |C| = 1.50e+308) is ")

    @pytest.mark.parametrize("noise_model", NOISE_MODELS)
    def test_overflowing_duan_sum_is_an_error_row(self, noise_model):
        # fig3 variant a at n0 = 3e24, row 6: a finite output covariance of
        # max |C| ~ 1e308 whose Duan sum overflowed to NaN (einstein) or inf
        # (vacuum-reservoir) and was returned as an ok row; rows 7 on fail
        # earlier, as their output covariance overflows
        spec = amplitude_spec(SystemParams(n0=3e24), variant="a",
                              noise_model=noise_model)
        columns = run_sweep(spec).columns
        ok = columns["error"] == ""
        assert np.all(np.isfinite(columns["v12"][ok]))
        assert list(np.flatnonzero(ok)) == list(range(6))
        assert all(e.startswith("ValueError: propagation overflow: ")
                   for e in columns["error"][7:])
        row = compute_point(spec.param_stack().point(6), 0.0, noise_model)
        assert row.error == columns["error"][6]
        assert row.error.startswith(
            "ValueError: variance overflow: the quadrature sum of a finite "
            "covariance (max |C| = ")
        assert row.v12 is None and row.method == ""

    @pytest.mark.parametrize("noise_model", NOISE_MODELS)
    def test_high_gain_rounding_accepted(self, noise_model):
        # V12 ~ 1e15 from cancelling terms of ~1e15: their rounding leaves an
        # imaginary part of ~1e-7, far below 1e-10 of the summed magnitudes
        row = compute_point(SystemParams(n0=2e22, delta1=0.0), 0.0,
                            noise_model)
        assert not row.failed, row.error
        assert np.isfinite(row.v12) and row.v12 > 1e12


class TestDuan:
    def test_two_vacua_saturate_bound(self):
        v12, du2, dv2 = duan(input_covariance())
        assert v12 == pytest.approx(DUAN_BOUND)
        assert du2 == pytest.approx(2.0)
        assert dv2 == pytest.approx(2.0)
        assert not v12 < DUAN_BOUND

    @pytest.mark.parametrize("r", [0.2, 0.8, 1.5])
    def test_two_mode_squeezed_value(self, r):
        v12 = duan(two_mode_squeezed(r))[0]
        assert v12 == pytest.approx(4.0 * np.exp(-2 * r), rel=1e-12)
        assert v12 < DUAN_BOUND

    def test_classical_noise_additive(self):
        eps = 0.37
        c = input_covariance().c.copy()
        for (i, j) in [(0, 1), (1, 0), (2, 3), (3, 2)]:
            c[i, j] += eps / 2
        v12 = duan(FieldCovariance(c=c))[0]
        assert v12 == pytest.approx(4.0 + 4.0 * eps)
        assert not v12 < DUAN_BOUND

    def test_mode_swap_invariance(self):
        cov = two_mode_squeezed(0.9)
        perm = [2, 3, 0, 1]
        swapped = FieldCovariance(c=cov.c[np.ix_(perm, perm)])
        assert duan(swapped)[0] == pytest.approx(duan(cov)[0])

    def test_v12_is_sum(self):
        v12, du2, dv2 = duan(two_mode_squeezed(0.5))
        assert v12 == pytest.approx(du2 + dv2)
        assert du2 >= 0 and dv2 >= 0
