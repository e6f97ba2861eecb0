import numpy as np
import pytest

from doublelambda.entanglement import (DUAN_BOUND, duan_v12,
                                       quadrature_variance_stack)
from doublelambda.propagation import FieldCovariance, input_covariance

X1 = np.array([1, 1, 0, 0], dtype=complex)
P1 = np.array([-1j, 1j, 0, 0])


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


class TestDuan:
    def test_two_vacua_saturate_bound(self):
        res = duan_v12(input_covariance())
        assert res.v12 == pytest.approx(DUAN_BOUND)
        assert res.du2 == pytest.approx(2.0)
        assert res.dv2 == pytest.approx(2.0)
        assert not res.entangled

    @pytest.mark.parametrize("r", [0.2, 0.8, 1.5])
    def test_two_mode_squeezed_value(self, r):
        res = duan_v12(two_mode_squeezed(r))
        assert res.v12 == pytest.approx(4.0 * np.exp(-2 * r), rel=1e-12)
        assert res.entangled

    def test_classical_noise_additive(self):
        eps = 0.37
        c = input_covariance().c.copy()
        for (i, j) in [(0, 1), (1, 0), (2, 3), (3, 2)]:
            c[i, j] += eps / 2
        res = duan_v12(FieldCovariance(c=c))
        assert res.v12 == pytest.approx(4.0 + 4.0 * eps)
        assert not res.entangled

    def test_mode_swap_invariance(self):
        cov = two_mode_squeezed(0.9)
        perm = [2, 3, 0, 1]
        swapped = FieldCovariance(c=cov.c[np.ix_(perm, perm)])
        assert duan_v12(swapped).v12 == pytest.approx(duan_v12(cov).v12)

    def test_v12_is_sum(self):
        res = duan_v12(two_mode_squeezed(0.5))
        assert res.v12 == pytest.approx(res.du2 + res.dv2)
        assert res.du2 >= 0 and res.dv2 >= 0
