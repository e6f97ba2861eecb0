"""The in-package matrix exponential against scipy.linalg.expm, and the
certified stack inverse."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from doublelambda import SystemParams, matfuncs
from doublelambda import propagation as pr
from doublelambda.atom import build_generator
from doublelambda.experiments import (SWEEP_SELECTORS, compute_point,
                                      run_sweep, spectrum)
from doublelambda.matfuncs import THETA, expm, inv_stack, squarings
from test_invariants import OVERFLOWING

RTOL = 1e-14


def relative_error(got, want):
    """Largest entry error of each matrix over its largest entry."""
    return (np.max(np.abs(got - want), axis=(-2, -1))
            / np.max(np.abs(want), axis=(-2, -1)))


def one_norms(a):
    return np.max(np.sum(np.abs(a), axis=-2), axis=-1)


@pytest.fixture(scope="module")
def pipeline_stacks():
    """The stacks propagate_stack exponentiates in the fig2 sweep and in the
    spectrum-dense spectrum (n0 x1000, vacuum-reservoir, 128 frequencies)."""
    stacks = {"fig2": [], "spectrum-dense": []}
    with pytest.MonkeyPatch.context() as mp:
        for name, run in (
                ("fig2", lambda: run_sweep(
                    SWEEP_SELECTORS["fig2"](SystemParams()))),
                ("spectrum-dense", lambda: spectrum(
                    SystemParams(n0=3e19), np.linspace(0.0, 5.0, 128),
                    noise_model="vacuum-reservoir"))):
            mp.setattr(pr, "expm",
                       lambda a, name=name: stacks[name].append(a) or expm(a))
            run()
    return stacks


@pytest.mark.parametrize("name", ["fig2", "spectrum-dense"])
def test_pipeline_stacks_match_scipy(pipeline_stacks, name):
    kinds = set()
    for a in pipeline_stacks[name]:
        kinds.add((a.shape[1:], a.dtype))
        assert relative_error(expm(a), scipy.linalg.expm(a)).max() <= RTOL
    assert kinds == {((8, 8), np.dtype(complex)), ((4, 4), np.dtype(complex))}


def test_sweep_path_exponentiates_no_17x17():
    # the field covariance is carried on 4 x 4 blocks: every exponential a
    # fig2 sweep and a spectrum take, in any module, is 8 x 8 or 4 x 4
    shapes = set()
    pade = matfuncs._pade
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matfuncs, "_pade",
                   lambda a, m: shapes.add(a.shape[1:]) or pade(a, m))
        run_sweep(SWEEP_SELECTORS["fig2"](SystemParams()))
        spectrum(SystemParams(n0=3e19), np.linspace(0.0, 5.0, 8),
                 noise_model="vacuum-reservoir")
    assert shapes == {(8, 8), (4, 4)}


def test_spectrum_dense_reaches_degree_13(pipeline_stacks):
    norms = np.concatenate([one_norms(a)
                            for a in pipeline_stacks["spectrum-dense"]])
    assert norms.max() > THETA[-2]


def exact_expm(a):
    """exp(a) of one matrix at 40 digits (mpmath, the test extra)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(),
                        dtype=complex)


def test_squaring_matches_scipy(pipeline_stacks):
    # x8 takes the spectrum-dense Van Loan slices up to three squarings.
    # At most one slice of a stack may differ from scipy's by more than
    # RTOL, and ours is then held to its 40-digit exponential: from the
    # modal rows, slice 31 differs by 1.4e-14, ours off by 6.3e-15 and
    # scipy's by 7.9e-15 in opposite directions (from inverted rows the
    # worst difference was 9.5e-15).  At x16 the worst slice is
    # ill-conditioned: against its 40-digit exponential ours is off by
    # 8.3e-15 and scipy's by 1.1e-14
    slices = [a for a in pipeline_stacks["spectrum-dense"]
              if a.shape[1:] == (8, 8)]
    assert slices
    for a in slices:
        a = 8.0 * a
        assert one_norms(a).max() > 4 * THETA[-1]
        ours = expm(a)
        apart = relative_error(ours, scipy.linalg.expm(a)) > RTOL
        assert apart.sum() <= 1
        for k in np.flatnonzero(apart):
            assert relative_error(ours[k], exact_expm(a[k])) <= RTOL


def test_rotations_match_cos_sin():
    # exp(t J) turns by t: its 1-norm t crosses every degree's bound and
    # takes up to three squarings
    t = np.linspace(0.0, 40.0, 4001)
    a = t[:, None, None] * np.array([[0.0, -1.0], [1.0, 0.0]])
    c, s = np.cos(t), np.sin(t)
    exact = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    assert np.max(np.abs(expm(a) - exact)) <= 1e-14


def test_zero_gives_the_exact_identity():
    for dtype in (float, complex):
        e = expm(np.zeros((3, 17, 17), dtype=dtype))
        assert e.dtype == dtype
        assert np.array_equal(e, np.broadcast_to(np.eye(17), (3, 17, 17)))


def test_one_matrix_as_steady_passes():
    # _integrate_to_steady's step: L / ||L||_2 of the reference Liouvillian
    lmat = build_generator(SystemParams()).matrix
    a = lmat / np.linalg.norm(lmat, 2)
    e = expm(a)
    assert e.shape == (16, 16)
    assert relative_error(e, scipy.linalg.expm(a)) <= RTOL


def test_nonfinite_entries_give_nan_silently():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    a[1, 2, 3] = np.nan
    a[2, 0, 0] = np.inf
    a[3, 1, 0] = -np.inf * 1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = expm(a)
    assert np.isnan(e[1:4]).all()
    finite = [0, 4]
    assert relative_error(e[finite], scipy.linalg.expm(a[finite])).max() <= RTOL


def test_overflowing_norm_keeps_an_integer_scaling():
    # the column sums overflow float64; the exponential itself is 0
    big = np.finfo(float).max
    a = np.array([[-big, 0.0], [-big, -big]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(expm(a), np.zeros((2, 2)))


def test_overflowing_draw_fails_by_name():
    # the pinned draw's cell needs halving into a Van Loan slice, whose
    # exponential is finite; the doublings overflow, as the direct exp(L M)
    # does in scipy too, and the row names the gain exponent
    seen, halvings = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pr, "expm", lambda a: seen.append(a) or expm(a))
        mp.setattr(pr, "squarings",
                   lambda *a: halvings.append(squarings(*a)) or halvings[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = compute_point(OVERFLOWING, 0.0, "einstein")
    assert row.error.endswith("gain exponent max Re eig(M)·L = 728.6")
    assert "propagation overflow" in row.error
    assert [s.tolist() for s in halvings] == [[13]]
    slices = [a for a in seen if a.shape[1:] == (8, 8)]
    direct = [a for a in seen if a.shape[1:] == (4, 4)]
    assert len(slices) == len(direct) == 1
    assert one_norms(slices[0]).max() <= THETA[-1]
    assert np.isfinite(expm(slices[0])).all()
    assert one_norms(direct[0]).max() > THETA[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(expm(direct[0])).any()
        assert not np.isfinite(scipy.linalg.expm(direct[0])).any()


def test_inv_stack_fallback_is_silent_on_a_subnormal_member():
    # a stack fails for its exactly singular member (no rates at all); for
    # the bordered matrix of two subnormal rates slogdet gives a nonzero
    # sign but takes log 0 on the way, which warned
    from doublelambda import steady
    from doublelambda.atom import coefficient_stack, real_generator_stack
    from doublelambda.params import ParamStack
    none = dict(gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0, gamma0=0.0,
                g=0.0)
    h, r = coefficient_stack(ParamStack.of([
        SystemParams(**none), SystemParams(**{**none, "gamma3": 5e-324,
                                              "gamma0": 5e-324}),
        SystemParams()]))
    bordered = real_generator_stack(h, r)
    bordered[:, steady.BORDERED_ROW] = steady.TRACE_ROW
    with np.errstate(divide="ignore"):
        assert np.linalg.slogdet(bordered[1])[1] == -np.inf
    _, kappa = inv_stack(bordered)  # warnings are errors here
    assert np.isnan(kappa[:2]).all() and kappa[2] < 1e5


def test_inv_stack_leaves_only_the_singular_member_nan():
    m = np.random.default_rng(5).normal(size=(4, 6, 6))
    m[2, 3] = 0.0  # a zero row: an exact zero pivot fails the batch
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(m)
    inverse, kappa = inv_stack(m)
    assert np.isnan(inverse[2]).all() and np.isnan(kappa[2])
    for k in (0, 1, 3):
        np.testing.assert_array_equal(inverse[k], np.linalg.inv(m[k]))
        assert kappa[k] == pytest.approx(np.linalg.cond(m[k], 1), rel=1e-12)
