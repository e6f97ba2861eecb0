"""The modal route of the sideband rows.

A point with at least MODAL_MIN_ROWS nonzero frequencies takes one
eigendecomposition of its drift, and each of its rows at omega != 0 reads
R(omega) off it where its certificate passes; every other row inverts
-i omega - A, as a one-frequency sweep does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelambda import SystemParams, atom, experiments
from doublelambda import fluctuations as fl
from doublelambda import propagation as pr
from doublelambda.experiments import (SWEEP_SELECTORS, compute_point,
                                      run_sweep, spectrum)
from doublelambda.params import ParamStack, hermitian_coordinates
from doublelambda.steady import steady_state_stack
from test_experiments import assert_rows_match
from test_invariants import VALID_PARAMS


def rows_by_route(params, omegas, noise_model, modal):
    """spectrum's rows, with the modal route offered to every row at
    omega != 0 or to none."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "MODAL_MIN_ROWS", 1 if modal else np.inf)
        return spectrum(params, omegas, noise_model)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(VALID_PARAMS,
       st.lists(st.just(0.0) | st.floats(-5, 5), min_size=8, max_size=8),
       st.sampled_from(fl.NOISE_MODELS))
def test_modal_rows_match_inverted_rows(params, omegas, noise_model):
    assert_rows_match(rows_by_route(params, omegas, noise_model, True),
                      rows_by_route(params, omegas, noise_model, False),
                      rtol=1e-12)


def test_one_eig_per_live_point(monkeypatch):
    shapes, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig",
                        lambda a: shapes.append(a.shape) or eig(a))
    points = [SystemParams(),
              SystemParams(gamma0=0.0),  # dark: not live
              SystemParams(gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0,
                           gamma0=0.0),  # its steady state fails
              SystemParams(delta1=0.3)]
    omegas = np.linspace(0.0, 5.0, experiments.MODAL_MIN_ROWS + 1)
    columns = experiments._evaluate(ParamStack.of(points), omegas, "einstein")
    assert shapes == [(2, 15, 15)]
    assert sum(e == "" for e in columns["error"]) == 3 * len(omegas)
    shapes.clear()
    run_sweep(SWEEP_SELECTORS["fig2"](SystemParams(), points=21))
    compute_point(SystemParams(), omega=1.0)
    spectrum(SystemParams(), np.linspace(0.0, 5.0, experiments.MODAL_MIN_ROWS))
    assert shapes == []


def test_spectrum_zero_row_reads_the_block(monkeypatch):
    # the rows at omega != 0 are modal and the row at 0 reads R(0) off the
    # bordered inverse, so the only inverse is of the eigenvectors
    p = SystemParams(n0=3e19)
    inverted, inv_stack = [], fl.inv_stack
    monkeypatch.setattr(fl, "inv_stack", lambda m: inverted.append(
        (m.shape, m.dtype)) or inv_stack(m))
    rows = spectrum(p, np.linspace(0.0, 5.0, 16), "vacuum-reservoir")
    assert inverted == [((1, 15, 15), np.dtype(complex))]
    assert_rows_match(rows[:1], [compute_point(p, 0.0, "vacuum-reservoir")],
                      rtol=0.0)


def transfer_args(a, params, omegas):
    """transfer_stack's arguments for one point, the drift a (15, 15) with
    the field coupling and diffusion of params' steady state, and its rows,
    one per omega."""
    ps = ParamStack.of([params])
    h, r = atom.coefficient_stack(ps)
    x = hermitian_coordinates(steady_state_stack(
        atom.real_generator_stack(h, r), h, r)[0])
    return (a[None], fl.field_coupling_stack(ps.g, x),
            fl.diffusion_stack("einstein", r, x),
            np.stack([ps.chi1, ps.chi2], 1), ps.cell_length,
            fl.noise_scale(ps), np.zeros(len(omegas), dtype=int),
            np.asarray(omegas, dtype=float))


def reference_args():
    """transfer_args of the reference point at 12 frequencies in 0.5..5."""
    p = SystemParams()
    a = fl.drift_stack(atom.build_generator(p).real[None],
                       atom.coefficient_stack(p)[1][None])[0][0]
    return transfer_args(a, p, np.linspace(0.5, 5.0, 12))


def modal_transfer(args, modes):
    """(M, Nfield, taken) of _modal_transfer on the rows at omega != 0 of
    transfer_stack's arguments args, with the eigendecompositions modes."""
    a, b, d, chi, lengths, noise, owner, omegas = args
    k = (chi[:, [0, 0, 1, 1]] * pr.FIELD_PHASES)[:, :, None]
    injection = pr.SPEED_OF_LIGHT / lengths * noise
    m = np.empty((len(owner), 4, 4), dtype=complex)
    nfield = np.empty_like(m)
    taken = pr._modal_transfer(modes, a, b, d, k, injection, owner, omegas,
                               omegas != 0, m, nfield)
    return m, nfield, taken


def assert_falls_back(args, modes):
    """Every row of args is given as the inverted route gives it: the same
    M and Nfield to the bit and the same failure texts."""
    m, nfield, failures = pr.transfer_stack(*args, modes=modes)
    m_inv, nfield_inv, inverted = pr.transfer_stack(*args)
    assert not modal_transfer(args, modes)[2].any()
    assert np.array_equal(m, m_inv, equal_nan=True)
    assert np.array_equal(nfield, nfield_inv, equal_nan=True)
    assert ({k: str(e) for k, e in failures.items()}
            == {k: str(e) for k, e in inverted.items()})
    return inverted


def test_nearly_defective_drift_inverts():
    # a Jordan block split by 1e-9: kappa_1(V) ~ 1e98, while -i omega - A
    # stays well conditioned, so every row is an ok inverted row
    a = -np.eye(15) + np.diag(np.ones(14), 1) + np.diag(1e-9 * np.arange(15))
    modes = fl.modal_stack(a[None])
    assert modes.kappa[0] > 1e90
    args = transfer_args(a, SystemParams(), np.linspace(0.5, 5.0, 12))
    assert assert_falls_back(args, modes) == {}


def test_failed_residual_inverts():
    args = reference_args()
    modes = fl.modal_stack(args[0][:1])
    assert modal_transfer(args, modes)[2].all()
    # V^-1 off by 1e-6 leaves the kappa bound as it was and fails the
    # residual of every row
    assert_falls_back(args, modes._replace(inverse=modes.inverse * (1 + 1e-6)))


@pytest.mark.parametrize("corrupt", [False, True])
def test_near_singular_row_keeps_its_message(corrupt):
    # eigenvalues +-1.5i: -i omega - A is singular at omega = 1.5, and a
    # decomposition with a failing residual changes nothing
    a = -np.eye(15)
    a[:2, :2] = [[0.0, 1.5], [-1.5, 0.0]]
    modes = fl.modal_stack(a[None])
    if corrupt:
        modes = modes._replace(inverse=modes.inverse * (1 + 1e-6))
    args = transfer_args(a, SystemParams(), [1.5] * 12)
    failures = assert_falls_back(args, modes)
    assert sorted(failures) == list(range(12))
    assert all(str(e).startswith("atomic response near-singular at "
                                 "omega=1.5: condition ")
               for e in failures.values())


def test_non_hermitian_noise_inverts():
    args = reference_args()
    modes = fl.modal_stack(args[0][:1])
    # D off Hermitian by 1e-6 leaves the kappa bound and the S R residual as
    # they were, and the modal Nfield Pi fails the pairing test of every row
    d = args[2].copy()
    d[:, 0, 1] += 1e-6 * np.abs(d).max()
    assert_falls_back(args[:2] + (d,) + args[3:], modes)


def test_ill_conditioned_row_inverts(monkeypatch):
    # eigenvalues -5e-4 +- 1.5i: at omega = 1.5, kappa-hat is about 1.2e4,
    # past MODAL_COND_MAX though far below the inverse's own bound of 1e12
    a = -np.eye(15)
    a[:2, :2] = [[-5e-4, 1.5], [-1.5, -5e-4]]
    modes = fl.modal_stack(a[None])
    args = transfer_args(a, SystemParams(), [0.5] * 6 + [1.5] * 6)
    assert modal_transfer(args, modes)[2].tolist() == [True] * 6 + [False] * 6
    assert_falls_back(args[:6] + tuple(x[6:] for x in args[6:]), modes)
    monkeypatch.setattr(pr, "MODAL_COND_MAX", 1e12 / 15)
    assert modal_transfer(args, modes)[2].all()


def test_shared_row_stack_matches_each_spectrum(monkeypatch):
    # the rows of two live points share one row stack and read their own
    # decompositions; a dark point and a point whose steady state fails
    # sit between them, and every row is as its point's spectrum gives it
    points = [SystemParams(n0=3e19),
              SystemParams(gamma0=0.0),  # dark
              SystemParams(gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0,
                           gamma0=0.0),  # its steady state fails
              SystemParams(delta1=0.3)]
    omegas = np.linspace(0.0, 5.0, experiments.MODAL_MIN_ROWS + 1)
    alone = [spectrum(p, omegas) for p in points]
    stacks, transfer = [], pr.transfer_stack

    def counted(*args, modes, **kwargs):
        stacks.append((len(args[6]), len(modes.values)))
        return transfer(*args, modes=modes, **kwargs)

    monkeypatch.setattr(pr, "transfer_stack", counted)
    rows = experiments._rows(experiments._evaluate(
        ParamStack.of(points), omegas, "einstein"))
    assert stacks == [(2 * len(omegas), 2)]
    assert rows[len(omegas)].method.endswith("+dark-transparent")
    assert rows[2 * len(omegas)].error
    for k, ref in enumerate(alone):  # point-major rows
        assert_rows_match(rows[k * len(omegas):(k + 1) * len(omegas)], ref,
                          rtol=0.0)
