from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from doublelambda import BASIS, SystemParams
from doublelambda.atom import build_generator, generator_with_fields
from doublelambda.fluctuations import (FRAME, ResponseError,
                                       _state_products,
                                       diffusion_matrix_channelwise,
                                       diffusion_stack, drift_stack,
                                       equal_time_covariance,
                                       field_coupling_stack, linearize,
                                       response_stack)
from doublelambda.oracle import lyapunov_covariance, regression_covariance
from doublelambda.steady import solve_steady_state
from conftest import random_params


def prepare(params):
    gen = build_generator(params)
    state = solve_steady_state(gen, params)
    return gen, state

def reference_points(draws: int):
    """The reference point, the stressed point (n0 x1000) and seeded draws."""
    rng = np.random.default_rng(20240811)
    return [SystemParams(), SystemParams(n0=3e19)] + [
        random_params(rng, with_fields=True) for _ in range(draws)]


def nearest_mismatch(x, y):
    """Largest distance from an entry of either set to the other set."""
    dist = np.abs(x[:, None] - y[None, :])
    return max(np.max(np.min(dist, axis=0)), np.max(np.min(dist, axis=1)))


class TestDrift:
    def test_trace_left_null_vector(self, defaults):
        gen = build_generator(defaults)
        trace_vec = np.zeros(16)
        trace_vec[BASIS.diagonal] = 1.0
        assert np.linalg.norm(trace_vec @ gen.adjoint) < 1e-12

    def test_stability_at_defaults(self, defaults):
        gen = build_generator(defaults)
        a, failures = drift_stack(gen.adjoint[None])
        assert failures == {}
        assert np.max(np.real(np.linalg.eigvals(a[0]))) <= 1e-10
        assert a.shape == (1, 15, 15)

    def test_real_form_keeps_the_eigenvalues(self):
        # the 16-dim Heisenberg generator has the drift's eigenvalues plus
        # the 0 of the conserved trace
        for p in reference_points(8):
            gen = build_generator(p)
            a, failures = drift_stack(gen.adjoint[None])
            assert failures == {}
            a = a[0]
            assert a.dtype == np.float64
            evals = np.linalg.eigvals(gen.adjoint)
            mismatch = nearest_mismatch(
                np.append(np.linalg.eigvals(a), 0.0), evals)
            assert mismatch <= 1e-12 * np.max(np.abs(evals))

    def test_frame_is_the_hermitian_basis(self):
        assert np.allclose(FRAME @ FRAME.conj().T, np.eye(15), atol=1e-15)
        assert np.array_equal(FRAME @ BASIS.swap, FRAME.conj())
        trace_vec = np.zeros(16)
        trace_vec[BASIS.diagonal] = 1.0
        assert np.max(np.abs(FRAME @ trace_vec)) <= 1e-15

    def test_non_hermitian_generator_refused(self, defaults):
        # i eps I does not preserve Hermiticity: its drift is i eps I in
        # the frame, so the guard names it before the stability check
        gen = build_generator(defaults)
        adjoints = np.stack([gen.adjoint, gen.adjoint + 1e-6j * np.eye(16)])
        _, failures = drift_stack(adjoints)
        assert list(failures) == [1]
        assert "drift not real in the Hermitian frame" in str(failures[1])

    def test_unstable_drift_still_refused(self, defaults):
        # shifting the Heisenberg generator by +0.5 pushes the slowest
        # eigenvalue into the right half-plane
        gen = build_generator(defaults)
        adjoints = np.stack([gen.adjoint, gen.adjoint + 0.5 * np.eye(16)])
        _, failures = drift_stack(adjoints)
        assert list(failures) == [1]
        assert "drift matrix unstable" in str(failures[1])

    def test_rate_bookkeeping_with_drive_off(self):
        p = SystemParams(g=0.0, gamma0=0.0)
        gen, state = prepare(p.replace(gamma0=0.1))
        gen0 = build_generator(p)
        mu = BASIS.index(4, 4)
        assert gen0.adjoint[mu, mu] == pytest.approx(-4.0)


class TestFieldCoupling:
    def test_zero_without_coupling(self):
        p = SystemParams(g=0.0, gamma0=0.2)
        _, state = prepare(p)
        b = field_coupling_stack(np.array([p.g]), state.rho[None])
        assert np.max(np.abs(b)) == 0.0

    def test_ground_state_pathways(self, defaults):
        # all population in level 1: a field-1 fluctuation drives only the
        # level-1 optical coherences, with magnitude g
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        b = field_coupling_stack(np.array([defaults.g]), rho[None])[0]
        col = FRAME.conj().T @ b[:, 0]  # back to 16-dim coordinates
        nonzero = {mu for mu in range(16) if abs(col[mu]) > 1e-14}
        assert nonzero == {BASIS.index(1, 4), BASIS.index(1, 2)}
        assert abs(col[BASIS.index(1, 4)]) == pytest.approx(defaults.g)
        assert abs(col[BASIS.index(1, 2)]) == pytest.approx(defaults.g)

    def test_finite_difference_oracle(self, rng):
        # the evolution map is linear in each field variable, so central
        # differences on the full generator reproduce the columns exactly
        for _ in range(5):
            p = random_params(rng, with_fields=True)
            _, state = prepare(p)
            b = field_coupling_stack(np.array([p.g]), state.rho[None])[0]
            s_full = state.expectations
            h = 1e-6
            v0 = np.array([p.a1_mean, p.a1_mean, p.a2_mean, p.a2_mean],
                          dtype=complex)
            for k in range(4):
                vp, vm = v0.copy(), v0.copy()
                vp[k] += h
                vm[k] -= h
                lp = generator_with_fields(p, *vp)
                lm = generator_with_fields(p, *vm)
                adj_diff = BASIS.swap @ ((lp - lm) / (2 * h)) @ BASIS.swap
                col_fd = FRAME @ (adj_diff @ s_full)
                assert np.max(np.abs(col_fd - b[:, k])) < 1e-8

    def test_adjoint_pairing(self, rng):
        p = random_params(rng, with_fields=True)
        _, state = prepare(p)
        b = field_coupling_stack(np.array([p.g]), state.rho[None])[0]
        b16 = FRAME.conj().T @ b
        paired = b16[BASIS.pair][:, [1, 0, 3, 2]].conj()
        assert np.max(np.abs(b16 - paired)) < 1e-12


class TestDiffusion:
    def test_state_products_equal_the_matrix_products(self):
        # sigma_mu are unit matrices: the gathers are the products, exactly
        rhos = np.array([prepare(p)[1].rho for p in reference_points(8)])
        n = len(rhos)
        rho_t, y, z = _state_products(rhos)
        y_ref = (BASIS.sigmas @ rhos[:, None]).transpose(0, 1, 3, 2)
        z_ref = (rhos[:, None] @ BASIS.sigmas).transpose(0, 1, 3, 2)
        assert np.array_equal(y, y_ref.reshape(n, 16, 16))
        assert np.array_equal(z, z_ref.reshape(n, 16, 16))
        assert np.array_equal(rho_t[:, 0], rhos.transpose(0, 2, 1).reshape(n, 16))

    def test_closed_system_noiseless(self):
        p = SystemParams(gamma1=0, gamma2=0, gamma3=0, gamma4=0, gamma0=0)
        gen = build_generator(p)
        rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
        d, failures = diffusion_stack("einstein", gen.matrix[None],
                                      gen.coherent[None], gen.rates[None],
                                      rho[None])
        assert failures == {}
        assert np.max(np.abs(d)) < 1e-12

    def test_two_level_hand_value(self):
        # isolated 1-2 decay at rate 2*gamma: 2 D[s12, s21] = 2*gamma
        p = SystemParams(gamma1=0, gamma2=0.8, gamma3=0, gamma4=0, gamma0=0,
                         g=0.0)
        gen = build_generator(p)
        rho = np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)
        d, failures = diffusion_stack("einstein", gen.matrix[None],
                                      gen.coherent[None], gen.rates[None],
                                      rho[None])
        assert failures == {}
        d16 = FRAME.conj().T @ d[0] @ FRAME.conj()
        mu = BASIS.index(1, 2)
        nu = BASIS.index(2, 1)
        # <sigma_11 + sigma_22> = 1 here
        assert 2 * d16[mu, nu] == pytest.approx(2 * 0.8)

    def test_dual_path_identity(self, rng):
        for _ in range(10):
            p = random_params(rng, with_fields=True)
            gen, state = prepare(p)
            d1, failures = diffusion_stack("einstein", gen.matrix[None],
                                           gen.coherent[None], gen.rates[None],
                                           state.rho[None])
            assert failures == {}
            d2 = diffusion_matrix_channelwise(gen, state)
            assert np.max(np.abs(d1[0] - d2)) < 1e-12

    def test_hermitian_frame_psd(self, rng):
        # D[k, l] pairs Hermitian operators, so D itself is Hermitian PSD
        for _ in range(10):
            p = random_params(rng, with_fields=True)
            gen, state = prepare(p)
            d, failures = diffusion_stack("einstein", gen.matrix[None],
                                          gen.coherent[None], gen.rates[None],
                                          state.rho[None])
            assert failures == {}
            d2 = 2 * d[0]
            assert np.max(np.abs(d2 - d2.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(d2)) > -1e-10

    def test_vacuum_reservoir_subset(self, defaults, rng):
        gen, state = prepare(defaults)
        stacks = (gen.matrix[None], gen.coherent[None], gen.rates[None],
                  state.rho[None])
        d_full, failures = diffusion_stack("einstein", *stacks)
        assert failures == {}
        d_se, failures = diffusion_stack("vacuum-reservoir", *stacks)
        assert failures == {}
        # dropping channels must change the diffusion (collisions carry noise)
        assert np.max(np.abs(d_full - d_se)) > 1e-6
        # and it equals the channelwise sum over the two radiative groups
        for p in [defaults] + [random_params(rng, with_fields=True)
                               for _ in range(10)]:
            gen, state = prepare(p)
            radiative = replace(gen, channels=gen.channels[:2])
            d_cw = diffusion_matrix_channelwise(radiative, state)
            d_se, failures = diffusion_stack(
                "vacuum-reservoir", gen.matrix[None], gen.coherent[None],
                gen.rates[None], state.rho[None])
            assert failures == {}
            assert np.max(np.abs(d_se[0] - d_cw)) < 1e-12


class TestResponse:
    def test_high_frequency_rolloff(self, defaults):
        gen = build_generator(defaults)
        a, failures = drift_stack(np.stack([gen.adjoint, gen.adjoint]))
        assert failures == {}
        r, _, failures = response_stack(a, np.array([1e4, 2e4]))
        assert failures == {}
        n1, n2 = np.linalg.norm(r, axis=(1, 2))
        assert n2 == pytest.approx(n1 / 2, rel=1e-2)

    def test_zero_frequency_is_inverse(self, defaults):
        gen = build_generator(defaults)
        a, failures = drift_stack(gen.adjoint[None])
        assert failures == {}
        r, _, failures = response_stack(a, np.array([0.0]))
        assert failures == {}
        assert np.linalg.norm(a[0] @ r[0] + np.eye(15)) < 1e-10

    def test_resonant_enhancement(self):
        # narrow rates with a sizable detuning give weakly damped oscillatory
        # eigenmodes; probing at such an eigenfrequency peaks the response
        p = SystemParams(gamma1=0.1, gamma2=0.1, gamma3=0.1, gamma4=0.1,
                         gamma0=0.05, delta1=2.0, omega42=2.0, p1=0.3, p2=0.3)
        gen = build_generator(p)
        a, failures = drift_stack(np.stack([gen.adjoint, gen.adjoint]))
        assert failures == {}
        evals = np.linalg.eigvals(a[0])
        osc = [ev for ev in evals if abs(ev.imag) > 0.5]
        ev = min(osc, key=lambda z: abs(z.real))
        r, _, failures = response_stack(
            a, np.array([-ev.imag, -ev.imag + 20 * abs(ev.real)]))
        assert failures == {}
        on, off = np.linalg.norm(r, axis=(1, 2))
        assert on > 1.5 * off

    @pytest.mark.parametrize("omega", [0.05, 0.5, 3.0])
    def test_mirrored_response_matches_inversion(self, omega):
        for p in reference_points(8):
            gen = build_generator(p)
            a, failures = drift_stack(gen.adjoint[None])
            assert failures == {}
            _, mirrored, failures = response_stack(a, np.array([omega]))
            assert failures == {}
            inverse, _, failures = response_stack(a, np.array([-omega]))
            assert failures == {}
            assert (np.max(np.abs(mirrored[0] - inverse[0]))
                    <= 1e-12 * np.max(np.abs(inverse[0])))

    def test_mirrored_response_residual_checked(self, defaults):
        # a drift that is not real inverts fine at +omega, but conj(R)
        # is then not R(-omega), and the mirrored residual says so
        gen = build_generator(defaults)
        a, failures = drift_stack(gen.adjoint[None])
        assert failures == {}
        a = a[0]
        bad = a.astype(complex)
        bad[3, 4] += 1e-6j * np.max(np.abs(a))
        _, _, failures = response_stack(np.stack([a, bad]),
                                        np.array([0.5, 0.5]))
        assert list(failures) == [1]
        assert "mirrored response residual" in str(failures[1])

    def test_singular_refused(self):
        p = SystemParams(gamma0=0.0, p1=1, p2=1, delta1=-1.0)
        gen = build_generator(p)
        a, failures = drift_stack(gen.adjoint[None])
        assert failures == {}
        _, _, failures = response_stack(a, np.array([0.0]))
        assert list(failures) == [0]
        assert isinstance(failures[0], ResponseError)


def response_svd_first(a, omegas):
    """Reference: response_stack as it was before the kappa_1 bracket, with
    the SVD condition number of every point taken before inverting."""
    eye = np.eye(a.shape[-1])
    iw = (1j * omegas)[:, None, None] * eye
    m = -iw - a
    cond = np.linalg.cond(m)
    singular = ~np.isfinite(cond) | (cond > 1e12)
    failures = {}
    for k in np.flatnonzero(singular):
        evals = np.linalg.eigvals(a[k])
        worst = evals[np.argmin(np.abs(-1j * omegas[k] - evals))]
        failures[int(k)] = ResponseError(
            f"atomic response near-singular at omega={omegas[k]}: condition "
            f"{cond[k]:.2e}, offending eigenvalue {worst:.3e}")
    ok = np.flatnonzero(~singular)
    r = np.zeros_like(m)
    r[ok] = np.linalg.inv(m[ok])
    r_minus = r.conj()
    resid = np.linalg.norm(m[ok] @ r[ok] - eye, axis=(1, 2))
    for j in np.flatnonzero(resid > 1e-10):
        failures[int(ok[j])] = ResponseError(
            f"response inversion residual {resid[j]:.2e}")
    resid = np.linalg.norm((iw - a) @ r_minus - eye, axis=(1, 2))
    for k in np.flatnonzero(resid > 1e-10):
        failures.setdefault(int(k), ResponseError(
            f"mirrored response residual {resid[k]:.2e} "
            f"at omega={-omegas[k]}"))
    return r, r_minus, failures


def near_singular_drifts(omega, singular, seed=3):
    """Real similarity transforms of stable drifts whose eigenvalue pair
    -gap +- i omega sits gap from -i omega, for gaps from 1e-13 to 1e-9
    and a few well-conditioned gaps; with an exactly singular member if
    asked.  Every other drift is left untransformed: its inverse passes the
    residual check at any gap, so the bracket alone decides it."""
    rng = np.random.default_rng(seed)
    drifts = []
    gaps = np.concatenate([np.geomspace(1e-13, 1e-9, 40),
                           np.geomspace(1e-3, 1.0, 6)])
    for k, gap in enumerate(gaps):
        d = np.diag(-rng.uniform(0.5, 3.0, 15))
        d[:2, :2] = [[-gap, -omega], [omega, -gap]]
        s = np.eye(15) + 0.3 * rng.normal(size=(15, 15)) / np.sqrt(15)
        drifts.append(s @ d @ np.linalg.inv(s) if k % 2 else d)
    if singular:
        # -i omega - A has an exactly zero pivot: the stack's inv raises
        a = np.diag(-rng.uniform(0.5, 3.0, 15))
        a[:2, :2] = [[0.0, -omega], [omega, 0.0]]
        drifts.insert(20, a)
    return np.array(drifts)


class TestResponseBracket:
    """Refusing by the kappa_1 bracket refuses what the SVD refuses."""

    @pytest.mark.parametrize("singular", [False, True])
    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_same_refusals_and_messages_as_svd_first(self, omega, singular,
                                                     monkeypatch):
        a = near_singular_drifts(omega, singular)
        omegas = np.full(len(a), omega)
        svd_rows = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond",
                            lambda m: svd_rows.append(len(m)) or cond(m))
        r, r_minus, failures = response_stack(a, omegas)
        monkeypatch.undo()
        ref_r, ref_minus, ref_failures = response_svd_first(a, omegas)
        assert {k: str(e) for k, e in failures.items()} == \
            {k: str(e) for k, e in ref_failures.items()}
        m = -1j * omega * np.eye(15) - a
        refused = {k for k, e in failures.items() if "near-singular" in str(e)}
        assert refused == set(np.flatnonzero(np.linalg.cond(m) > 1e12))
        assert np.array_equal(r, ref_r) and np.array_equal(r_minus, ref_minus)
        # refused, accepted and residual-failed points all occur
        assert refused and len(failures) < len(a)
        assert any("inversion residual" in str(e) for e in failures.values())
        # points in the band were accepted by the SVD, the rest without
        # one, unless the singular member sent the whole stack to it
        assert len(failures) < sum(svd_rows) < len(a) or singular


class TestCovarianceConsistency:
    def test_lyapunov_matches_direct(self, rng):
        # A Sigma + Sigma A^T + 2D = 0 must reproduce the ordered equal-time
        # covariance of the steady state (fields frozen)
        for _ in range(10):
            p = random_params(rng, with_fields=True)
            gen, state = prepare(p)
            lin = linearize(gen, state, p)
            direct = equal_time_covariance(state)
            sigma = lyapunov_covariance(lin)
            scale = max(np.max(np.abs(direct)), 1e-30)
            assert np.max(np.abs(sigma - direct)) / scale < 1e-6

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_quantum_regression(self, tau, rng):
        for _ in range(3):
            p = random_params(rng, with_fields=True)
            gen, state = prepare(p)
            lin = linearize(gen, state, p)
            sigma = equal_time_covariance(state)
            analytic = expm(lin.a * tau) @ sigma
            oracle16 = regression_covariance(gen, state, tau)
            oracle15 = FRAME @ oracle16 @ FRAME.T
            scale = max(np.max(np.abs(oracle15)), 1e-30)
            assert np.max(np.abs(analytic - oracle15)) / scale < 1e-6
