from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from doublelambda import BASIS, SystemParams
from doublelambda.atom import build_generator, generator_with_fields
from doublelambda.fluctuations import (EMBED, ResponseError, atomic_response,
                                       diffusion_matrix,
                                       diffusion_matrix_channelwise,
                                       diffusion_matrix_vacuum_reservoir,
                                       drift_matrix, equal_time_covariance,
                                       field_coupling_matrix, linearize)
from doublelambda.oracle import lyapunov_covariance, regression_covariance
from doublelambda.steady import solve_steady_state
from conftest import random_params


def prepare(params):
    gen = build_generator(params)
    state = solve_steady_state(gen, params)
    return gen, state


class TestDrift:
    def test_trace_left_null_vector(self, defaults):
        gen = build_generator(defaults)
        trace_vec = np.zeros(16)
        trace_vec[BASIS.diagonal] = 1.0
        assert np.linalg.norm(trace_vec @ gen.adjoint) < 1e-12

    def test_stability_at_defaults(self, defaults):
        gen, state = prepare(defaults)
        a, projector = drift_matrix(gen, state, defaults)
        assert np.max(np.real(np.linalg.eigvals(a))) <= 1e-10
        assert projector.shape == (15, 16)

    def test_rate_bookkeeping_with_drive_off(self):
        p = SystemParams(g=0.0, gamma0=0.0)
        gen, state = prepare(p.replace(gamma0=0.1))
        gen0 = build_generator(p)
        mu = BASIS.index(4, 4)
        assert gen0.adjoint[mu, mu] == pytest.approx(-4.0)


class TestFieldCoupling:
    def test_zero_without_coupling(self):
        p = SystemParams(g=0.0, gamma0=0.2)
        gen, state = prepare(p)
        assert np.max(np.abs(field_coupling_matrix(gen, state, p))) == 0.0

    def test_ground_state_pathways(self, defaults):
        # all population in level 1: a field-1 fluctuation drives only the
        # level-1 optical coherences, with magnitude g
        from doublelambda.steady import AtomState
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        state = AtomState(expectations=BASIS.expectations(rho), method="test")
        gen = build_generator(defaults)
        b = field_coupling_matrix(gen, state, defaults)
        col = EMBED @ b[:, 0]  # back to 16-dim coordinates
        nonzero = {mu for mu in range(16) if abs(col[mu]) > 1e-14}
        assert nonzero == {BASIS.index(1, 4), BASIS.index(1, 2)}
        assert abs(col[BASIS.index(1, 4)]) == pytest.approx(defaults.g)
        assert abs(col[BASIS.index(1, 2)]) == pytest.approx(defaults.g)

    def test_finite_difference_oracle(self, rng):
        # the evolution map is linear in each field variable, so central
        # differences on the full generator reproduce the columns exactly
        for _ in range(5):
            p = random_params(rng, with_fields=True)
            gen, state = prepare(p)
            b = field_coupling_matrix(gen, state, p)
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
                col_fd = EMBED.T @ (adj_diff @ s_full)
                assert np.max(np.abs(col_fd - b[:, k])) < 1e-8

    def test_adjoint_pairing(self, rng):
        p = random_params(rng, with_fields=True)
        gen, state = prepare(p)
        b = field_coupling_matrix(gen, state, p)
        b16 = EMBED @ b
        paired = b16[BASIS.pair][:, [1, 0, 3, 2]].conj()
        assert np.max(np.abs(b16 - paired)) < 1e-12


class TestDiffusion:
    def test_closed_system_noiseless(self):
        p = SystemParams(gamma1=0, gamma2=0, gamma3=0, gamma4=0, gamma0=0)
        gen = build_generator(p)
        from doublelambda.steady import AtomState
        rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
        state = AtomState(expectations=BASIS.expectations(rho), method="test")
        assert np.max(np.abs(diffusion_matrix(gen, state))) < 1e-12

    def test_two_level_hand_value(self):
        # isolated 1-2 decay at rate 2*gamma: 2 D[s12, s21] = 2*gamma
        p = SystemParams(gamma1=0, gamma2=0.8, gamma3=0, gamma4=0, gamma0=0,
                         g=0.0)
        gen = build_generator(p)
        from doublelambda.steady import AtomState
        rho = np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)
        state = AtomState(expectations=BASIS.expectations(rho), method="test")
        d16 = EMBED @ diffusion_matrix(gen, state) @ EMBED.T
        mu = BASIS.index(1, 2)
        nu = BASIS.index(2, 1)
        # <sigma_11 + sigma_22> = 1 here
        assert 2 * d16[mu, nu] == pytest.approx(2 * 0.8)

    def test_dual_path_identity(self, rng):
        for _ in range(10):
            p = random_params(rng, with_fields=True)
            gen, state = prepare(p)
            d1 = diffusion_matrix(gen, state)
            d2 = diffusion_matrix_channelwise(gen, state)
            assert np.max(np.abs(d1 - d2)) < 1e-12

    def test_paired_form_psd(self, rng):
        p15 = EMBED.T @ BASIS.swap @ EMBED
        for _ in range(10):
            p = random_params(rng, with_fields=True)
            gen, state = prepare(p)
            dtilde = p15 @ (2 * diffusion_matrix(gen, state))
            assert np.max(np.abs(dtilde - dtilde.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(dtilde)) > -1e-10

    def test_vacuum_reservoir_subset(self, defaults, rng):
        gen, state = prepare(defaults)
        d_full = diffusion_matrix(gen, state)
        d_se = diffusion_matrix_vacuum_reservoir(gen, state)
        # dropping channels must change the diffusion (collisions carry noise)
        assert np.max(np.abs(d_full - d_se)) > 1e-6
        # and it equals the channelwise sum over the two radiative groups
        for p in [defaults] + [random_params(rng, with_fields=True)
                               for _ in range(10)]:
            gen, state = prepare(p)
            radiative = replace(gen, channels=gen.channels[:2])
            d_cw = diffusion_matrix_channelwise(radiative, state)
            d_se = diffusion_matrix_vacuum_reservoir(gen, state)
            assert np.max(np.abs(d_se - d_cw)) < 1e-12


class TestResponse:
    def test_high_frequency_rolloff(self, defaults):
        gen, state = prepare(defaults)
        a, _ = drift_matrix(gen, state, defaults)
        n1 = np.linalg.norm(atomic_response(a, 1e4))
        n2 = np.linalg.norm(atomic_response(a, 2e4))
        assert n2 == pytest.approx(n1 / 2, rel=1e-2)

    def test_zero_frequency_is_inverse(self, defaults):
        gen, state = prepare(defaults)
        a, _ = drift_matrix(gen, state, defaults)
        r = atomic_response(a, 0.0)
        assert np.linalg.norm(a @ r + np.eye(15)) < 1e-10

    def test_resonant_enhancement(self):
        # narrow rates with a sizable detuning give weakly damped oscillatory
        # eigenmodes; probing at such an eigenfrequency peaks the response
        p = SystemParams(gamma1=0.1, gamma2=0.1, gamma3=0.1, gamma4=0.1,
                         gamma0=0.05, delta1=2.0, omega42=2.0, p1=0.3, p2=0.3)
        gen, state = prepare(p)
        a, _ = drift_matrix(gen, state, p)
        evals = np.linalg.eigvals(a)
        osc = [ev for ev in evals if abs(ev.imag) > 0.5]
        ev = min(osc, key=lambda z: abs(z.real))
        on = np.linalg.norm(atomic_response(a, -ev.imag))
        off = np.linalg.norm(atomic_response(a, -ev.imag + 20 * abs(ev.real)))
        assert on > 1.5 * off

    def test_singular_refused(self):
        p = SystemParams(gamma0=0.0, p1=1, p2=1, delta1=-1.0)
        gen, state = prepare(p)
        a, _ = drift_matrix(gen, state, p)
        with pytest.raises(ResponseError):
            atomic_response(a, 0.0)


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
            oracle15 = EMBED.T @ oracle16 @ EMBED
            scale = max(np.max(np.abs(oracle15)), 1e-30)
            assert np.max(np.abs(analytic - oracle15)) / scale < 1e-6
