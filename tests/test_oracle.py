import numpy as np
import pytest

from doublelambda import BASIS, SystemParams
from doublelambda.atom import build_generator
from doublelambda.fluctuations import (EMBED, equal_time_covariance,
                                       linearize, LinearizedSystem)
from doublelambda.oracle import (OracleError, cross_validate,
                                 lyapunov_covariance, regression_covariance,
                                 time_evolve)
from doublelambda.steady import AtomState, solve_steady_state
from conftest import random_params


def state_from_rho(rho):
    return AtomState(expectations=BASIS.expectations(rho), method="test")


class TestTimeEvolve:
    def test_exchange_equilibration(self):
        p = SystemParams(g=0.0, gamma0=0.3)
        gen = build_generator(p)
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        evo = time_evolve(gen, rho0, t_final=60.0, dt=0.01)
        assert np.allclose(np.diag(evo.final_state).real,
                           [0.5, 0, 0.5, 0], atol=1e-7)

    def test_trace_drift_small(self, defaults):
        gen = build_generator(defaults)
        rho0 = np.diag([0.5, 0, 0.5, 0]).astype(complex)
        evo = time_evolve(gen, rho0, t_final=100.0, dt=0.01)
        assert evo.trace_drift < 1e-10

    def test_matches_steady_solver(self, defaults):
        gen = build_generator(defaults)
        state = solve_steady_state(gen, defaults)
        rho0 = np.diag([0.5, 0, 0.5, 0]).astype(complex)
        # slowest relaxation is the lower-level exchange at 2*gamma0
        evo = time_evolve(gen, rho0, t_final=12000.0, dt=0.01,
                          sample_every=100000)
        final = BASIS.expectations(evo.final_state)
        assert np.max(np.abs(final - state.expectations)) < 1e-8

    def test_timestep_guard(self, defaults):
        gen = build_generator(defaults)
        rho0 = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError):
            time_evolve(gen, rho0, t_final=1.0, dt=1.0)

    def test_positivity_abort(self, defaults):
        gen = build_generator(defaults)
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(OracleError):
            time_evolve(gen, bad, t_final=1.0, dt=0.001, sample_every=1)


class TestRegression:
    def test_zero_lag_is_direct_covariance(self, rng):
        p = random_params(rng, with_fields=True)
        gen = build_generator(p)
        state = solve_steady_state(gen, p)
        reg = regression_covariance(gen, state, 0.0)
        direct = equal_time_covariance(state, projected=False)
        assert np.max(np.abs(reg - direct)) < 1e-12

    def test_two_level_decay_law(self):
        # isolated 1-2 decay: <d s12(tau) d s21(0)> = rho11(0-ish) e^{-gamma tau}
        gamma = 0.6
        p = SystemParams(g=0.0, gamma1=0, gamma2=gamma, gamma3=0, gamma4=0,
                         gamma0=0, omega42=0.0, delta1=0.0)
        gen = build_generator(p)
        rho = np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)
        state = state_from_rho(rho)
        mu = BASIS.index(1, 2)
        nu = BASIS.index(2, 1)
        for tau in (0.5, 2.0):
            reg = regression_covariance(gen, state, tau)
            # <s12 s21> = <s11> = 0.7 at equal time, decaying at gamma2
            expected = 0.7 * np.exp(-gamma * tau)
            assert reg[mu, nu] == pytest.approx(expected, rel=1e-6)

    def test_closed_system_oscillates(self):
        p = SystemParams(gamma1=0, gamma2=0, gamma3=0, gamma4=0, gamma0=0,
                         g=0.0, delta1=-1.0, omega42=2.0)
        gen = build_generator(p)
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        state = state_from_rho(rho)
        mu = BASIS.index(1, 2)
        nu = BASIS.index(2, 1)
        tau = 1.3
        reg = regression_covariance(gen, state, tau)
        # coherence correlation rotates at the level-2 energy, norm preserved
        assert abs(reg[mu, nu]) == pytest.approx(0.5, rel=1e-8)
        expected_phase = np.exp(1j * p.delta2 * tau)
        assert reg[mu, nu] / 0.5 == pytest.approx(expected_phase, rel=1e-6)


class TestLyapunov:
    def test_two_level_entry(self):
        p = SystemParams(gamma2=1.0, gamma1=0.2, gamma3=0.2, gamma4=0.2,
                         gamma0=0.4, delta1=0.8)
        gen = build_generator(p)
        state = solve_steady_state(gen, p)
        lin = linearize(gen, state, p)
        sigma = lyapunov_covariance(lin)
        direct = equal_time_covariance(state)
        mu = BASIS.index(1, 2)
        nu = BASIS.index(2, 1)
        e_mu = EMBED.T[:, mu]
        e_nu = EMBED.T[:, nu]
        val = e_mu @ sigma @ e_nu
        s11 = state.expectation(1, 1)
        s12 = state.expectation(1, 2)
        assert val == pytest.approx(np.real(s11) - abs(s12)**2, abs=1e-10)
        assert np.max(np.abs(sigma - direct)) < 1e-10

    def test_unstable_drift_refused(self):
        lin = LinearizedSystem(a=np.zeros((15, 15)), b=np.zeros((15, 4)),
                               d=np.eye(15), noise_scale=1.0,
                               projector=EMBED.T)
        with pytest.raises(OracleError):
            lyapunov_covariance(lin)


class TestCrossValidate:
    def test_reference_point_passes(self, defaults):
        report = cross_validate(defaults)
        assert report.passed, report.failures

    def test_invalid_alignment_rejected(self):
        with pytest.raises(ValueError):
            cross_validate(SystemParams(p1=1.2))

    def test_corrupted_diffusion_detected(self, defaults):
        # perturbing one diffusion entry must break the Lyapunov-regression
        # agreement well beyond its tolerance
        gen = build_generator(defaults)
        state = solve_steady_state(gen, defaults)
        lin = linearize(gen, state, defaults)
        d_bad = lin.d.copy()
        d_bad[2, 3] += 1e-3
        lin_bad = LinearizedSystem(a=lin.a, b=lin.b, d=d_bad,
                                   noise_scale=lin.noise_scale,
                                   projector=lin.projector)
        sigma_bad = lyapunov_covariance(lin_bad)
        direct = equal_time_covariance(state)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(sigma_bad - direct)) / scale > 1e-6

    def test_report_serialization(self, defaults):
        report = cross_validate(defaults)
        payload = report.as_dict()
        assert payload["passed"] is True
        assert len(payload["checks"]) == 8
        names = {c["name"] for c in payload["checks"]}
        assert "commutator preservation" in names
        assert "propagation: closed form vs RK4" in names
