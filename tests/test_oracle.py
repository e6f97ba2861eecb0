import dataclasses

import numpy as np
import pytest

from doublelambda import BASIS, SystemParams
from doublelambda import propagation as pr
from doublelambda.atom import build_generator
from doublelambda.fluctuations import (FRAME, NOISE_MODELS,
                                       diffusion_matrix_channelwise,
                                       equal_time_covariance,
                                       linearize, LinearizedSystem)
from doublelambda.oracle import (OracleError, cross_validate,
                                 lyapunov_covariance, regression_covariance,
                                 rk4_covariance, time_evolve)
from doublelambda.steady import AtomState, solve_steady_state
from conftest import random_params


def state_from_rho(rho):
    return AtomState(expectations=BASIS.expectations(rho), method="test")


def oracle_points(draws: int):
    """The reference point plus `draws` seeded random draws."""
    rng = np.random.default_rng(20240811)
    return [SystemParams()] + [random_params(rng, with_fields=True)
                               for _ in range(draws)]


def solved(p, noise_model="einstein"):
    gen = build_generator(p)
    state = solve_steady_state(gen, p)
    return gen, state, linearize(gen, state, p, noise_model)


def rel_diff(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


# The per-step forms the oracles replaced, kept as references.

def rk4_per_slab(setup, c_in, slabs):
    m, m2t, n = setup.m, setup.m_minus.T, setup.nfield
    h = setup.cell_length / slabs
    c = c_in.c.copy()

    def f(x):
        return m @ x + x @ m2t + n

    for _ in range(slabs):
        k1 = f(c)
        k2 = f(c + 0.5 * h * k1)
        k3 = f(c + 0.5 * h * k2)
        k4 = f(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c


def lyapunov_kronecker(lin):
    n = lin.a.shape[0]
    eye = np.eye(n)
    lhs = np.kron(lin.a, eye) + np.kron(eye, lin.a)  # row-major vec(AS + SA^T)
    return np.linalg.solve(lhs, -2.0 * lin.d.reshape(n * n)).reshape(n, n)


def channelwise_einsum(gen, state):
    rho = state.rho
    sig = BASIS.sigmas
    d_full = np.zeros((16, 16), dtype=complex)
    for ops, gmat in gen.channels:
        for m, lm in enumerate(ops):
            for n, ln in enumerate(ops):
                rate = gmat[m, n]
                if rate == 0:
                    continue
                lnd = ln.conj().T
                c1 = np.einsum("kl,mln->mkn", lnd, sig) \
                    - np.einsum("mkl,ln->mkn", sig, lnd)
                c2 = np.einsum("mkl,ln->mkn", sig, lm) \
                    - np.einsum("kl,mln->mkn", lm, sig)
                pair = np.einsum("mkl,nlj->mnkj", c1, c2)
                d_full += rate * np.einsum("kl,mnlk->mn", rho, pair) / 2.0
    return FRAME @ d_full @ FRAME.T


def equal_time_einsum(state):
    s = state.expectations
    prod = np.einsum("mkl,nlj->mnkj", BASIS.sigmas, BASIS.sigmas)
    first = np.einsum("kl,mnlk->mn", state.rho, prod)
    return FRAME @ (first - np.outer(s, s)) @ FRAME.T


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
        e_mu = FRAME[:, mu].conj()
        e_nu = FRAME[:, nu].conj()
        val = e_mu @ sigma @ e_nu
        s11 = state.expectation(1, 1)
        s12 = state.expectation(1, 2)
        assert val == pytest.approx(np.real(s11) - abs(s12)**2, abs=1e-10)
        assert np.max(np.abs(sigma - direct)) < 1e-10

    def test_unstable_drift_refused(self):
        lin = LinearizedSystem(a=np.zeros((15, 15)), b=np.zeros((15, 4)),
                               d=np.eye(15), noise_scale=1.0)
        with pytest.raises(OracleError):
            lyapunov_covariance(lin)


class TestFastOracles:
    """The matrix forms of the oracles equal their per-step references."""

    @pytest.mark.parametrize("noise_model", NOISE_MODELS)
    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_rk4_step_matrix_matches_per_slab_loop(self, noise_model, omega):
        c_in = pr.input_covariance()
        for p in oracle_points(8):
            _, _, lin = solved(p, noise_model)
            setup = pr.make_setup(lin, p, omega)
            for slabs in (1, 7, 200, 400):
                ref = rk4_per_slab(setup, c_in, slabs)
                assert rel_diff(rk4_covariance(setup, c_in, slabs), ref) <= 1e-12

    def test_rk4_slab_guard(self, defaults):
        _, _, lin = solved(defaults)
        with pytest.raises(ValueError):
            rk4_covariance(pr.make_setup(lin, defaults), pr.input_covariance(),
                           slabs=0)

    @pytest.mark.parametrize("noise_model", NOISE_MODELS)
    def test_lyapunov_matches_kronecker_solve(self, noise_model):
        for p in oracle_points(8):
            _, _, lin = solved(p, noise_model)
            sigma = lyapunov_covariance(lin)
            assert rel_diff(sigma, lyapunov_kronecker(lin)) <= 1e-10
            resid = lin.a @ sigma + sigma @ lin.a.T + 2.0 * lin.d
            assert np.linalg.norm(resid) / np.linalg.norm(lin.d) <= 1e-12

    def test_lyapunov_real_drift_complex_diffusion(self):
        # a real drift with complex-Hermitian D: the Schur forms must stay
        # triangular for the complex back-substitution
        rng = np.random.default_rng(5)
        a = rng.normal(size=(15, 15)) - 8.0 * np.eye(15)
        x = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
        lin = LinearizedSystem(a=a, b=np.zeros((15, 4)), d=x @ x.conj().T,
                               noise_scale=1.0)
        assert rel_diff(lyapunov_covariance(lin), lyapunov_kronecker(lin)) <= 1e-10

    def test_channelwise_matches_einsum_form(self):
        for p in oracle_points(8):
            gen, state, _ = solved(p)
            ref = channelwise_einsum(gen, state)
            assert rel_diff(diffusion_matrix_channelwise(gen, state), ref) <= 1e-14

    def test_equal_time_covariance_matches_einsum_form(self):
        for p in oracle_points(20):
            _, state, _ = solved(p)
            assert np.max(np.abs(equal_time_covariance(state)
                                 - equal_time_einsum(state))) <= 1e-15


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
                                   noise_scale=lin.noise_scale)
        sigma_bad = lyapunov_covariance(lin_bad)
        direct = equal_time_covariance(state)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(sigma_bad - direct)) / scale > 1e-6

    def test_corrupted_transfer_detected(self, defaults):
        # perturbing one entry of the M fed only to RK4 must break the
        # "propagation: closed form vs RK4" agreement beyond its tolerance
        _, _, lin = solved(defaults)
        setup = pr.make_setup(lin, defaults)
        c_in = pr.input_covariance()
        m_bad = setup.m.copy()
        m_bad[0, 2] += 1e-3
        closed = pr.propagate_covariance(setup, c_in).covariance.c
        c_bad = rk4_covariance(dataclasses.replace(setup, m=m_bad), c_in)
        assert np.max(np.abs(c_bad - closed)) > 1e-6

    @pytest.mark.parametrize("k", range(9))
    def test_residuals_match_separate_diffusion_route(self, k):
        # reference: the battery with the sandwich D from its own
        # diffusion_stack call instead of lin.d
        from doublelambda.fluctuations import diffusion_stack
        p = oracle_points(8)[k]
        gen = build_generator(p)
        state = solve_steady_state(gen, p)
        rho = state.rho
        other = solve_steady_state(
            gen, p, method="long-time-integration"
            if state.method == "null-space" else "null-space")
        lin = linearize(gen, state, p)
        direct = equal_time_covariance(state)
        setup = pr.make_setup(lin, p)
        c_in = pr.input_covariance()
        c_out = pr.propagate_covariance(setup, c_in).covariance.c
        d, failures = diffusion_stack("einstein", gen.matrix[None],
                                      gen.coherent[None], gen.rates[None],
                                      rho[None])
        assert failures == {}
        reference = [
            abs(np.trace(rho) - 1.0),
            float(np.max(np.abs(rho - rho.conj().T))),
            max(0.0, -float(np.min(np.linalg.eigvalsh((rho + rho.conj().T)
                                                      / 2)))),
            float(np.max(np.abs(other.expectations - state.expectations))),
            float(np.max(np.abs(d[0]
                                - diffusion_matrix_channelwise(gen, state)))),
            float(np.max(np.abs(lyapunov_covariance(lin) - direct)))
            / max(float(np.max(np.abs(direct))), 1e-30),
            max(abs(c_out[0, 1] - c_out[1, 0] - 1.0),
                abs(c_out[2, 3] - c_out[3, 2] - 1.0)),
            float(np.max(np.abs(c_out - rk4_covariance(setup, c_in)))),
        ]
        assert [c.residual for c in cross_validate(p).checks] == reference

    def test_one_einstein_diffusion_per_battery(self, defaults, monkeypatch):
        from doublelambda import fluctuations as fl
        models = []
        stack = fl.diffusion_stack
        monkeypatch.setattr(fl, "diffusion_stack",
                            lambda *a: models.append(a[0]) or stack(*a))
        cross_validate(defaults)
        assert models == ["einstein"]

    def test_report_serialization(self, defaults):
        report = cross_validate(defaults)
        payload = report.as_dict()
        assert payload["passed"] is True
        assert len(payload["checks"]) == 8
        names = {c["name"] for c in payload["checks"]}
        assert "commutator preservation" in names
        assert "propagation: closed form vs RK4" in names
        assert all(c["seconds"] >= 0.0 for c in payload["checks"])
