import dataclasses
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import schur
from scipy.linalg.lapack import dtrsyl

from doublelambda import BASIS, SystemParams
from doublelambda import oracle
from doublelambda import propagation as pr
from doublelambda.atom import build_generator
from doublelambda.experiments import SWEEP_SELECTORS
from doublelambda.fluctuations import (FRAME, NOISE_MODELS,
                                       diffusion_matrix_channelwise,
                                       equal_time_covariance)
from doublelambda.oracle import (OracleError, cross_validate,
                                 lyapunov_covariance, regression_covariance,
                                 rk4_covariance, time_evolve)
from doublelambda.params import HERMITIAN_FRAME, hermitian_coordinates
from doublelambda.steady import AtomState, solve_steady_state
from conftest import (full_generator_diffusion, linearized, random_params,
                      rate_groups)


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
    return gen, state, linearized(gen, state, p, noise_model)


def rel_diff(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


# The per-step forms the oracles replaced, kept as references.

def rk4_per_slab(setup, opposite, c_in, slabs):
    m, m2t, n = setup.m, opposite.m.T, setup.nfield
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


def lyapunov_kronecker(a, d):
    n = a.shape[0]
    eye = np.eye(n)
    lhs = np.kron(a, eye) + np.kron(eye, a)  # row-major vec(AS + SA^T)
    return np.linalg.solve(lhs, -2.0 * d.reshape(n * n)).reshape(n, n)


def lyapunov_bartels_stewart(a, d):
    """The Schur-form solve the eigenbasis solve replaced [Bartels &
    Stewart, CACM 15, 820 (1972)]: one real Schur form A = U T U^T, and one
    real quasi-triangular solve (trsyl) on T for each of the real and
    imaginary parts of -2 U^T D U, with the stability guard read off the
    diagonal of T."""
    t, u = schur(a, output="real")
    max_re = float(np.max(np.diag(t)))
    if max_re >= -1e-14:
        raise OracleError(
            f"drift not strictly stable (max Re eigenvalue {max_re:.2e}); "
            "stationary covariance undefined")
    rhs = u.T @ (-2.0 * d) @ u
    parts = []
    for c in (rhs.real, rhs.imag):
        x, scale, info = dtrsyl(t, t, c, tranb="T")
        assert info >= 0
        parts.append(x / scale)
    return u @ (parts[0] + 1j * parts[1]) @ u.T


def figure_points():
    """(selector, n0 factor, grid index, point) of every 10th grid point of
    the four figure sweeps, at the default n0 and at 1000 n0."""
    points = []
    for name, spec in SWEEP_SELECTORS.items():
        for factor in (1, 1000):
            base = SystemParams()
            ps = spec(base.replace(n0=factor * base.n0)).param_stack()
            points += [(name, factor, i, ps.point(i))
                       for i in range(0, len(ps), 10)]
    return points


def battery_points():
    """The validate-battery inputs at seed 0: the reference point and 63
    draws."""
    rng = np.random.default_rng(0)
    return [SystemParams()] + [random_params(rng, with_fields=True)
                               for _ in range(63)]


def channelwise_einsum(gen, state):
    rho = state.rho
    sig = BASIS.sigmas
    d_full = np.zeros((16, 16), dtype=complex)
    for ops, gmat in rate_groups(gen.rates):
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
        a, _, d = linearized(gen, state, p)
        sigma = lyapunov_covariance(a, d)
        direct = equal_time_covariance(state)
        mu = BASIS.index(1, 2)
        nu = BASIS.index(2, 1)
        e_mu = FRAME[:, mu].conj()
        e_nu = FRAME[:, nu].conj()
        val = e_mu @ sigma @ e_nu
        s11 = state.expectations[BASIS.index(1, 1)]
        s12 = state.expectations[BASIS.index(1, 2)]
        assert val == pytest.approx(np.real(s11) - abs(s12)**2, abs=1e-10)
        assert np.max(np.abs(sigma - direct)) < 1e-10

    def test_unstable_drift_refused(self):
        with pytest.raises(OracleError, match=re.escape(
                "drift not strictly stable (max Re eigenvalue 0.00e+00); "
                "stationary covariance undefined")):
            lyapunov_covariance(np.zeros((15, 15)), np.eye(15))

    def test_unstable_complex_pair_refused(self):
        # the only unstable eigenvalues are the complex pair 0.3 +- 2i
        rng = np.random.default_rng(3)
        t = np.triu(rng.normal(size=(15, 15)), 1)
        t[np.diag_indices(15)] = -np.linspace(1.0, 3.0, 15)
        t[:2, :2] = [[0.3, 2.0], [-2.0, 0.3]]
        q, _ = np.linalg.qr(rng.normal(size=(15, 15)))
        a = q @ t @ q.T
        with pytest.raises(OracleError, match=re.escape(
                "drift not strictly stable (max Re eigenvalue 3.00e-01); "
                "stationary covariance undefined")):
            lyapunov_covariance(a, np.eye(15))

    def test_one_eig_per_solve(self, defaults, monkeypatch):
        # one eigendecomposition serves the stability guard and the solve
        _, _, (a, _, d) = solved(defaults)
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: calls.append(a.shape) or eig(a))

        def refuse(*a, **k):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        lyapunov_covariance(a, d)
        assert calls == [(15, 15)]

    @pytest.mark.parametrize("split", [0.0, 1e-8])
    def test_defective_drift_refused(self, split):
        # -I plus a superdiagonal of ones, exactly defective at split = 0:
        # a Jordan block has no usable eigenbasis, so the residual
        # certificate refuses it by name, and no RuntimeWarning (an error
        # under pytest's settings) escapes the overflowing solve
        a = (-np.eye(15) + np.diag(np.ones(14), 1)
             + np.diag(split * np.arange(15)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OracleError, match=
                               r"^eigenbasis Lyapunov solve not certified "
                               r"\(relative residual \S+ > 1e-10, "
                               r"kappa_1\(V\) = \S+\); the drift is "
                               r"defective or nearly so$"):
                lyapunov_covariance(a, np.eye(15))


class TestFastOracles:
    """The matrix forms of the oracles equal their per-step references."""

    @pytest.mark.parametrize("noise_model", NOISE_MODELS)
    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_rk4_step_matrix_matches_per_slab_loop(self, noise_model, omega):
        c_in = pr.input_covariance()
        for p in oracle_points(8):
            _, _, lin = solved(p, noise_model)
            setup = pr.make_setup(*lin, p, omega)
            opposite = pr.make_setup(*lin, p, -omega)
            for slabs in (1, 7, 200, 400):
                ref = rk4_per_slab(setup, opposite, c_in, slabs)
                assert rel_diff(rk4_covariance(setup, c_in, slabs, opposite),
                                ref) <= 1e-12

    def test_rk4_slab_guard(self, defaults):
        _, _, lin = solved(defaults)
        with pytest.raises(ValueError):
            rk4_covariance(pr.make_setup(*lin, defaults), pr.input_covariance(),
                           slabs=0)

    def test_rk4_reads_the_opposite_setup(self, defaults):
        # at omega != 0, M(-omega) comes from the point's own setup at
        # -omega, never from setup itself
        _, _, lin = solved(defaults)
        setup, opposite = (pr.make_setup(*lin, defaults, w)
                           for w in (0.5, -0.5))
        c_in = pr.input_covariance(omega=0.5)
        for wrong in (None, setup):
            with pytest.raises(ValueError, match=r"^the setup at omega = 0\.5 "
                               r"needs M\(-omega\) from a setup at -0\.5, "
                               r"not 0\.5$"):
                rk4_covariance(setup, c_in, opposite=wrong)
        closed = pr.propagate_covariance(setup, c_in).covariance.c
        rk4 = rk4_covariance(setup, c_in, opposite=opposite)
        assert np.max(np.abs(closed - rk4)) <= 1e-10

    @pytest.mark.parametrize("noise_model", NOISE_MODELS)
    def test_lyapunov_matches_kronecker_solve(self, noise_model):
        for p in oracle_points(8):
            _, _, (a, _, d) = solved(p, noise_model)
            sigma = lyapunov_covariance(a, d)
            assert rel_diff(sigma, lyapunov_kronecker(a, d)) <= 1e-10
            resid = a @ sigma + sigma @ a.T + 2.0 * d
            assert np.linalg.norm(resid) / np.linalg.norm(d) <= 1e-12

    def test_lyapunov_real_drift_complex_diffusion(self):
        # a real drift with complex-Hermitian D
        rng = np.random.default_rng(5)
        a = rng.normal(size=(15, 15)) - 8.0 * np.eye(15)
        x = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
        d = x @ x.conj().T
        assert rel_diff(lyapunov_covariance(a, d), lyapunov_kronecker(a, d)) <= 1e-10

    def test_lyapunov_matches_bartels_stewart_on_figure_grids(self):
        refused = []
        for name, factor, i, p in figure_points():
            _, _, (a, _, d) = solved(p)
            try:
                ref = lyapunov_bartels_stewart(a, d)
            except OracleError:
                refused.append((name, factor, i))
                with pytest.raises(OracleError, match="not strictly stable"):
                    lyapunov_covariance(a, d)
                continue
            assert rel_diff(lyapunov_covariance(a, d), ref) <= 1e-12
        # at gamma0 = 0 the drift is marginal: both stability guards refuse
        assert refused == [("fig4", 1, 0), ("fig4", 1000, 0)]

    @pytest.mark.parametrize("noise_model", NOISE_MODELS)
    def test_lyapunov_matches_bartels_stewart_on_battery(self, noise_model):
        for p in battery_points():
            _, _, (a, _, d) = solved(p, noise_model)
            assert rel_diff(lyapunov_covariance(a, d),
                            lyapunov_bartels_stewart(a, d)) <= 1e-12

    def test_channelwise_matches_einsum_form(self):
        for p in oracle_points(8):
            gen, state, _ = solved(p)
            ref = channelwise_einsum(gen, state)
            d = diffusion_matrix_channelwise(gen.rates[None], state.rho[None])
            assert rel_diff(d[0], ref) <= 1e-14

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
        a, _, d = linearized(gen, state, defaults)
        d_bad = d.copy()
        d_bad[2, 3] += 1e-3
        sigma_bad = lyapunov_covariance(a, d_bad)
        direct = equal_time_covariance(state)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(sigma_bad - direct)) / scale > 1e-6

    def test_flipped_commutator_detected(self, defaults, monkeypatch):
        # [L_n^+, sigma_mu] -> [sigma_mu, L_n^+] in the channel tensor of the
        # 4->1, 2->1 interference entry must fail the dual-path check alone
        from doublelambda import fluctuations as fl
        flipped = fl.CHANNEL_SANDWICHES.copy()
        flipped[1] *= -1.0
        monkeypatch.setattr(fl, "CHANNEL_SANDWICHES", flipped)
        report = cross_validate(defaults)
        assert [c.name for c in report.failures] == [
            "Einstein-relation dual-path identity"]

    def test_corrupted_transfer_detected(self, defaults):
        # perturbing one entry of the M fed only to RK4 must break the
        # "propagation: closed form vs RK4" agreement beyond its tolerance
        _, _, lin = solved(defaults)
        setup = pr.make_setup(*lin, defaults)
        c_in = pr.input_covariance()
        m_bad = setup.m.copy()
        m_bad[0, 2] += 1e-3
        closed = pr.propagate_covariance(setup, c_in).covariance.c
        c_bad = rk4_covariance(dataclasses.replace(setup, m=m_bad), c_in)
        assert np.max(np.abs(c_bad - closed)) > 1e-6

    @pytest.mark.parametrize("k", range(9))
    def test_residuals_match_separate_diffusion_route(self, k):
        # reference: the battery with the sandwich D from its own
        # diffusion_stack call
        from doublelambda.fluctuations import diffusion_stack
        p = oracle_points(8)[k]
        gen = build_generator(p)
        state = solve_steady_state(gen, p)
        rho = state.rho
        other = solve_steady_state(
            gen, p, method="long-time-integration"
            if state.method == "null-space" else "null-space")
        a, b, d_lin = linearized(gen, state, p)
        direct = equal_time_covariance(state)
        setup = pr.make_setup(a, b, d_lin, p)
        c_in = pr.input_covariance()
        c_out = pr.propagate_covariance(setup, c_in).covariance.c
        d = diffusion_stack("einstein", gen.rates[None],
                            hermitian_coordinates(rho[None]))
        d_full = full_generator_diffusion(gen.matrix[None], rho[None])
        built = HERMITIAN_FRAME.conj().T @ gen.matrix @ HERMITIAN_FRAME
        raw = state.raw
        reference = [
            abs(np.trace(raw) - 1.0),
            float(np.max(np.abs(raw - raw.conj().T))),
            max(0.0, -float(np.min(np.linalg.eigvalsh((rho + rho.conj().T)
                                                      / 2)))),
            float(np.max(np.abs(other.expectations - state.expectations))),
            float(np.max(np.abs(gen.real - built)) / np.max(np.abs(built))),
            float(np.max(np.abs(d[0] - diffusion_matrix_channelwise(
                gen.rates[None], rho[None])[0]))),
            float(np.max(np.abs(d_full[0] - d[0]))),
            float(np.max(np.linalg.eig(a)[0].real)),
            float(np.max(np.abs(lyapunov_covariance(a, d_lin) - direct)))
            / max(float(np.max(np.abs(direct))), 1e-30),
            max(abs(c_out[0, 1] - c_out[1, 0] - 1.0),
                abs(c_out[2, 3] - c_out[3, 2] - 1.0)),
            float(np.max(np.abs(c_out - rk4_covariance(setup, c_in)))),
        ]
        assert [c.residual for c in cross_validate(p).checks] == reference

    def test_battery_matches_bartels_stewart_battery(self, monkeypatch):
        # the battery on the validate-battery inputs, against itself with the
        # Schur-form solve: only the Lyapunov residual moves, by <= 1e-12
        lyap = "Lyapunov vs regression covariance"
        points = battery_points()
        reports = [cross_validate(p) for p in points]
        monkeypatch.setattr(oracle, "lyapunov_covariance",
                            lambda a, d, eig: lyapunov_bartels_stewart(a, d))
        for p, report in zip(points, reports):
            ref = cross_validate(p)
            assert report.passed and ref.passed
            assert ([(c.name, c.tolerance, c.passed) for c in report.checks]
                    == [(c.name, c.tolerance, c.passed) for c in ref.checks])
            for c, r in zip(report.checks, ref.checks):
                if c.name == lyap:
                    assert abs(c.residual - r.residual) <= 1e-12
                else:
                    assert c.residual == r.residual, c.name

    def test_drift_failure_raised_before_the_diffusion(self, defaults,
                                                       monkeypatch):
        # the diffusion cannot fail; no diffusion is formed on a failed drift
        from doublelambda import fluctuations as fl
        drift, models = fl.drift_stack, []
        monkeypatch.setattr(fl, "drift_stack", lambda real, rates: (
            drift(real, rates)[0], {0: fl.ResponseError("drift_stack failed")}))
        monkeypatch.setattr(fl, "diffusion_stack", lambda *a: models.append(a))
        with pytest.raises(fl.ResponseError, match="^drift_stack failed$"):
            cross_validate(defaults)
        assert models == []

    def test_generator_term_the_rates_lack_detected(self, defaults,
                                                    monkeypatch):
        # a 1-3 dephasing channel in the generator but not in its rates: the
        # full-generator Einstein relation no longer matches the rates route.
        # The state and drift follow the generator while D follows the rates,
        # so the Lyapunov covariance and the field commutators miss the
        # channel's noise too.  The long-time solve contracts L from the
        # coefficients, which lack the channel, so the dual-method check
        # sees it as well; every other check passes.
        from doublelambda import atom
        extra = 0.1 * atom.DISSIPATOR_BASIS[-1]
        gen = build_generator(defaults)
        real = (HERMITIAN_FRAME.conj().T @ extra @ HERMITIAN_FRAME).real
        bad = dataclasses.replace(gen, matrix=gen.matrix + extra,
                                  real=gen.real + real)
        monkeypatch.setattr(oracle, "build_generator", lambda p: bad)
        report = cross_validate(defaults)
        assert [c.name for c in report.failures] == [
            "steady-state dual-method agreement",
            "Einstein relation: full generator vs dissipator",
            "Lyapunov vs regression covariance", "commutator preservation"]

    def test_unstable_drift_still_refused(self, defaults, monkeypatch):
        # shifting the generator the drift reads by +0.5 pushes the slowest
        # eigenvalue into the right half-plane; the rates still pass the
        # sweep's certificate, and the battery stops at its failed check
        from doublelambda import fluctuations as fl
        drift, solves = fl.drift_stack, []
        monkeypatch.setattr(fl, "drift_stack", lambda real, rates: drift(
            real + 0.5 * np.eye(16), rates))
        monkeypatch.setattr(oracle, "lyapunov_covariance",
                            lambda *a: solves.append(a))
        report = cross_validate(defaults)
        assert [c.name for c in report.failures] == ["drift stability"]
        assert report.checks[-1].name == "drift stability"
        assert 0.4 < report.checks[-1].residual <= 0.5
        assert solves == []

    @pytest.mark.parametrize("check", ["trace", "hermiticity"])
    def test_raw_state_checks_read_the_solve(self, defaults, monkeypatch,
                                             check):
        # the checks read the state as solved, not the final state made
        # Hermitian with unit trace, on which neither could fail
        solve = oracle.solve_steady_state
        bump = np.zeros((4, 4))
        bump[(0, 0) if check == "trace" else (0, 2)] = 1e-6

        def perturbed(gen, params, method="auto"):
            state = solve(gen, params, method)
            return dataclasses.replace(state, raw=state.raw + bump)

        monkeypatch.setattr(oracle, "solve_steady_state", perturbed)
        report = cross_validate(defaults)
        assert [c.name for c in report.failures] == [check]

    def test_one_eig_per_battery(self, defaults, monkeypatch):
        # the drift's one eigendecomposition serves "drift stability" and
        # the Lyapunov solve
        calls, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: calls.append(a.shape) or eig(a))
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a))
        report = cross_validate(defaults)
        assert report.passed and calls == [(15, 15)]

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
        assert len(payload["checks"]) == 11
        names = {c["name"] for c in payload["checks"]}
        assert "commutator preservation" in names
        assert "propagation: closed form vs RK4" in names
        assert all(c["seconds"] >= 0.0 for c in payload["checks"])
