import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from doublelambda import BASIS, SystemParams
from doublelambda.atom import (ACTIVITY_TABLE, COHERENT_BASIS,
                               DISSIPATOR_BASIS, FIELD_OPERATORS, JUMP_TRACES,
                               RADIATIVE_ENTRIES, build_generator,
                               coefficient_stack, dissipative_activity_stack,
                               dissipator_stack, gksl_defects,
                               liouvillian_stack, real_generator_stack)
from doublelambda.experiments import (alignment_spec, amplitude_spec,
                                      dephasing_spec, detuning_spec,
                                      evaluate_points)
from doublelambda.fluctuations import (DIFFUSION_TABLES, FIELD_TABLE, FRAME,
                                       NOISE_MODELS, ResponseError,
                                       _einstein_diffusion, _state_products,
                                       diffusion_matrix_channelwise,
                                       diffusion_stack, drift_stack,
                                       equal_time_covariance,
                                       field_coupling_stack, response_stack)
from doublelambda.matfuncs import norm_1
from doublelambda.oracle import lyapunov_covariance, regression_covariance
from doublelambda.params import (HERMITIAN_FRAME, ParamStack,
                                hermitian_coordinates)
from doublelambda.steady import solve_steady_state, steady_state_stack
from conftest import fields_liouvillian, linearized, random_params


def prepare(params):
    gen = build_generator(params)
    state = solve_steady_state(gen, params)
    return gen, state


def coords(rho):
    """The (1, 16) coordinates of one state, as the kernels read them."""
    return hermitian_coordinates(rho[None])


def reference_points(draws: int):
    """The reference point, the stressed point (n0 x1000) and seeded draws."""
    rng = np.random.default_rng(20240811)
    return [SystemParams(), SystemParams(n0=3e19)] + [
        random_params(rng, with_fields=True) for _ in range(draws)]


def survey_stacks(n0s):
    """The five figure grids (fig2, fig2-inset, fig3 a and b, fig4) at each
    density of n0s, then 500 seeded draws, as ParamStacks."""
    rng = np.random.default_rng(20240811)
    stacks = [spec(SystemParams(n0=n0), **kw).param_stack() for n0 in n0s
              for spec, kw in ((detuning_spec, {}), (alignment_spec, {}),
                               (amplitude_spec, {"variant": "a"}),
                               (amplitude_spec, {"variant": "b"}),
                               (dephasing_spec, {}))]
    stacks.append(ParamStack.of([random_params(rng, with_fields=True)
                                 for _ in range(500)]))
    return stacks


def nearest_mismatch(x, y):
    """Largest distance from an entry of either set to the other set."""
    dist = np.abs(x[:, None] - y[None, :])
    return max(np.max(np.min(dist, axis=0)), np.max(np.min(dist, axis=1)))


class TestDrift:
    def test_trace_left_null_vector(self, defaults):
        gen = build_generator(defaults)
        trace_vec = np.zeros(16)
        trace_vec[BASIS.diagonal] = 1.0
        assert np.linalg.norm(trace_vec @ gen.matrix) < 1e-12

    def test_stability_at_defaults(self, defaults):
        gen = build_generator(defaults)
        a, failures = drift_stack(gen.real[None], gen.rates[None])
        assert failures == {}
        assert np.max(np.real(np.linalg.eigvals(a[0]))) <= 1e-10
        assert a.shape == (1, 15, 15)

    def test_real_form_keeps_the_eigenvalues(self):
        # the 16-dim Liouvillian has the drift's eigenvalues plus the 0 of
        # the conserved trace
        for p in reference_points(8):
            gen = build_generator(p)
            a, failures = drift_stack(gen.real[None], gen.rates[None])
            assert failures == {}
            a = a[0]
            assert a.dtype == np.float64
            evals = np.linalg.eigvals(gen.matrix)
            mismatch = nearest_mismatch(
                np.append(np.linalg.eigvals(a), 0.0), evals)
            assert mismatch <= 1e-12 * np.max(np.abs(evals))

    def test_frame_is_the_hermitian_basis(self):
        assert np.allclose(FRAME @ FRAME.conj().T, np.eye(15), atol=1e-15)
        assert np.array_equal(FRAME @ BASIS.swap, FRAME.conj())
        trace_vec = np.zeros(16)
        trace_vec[BASIS.diagonal] = 1.0
        assert np.max(np.abs(FRAME @ trace_vec)) <= 1e-15

    def test_rotation_drift_is_the_frame_product(self):
        # B against U^H L U and (O B O^T)[1:, 1:] against FRAME.conj() L
        # FRAME^T, the drift of the complex L, on every figure grid at n0
        # and n0 x1000 and 500 draws
        for ps in survey_stacks((3e16, 3e19)):
            h, r = coefficient_stack(ps)
            lmats = liouvillian_stack(h, dissipator_stack(r))
            real = real_generator_stack(h, r)
            a, _ = drift_stack(real, r)
            u = HERMITIAN_FRAME
            for x, product in ((real, u.conj().T @ lmats @ u),
                               (a, FRAME.conj() @ lmats @ FRAME.T)):
                scale = np.max(np.abs(product), axis=(1, 2))
                assert np.all(np.max(np.abs(x - product), axis=(1, 2))
                              <= 1e-15 * scale)

    def test_figure_grids_and_draws_are_stable(self):
        # the sweep certifies stability from the rates and computes no
        # eigenvalue; the spectrum it no longer checks per point, by one
        # batched eigvals over the five figure grids (the drift does not
        # read n0) and 500 draws
        h, r = (np.concatenate(x) for x in zip(
            *(coefficient_stack(ps) for ps in survey_stacks((3e16,)))))
        a, failures = drift_stack(real_generator_stack(h, r), r)
        assert failures == {} and len(a) == 5 * 201 + 500
        assert np.max(np.linalg.eigvals(a).real) <= 1e-10

    @pytest.mark.parametrize("p", [1.0, -1.0])
    def test_certificate_accepts_full_alignment(self, p):
        # at p = +-1 each radiative rate matrix is singular, and the rounded
        # cross rate 2 p sqrt(gamma_a gamma_b) leaves its determinant a few
        # eps below 0 at many unequal pairs: the slack accepts them
        rng = np.random.default_rng(5)
        pairs = rng.uniform(0.01, 2.0, (200, 2))
        ps = ParamStack.of([SystemParams(gamma1=x, gamma2=y, gamma3=y,
                                         gamma4=x, p1=p, p2=p)
                            for x, y in pairs])
        r = coefficient_stack(ps)[1]
        det = r[:, 0] * r[:, 3] - r[:, 1] ** 2
        assert np.mean(det < 0) > 0.1
        assert np.all(det >= -4 * np.finfo(float).eps * r[:, 0] * r[:, 3])
        assert gksl_defects(r) == {}

    def test_certificate_accepts_underflowing_rate_products(self):
        # gamma1 gamma2 subnormal: the determinant is a subnormal unit below 0
        ps = ParamStack.of([SystemParams(gamma1=1.9476265e-318 / 2,
                                         gamma2=0.42705622, p1=1.0)])
        r = coefficient_stack(ps)[1]
        assert r[0, 0] * r[0, 3] - r[0, 1] ** 2 < 0
        assert gksl_defects(r) == {}

    def test_certificate_refuses_hand_made_rows_by_name(self, defaults):
        gen = build_generator(defaults)
        rates = np.stack([gen.rates] * 4)
        rates[1, [1, 2]] = 3.0   # |r_ab| > sqrt(r_aa r_bb) to level 1
        rates[2, 10] = -0.1      # negative dephasing
        rates[3, 5] = 1.0        # asymmetric matrix to level 3
        _, failures = drift_stack(np.stack([gen.real] * 4), rates)
        assert list(failures) == [1, 2, 3]
        assert all(isinstance(e, ResponseError) for e in failures.values())
        assert [str(e) for e in failures.values()] == [
            "drift stability not certified: rate matrix of the decay to "
            "level 1 not positive semidefinite: [[2.00e+00, 3.00e+00], "
            "[3.00e+00, 2.00e+00]]",
            "drift stability not certified: negative exchange or dephasing "
            "rate: 2.00e-03, 2.00e-03, -1.00e-01",
            "drift stability not certified: rate matrix of the decay to "
            "level 3 not positive semidefinite: [[2.00e+00, 1.00e+00], "
            "[2.00e+00, 2.00e+00]]"]

    def test_rate_bookkeeping_with_drive_off(self):
        p = SystemParams(g=0.0, gamma0=0.0)
        gen, state = prepare(p.replace(gamma0=0.1))
        gen0 = build_generator(p)
        mu = BASIS.index(4, 4)
        assert gen0.matrix[mu, mu] == pytest.approx(-4.0)


class TestFieldCoupling:
    def test_zero_without_coupling(self):
        p = SystemParams(g=0.0, gamma0=0.2)
        _, state = prepare(p)
        b = field_coupling_stack(np.array([p.g]), coords(state.rho))
        assert np.max(np.abs(b)) == 0.0

    def test_ground_state_pathways(self, defaults):
        # all population in level 1: a field-1 fluctuation drives only the
        # level-1 optical coherences, with magnitude g
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        b = field_coupling_stack(np.array([defaults.g]), coords(rho))[0]
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
            b = field_coupling_stack(np.array([p.g]), coords(state.rho))[0]
            s_full = state.expectations
            h = 1e-6
            v0 = np.array([p.a1_mean, p.a1_mean, p.a2_mean, p.a2_mean],
                          dtype=complex)
            for k in range(4):
                vp, vm = v0.copy(), v0.copy()
                vp[k] += h
                vm[k] -= h
                lp = fields_liouvillian(p, vp)
                lm = fields_liouvillian(p, vm)
                adj_diff = BASIS.swap @ ((lp - lm) / (2 * h)) @ BASIS.swap
                col_fd = FRAME @ (adj_diff @ s_full)
                assert np.max(np.abs(col_fd - b[:, k])) < 1e-8

    def test_adjoint_pairing(self, rng):
        p = random_params(rng, with_fields=True)
        _, state = prepare(p)
        b = field_coupling_stack(np.array([p.g]), coords(state.rho))[0]
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
        d = diffusion_stack("einstein", gen.rates[None], coords(rho))
        assert np.max(np.abs(d)) < 1e-12

    def test_two_level_hand_value(self):
        # isolated 1-2 decay at rate 2*gamma: 2 D[s12, s21] = 2*gamma
        p = SystemParams(gamma1=0, gamma2=0.8, gamma3=0, gamma4=0, gamma0=0,
                         g=0.0)
        gen = build_generator(p)
        rho = np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)
        d = diffusion_stack("einstein", gen.rates[None], coords(rho))
        d16 = FRAME.conj().T @ d[0] @ FRAME.conj()
        mu = BASIS.index(1, 2)
        nu = BASIS.index(2, 1)
        # <sigma_11 + sigma_22> = 1 here
        assert 2 * d16[mu, nu] == pytest.approx(2 * 0.8)

    def test_dual_path_identity(self, rng):
        for _ in range(10):
            p = random_params(rng, with_fields=True)
            gen, state = prepare(p)
            d1 = diffusion_stack("einstein", gen.rates[None], coords(state.rho))
            d2 = diffusion_matrix_channelwise(gen.rates[None], state.rho[None])
            assert np.max(np.abs(d1[0] - d2[0])) < 1e-12

    def test_hermitian_frame_psd(self, rng):
        # D[k, l] pairs Hermitian operators, so D itself is Hermitian PSD
        for _ in range(10):
            p = random_params(rng, with_fields=True)
            gen, state = prepare(p)
            d = diffusion_stack("einstein", gen.rates[None], coords(state.rho))
            d2 = 2 * d[0]
            assert np.max(np.abs(d2 - d2.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(d2)) > -1e-10

    def test_hamiltonian_tables_drop_out(self, defaults, rng):
        # L_H+(XY) = L_H+(X) Y + X L_H+(Y) for each commutator table, so its
        # Einstein relation vanishes on any state: the diffusion needs the
        # dissipator alone.  A dissipator table is no derivation and does not
        # vanish.
        x = rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))
        rhos = x @ x.conj().transpose(0, 2, 1)
        rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
        rhos = np.concatenate([prepare(defaults)[1].rho[None], rhos])
        products = _state_products(np.repeat(rhos, 6, axis=0))
        d = _einstein_diffusion(np.tile(COHERENT_BASIS, (len(rhos), 1, 1)),
                                products)
        assert np.max(np.abs(d)) <= 1e-15
        leak = _einstein_diffusion(DISSIPATOR_BASIS[:1],
                                   _state_products(rhos[:1]))
        assert np.max(np.abs(leak)) > 1e-3

    def test_unknown_noise_model_refused_by_name(self, defaults):
        message = ("unknown noise model 'thermal'; expected one of "
                   "('einstein', 'vacuum-reservoir')")
        gen, state = prepare(defaults)
        with pytest.raises(ValueError) as exc:
            diffusion_stack("thermal", gen.rates[None], coords(state.rho))
        assert str(exc.value) == message
        # a sweep's rows fail by it, each on its own
        rows = evaluate_points([defaults, defaults.replace(delta1=0.5)],
                               noise_model="thermal")
        assert [(r.error, r.v12) for r in rows] == \
            [(f"ValueError: {message}", None)] * 2

    def test_vacuum_reservoir_subset(self, defaults, rng):
        gen, state = prepare(defaults)
        stacks = (gen.rates[None], coords(state.rho))
        d_full = diffusion_stack("einstein", *stacks)
        d_se = diffusion_stack("vacuum-reservoir", *stacks)
        # dropping channels must change the diffusion (collisions carry noise)
        assert np.max(np.abs(d_full - d_se)) > 1e-6
        # and it equals the channelwise sum over the two radiative groups
        for p in [defaults] + [random_params(rng, with_fields=True)
                               for _ in range(10)]:
            gen, state = prepare(p)
            radiative = gen.rates.copy()
            radiative[RADIATIVE_ENTRIES:] = 0.0
            d_cw = diffusion_matrix_channelwise(radiative[None], state.rho[None])[0]
            d_se = diffusion_stack("vacuum-reservoir", gen.rates[None],
                                   coords(state.rho))
            assert np.max(np.abs(d_se[0] - d_cw)) < 1e-12


SUBNORMAL = np.finfo(float).smallest_subnormal
#: a rate coefficient's source: 0, subnormal, tiny or of order 1
TABLE_RATE = (st.just(0.0) | st.floats(SUBNORMAL, np.finfo(float).tiny)
              | st.floats(1e-300, 1e-3) | st.floats(0, 2))
ALIGNMENT = st.just(-1.0) | st.just(1.0) | st.floats(-1, 1)
#: the comparison floor of a table against its complex route where every
#: rate is subnormal: D's entries then have few digits, and the two routes
#: round differently in their last subnormal spacings
TABLE_FLOOR = 1024 * SUBNORMAL


@st.composite
def rates_coupling_and_state(draw):
    """(11,) rate coefficients of a valid point, a coupling g and a random
    density matrix m m^H / Tr, of rank 1 to 4."""
    params = SystemParams(
        **{name: draw(TABLE_RATE) for name in (
            "gamma1", "gamma2", "gamma3", "gamma4", "gamma0", "gamma_phi")},
        p1=draw(ALIGNMENT), p2=draw(ALIGNMENT))
    entries = draw(st.lists(st.floats(-1, 1), min_size=32, max_size=32))
    m = np.array(entries[:16]) + 1j * np.array(entries[16:])
    m = m.reshape(4, 4)
    m[:, draw(st.integers(1, 4)):] = 0.0
    rho = m @ m.conj().T
    assume(rho.trace().real > 1e-3)
    return coefficient_stack(params)[1], draw(TABLE_RATE), rho / rho.trace()


def close_to(x, ref, rtol=1e-13) -> bool:
    """x within rtol of ref's largest magnitude, above TABLE_FLOOR."""
    return bool(np.max(np.abs(x - ref))
                <= rtol * np.max(np.abs(ref)) + TABLE_FLOOR)


class TestTables:
    """D, B and the activity read the state's real coordinates through
    fixed real tables, built at import from the complex routes."""

    def test_tables_are_real_float64(self):
        assert FIELD_TABLE.dtype == ACTIVITY_TABLE.dtype == np.float64
        for model, groups in zip(NOISE_MODELS, (9, 6)):
            # every rate group, or the six radiative ones
            table_groups, slots, order = DIFFUSION_TABLES[model]
            assert table_groups == groups and sorted(order) == list(range(240))
            for size, rows, coefs in slots:
                assert coefs.dtype == np.float64 and coefs.shape == (size, 1)
                assert rows.max() < 16 * groups
        # of the 144 x 240 and 96 x 240 entries, 737 and 505 are nonzero
        assert [sum(size for size, _, _ in DIFFUSION_TABLES[m][1])
                for m in NOISE_MODELS] == [737, 505]

    @settings(max_examples=60, derandomize=True, deadline=None,
              database=None)
    @given(rates_coupling_and_state())
    def test_tables_equal_the_complex_routes(self, case):
        rates, g, rho = case
        x = coords(rho)
        for model, n in zip(NOISE_MODELS, (len(rates), RADIATIVE_ENTRIES)):
            kept = np.where(np.arange(len(rates)) < n, rates, 0.0)[None]
            d = diffusion_stack(model, rates[None], x)
            einstein = FRAME @ _einstein_diffusion(
                dissipator_stack(kept), _state_products(rho[None])) @ FRAME.T
            assert close_to(d, einstein), model
            assert close_to(d, diffusion_matrix_channelwise(kept, rho[None])), \
                model
        # B: g times the commutators -i[dH/dv_k, rho], in FRAME
        commutators = np.stack([(-1j * (h @ rho - rho @ h)).reshape(16)
                                for h in FIELD_OPERATORS], axis=1)
        b = field_coupling_stack(np.array([g]), x)[0]
        assert close_to(b, g * (FRAME.conj() @ commutators))
        activity = dissipative_activity_stack(rates[None], x)[0]
        assert close_to(activity, np.real(JUMP_TRACES @ rho.reshape(16)
                                          @ rates))

    def test_kernels_match_one_point_calls_bit_for_bit(self):
        # every table operation is elementwise or one product per point, so
        # a point's D, B and activity do not depend on the stack around it.
        # Mutation: accumulating D by one dense GEMM of the products with
        # the table, in place of the term slots, fails this.
        ps = detuning_spec(SystemParams()).param_stack()[:64]
        h, r = coefficient_stack(ps)
        rhos, _, _, failures, _ = steady_state_stack(
            real_generator_stack(h, r), h, r)
        assert failures == {}
        x = hermitian_coordinates(rhos)

        def kernels(k):
            return [dissipative_activity_stack(r[k], x[k]),
                    field_coupling_stack(ps.g[k], x[k])] + [
                diffusion_stack(model, r[k], x[k]) for model in NOISE_MODELS]

        stacked = kernels(slice(None))
        for k in range(len(ps)):
            for whole, alone in zip(stacked, kernels(slice(k, k + 1))):
                assert np.array_equal(whole[k:k + 1], alone)


class TestResponse:
    def test_high_frequency_rolloff(self, defaults):
        gen = build_generator(defaults)
        a, failures = drift_stack(np.stack([gen.real] * 2), np.stack([gen.rates] * 2))
        assert failures == {}
        r, failures = response_stack(a, np.array([1e4, 2e4]))
        assert failures == {}
        n1, n2 = np.linalg.norm(r, axis=(1, 2))
        assert n2 == pytest.approx(n1 / 2, rel=1e-2)

    def test_zero_frequency_is_inverse(self, defaults):
        gen = build_generator(defaults)
        a, failures = drift_stack(gen.real[None], gen.rates[None])
        assert failures == {}
        r, failures = response_stack(a, np.array([0.0]))
        assert failures == {}
        assert np.linalg.norm(a[0] @ r[0] + np.eye(15)) < 1e-10

    def test_resonant_enhancement(self):
        # narrow rates with a sizable detuning give weakly damped oscillatory
        # eigenmodes; probing at such an eigenfrequency peaks the response
        p = SystemParams(gamma1=0.1, gamma2=0.1, gamma3=0.1, gamma4=0.1,
                         gamma0=0.05, delta1=2.0, omega42=2.0, p1=0.3, p2=0.3)
        gen = build_generator(p)
        a, failures = drift_stack(np.stack([gen.real] * 2), np.stack([gen.rates] * 2))
        assert failures == {}
        evals = np.linalg.eigvals(a[0])
        osc = [ev for ev in evals if abs(ev.imag) > 0.5]
        ev = min(osc, key=lambda z: abs(z.real))
        r, failures = response_stack(
            a, np.array([-ev.imag, -ev.imag + 20 * abs(ev.real)]))
        assert failures == {}
        on, off = np.linalg.norm(r, axis=(1, 2))
        assert on > 1.5 * off

    @pytest.mark.parametrize("omega", [0.05, 0.5, 3.0])
    def test_mirrored_response_matches_inversion(self, omega):
        # the drift is real, so conj(R(omega)) is R(-omega), which the
        # transfer reads through the pairing instead of inverting it
        for p in reference_points(8):
            gen = build_generator(p)
            a, failures = drift_stack(gen.real[None], gen.rates[None])
            assert failures == {}
            r, failures = response_stack(a, np.array([omega]))
            assert failures == {}
            inverse, failures = response_stack(a, np.array([-omega]))
            assert failures == {}
            assert (np.max(np.abs(r[0].conj() - inverse[0]))
                    <= 1e-12 * np.max(np.abs(inverse[0])))

    def test_singular_refused(self):
        p = SystemParams(gamma0=0.0, p1=1, p2=1, delta1=-1.0)
        gen = build_generator(p)
        a, failures = drift_stack(gen.real[None], gen.rates[None])
        assert failures == {}
        _, failures = response_stack(a, np.array([0.0]))
        assert list(failures) == [0]
        assert isinstance(failures[0], ResponseError)


#: a rate: 0, subnormal or O(1); an alignment: +-1 or inside
RATES = st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(0, 2))
ALIGNMENTS = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1, 1))
#: the test's c in c n kappa_1 eps: an inverse by LU has a forward error
#: of order n kappa u, u = eps / 2 [Higham, Accuracy and Stability, 2nd
#: ed., sec. 14.1], so two such routes differ by about n kappa_1 eps; over
#: the 10,232 rows of a 20,000-point broad draw that both accept, the
#: largest difference was 0.07 of it
BLOCK_C = 1.0


class TestBorderedBlock:
    """R(0) read off the bordered inverse against the direct inverse."""

    @settings(max_examples=60, derandomize=True, deadline=None,
              database=None)
    @given(st.lists(st.builds(
        SystemParams, gamma1=RATES, gamma2=RATES, gamma3=RATES,
        gamma4=RATES, gamma0=RATES, gamma_phi=RATES, p1=ALIGNMENTS,
        p2=ALIGNMENTS, omega42=st.floats(0, 3), delta1=st.floats(-4, 4),
        g=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
        a1_mean=st.floats(0, 2), a2_mean=st.floats(0, 2)),
        min_size=1, max_size=8))
    # fig3 variant b's last point: its block fails the residual test
    # (1.02e-10), and the direct inverse passes it (5.7e-11)
    @example([amplitude_spec(SystemParams(), variant="b").param_stack()
              .point(200), SystemParams()])
    # a broad-draw point whose direct inverse fails the residual test
    # (1.01e-10) and whose block passes it (9.5e-11)
    @example([SystemParams(
        gamma1=0.0, gamma2=4.7078051921372146e-07,
        gamma3=2.6314112641475507e-263, gamma4=7.996246027303358e-11,
        gamma0=0.0001016799175656672, gamma_phi=7.39695892807712e-271,
        p1=1.0, p2=1.0, omega42=0.11915464243270579,
        delta1=-2.2405490008222664, g=0.019317506829584233,
        a1_mean=0.28214516242492915, a2_mean=1.8407839772115162)])
    def test_block_decides_as_the_inverse(self, points):
        h, r = coefficient_stack(ParamStack.of(points))
        real = real_generator_stack(h, r)
        *_, binv = steady_state_stack(real, h, r)
        a = drift_stack(real, r)[0]
        zeros = np.zeros(len(points))
        block, refused = response_stack(a, zeros, binv)
        direct, inverted = response_stack(a, zeros)
        # every outcome is the direct inverse's, save that a row it refuses
        # for its inversion residual alone may pass by its block
        for k in set(refused) | set(inverted):
            if k in refused:
                assert str(refused[k]) == str(inverted.get(k))
            else:
                assert str(inverted[k]).startswith(
                    "response inversion residual")
                assert np.linalg.norm(-a[k] @ block[k] - np.eye(15)) <= 1e-10
        both = [k for k in range(len(points)) if k not in refused | inverted]
        kappa1 = norm_1(a[both]) * norm_1(direct[both])
        scale = np.max(np.abs(direct[both]), axis=(1, 2))
        error = np.max(np.abs(block[both] - direct[both]), axis=(1, 2))
        assert np.all(error <= BLOCK_C * 15 * kappa1 * np.finfo(float).eps
                      * scale)


def response_svd_first(a, omegas):
    """Reference: response_stack as it was before the kappa_1 bracket, with
    the SVD condition number of every point taken before inverting."""
    eye = np.eye(a.shape[-1])
    iw = (1j * omegas)[:, None, None] * eye
    m = -iw - a if np.any(omegas) else -a  # real at omega = 0
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
    resid = np.linalg.norm(m[ok] @ r[ok] - eye, axis=(1, 2))
    for j in np.flatnonzero(resid > 1e-10):
        failures[int(ok[j])] = ResponseError(
            f"response inversion residual {resid[j]:.2e}")
    return r, failures


#: stack position of near_singular_drifts' exactly singular member
SINGULAR_AT = 20


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
        drifts.insert(SINGULAR_AT, a)
    return np.array(drifts)


def response_and_svd_rows(a, omegas, monkeypatch):
    """response_stack(a, omegas), and how many rows it sent to the SVD."""
    rows = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond",
                        lambda m: rows.append(len(m)) or cond(m))
    out = response_stack(a, omegas)
    monkeypatch.undo()
    return out, sum(rows)


class TestResponseBracket:
    """Refusing by the kappa_1 bracket refuses what the SVD refuses."""

    @pytest.mark.parametrize("singular", [False, True])
    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_same_refusals_and_messages_as_svd_first(self, omega, singular,
                                                     monkeypatch):
        a = near_singular_drifts(omega, singular)
        omegas = np.full(len(a), omega)
        (r, failures), svd_rows = response_and_svd_rows(
            a, omegas, monkeypatch)
        ref_r, ref_failures = response_svd_first(a, omegas)
        assert {k: str(e) for k, e in failures.items()} == \
            {k: str(e) for k, e in ref_failures.items()}
        m = -1j * omega * np.eye(15) - a
        refused = {k for k, e in failures.items() if "near-singular" in str(e)}
        assert refused == set(np.flatnonzero(np.linalg.cond(m) > 1e12))
        assert np.array_equal(r, ref_r)
        # refused, accepted and residual-failed points all occur
        assert refused and len(failures) < len(a)
        assert any("inversion residual" in str(e) for e in failures.values())
        # points in the band were accepted by the SVD, the rest without
        # one; an exactly singular member sends only itself to it
        assert len(failures) < svd_rows < len(a)
        if singular:
            regular = np.arange(len(a)) != SINGULAR_AT
            assert response_and_svd_rows(a[regular], omegas[regular],
                                         monkeypatch)[1] == svd_rows - 1


class TestCovarianceConsistency:
    def test_lyapunov_matches_direct(self, rng):
        # A Sigma + Sigma A^T + 2D = 0 must reproduce the ordered equal-time
        # covariance of the steady state (fields frozen)
        for _ in range(10):
            p = random_params(rng, with_fields=True)
            gen, state = prepare(p)
            a, _, d = linearized(gen, state, p)
            direct = equal_time_covariance(state)
            sigma = lyapunov_covariance(a, d)
            scale = max(np.max(np.abs(direct)), 1e-30)
            assert np.max(np.abs(sigma - direct)) / scale < 1e-6

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_quantum_regression(self, tau, rng):
        for _ in range(3):
            p = random_params(rng, with_fields=True)
            gen, state = prepare(p)
            a = linearized(gen, state, p)[0]
            sigma = equal_time_covariance(state)
            analytic = expm(a * tau) @ sigma
            oracle16 = regression_covariance(gen, state, tau)
            oracle15 = FRAME @ oracle16 @ FRAME.T
            scale = max(np.max(np.abs(oracle15)), 1e-30)
            assert np.max(np.abs(analytic - oracle15)) / scale < 1e-6
