import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublelambda import BASIS, SystemParams, atom, steady
from doublelambda.atom import (build_generator, coefficient_stack,
                               real_generator_stack)
from doublelambda.experiments import (SWEEP_SELECTORS, compute_point,
                                      dephasing_spec)
from doublelambda.params import ParamStack
from doublelambda.steady import (absorption, solve_steady_state,
                                 _integrate_to_steady)
from conftest import random_params


def solve(params, method="auto"):
    return solve_steady_state(build_generator(params), params, method=method)


class TestSolve:
    def test_no_drive_exchange_equalizes(self):
        st = solve(SystemParams(g=0.0, gamma0=0.5))
        assert np.allclose(st.populations, [0.5, 0, 0.5, 0], atol=1e-12)

    def test_cpt_trapping_off_midpoint(self):
        # strong symmetric drive without decay interference: upper levels empty
        p = SystemParams(p1=0, p2=0, delta1=0.5, a1_mean=3.0, a2_mean=3.0)
        st = solve(p)
        assert st.populations[1] < 0.01
        assert st.populations[3] < 0.01

    def test_reference_midpoint_populations(self):
        # the frozen coupling constant reproduces the anchor populations
        st = solve(SystemParams(delta1=-1.0))
        assert st.populations[0] == pytest.approx(0.436, abs=0.002)
        assert st.populations[1] == pytest.approx(0.064, abs=0.002)

    def test_state_invariants(self, rng):
        for _ in range(30):
            st = solve(random_params(rng, with_fields=True))
            rho = st.rho
            assert abs(np.trace(rho) - 1) < 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-10
            pair = st.expectations[BASIS.pair]
            assert np.max(np.abs(st.expectations - pair.conj())) < 1e-10

    def test_methods_agree(self, rng):
        for _ in range(10):
            p = random_params(rng, with_fields=True)
            a = solve(p, method="null-space")
            b = solve(p, method="long-time-integration")
            assert np.max(np.abs(a.expectations - b.expectations)) < 1e-8

    def test_degenerate_falls_back(self):
        # perfect alignment with no lower-level relaxation leaves a dark
        # subspace: the null space is degenerate
        p = SystemParams(gamma0=0.0, p1=1, p2=1, delta1=-1.0)
        st = solve(p)
        assert st.method == "long-time-integration"

    def test_reflection_symmetry(self, rng):
        # swap 1<->3, 2<->4 with equal rates/amplitudes at the midpoint
        for _ in range(5):
            gam = rng.uniform(0.3, 1.5)
            om = rng.uniform(0.5, 3)
            p = SystemParams(gamma1=gam, gamma2=gam, gamma3=gam, gamma4=gam,
                             gamma0=rng.uniform(0.001, 0.5),
                             p1=rng.uniform(-1, 1), p2=rng.uniform(-1, 1),
                             omega42=om, delta1=-om / 2, g=rng.uniform(0.1, 0.5))
            p = p.replace(p2=p.p1)
            st = solve(p)
            pops = st.populations
            assert pops[0] == pytest.approx(pops[2], abs=1e-8)
            assert pops[1] == pytest.approx(pops[3], abs=1e-8)

    def test_midpoint_population_sum(self):
        st = solve(SystemParams(delta1=-1.0))
        assert st.populations[0] + st.populations[1] == pytest.approx(0.5, abs=1e-3)


def alphas(params):
    """alpha1, alpha2 of the solved steady state at params."""
    return absorption(solve(params).expectations, params)[2:]


class TestObservables:
    def test_no_coupling_no_absorption(self):
        alpha1, alpha2 = alphas(SystemParams(g=0.0, gamma0=0.2))
        assert alpha1 == pytest.approx(0.0, abs=1e-15)
        assert alpha2 == pytest.approx(0.0, abs=1e-15)

    def test_absent_for_dark_field(self):
        alpha1, alpha2 = alphas(SystemParams(a2_mean=0.0, delta1=0.3))
        assert np.isnan(alpha2)
        assert np.isfinite(alpha1)

    def test_transparent_at_zero_ground_relaxation(self):
        alpha1, alpha2 = alphas(SystemParams(gamma0=0.0, a1_mean=2.0,
                                             a2_mean=2.0, delta1=-1.0))
        assert abs(alpha1) < 1e-12
        assert abs(alpha2) < 1e-12

    def test_two_level_reduction_matches_closed_form(self):
        # decouple level 4 (far detuned, still decaying) and park half the
        # population in level 3; levels 1-2 then form a driven two-level atom
        # whose absorption is the saturated Lorentzian
        for delta2, amp in [(0.0, 0.01), (0.0, 1.5), (1.0, 0.8), (-2.0, 2.0)]:
            p = SystemParams(gamma1=1.0, gamma2=1.0, gamma3=0.0, gamma4=0.0,
                             gamma0=1e-3, p1=0, p2=0, omega42=50.0,
                             delta1=delta2 - 50.0, a1_mean=amp, a2_mean=0.0)
            st = solve(p)
            alpha1 = absorption(st.expectations, p)[2]
            # closed form: rho22 = W^2/(g2^2+d^2+2W^2) per unit ground pop,
            # Im(s1) = g*a*gamma2*w/(gamma2^2+d^2) with w the 1-2 inversion
            frac = st.populations[0] + st.populations[1]  # rest sits in 3
            g, gam = p.g, p.gamma2
            w = frac * (gam**2 + delta2**2) / (gam**2 + delta2**2
                                               + 2 * (g * amp)**2)
            alpha_pred = 2 * p.chi1 * g * gam * w / (gam**2 + delta2**2)
            assert alpha1 == pytest.approx(alpha_pred, rel=2e-3)


def test_integrate_to_steady_preserves_result(defaults):
    gen = build_generator(defaults)
    rho = _integrate_to_steady(gen.matrix, np.diag([0.5, 0, 0.5, 0]).astype(complex))
    assert np.linalg.norm(gen.matrix @ rho.reshape(16)) < 1e-9


def generators(ps):
    """(real generators, Hamiltonian coefficients, rate coefficients) of a
    ParamStack, as a sweep builds them: steady_state_stack's arguments."""
    h, r = coefficient_stack(ps)
    return real_generator_stack(h, r), h, r


def generators_of(points):
    return generators(ParamStack.of(points))


def certified(real):
    return steady._bordered_stack(real)[1]


def solve_stack(real, h, r, method="auto"):
    """steady_state_stack's states, methods and failures."""
    rhos, _, methods, failures, _ = steady.steady_state_stack(real, h, r, method)
    return rhos, methods, failures


def svd_route(real, h, r, method="auto"):
    """solve_stack as it was before the bordered solve: a bound of 0
    certifies nothing, so every point takes the SVD."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steady, "BORDERED_KAPPA_MAX", 0.0)
        return solve_stack(real, h, r, method)


NO_RATES = SystemParams(gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0,
                        gamma0=0.0)
#: nothing moves population: the bordered matrix has zero population rows
FROZEN = NO_RATES.replace(g=0.0)
#: fig4's first point, gamma0 = 0: dark, with a degenerate null space
FIG4_DARK = dephasing_spec(SystemParams()).param_stack().point(0)

#: rates, fields and detunings each from 0, as the invariants draw them
ANY_POINT = st.builds(
    SystemParams, gamma1=st.floats(0, 2), gamma2=st.floats(0, 2),
    gamma3=st.floats(0, 2), gamma4=st.floats(0, 2), gamma0=st.floats(0, 2),
    gamma_phi=st.floats(0, 1), p1=st.floats(-1, 1), p2=st.floats(-1, 1),
    omega42=st.floats(0, 3), delta1=st.floats(-4, 4), g=st.floats(0, 0.6),
    a1_mean=st.floats(0, 2), a2_mean=st.floats(0, 2))


class TestBorderedCertificate:
    """The bordered solve certifies only points whose null space the SVD
    finds one-dimensional; every other point keeps the SVD route."""

    @pytest.mark.parametrize("n0", [3e16, 3e19], ids=["n0", "n0x1000"])
    @pytest.mark.parametrize("selector", SWEEP_SELECTORS)
    def test_figure_grids(self, selector, n0):
        ps = SWEEP_SELECTORS[selector](SystemParams(n0=n0)).param_stack()
        real, h, r = generators(ps)
        methods = svd_route(real, h, r)[1]
        # exactly the points the SVD solves: fig4's dark point alone is not
        assert list(certified(real)) == [m == "null-space" for m in methods]
        assert methods.count("null-space") == len(ps) - (selector == "fig4")

    @settings(max_examples=50, derandomize=True, deadline=None,
              database=None)
    @given(st.lists(ANY_POINT, min_size=1, max_size=6))
    # a subnormal generator: the long-time integration keeps rho0
    @example([NO_RATES.replace(omega42=0.0, delta1=2.225073858507e-311,
                               g=0.0, a1_mean=0.0, a2_mean=0.0)])
    def test_certified_points_are_svd_null_space_points(self, points):
        real, h, r = generators_of(points)
        methods = svd_route(real, h, r)[1]
        for k in np.flatnonzero(certified(real)):
            assert methods[k] == "null-space"

    @pytest.mark.parametrize("method", ["auto", "null-space"])
    def test_refused_points_keep_the_svd_route(self, method):
        real, h, r = generators_of([FIG4_DARK, NO_RATES, SystemParams()])
        assert list(certified(real)) == [False, False, True]
        rhos, methods, failures = solve_stack(real, h, r, method)
        ref_rhos, ref_methods, ref_failures = svd_route(real, h, r, method)
        np.testing.assert_array_equal(rhos[:2], ref_rhos[:2])
        assert methods[:2] == ref_methods[:2]
        assert {k: str(e) for k, e in failures.items()} == \
            {k: str(e) for k, e in ref_failures.items()}
        if method == "auto":
            assert methods[:2] == ["long-time-integration"] * 2
            assert list(failures) == [1]
            # the integration's raw state has trace 1 - 0.62i
            assert str(failures[1]) == (
                "no dissipation (every rate is 0) and so no unique steady "
                "state: steady state trace deviates from 1 by 6.16e-01")
        else:
            assert list(failures) == [0, 1]
            assert str(failures[0]).startswith("null space degenerate "
                                               "(singular-value ratio ")
            assert str(failures[1]).startswith(
                "no dissipation (every rate is 0) and so no unique steady "
                "state: null space degenerate (singular-value ratio ")

    @pytest.mark.parametrize("method", ["auto", "null-space"])
    def test_singular_member_sends_only_itself_to_the_svd(self, method):
        real, h, r = generators_of([SystemParams(), FROZEN,
                                   SystemParams(delta1=0.5)])
        bordered = real.copy()
        bordered[:, steady.BORDERED_ROW] = steady.TRACE_ROW
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(bordered)  # the batch fails on FROZEN
        assert list(certified(real)) == [True, False, True]
        rhos, methods, failures = solve_stack(real, h, r, method)
        for k in range(len(real)):
            one = solve_stack(real[k:k + 1], h[k:k + 1], r[k:k + 1], method)
            np.testing.assert_array_equal(rhos[k], one[0][0])
            assert methods[k] == one[1][0]
            assert str(failures.get(k)) == str(one[2].get(0))
        assert methods[1] == ("long-time-integration" if method == "auto"
                              else "null-space")
        assert list(failures) == ([] if method == "auto" else [1])

    @settings(max_examples=20, derandomize=True, deadline=None,
              database=None)
    @given(st.builds(
        SystemParams, gamma1=st.floats(0, 2), gamma2=st.floats(0, 2),
        gamma3=st.just(0.0), gamma4=st.just(0.0), gamma0=st.just(0.0),
        gamma_phi=st.floats(0, 1), p1=st.floats(-1, 1), delta1=st.floats(
            -4, 4), g=st.floats(0, 0.6), a1_mean=st.floats(0, 2),
        a2_mean=st.just(0.0)))
    # a subnormal coupling: the uncertified inverse overflows, silently
    @example(SystemParams(gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0,
                          gamma0=0.0, gamma_phi=1.0, p1=0.0, delta1=0.0,
                          g=0.25, a1_mean=2.2250738585072014e-308,
                          a2_mean=0.0))
    @example(SystemParams(gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0,
                          gamma0=0.0, gamma_phi=1.0, p1=0.0, delta1=1.0,
                          g=5e-324, a1_mean=1.0, a2_mean=0.0))
    def test_two_decoupled_blocks_never_certified(self, params):
        # nothing reaches level 3 or leaves it: the population it holds and
        # the steady state of levels 1, 2, 4 span a two-dimensional null space
        real, h, r = generators_of([params])
        assert not certified(real).any()
        assert svd_route(real, h, r)[1] == ["long-time-integration"]

    def test_corrupted_row_refused_by_the_residual(self):
        real, h, r = generators_of([SystemParams()])
        # the equation of <sigma_33>, which the bordered solve replaces
        real[0, steady.BORDERED_ROW, 0] += 1e-3
        assert certified(real).all()
        _, methods, failures = solve_stack(real, h, r)
        assert methods == ["null-space"]
        assert str(failures[0]) == ("steady state residual 4.36e-04 exceeds "
                                    "1.0e-10")

    def test_non_hermitian_raw_state_refused(self, monkeypatch):
        # L = P - I, with P the projector onto vec(x) for a non-Hermitian x
        # of unit trace, has x as its null space; L has no coefficients, so
        # it stands in for the contraction, and no real generator, so a zero
        # one, which certifies nothing, sends it to the SVD.  The raw state
        # is checked: made Hermitian first, it would pass.  Only
        # "null-space" refuses it here: "auto" integrates such a state.
        x = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
        x[0, 2] = 0.3
        v = x.reshape(16)
        lmat = np.outer(v, v.conj()) / (v.conj() @ v) - np.eye(16)
        monkeypatch.setattr(atom, "liouvillian_stack",
                            lambda h, d: lmat[None])
        rhos, methods, failures = solve_stack(
            np.zeros((1, 16, 16)), np.zeros((1, 6)), np.ones((1, 11)),
            "null-space")
        assert methods == ["null-space"]
        assert str(failures[0]) == ("steady state not Hermitian, residual "
                                    "3.00e-01")
        assert np.linalg.eigvalsh(rhos[0]).min() >= -1e-10  # positive

    def test_complex_l_contracted_for_uncertified_rows_alone(self,
                                                            monkeypatch):
        # fig4's dark point alone is not certified: L is contracted for its
        # row, and equals build_generator's to the last bit
        built = build_generator(FIG4_DARK).matrix
        calls, contract = [], atom.liouvillian_stack
        monkeypatch.setattr(atom, "liouvillian_stack", lambda h, d: (
            calls.append(contract(h, d)) or calls[-1]))
        real, h, r = generators_of([SystemParams(), FIG4_DARK,
                                   SystemParams(delta1=0.5)])
        _, methods, failures = solve_stack(real, h, r)
        assert methods == ["null-space", "long-time-integration",
                           "null-space"] and failures == {}
        assert len(calls) == 1 and calls[0].shape == (1, 16, 16)
        assert np.array_equal(calls[0][0], built)
        # every row under long-time integration
        solve_stack(real, h, r, "long-time-integration")
        assert len(calls) == 2 and len(calls[1]) == 3

    def test_svd_state_failing_raw_checks_integrated(self):
        # valid, not certified, and its SVD state is 1.84e-10 from Hermitian
        # by rounding: "auto" integrates it, "null-space" refuses it
        params = SystemParams(gamma1=2.0**-24, gamma2=0.0, gamma3=0.0,
                              gamma4=1.5, gamma0=1.0, p1=0.0, p2=0.0,
                              omega42=0.0, delta1=2.0, g=0.0, a1_mean=0.0,
                              a2_mean=0.0)
        real, h, r = generators_of([params])
        assert not certified(real).any()
        rhos, methods, failures = solve_stack(real, h, r)
        assert (methods, failures) == (["long-time-integration"], {})
        np.testing.assert_allclose(rhos[0], np.diag([0.5, 0, 0.5, 0]),
                                   atol=1e-12)
        _, methods, failures = solve_stack(real, h, r, "null-space")
        assert methods == ["null-space"]
        assert str(failures[0]) == ("steady state not Hermitian, residual "
                                    "1.84e-10")


class TestNoDissipation:
    """With every rate 0, L = -i[H, .] keeps every function of H: the
    steady state is not unique."""

    def test_failure_names_the_missing_dissipation(self):
        row = compute_point(NO_RATES)
        assert row.error == (
            "SteadyStateError: no dissipation (every rate is 0) and so no "
            "unique steady state: steady state trace deviates from 1 by "
            "6.16e-01")
        with pytest.raises(steady.SteadyStateError, match="^no dissipation"):
            solve(NO_RATES)

    def test_undriven_point_stays_transparent(self):
        # g = 0: the unpolarized initial state is already stationary
        row = compute_point(FROZEN)
        assert row.error == ""
        assert row.method == "long-time-integration+dark-transparent"
        assert row.v12 == 4.0


#: two points of the broad draw (each rate 0, 10^U(-12, -3),
#: 10^U(-320, -100) or U(0, 2)): their rates are nonzero but so small that
#: the bordered solve does not certify them and their null space is
#: degenerate, so both go to long-time integration
NONCONVERGENT = SystemParams(
    gamma1=0.0, gamma2=2.532285238017663e-209, gamma3=9.445374540808267e-271,
    gamma4=7.36859637688493e-307, gamma0=5.1308867096103175e-231,
    gamma_phi=0.0, p1=-1.0, p2=1.0, omega42=0.8476153613734821,
    delta1=-3.32534801394612, g=0.005852996068371763, a1_mean=0.0,
    a2_mean=1.5788243217654139)
NON_HERMITIAN = SystemParams(
    gamma1=2.58848823243375e-216, gamma2=6.668409395038347e-272,
    gamma3=2.095778790613745e-189, gamma4=0.0,
    gamma0=2.4186253191518538e-182, gamma_phi=2.5328433864810803e-05,
    p1=1.0, p2=1.0, omega42=0.2292911954177148, delta1=-0.07033238483471393,
    g=322731.01088078687, a1_mean=1.3687775648264158,
    a2_mean=0.19464868139317493)


class TestLongTimeFailures:
    """The long-time route's two ways to fail, each by its message, in the
    stack, in a row and at one point."""

    def test_nonconvergent_integration_fails_its_row(self):
        message = ("long-time integration did not converge: residual "
                   "9.24e-03 (tolerance 1.0e-10)")
        real, h, r = generators_of([SystemParams(), NONCONVERGENT])
        assert certified(real).tolist() == [True, False]
        _, raw, methods, failures, _ = steady.steady_state_stack(real, h, r)
        assert methods == ["null-space", "long-time-integration"]
        assert {k: str(e) for k, e in failures.items()} == {1: message}
        # the handler leaves the initial state in its place
        assert np.array_equal(raw[1], steady.RHO_UNPOLARIZED)
        with pytest.raises(steady.SteadyStateError) as exc:
            _integrate_to_steady(build_generator(NONCONVERGENT).matrix,
                                 steady.RHO_UNPOLARIZED)
        assert str(exc.value) == message
        assert compute_point(NONCONVERGENT).error == \
            f"SteadyStateError: {message}"

    def test_non_hermitian_integrated_state_fails_its_row(self):
        # the integration settles (it returns), on a state 5.4e-6 from
        # Hermitian; the trace check before it passes
        message = "steady state not Hermitian, residual 5.42e-06"
        real, h, r = generators_of([NON_HERMITIAN])
        _, _, methods, failures, _ = steady.steady_state_stack(real, h, r)
        assert methods == ["long-time-integration"]
        assert {k: str(e) for k, e in failures.items()} == {0: message}
        with pytest.raises(steady.SteadyStateError) as exc:
            solve(NON_HERMITIAN)
        assert str(exc.value) == message
        row = compute_point(NON_HERMITIAN)
        assert (row.error, row.method) == (f"SteadyStateError: {message}", "")
