from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from doublelambda import SystemParams
from doublelambda import fluctuations as fl
from doublelambda import propagation as pr
from doublelambda.atom import (build_generator, coefficient_stack,
                               real_generator_stack)
from doublelambda.experiments import (SWEEP_SELECTORS, amplitude_spec,
                                      detuning_spec)
from doublelambda.matfuncs import squarings
from doublelambda.oracle import rk4_covariance
from doublelambda.params import (SPEED_OF_LIGHT, ParamStack,
                                 hermitian_coordinates)
from doublelambda.propagation import (FIELD_PAIR, SELECTOR, SELF_CHECK_TOL,
                                      FieldCovariance, PropagationSetup,
                                      input_covariance, make_setup,
                                      propagate_covariance, propagate_stack)
from doublelambda.steady import solve_steady_state, steady_state_stack
from conftest import (linearized, pairing_residual, random_params,
                      thermal_covariance)


def pipeline(params, noise_model="einstein", **kw):
    gen = build_generator(params)
    state = solve_steady_state(gen, params)
    return make_setup(*linearized(gen, state, params, noise_model), params,
                      **kw)


def complex_van_loan(setup, opposite, c_in):
    """The complex 17 x 17 Van Loan route on C itself, from M and the
    M(-omega) of opposite, the point's own setup at -omega."""
    eye = np.eye(4)
    g = np.zeros((17, 17), dtype=complex)
    g[:16, :16] = np.kron(setup.m, eye) + np.kron(eye, opposite.m)
    g[:16, 16] = setup.nfield.reshape(16)
    e = expm(setup.cell_length * g)
    return (e[:16, :16] @ c_in.reshape(16) + e[:16, 16]).reshape(4, 4)


def boosted(setup, boost):
    """The same medium at omega = 0 with the transfer generator scaled by
    `boost`."""
    return replace(setup, m=setup.m * boost)


class TestTransferMatrix:
    def test_empty_medium(self):
        p = SystemParams(n0=0.0)
        setup = pipeline(p)
        assert np.max(np.abs(setup.m)) == 0.0
        assert np.max(np.abs(setup.nfield)) == 0.0

    def test_adjoint_pairing_at_zero_frequency(self, defaults):
        setup = pipeline(defaults)
        assert setup.m[1, 1] == pytest.approx(np.conj(setup.m[0, 0]))
        assert setup.m[3, 3] == pytest.approx(np.conj(setup.m[2, 2]))
        assert setup.m[0, 2] == pytest.approx(np.conj(setup.m[1, 3]))

    @pytest.mark.parametrize("omega, calls", [(0.0, 1), (0.5, 1)])
    def test_response_inversions_per_setup(self, defaults, omega, calls,
                                           monkeypatch):
        # R(-omega) = conj(R(omega)): one inversion at every frequency
        from doublelambda import fluctuations as fl
        gen = build_generator(defaults)
        lin = linearized(gen, solve_steady_state(gen, defaults), defaults)
        seen = []
        response = fl.response_stack
        monkeypatch.setattr(fl, "response_stack",
                            lambda *a: seen.append(1) or response(*a))
        make_setup(*lin, defaults, omega=omega)
        assert len(seen) == calls

    @pytest.mark.parametrize("omega", [np.nan, np.inf])
    def test_non_finite_frequency_refused_by_name(self, defaults, omega):
        gen = build_generator(defaults)
        lin = linearized(gen, solve_steady_state(gen, defaults), defaults)
        with pytest.raises(ValueError, match=f"omega={omega} is not finite"):
            make_setup(*lin, defaults, omega=omega)

    def test_no_cross_coupling_between_field_sectors(self):
        # without decay interference and with field 2 off, nothing routes a
        # field-2 fluctuation into the field-1 coherences: the transfer
        # generator block-diagonalizes
        p = SystemParams(p1=0, p2=0, a2_mean=0.0, gamma0=0.05, delta1=0.4)
        setup = pipeline(p)
        assert np.max(np.abs(setup.m[:2, 2:])) < 1e-12
        assert np.max(np.abs(setup.m[2:, :2])) < 1e-12
        assert np.max(np.abs(setup.nfield[:2, 2:])) < 1e-12
        assert np.max(np.abs(setup.nfield[2:, :2])) < 1e-12

    def test_inert_medium_passes_both_fields_through(self):
        # with the coupling off the medium is strictly inert for both field
        # sectors: the transfer generator and noise vanish identically and
        # any input covariance is returned unchanged.  (The shared-dipole
        # parameterization cannot switch off the 3-branch couplings alone, so
        # field 2 always retains a spontaneous-Raman pathway whenever the
        # upper levels are populated; exact pass-through needs the medium
        # fully dark or decoupled.)
        p = SystemParams(g=0.0, gamma0=0.2)
        setup = pipeline(p)
        assert np.max(np.abs(setup.m)) < 1e-14
        assert np.max(np.abs(setup.nfield)) < 1e-14
        cin = thermal_covariance(0.7)
        res = propagate_covariance(setup, cin)
        assert np.max(np.abs(res.covariance.c - cin.c)) < 1e-14


class TestInputCovariance:
    def test_vacuum(self):
        c = input_covariance().c
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[2, 3] = 1.0
        assert np.array_equal(c, expected)

    def test_nonvacuum_helper_keeps_the_commutator(self):
        # the non-vacuum input the propagation tests use: occupation nbar
        # in both modes, canonical commutators, paired
        c = thermal_covariance(2.0)
        assert c.c[1, 0] == 2.0 and c.c[3, 2] == 2.0
        assert c.commutator_blocks() == (1.0, 1.0)
        assert pairing_residual(c) == 0.0

    def test_frequency_is_the_only_argument(self):
        # the input is the vacuum at every frequency; no kind is chosen
        c = input_covariance(omega=0.5)
        assert c.omega == 0.5
        assert np.array_equal(c.c, input_covariance().c)
        with pytest.raises(TypeError):
            input_covariance("thermal")


class TestPropagation:
    def test_zero_length_identity(self, defaults):
        setup = replace(pipeline(defaults), cell_length=0.0)
        res = propagate_covariance(setup, input_covariance())
        assert np.array_equal(res.covariance.c, input_covariance().c)

    @pytest.mark.parametrize("noise_model", ["einstein", "vacuum-reservoir"])
    @pytest.mark.parametrize("omega", [0.0, 0.5, -0.5])
    def test_real_route_matches_complex_route(self, defaults, noise_model,
                                              omega):
        for p in (defaults, defaults.replace(n0=3e19)):
            setup = pipeline(p, noise_model=noise_model, omega=omega)
            opposite = pipeline(p, noise_model=noise_model, omega=-omega)
            for cin in (input_covariance(omega=omega),
                        thermal_covariance(0.4, omega=omega)):
                ref = complex_van_loan(setup, opposite, cin.c)
                c = propagate_covariance(setup, cin).covariance.c
                assert np.max(np.abs(c - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_corrupted_propagator_fails_self_check(self, defaults,
                                                   monkeypatch):
        def corrupted(x):
            e = expm(x)
            if x.shape[-1] == 8:  # the Van Loan slice, not the direct one
                e[..., 5, 6] += 1e-6 * np.max(np.abs(e))
            return e

        monkeypatch.setattr(pr, "expm", corrupted)
        res = propagate_covariance(pipeline(defaults), input_covariance())
        assert not res.converged
        assert res.residual > SELF_CHECK_TOL
        assert "propagator residual" in res.warnings[0]

    def test_trivial_generator_identity(self):
        setup = PropagationSetup(m=np.zeros((4, 4)), nfield=np.zeros((4, 4)),
                                 cell_length=0.06)
        cin = thermal_covariance(1.0)
        res = propagate_covariance(setup, cin)
        assert np.array_equal(res.covariance.c, cin.c)

    def test_closed_form_matches_rk4_oracle(self, defaults, rng):
        points = [defaults] + [random_params(rng, with_fields=True)
                               for _ in range(8)]
        for p in points:
            for noise_model in ("einstein", "vacuum-reservoir"):
                for omega in (0.0, 0.5):
                    setup = pipeline(p, noise_model=noise_model, omega=omega)
                    # M(-omega) from its own inversion, not the pairing
                    opposite = pipeline(p, noise_model=noise_model,
                                        omega=-omega)
                    cin = input_covariance(omega=omega)
                    closed = propagate_covariance(setup, cin).covariance.c
                    for slabs in (200, 400):
                        rk4 = rk4_covariance(setup, cin, slabs, opposite)
                        assert np.max(np.abs(closed - rk4)) <= 1e-10, (
                            p, noise_model, omega, slabs)

    def test_semigroup_over_half_cells(self, defaults):
        setup = pipeline(defaults, omega=0.5)
        half = replace(setup, cell_length=setup.cell_length / 2)
        cin = thermal_covariance(0.3, omega=0.5)
        full = propagate_covariance(setup, cin).covariance
        mid = propagate_covariance(half, cin).covariance
        twice = propagate_covariance(half, mid).covariance
        assert np.max(np.abs(twice.c - full.c)) <= 1e-12

    def test_convergence_metadata(self, defaults):
        res = propagate_covariance(pipeline(defaults), input_covariance())
        assert res.converged
        assert res.residual < SELF_CHECK_TOL
        assert res.slabs == 0
        assert res.warnings == ()

    def test_boosted_generator_stays_exact(self, defaults):
        # a generator far too stiff for one RK4 slab is still solved exactly
        strong = boosted(pipeline(defaults), 2e6)
        res = propagate_covariance(strong, input_covariance())
        assert res.converged and res.warnings == ()
        rk4 = rk4_covariance(strong, input_covariance(), slabs=4000)
        assert np.max(np.abs(res.covariance.c - rk4)) < 1e-12

    def test_self_check_flags_overflowing_gain(self):
        # away from the doublet midpoint the medium has Raman gain; boosted,
        # exp(L M) overflows and the point must fail, not return a bare NaN
        setup = boosted(pipeline(SystemParams(delta1=0.0)), 1e8)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="overflow") as err:
            propagate_covariance(setup, input_covariance())
        assert "gain exponent max Re eig(M)·L" in str(err.value)

    def test_commutator_preserved_at_defaults(self, defaults):
        res = propagate_covariance(pipeline(defaults), input_covariance())
        c1, c2 = res.covariance.commutator_blocks()
        assert c1 == pytest.approx(1.0, abs=1e-6)
        assert c2 == pytest.approx(1.0, abs=1e-6)

    def test_commutator_preserved_random(self, rng):
        for _ in range(8):
            p = random_params(rng, with_fields=True)
            res = propagate_covariance(pipeline(p), input_covariance())
            c1, c2 = res.covariance.commutator_blocks()
            assert abs(c1 - 1.0) < 1e-6
            assert abs(c2 - 1.0) < 1e-6

    def test_commutator_blocks_only_at_zero_frequency(self, defaults):
        # at omega != 0 the commutator pairs C01(omega) with C10(-omega);
        # the same-omega difference is not it, so the blocks are refused
        covs = {w: propagate_covariance(pipeline(defaults, omega=w),
                                        input_covariance(omega=w)).covariance
                for w in (0.5, -0.5)}
        with pytest.raises(ValueError, match=r"C01\(omega\) - C10\(-omega\)"):
            covs[0.5].commutator_blocks()
        for i, j in ((0, 1), (2, 3)):
            assert covs[0.5].c[i, j] - covs[-0.5].c[j, i] == pytest.approx(
                1.0, abs=1e-6)
        assert input_covariance().commutator_blocks() == (1.0, 1.0)

    def test_hermitian_pairing_of_output(self, rng):
        for _ in range(5):
            p = random_params(rng, with_fields=True)
            res = propagate_covariance(pipeline(p), input_covariance())
            assert pairing_residual(res.covariance) < 1e-8

    def test_finite_sideband_smoke(self, defaults):
        setup = pipeline(defaults, omega=0.5)
        res = propagate_covariance(setup, input_covariance(omega=0.5))
        assert np.all(np.isfinite(res.covariance.c))
        assert pairing_residual(res.covariance) < 1e-8

    def test_output_paired_by_construction(self, defaults):
        for omega in (0.0, 0.5):
            res = propagate_covariance(pipeline(defaults, omega=omega),
                                       input_covariance(omega=omega))
            assert pairing_residual(res.covariance) == 0.0

    def test_invalid_slab_count(self, defaults):
        with pytest.raises(ValueError):
            rk4_covariance(pipeline(defaults), input_covariance(), slabs=0)


def halvings_seen(monkeypatch):
    """The halvings s of every propagate_stack call, as they are chosen."""
    seen = []
    monkeypatch.setattr(pr, "squarings",
                        lambda *a: seen.append(squarings(*a)) or seen[-1])
    return seen


def stacked(setups, c_in):
    return propagate_stack(np.stack([s.m for s in setups]),
                           np.stack([s.nfield for s in setups]),
                           np.array([s.cell_length for s in setups]), c_in)


class TestDoubling:
    """Thick media: the cell is halved into a Van Loan slice and the slice's
    propagator and noise integral are doubled back to it."""

    @pytest.mark.parametrize("noise_model", ["einstein", "vacuum-reservoir"])
    def test_thick_fig2_matches_complex_route(self, defaults, noise_model,
                                              monkeypatch):
        # every 10th fig2 point at n0 x 1e6 needs 5 to 7 halvings
        spec = detuning_spec(defaults.replace(n0=defaults.n0 * 1e6))
        setups = [pipeline(spec.base.replace(delta1=float(d)), noise_model)
                  for d in spec.grid[::10]]
        halvings = halvings_seen(monkeypatch)
        cin = input_covariance().c
        got = [propagate_covariance(s, input_covariance()) for s in setups]
        assert all(h.tolist() in ([5], [6], [7]) for h in halvings)
        assert len(halvings) == len(setups)
        assert all(r.converged for r in got)
        got = np.array([r.covariance.c for r in got])
        ref = np.array([complex_van_loan(s, s, cin) for s in setups])
        # measured: 1.5e-14 (einstein) and 1.1e-14 of each entry's maximum
        column = np.max(np.abs(ref), axis=0)
        assert np.all(np.max(np.abs(got - ref), axis=0) <= 1e-12 * column)

    def test_mixed_halvings_match_each_row_alone(self, defaults,
                                                 monkeypatch):
        thin = [pipeline(defaults), pipeline(defaults, omega=0.5)]
        thick = [pipeline(defaults.replace(n0=defaults.n0 * 1e6,
                                           delta1=d)) for d in (-1.0, 3.9)]
        setups = [thin[0], thick[0], thin[1], thick[1]]
        halvings = halvings_seen(monkeypatch)
        cin = input_covariance().c
        c_out, residual, converged, failures = stacked(setups, cin)
        assert failures == {} and converged.all()
        assert halvings[0].tolist() == [0, 2, 0, 7]
        for k, setup in enumerate(setups):
            alone = stacked([setup], cin)
            assert np.array_equal(c_out[k], alone[0][0])
            assert residual[k] == alone[1][0]


def break_nfield(setup):
    nfield = setup.nfield.copy()
    nfield[0, 0] += 1e-6 * np.max(np.abs(setup.nfield))
    return replace(setup, nfield=nfield), input_covariance(omega=0.5)


def break_input(setup):
    # (C Pi)[0, 1] = C[0, 0] must be conj((C Pi)[1, 0]) = conj(C[1, 1])
    c = input_covariance(omega=0.5).c.copy()
    c[0, 0] = 0.3
    return setup, FieldCovariance(c=c, omega=0.5)


class TestPairingGuards:
    """The real route reads only M; a setup or input that breaks the adjoint
    pairing it relies on is refused, not propagated."""

    @pytest.mark.parametrize("breaker, name", [
        (break_nfield, "nfield Pi is not Hermitian"),
        (break_input, "input C Pi is not Hermitian")])
    def test_broken_pairing_raises(self, defaults, breaker, name):
        setup, cin = breaker(pipeline(defaults, omega=0.5))
        with pytest.raises(ValueError, match=name + ": pairing residual"):
            propagate_covariance(setup, cin)

    @pytest.mark.parametrize("breaker", [break_nfield, break_input])
    def test_stack_fails_only_the_broken_point(self, defaults, breaker):
        good = pipeline(defaults, omega=0.5)
        bad, cin_bad = breaker(good)
        cin = input_covariance(omega=0.5).c
        setups = (good, bad, good)
        c_out, _, converged, failures = stacked(
            setups, np.stack([cin, cin_bad.c, cin]))
        assert list(failures) == [1]
        assert isinstance(failures[1], ValueError)
        assert converged[0] and converged[2]
        assert np.array_equal(c_out[0], c_out[2])

    @pytest.mark.parametrize("cin", [input_covariance(),
                                     thermal_covariance(0.7)])
    def test_vacuum_and_thermal_inputs_pass(self, defaults, cin):
        assert propagate_covariance(pipeline(defaults), cin).converged


def transfer_both_ways(ps, omega, noise_model):
    """(M, Nfield) at omega and at -omega, each from its own transfer_stack
    call and so its own response inversion, and the old Nfield route that
    inverted R(-omega) for itself, on the points of ps that every stage
    keeps."""
    h, r = coefficient_stack(ps)
    real = real_generator_stack(h, r)
    rho, _, _, failed, _ = steady_state_stack(real, h, r)
    a, more = fl.drift_stack(real, r)
    keep = [k for k in range(len(ps)) if k not in failed | more]
    ps, a, r = ps[keep], a[keep], r[keep]
    x = hermitian_coordinates(rho[keep])
    b = fl.field_coupling_stack(ps.g, x)
    d = fl.diffusion_stack(noise_model, r, x)
    chi = np.stack([ps.chi1, ps.chi2], 1)
    out = [pr.transfer_stack(a, b, d, chi, ps.cell_length,
                             fl.noise_scale(ps), np.arange(len(ps)),
                             np.full(len(ps), w))
           for w in (omega, -omega)]
    r_minus, refused = fl.response_stack(a, np.full(len(ps), -omega))
    ks = (chi[:, [0, 0, 1, 1]] * [1j, -1j, 1j, -1j])[:, :, None] * SELECTOR
    injection = SPEED_OF_LIGHT / ps.cell_length * fl.noise_scale(ps)
    ksr_plus = ks @ fl.response_stack(a, np.full(len(ps), omega))[0]
    old = (injection[:, None, None] * ksr_plus @ (2.0 * d)
           @ (ks @ r_minus).transpose(0, 2, 1))
    ok = [k for k in range(len(ps))
          if k not in out[0][2] | out[1][2] | refused]
    return [(m[ok], n[ok]) for m, n, _ in out], old[ok]


def relative_to_each(x, ref):
    """Max |x - ref| of each point, relative to the max |ref| of that point."""
    return (np.max(np.abs(x - ref), axis=(1, 2))
            / np.max(np.abs(ref), axis=(1, 2)))


class TestPairingByTables:
    """The transfer reads K S R(-omega) as Pi conj(K S R(omega)), and the
    propagation reads M(-omega) as Pi conj(M(omega)) Pi.  The drift is real
    and the fixed tables make the pairing exact, so no point checks it."""

    def test_tables_are_paired_exactly(self, defaults):
        assert np.array_equal(SELECTOR.conj()[FIELD_PAIR], SELECTOR)
        field = fl.FIELD_TABLE.view(complex).reshape(16, 15, 4)
        assert np.array_equal(field.conj()[..., FIELD_PAIR], field)
        for p in (defaults, defaults.replace(n0=3e24, g=37.5)):
            k = np.array([p.chi1, p.chi1, p.chi2, p.chi2]) * pr.FIELD_PHASES
            assert np.array_equal(k.conj()[FIELD_PAIR], k)
            ks = k[:, None] * SELECTOR
            assert np.array_equal(ks.conj()[FIELD_PAIR], ks)

    @pytest.mark.parametrize("omega", [0.5, -1.7, 3.0])
    @pytest.mark.parametrize("noise_model", ["einstein", "vacuum-reservoir"])
    def test_opposite_setup_is_the_pairing(self, defaults, omega,
                                           noise_model):
        # every figure grid and 50 draws, M(-omega) from its own inversion
        # against the pairing and Nfield against the route that inverted
        # R(-omega) for itself; measured: equal to the bit on every point
        rng = np.random.default_rng(35)
        grids = [spec(defaults).param_stack()
                 for spec in SWEEP_SELECTORS.values()]
        grids.append(amplitude_spec(defaults, variant="b").param_stack())
        grids.append(ParamStack.of([random_params(rng, with_fields=True)
                                    for _ in range(50)]))
        seen = 0
        for ps in grids:
            ((m, n), (m_opp, _)), old = transfer_both_ways(
                ps, omega, noise_model)
            mirror = np.ix_(range(len(m)), FIELD_PAIR, FIELD_PAIR)
            assert np.all(relative_to_each(m.conj()[mirror], m_opp) <= 1e-12)
            assert np.all(relative_to_each(n, old) <= 1e-12)
            seen += len(m)
        assert seen >= 5 * 201


def point_inputs(points):
    """transfer_stack's per-point arguments (a, b, d, chi, lengths, noise)
    and the bordered inverses of points, whose steady states and drifts
    must pass."""
    ps = ParamStack.of(points)
    h, r = coefficient_stack(ps)
    real = real_generator_stack(h, r)
    rho, _, _, failed, binv = steady_state_stack(real, h, r)
    a, more = fl.drift_stack(real, r)
    assert failed == more == {}
    x = hermitian_coordinates(rho)
    return (a, fl.field_coupling_stack(ps.g, x),
            fl.diffusion_stack("einstein", r, x),
            np.stack([ps.chi1, ps.chi2], 1), ps.cell_length,
            fl.noise_scale(ps)), binv


class TestOwnerIndex:
    """transfer_stack reads each row's point through its owner index and
    splits the rows once: at omega = 0, modal, inverted."""

    def test_each_row_is_its_own_call(self, defaults):
        # four points, the last the reference point with its drift replaced
        # by one with eigenvalues +-1.5i: its rows at omega = 1.5 are
        # singular and its block, of the reference point, fails; owners
        # shuffled and repeated, rows at 0 and a non-finite frequency among
        # them
        points = [defaults, defaults.replace(delta1=0.3),
                  defaults.replace(n0=3e19), defaults]
        (a, *rest), binv = point_inputs(points)
        a[3] = -np.eye(15)
        a[3, :2, :2] = [[0.0, 1.5], [-1.5, 0.0]]
        modes = fl.modal_stack(a)
        owner = np.array([2, 0, 3, 1, 0, 2, 3, 3, 1, 0, 2, 0, 1, 3])
        omegas = np.array([0.0, 0.5, 1.5, 0.0, 0.0, -1.7, 0.0, 0.5, 3.0,
                           np.nan, 0.5, -1.7, 0.0, 1.5])
        zero, routes = np.flatnonzero(omegas == 0), {}
        for blocks in (None, binv):
            for decomposed in (None, modes):
                m, nfield, failures = pr.transfer_stack(
                    a, *rest, owner, omegas, binv=blocks, modes=decomposed)
                assert sorted(failures) == [2, 9, 13]
                routes[decomposed is None] = m
                for i, j in enumerate(owner):
                    one = pr.transfer_stack(
                        a[j:j + 1], *(x[j:j + 1] for x in rest),
                        np.zeros(1, dtype=int), omegas[i:i + 1],
                        binv=None if blocks is None else blocks[j:j + 1],
                        modes=None if decomposed is None else fl.Modes(
                            *(x[j:j + 1] for x in decomposed)))
                    assert np.array_equal(m[i], one[0][0], equal_nan=True)
                    assert np.array_equal(nfield[i], one[1][0],
                                          equal_nan=True)
                    assert str(failures.get(i)) == str(one[2].get(0))
                # rows at 0: K times the real S R(0), in any stack
                j = owner[zero]
                r0, refused = fl.response_stack(
                    a[j], omegas[zero], None if blocks is None else blocks[j])
                assert refused == {} and r0.dtype == np.float64
                k = (rest[2][j][:, [0, 0, 1, 1]] * pr.FIELD_PHASES)[..., None]
                assert np.array_equal(m[zero],
                                      k * (SELECTOR @ r0) @ rest[0][j])
        # the modal rows are seen: they differ from the inverted ones
        assert not np.array_equal(routes[False][1], routes[True][1])
        assert "omega=nan is not finite" in str(failures[9])
        assert "near-singular at omega=1.5" in str(failures[2])
