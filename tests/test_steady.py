import numpy as np
import pytest

from doublelambda import BASIS, SystemParams
from doublelambda.atom import build_generator
from doublelambda.steady import (observables, solve_steady_state,
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


class TestObservables:
    def test_no_coupling_no_absorption(self):
        p = SystemParams(g=0.0, gamma0=0.2)
        obs = observables(solve(p), p)
        assert obs.alpha1 == pytest.approx(0.0, abs=1e-15)
        assert obs.alpha2 == pytest.approx(0.0, abs=1e-15)

    def test_absent_for_dark_field(self):
        p = SystemParams(a2_mean=0.0, delta1=0.3)
        obs = observables(solve(p), p)
        assert obs.alpha2 is None
        assert obs.alpha1 is not None

    def test_transparent_at_zero_ground_relaxation(self):
        p = SystemParams(gamma0=0.0, a1_mean=2.0, a2_mean=2.0, delta1=-1.0)
        obs = observables(solve(p), p)
        assert abs(obs.alpha1) < 1e-12
        assert abs(obs.alpha2) < 1e-12

    def test_two_level_reduction_matches_closed_form(self):
        # decouple level 4 (far detuned, still decaying) and park half the
        # population in level 3; levels 1-2 then form a driven two-level atom
        # whose absorption is the saturated Lorentzian
        for delta2, amp in [(0.0, 0.01), (0.0, 1.5), (1.0, 0.8), (-2.0, 2.0)]:
            p = SystemParams(gamma1=1.0, gamma2=1.0, gamma3=0.0, gamma4=0.0,
                             gamma0=1e-3, p1=0, p2=0, omega42=50.0,
                             delta1=delta2 - 50.0, a1_mean=amp, a2_mean=0.0)
            st = solve(p)
            obs = observables(st, p)
            # closed form: rho22 = W^2/(g2^2+d^2+2W^2) per unit ground pop,
            # Im(s1) = g*a*gamma2*w/(gamma2^2+d^2) with w the 1-2 inversion
            frac = st.populations[0] + st.populations[1]  # rest sits in 3
            g, gam = p.g, p.gamma2
            w = frac * (gam**2 + delta2**2) / (gam**2 + delta2**2
                                               + 2 * (g * amp)**2)
            alpha_pred = 2 * p.chi1 * g * gam * w / (gam**2 + delta2**2)
            assert obs.alpha1 == pytest.approx(alpha_pred, rel=2e-3)


def test_integrate_to_steady_preserves_result(defaults):
    gen = build_generator(defaults)
    rho = _integrate_to_steady(gen.matrix, np.diag([0.5, 0, 0.5, 0]).astype(complex))
    assert np.linalg.norm(gen.matrix @ rho.reshape(16)) < 1e-9
