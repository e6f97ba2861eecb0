import numpy as np
import pytest
import scipy.linalg

from doublelambda import BASIS, SystemParams
from doublelambda.atom import (COHERENT_BASIS, DISSIPATOR_BASIS,
                               HAMILTONIAN_OPERATORS, HERMITIAN_GROUPS,
                               REAL_BASIS, _contract, build_generator,
                               build_rate_matrices, dark_state_analysis,
                               dissipative_activity_stack,
                               jump_amplitudes_on_state)
from doublelambda.fluctuations import FRAME, ROTATION
from doublelambda.params import (HERMITIAN_BASIS, HERMITIAN_FRAME,
                                hermitian_coordinates)
from conftest import (field_coefficients, fields_liouvillian, random_params,
                      rate_groups)


def hamiltonian(params, fields=None):
    """H / hbar contracted from coefficient_stack's coefficients."""
    h = field_coefficients(params, fields)
    return _contract(h[None], HAMILTONIAN_OPERATORS)[0]


class TestHamiltonian:
    def test_detuned_diagonal(self):
        # two-photon resonance keeps level 3 at zero; levels 2 and 4 sit at
        # -delta2 and -delta1
        p = SystemParams(g=0.0, delta1=-1.0, omega42=2.0)
        h = hamiltonian(p)
        assert np.allclose(np.diag(h), [0.0, -1.0, 0.0, 1.0])
        assert np.allclose(h, np.diag(np.diag(h)))

    def test_hermitian(self, rng):
        for _ in range(20):
            h = hamiltonian(random_params(rng, with_fields=True))
            assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_symmetric_midpoint(self):
        p = SystemParams(delta1=-1.0, omega42=2.0)
        h = hamiltonian(p)
        assert h[1, 1] == pytest.approx(-1.0)
        assert h[3, 3] == pytest.approx(1.0)

    def test_coupling_placement(self):
        p = SystemParams(a1_mean=0.7, a2_mean=0.3)
        h = hamiltonian(p)
        g = p.g
        assert h[3, 0] == pytest.approx(-g * 0.7)
        assert h[1, 0] == pytest.approx(-g * 0.7)
        assert h[3, 2] == pytest.approx(-g * 0.3)
        assert h[1, 2] == pytest.approx(-g * 0.3)
        assert h[2, 0] == 0 and h[0, 2] == 0  # no direct 1-3 coupling


class TestRateMatrices:
    def test_perfect_alignment_rank_one(self):
        rm = build_rate_matrices(SystemParams(gamma1=1, gamma2=1, p1=1))
        assert np.allclose(rm.gamma_to_1, [[2, 2], [2, 2]])
        assert sorted(np.round(np.linalg.eigvalsh(rm.gamma_to_1), 12)) == [0, 4]

    def test_no_interference(self):
        rm = build_rate_matrices(SystemParams(p1=0.0))
        assert np.allclose(rm.gamma_to_1, np.diag([2, 2]))

    def test_antiparallel(self):
        rm = build_rate_matrices(SystemParams(gamma1=1, gamma2=4, p1=-1))
        assert np.allclose(rm.gamma_to_1, [[2, -4], [-4, 8]])
        assert np.linalg.det(rm.gamma_to_1) == pytest.approx(0.0, abs=1e-12)

    def test_psd_for_valid_p(self, rng):
        for _ in range(50):
            p = random_params(rng)
            rm = build_rate_matrices(p)
            for gmat in (rm.gamma_to_1, rm.gamma_to_3):
                assert np.min(np.linalg.eigvalsh(gmat)) > -1e-12

    @pytest.mark.parametrize("pval", [1.0, -1.0])
    def test_rank_deficient_at_unit_alignment(self, pval):
        rm = build_rate_matrices(SystemParams(gamma1=0.7, gamma2=1.3, p1=pval))
        assert np.min(np.abs(np.linalg.eigvalsh(rm.gamma_to_1))) < 1e-12

    def test_unphysical_alignment_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(p1=1.2)


def direct_lindblad(h, channels, rho):
    """-i[H, rho] + sum_mn G_mn (L_m rho L_n^+ - {L_n^+ L_m, rho}/2), in 4x4."""
    out = -1j * (h @ rho - rho @ h)
    for ops, gmat in channels:
        for m, lm in enumerate(ops):
            for n, ln in enumerate(ops):
                lnd = ln.conj().T
                out += gmat[m, n] * (lm @ rho @ lnd
                                     - 0.5 * (lnd @ lm @ rho + rho @ lnd @ lm))
    return out


class TestGenerator:
    def test_matches_direct_lindblad_action(self, rng):
        for _ in range(60):
            p = random_params(rng, with_fields=True)
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = (x + x.conj().T) / 2
            channels = rate_groups(build_generator(p).rates)
            want = direct_lindblad(hamiltonian(p), channels, rho)
            got = (build_generator(p).matrix @ rho.reshape(16)).reshape(4, 4)
            assert np.max(np.abs(got - want)) < 1e-12
            # independent, non-conjugate field amplitudes
            fields = rng.normal(size=4) + 1j * rng.normal(size=4)
            want = direct_lindblad(hamiltonian(p, fields), channels, rho)
            got = (fields_liouvillian(p, fields) @ rho.reshape(16)).reshape(4, 4)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_trace_preservation(self):
        # L-dagger of the identity vanishes: the trace vector is a left null
        # vector of the adjoint drift
        rng = np.random.default_rng(7)
        for _ in range(200):
            gen = build_generator(random_params(rng, with_fields=True))
            ident = np.eye(4, dtype=complex)
            adjoint = gen.matrix.conj().T @ ident.reshape(16)
            assert np.linalg.norm(adjoint) < 1e-12

    def test_hermiticity_preservation(self, rng):
        for _ in range(20):
            gen = build_generator(random_params(rng, with_fields=True))
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            herm = (x + x.conj().T) / 2
            out = (gen.matrix @ herm.reshape(16)).reshape(4, 4)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_closed_system_spectrum_imaginary(self):
        p = SystemParams(gamma1=0, gamma2=0, gamma3=0, gamma4=0, gamma0=0)
        gen = build_generator(p)
        evals = np.linalg.eigvals(gen.matrix)
        assert np.max(np.abs(np.real(evals))) < 1e-12

    def test_level4_decay_bookkeeping(self, defaults):
        # total decay out of level 4 at the reference rates
        gen = build_generator(defaults)
        mu = BASIS.index(4, 4)
        assert gen.matrix[mu, mu] == pytest.approx(-4.0)


#: every COHERENT_BASIS and DISSIPATOR_BASIS entry, in coefficient order
ENTRIES = np.concatenate([COHERENT_BASIS, DISSIPATOR_BASIS])


def in_frame(table):
    """U^H T U for U = HERMITIAN_FRAME: T in real coordinates, if it
    preserves Hermiticity."""
    return HERMITIAN_FRAME.conj().T @ table @ HERMITIAN_FRAME


class TestRealTables:
    """The real generator's tables, once: what the per-point drift and
    bordered solve no longer check."""

    def test_each_group_is_real_in_the_frame(self):
        assert sorted(k for group in HERMITIAN_GROUPS for k in group) == \
            list(range(len(ENTRIES)))
        for group, table in zip(HERMITIAN_GROUPS, REAL_BASIS):
            product = in_frame(ENTRIES[list(group)].sum(0))
            assert np.max(np.abs(product.imag)) <= 1e-15
            assert np.array_equal(product.real, table)

    def test_an_unpaired_entry_is_complex(self):
        # one field entry, or one entry of a cross rate, alone does not
        # preserve Hermiticity: its frame table has an imaginary part
        for group in HERMITIAN_GROUPS:
            for k in group[:len(group) - 1]:
                assert np.max(np.abs(in_frame(ENTRIES[k]).imag)) > 0.1

    def test_rotation_is_orthogonal_and_gives_frame(self):
        assert np.max(np.abs(ROTATION @ ROTATION.T - np.eye(16))) <= 1e-15
        assert np.array_equal(ROTATION[4:], np.eye(16)[4:])
        assert np.array_equal(ROTATION[:, 4:], np.eye(16)[:, 4:])
        # the frame built directly from its three zero-sum rows
        before = np.concatenate([
            np.array([[1, -1, 0, 0] / np.sqrt(2.0),
                      [1, 1, -2, 0] / np.sqrt(6.0),
                      [1, 1, 1, -3] / np.sqrt(12.0)])
            @ HERMITIAN_BASIS[:4].reshape(4, 16),
            HERMITIAN_BASIS[4:].reshape(12, 16)])
        assert np.array_equal(FRAME, before)


class TestDarkState:
    def test_symmetric_amplitudes(self):
        d = dark_state_analysis(SystemParams(a1_mean=1, a2_mean=1))
        assert d.theta == pytest.approx(np.pi / 4)

    def test_phi_angle(self):
        # omega42/2 over sqrt(2 * (0.25 + 0.25)) = 1
        p = SystemParams(omega42=2.0, g=0.5, a1_mean=1.0, a2_mean=1.0)
        d = dark_state_analysis(p)
        assert np.tan(d.phi) == pytest.approx(1.0)
        assert d.phi == pytest.approx(np.pi / 4)

    def test_midpoint_interference_residual(self):
        d = dark_state_analysis(SystemParams(delta1=-1.0, omega42=2.0))
        assert d.interference_residuals[0] == pytest.approx(0.0, abs=1e-14)
        assert d.interference_residuals[1] == pytest.approx(0.0, abs=1e-14)

    def test_normalization(self, rng):
        for _ in range(20):
            d = dark_state_analysis(random_params(rng, with_fields=True))
            assert np.linalg.norm(d.phi0_amplitudes) == pytest.approx(1.0)
            assert np.linalg.norm(d.phi1_amplitudes) == pytest.approx(1.0)

    def test_no_drive_rejected(self):
        with pytest.raises(ValueError):
            dark_state_analysis(SystemParams(a1_mean=0.0, a2_mean=0.0))

    def test_doublet_state_is_jump_dark_at_unit_alignment(self):
        # with aligned dipoles, equal rates and amplitudes, the doublet-mixed
        # dark state is annihilated by both collective decay channels
        p = SystemParams(p1=1, p2=1, delta1=-1.0, omega42=2.0)
        d = dark_state_analysis(p)
        for vec in jump_amplitudes_on_state(p, d.phi1_amplitudes):
            assert np.linalg.norm(vec) < 1e-12

    def test_antiparallel_not_dark(self):
        p = SystemParams(p1=-1, p2=-1, delta1=-1.0)
        d = dark_state_analysis(p)
        norms = [np.linalg.norm(v)
                 for v in jump_amplitudes_on_state(p, d.phi1_amplitudes)]
        assert max(norms) > 0.1


class TestJumpRoot:
    """jump_amplitudes_on_state's eigh root against scipy.linalg.sqrtm."""

    @staticmethod
    def sqrtm_amplitudes(p, state):
        rm = build_rate_matrices(p)
        amps = np.array([state[3], state[1]])
        return [scipy.linalg.sqrtm(g.astype(complex)) @ amps
                for g in (rm.gamma_to_1, rm.gamma_to_3)]

    def check(self, p, rng, rtol):
        for _ in range(5):
            state = rng.normal(size=4) + 1j * rng.normal(size=4)
            got = jump_amplitudes_on_state(p, state)
            want = self.sqrtm_amplitudes(p, state)
            scale = np.linalg.norm(state) * np.sqrt(
                np.abs(build_generator(p).rates[:8]).max())
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= rtol * scale

    def test_reference_point(self, defaults, rng):
        self.check(defaults, rng, 1e-14)

    def test_random_draws(self, rng):
        for _ in range(20):
            self.check(random_params(rng), rng, 1e-13)

    def test_rank_deficient_draw(self, rng):
        # unit alignment: rounding leaves each rate matrix an eigenvalue
        # below 0, which the root clips; a root of a singular matrix moves
        # by sqrt(eps) under such a perturbation, so sqrtm agrees only to ~1e-8
        p = SystemParams(gamma1=0.1, gamma2=0.2, gamma3=0.1, gamma4=0.2,
                         p1=1.0, p2=-1.0)
        rm = build_rate_matrices(p)
        for gmat in (rm.gamma_to_1, rm.gamma_to_3):
            assert np.linalg.eigvalsh(gmat).min() < 0
        self.check(p, rng, 1e-7)
        # (level-4, level-2) amplitudes orthogonal to (sqrt(g1), sqrt(g2)):
        # the aligned channels to level 1 cancel
        null = np.array([0.0, -np.sqrt(0.1), 0.0, np.sqrt(0.2)])
        assert np.linalg.norm(jump_amplitudes_on_state(p, null)[0]) < 1e-15


def test_dissipative_activity_dark_vs_bright(defaults):
    dark = np.zeros((4, 4), dtype=complex)
    dark[0, 0] = 1.0  # level 1 only: no decay, no exchange target population
    rates = np.stack([build_generator(defaults).rates,
                      build_generator(SystemParams(gamma0=0.0)).rates])
    bright, quiet = dissipative_activity_stack(
        rates, hermitian_coordinates(np.stack([dark, dark])))
    # level 1 populated: exchange 1->3 fires
    assert bright > 0
    assert quiet < 1e-15
