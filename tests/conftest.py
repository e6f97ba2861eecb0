from dataclasses import dataclass

import numpy as np
import pytest

from doublelambda import SystemParams
from doublelambda import fluctuations as fl
from doublelambda.params import hermitian_coordinates
from doublelambda.propagation import FIELD_PAIR, FieldCovariance
from doublelambda.atom import (JUMP_GROUPS, coefficient_stack,
                               dissipator_stack, liouvillian_stack)


def random_params(rng, with_fields=False) -> SystemParams:
    """Random physically-valid parameter draw for property suites."""
    kw = dict(
        gamma1=rng.uniform(0.1, 2), gamma2=rng.uniform(0.1, 2),
        gamma3=rng.uniform(0.1, 2), gamma4=rng.uniform(0.1, 2),
        gamma0=rng.uniform(0.1, 2),
        p1=rng.uniform(-1, 1), p2=rng.uniform(-1, 1),
        omega42=rng.uniform(0.5, 3), delta1=rng.uniform(-4, 4),
        g=rng.uniform(0.1, 0.6),
    )
    if with_fields:
        kw["a1_mean"] = rng.uniform(0.5, 2)
        kw["a2_mean"] = rng.uniform(0.5, 2)
    return SystemParams(**kw)


def thermal_covariance(nbar, omega=0.0) -> FieldCovariance:
    """A non-vacuum input: both modes thermally occupied with nbar quanta,
    so C_21 = C_43 = nbar and C_12 = C_34 = 1 + nbar."""
    c = np.zeros((4, 4), dtype=complex)
    c[1, 0] = c[3, 2] = nbar
    c[0, 1] = c[2, 3] = 1.0 + nbar
    return FieldCovariance(c=c, omega=omega)


def pairing_residual(cov: FieldCovariance) -> float:
    """Max deviation of a covariance from C_ij = conj(C_[jbar, ibar]); a
    propagated covariance is paired by construction (see propagate_stack)."""
    paired = cov.c[np.ix_(FIELD_PAIR, FIELD_PAIR)].T.conj()
    return float(np.max(np.abs(cov.c - paired)))


def linearized(gen, state, params, noise_model="einstein"):
    """Drift A, field-coupling columns B and diffusion D of one solved
    point, from the stack kernels; asserts that the drift did not fail."""
    a, failures = fl.drift_stack(gen.real[None], gen.rates[None])
    x = hermitian_coordinates(state.rho[None])
    d = fl.diffusion_stack(noise_model, gen.rates[None], x)
    assert failures == {}, failures
    b = fl.field_coupling_stack(np.array([params.g]), x)
    return a[0], b[0], d[0]


def full_generator_diffusion(lmats, rhos):
    """(P, 15, 15) D in FRAME from the Einstein relation under whole
    generators lmats, Hamiltonian part included: the route diffusion_stack
    took before it read the rates alone."""
    d_full = fl._einstein_diffusion(lmats, fl._state_products(rhos))
    return fl.FRAME @ d_full @ fl.FRAME.T


def rate_groups(rates):
    """(jump operators, rate matrix) of each JUMP_GROUPS entry, with the
    matrix read from the flat rate entries (gen.rates order)."""
    groups = []
    for ops in JUMP_GROUPS:
        n = len(ops)
        groups.append((ops, rates[:n * n].reshape(n, n)))
        rates = rates[n * n:]
    return groups


def field_coefficients(params, fields=None):
    """coefficient_stack's Hamiltonian coefficients (delta1, delta2, g a1,
    g a1+, g a2, g a2+), with the four field amplitudes replaced by
    independent c-numbers when `fields` is given."""
    h, _ = coefficient_stack(params)
    if fields is None:
        return h
    return np.concatenate([h[:2], params.g * np.asarray(fields)])


def fields_liouvillian(params, fields):
    """The Liouvillian matrix with the fields frozen at arbitrary c-numbers:
    the master equation is linear in each field amplitude, so this is the
    exact mean-field evolution map."""
    h = field_coefficients(params, fields)
    rates = coefficient_stack(params)[1]
    return liouvillian_stack(h[None], dissipator_stack(rates[None]))[0]


# -- dark-state physics that only the tests read ------------------------------

@dataclass(frozen=True)
class RateMatrices:
    """Correlated decay-rate matrices and lower-level incoherent rates.

    gamma_to_1 / gamma_to_3 act on the channel pairs (4->f, 2->f); diagonals
    are the full rates (2*gamma_i), off-diagonals the interference cross
    rates 2*p*sqrt(gamma_a*gamma_b).
    """

    gamma_to_1: np.ndarray
    gamma_to_3: np.ndarray
    exchange_rate: float   # full rate 2*gamma0, each direction 1<->3
    dephasing_rate: float  # gamma_phi on the 1-3 coherence


def build_rate_matrices(params: SystemParams) -> RateMatrices:
    """Assemble the 2x2 decay-rate matrices for the two final states."""
    # |p| <= 1 is enforced by SystemParams; an indefinite rate matrix would
    # not define a physical dissipator.
    r = coefficient_stack(params)[1]
    return RateMatrices(gamma_to_1=r[:4].reshape(2, 2),
                        gamma_to_3=r[4:8].reshape(2, 2),
                        exchange_rate=r[8], dephasing_rate=params.gamma_phi)


@dataclass(frozen=True)
class DarkStateAnalysis:
    """Mixing angles and dark-state amplitudes of the driven system."""

    theta: float
    phi: float
    phi0_amplitudes: np.ndarray   # cos(theta)|1> - sin(theta)|3>
    phi1_amplitudes: np.ndarray   # doublet-mixed dark state
    interference_residuals: tuple[float, float]


def dark_state_analysis(params: SystemParams) -> DarkStateAnalysis:
    """Angles, dark-state amplitudes, and the interference-condition residuals.

    With equal dipole magnitudes, both residuals reduce to delta1 + delta2;
    they vanish exactly at the doublet midpoint delta1 = -omega42/2.
    """
    r1 = params.g * params.a1_mean
    r2 = params.g * params.a2_mean
    if r1 == 0 and r2 == 0:
        raise ValueError("both drive amplitudes vanish: mixing angles undefined")
    theta = np.arctan2(r1, r2)
    rbar = np.sqrt(r1**2 + r2**2)
    phi = np.arctan2(params.omega42 / 2.0, np.sqrt(2.0) * rbar)
    phi0 = np.array([np.cos(theta), 0.0, -np.sin(theta), 0.0])
    phi1 = np.array([
        np.sin(theta) * np.sin(phi),
        np.cos(phi) / np.sqrt(2.0),
        np.cos(theta) * np.sin(phi),
        -np.cos(phi) / np.sqrt(2.0),
    ])
    residual = params.delta2 + params.delta1
    return DarkStateAnalysis(theta=float(theta), phi=float(phi),
                             phi0_amplitudes=phi0, phi1_amplitudes=phi1,
                             interference_residuals=(residual, residual))


def jump_amplitudes_on_state(params: SystemParams, state: np.ndarray) -> list[np.ndarray]:
    """For each final state f in {1, 3}: sqrt(Gamma_f) applied to the state's
    (level-4, level-2) amplitude pair.  Both vectors vanish iff the state is
    dark with respect to the correlated spontaneous decay.  Gamma_f is
    Hermitian positive semidefinite, so its root comes from eigh, with the
    eigenvalues that rounding leaves below 0 clipped to 0."""
    rm = build_rate_matrices(params)
    amps = np.array([state[3], state[1]])
    out = []
    for gmat in (rm.gamma_to_1, rm.gamma_to_3):
        w, v = np.linalg.eigh(gmat)
        root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
        out.append(root @ amps)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def defaults():
    return SystemParams()
