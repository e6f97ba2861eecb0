"""Single-atom rotating-frame Hamiltonian, correlated dissipator, and generator.

The two pump fields couple 1-4/1-2 and 3-4/3-2.  Spontaneous decay of the
upper doublet to each lower level goes through a shared vacuum reservoir, so
the two channels ending on the same final state dissipate with a correlated
2x2 rate matrix whose off-diagonal element carries the dipole alignment
parameter p; those cross terms are what generate the interference coherences
between levels 2 and 4.

The master equation is affine in the two detunings, the four field
amplitudes and every rate-matrix entry.  The fixed Hamiltonian operators and
jump-operator groups below are therefore turned into superoperators once, at
import, and every generator is a contraction of that basis with the
parameter-dependent coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import sqrtm

from .params import BASIS, ParamStack, SystemParams

I4 = np.eye(4, dtype=complex)


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
    r = _rate_coefficients(params)
    return RateMatrices(gamma_to_1=r[:4].reshape(2, 2),
                        gamma_to_3=r[4:8].reshape(2, 2),
                        exchange_rate=r[8], dephasing_rate=params.gamma_phi)


#: H / hbar = sum_k c_k H_k with c = (delta1, delta2, g a1, g a1+, g a2, g a2+).
#: Levels (1, 2, 3, 4) sit at (0, -delta2, 0, -delta1): level 3 is at zero
#: because two-photon resonance is enforced identically.  Field 1 drives 1-4
#: and 1-2, field 2 drives 3-4 and 3-2 (equal dipoles).
HAMILTONIAN_OPERATORS = -np.array([
    BASIS.sigma(4, 4),
    BASIS.sigma(2, 2),
    BASIS.sigma(4, 1) + BASIS.sigma(2, 1),
    BASIS.sigma(1, 4) + BASIS.sigma(1, 2),
    BASIS.sigma(4, 3) + BASIS.sigma(2, 3),
    BASIS.sigma(3, 4) + BASIS.sigma(3, 2),
])

#: dH/d(g v_k) for the field amplitudes v = (a1, a1+, a2, a2+)
FIELD_OPERATORS = HAMILTONIAN_OPERATORS[2:]

#: Jump-operator groups; within a group the operators dissipate jointly with
#: one rate matrix G: D(rho) = sum_mn G_mn (L_m rho L_n^+ - {L_n^+ L_m, rho}/2).
#: The first two are the radiative groups (upper doublet -> level 1, -> 3),
#: then the 1->3 and 3->1 exchange and the 1-3 dephasing.
JUMP_GROUPS = (
    (BASIS.sigma(1, 4), BASIS.sigma(1, 2)),
    (BASIS.sigma(3, 4), BASIS.sigma(3, 2)),
    (BASIS.sigma(1, 3),),
    (BASIS.sigma(3, 1),),
    (BASIS.sigma(1, 1) - BASIS.sigma(3, 3),),
)


def _commutator(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i[h, rho] on row-major vec(rho)."""
    return -1j * (np.kron(h, I4) - np.kron(I4, h.T))


def _dissipator(lm: np.ndarray, ln: np.ndarray) -> np.ndarray:
    """Superoperator of L_m rho L_n^+ - {L_n^+ L_m, rho}/2 on row-major vec(rho)."""
    lnd_lm = ln.conj().T @ lm
    return (np.kron(lm, ln.conj()) - 0.5 * np.kron(lnd_lm, I4)
            - 0.5 * np.kron(I4, lnd_lm.T))


#: one superoperator per Hamiltonian coefficient, and one per rate-matrix
#: entry (group by group, (m, n) row-major to match gmat.ravel())
COHERENT_BASIS = np.array([_commutator(h) for h in HAMILTONIAN_OPERATORS])
DISSIPATOR_BASIS = np.array([_dissipator(lm, ln) for ops in JUMP_GROUPS
                             for lm in ops for ln in ops])
#: the four field commutator superoperators, in the order of FIELD_OPERATORS
FIELD_SUPEROPERATORS = COHERENT_BASIS[2:]


#: K_j = L_n^+ L_m for each DISSIPATOR_BASIS entry j = (group, m, n), as
#: rows of vec(K_j^T) so that Tr(K_j rho) = JUMP_TRACES[j] @ vec(rho)
JUMP_TRACES = np.array([(ln.conj().T @ lm).T.reshape(16) for ops in JUMP_GROUPS
                        for lm in ops for ln in ops])
#: leading DISSIPATOR_BASIS entries that belong to the two radiative groups
RADIATIVE_ENTRIES = sum(len(ops) ** 2 for ops in JUMP_GROUPS[:2])


def _hamiltonian_coefficients(params, a1, a1d, a2, a2d) -> np.ndarray:
    """Coefficients of HAMILTONIAN_OPERATORS (and of COHERENT_BASIS): (6,)
    for a SystemParams, (P, 6) for a ParamStack and field columns."""
    g = params.g
    return np.ascontiguousarray(np.array([params.delta1, params.delta2,
                                          g * a1, g * a1d, g * a2, g * a2d]).T)


def _rate_coefficients(params) -> np.ndarray:
    """Coefficients of DISSIPATOR_BASIS: every rate-matrix entry, in order;
    (11,) for a SystemParams, (P, 11) for a ParamStack.  L = sigma_11 -
    sigma_33 at rate gamma_phi/2 adds exactly gamma_phi to the 1-3
    coherence decay."""
    cross1 = 2.0 * (params.p1 * np.sqrt(params.gamma1 * params.gamma2))
    cross3 = 2.0 * (params.p2 * np.sqrt(params.gamma3 * params.gamma4))
    exchange = 2.0 * params.gamma0
    return np.ascontiguousarray(np.array([
        2.0 * params.gamma1, cross1, cross1, 2.0 * params.gamma2,
        2.0 * params.gamma3, cross3, cross3, 2.0 * params.gamma4,
        exchange, exchange, params.gamma_phi / 2.0]).T)


def coefficient_stack(ps: ParamStack) -> tuple[np.ndarray, np.ndarray]:
    """(P, 6) Hamiltonian and (P, 11) rate coefficients at the mean fields;
    (6,) and (11,) for one SystemParams."""
    h = _hamiltonian_coefficients(ps, ps.a1_mean, ps.a1_mean, ps.a2_mean,
                                  ps.a2_mean)
    return h, _rate_coefficients(ps)


def _contract(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_k coeffs[:, k] basis[k] for a (P, K) coefficient stack.

    One vector-matrix product per point, so every point's result is the
    same whatever the stack around it.
    """
    flat = basis[:coeffs.shape[-1]].reshape(coeffs.shape[-1], -1)
    return (coeffs[:, None, :] @ flat).reshape((len(coeffs),) + basis.shape[1:])


def dissipator_stack(rates: np.ndarray) -> np.ndarray:
    """(P, 16, 16) dissipators of the leading rates.shape[1] basis entries."""
    return _contract(rates, DISSIPATOR_BASIS)


def liouvillian_stack(h: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coherent part, full Liouvillian), each (P, 16, 16), from the
    coefficient stacks of coefficient_stack."""
    coherent = _contract(h, COHERENT_BASIS)
    return coherent, coherent + dissipator_stack(r)


def adjoint_stack(lmats: np.ndarray) -> np.ndarray:
    """Heisenberg drift in basis order: <sigma_ij> = rho_ji, so the adjoint
    matrix is the Schroedinger one with both indices swapped."""
    return lmats[..., BASIS.pair[:, None], BASIS.pair]


def dissipative_activity_stack(rates: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Total jump rate sum_j r_j Tr(K_j rho) of each (rates, state) pair.

    Zero (to tolerance) means the state is strictly dark: no channel fires,
    no photon is scattered, no Langevin noise is generated.
    """
    traces = rhos.reshape(-1, 1, 16) @ JUMP_TRACES.T
    return np.real(traces @ rates[:, :, None])[:, 0, 0]


def hamiltonian_with_fields(params: SystemParams, a1, a1d, a2, a2d) -> np.ndarray:
    """Rotating-frame Hamiltonian / hbar with the four field amplitudes as
    independent c-numbers (non-Hermitian unless a1d = conj(a1) etc.)."""
    coeffs = _hamiltonian_coefficients(params, a1, a1d, a2, a2d)
    return _contract(coeffs[None], HAMILTONIAN_OPERATORS)[0]


def build_hamiltonian(params: SystemParams) -> np.ndarray:
    """Hamiltonian at the (real) mean field amplitudes."""
    a1, a2 = params.a1_mean, params.a2_mean
    return hamiltonian_with_fields(params, a1, a1, a2, a2)


def dissipation_channels(params: SystemParams) -> list[tuple[list[np.ndarray], np.ndarray]]:
    """Jump-operator groups with a nonzero rate matrix, as (operators, rate_matrix)."""
    rates, channels = _rate_coefficients(params), []
    for ops in JUMP_GROUPS:
        n = len(ops)
        gmat, rates = rates[:n * n].reshape(n, n), rates[n * n:]
        if np.any(gmat):
            channels.append((list(ops), gmat))
    return channels


@dataclass(frozen=True)
class Generator:
    """Liouvillian of the model in both pictures.

    matrix acts on row-major vec(rho); adjoint propagates the expectation
    vector <sigma_ij> in the canonical AtomicBasis ordering; coherent is the
    Hamiltonian part -i[H, .] of matrix; rates are its DISSIPATOR_BASIS
    coefficients.
    """

    matrix: np.ndarray
    adjoint: np.ndarray
    coherent: np.ndarray
    rates: np.ndarray
    channels: list
    params: SystemParams

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return (self.matrix @ rho.reshape(16)).reshape(4, 4)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """Heisenberg action on an operator given as a 4x4 matrix."""
        return (self.matrix.conj().T @ x.reshape(16)).reshape(4, 4)


def generator_with_fields(params: SystemParams, a1, a1d, a2, a2d) -> np.ndarray:
    """Liouvillian matrix with the fields frozen at arbitrary c-numbers.

    The master equation is linear in each field amplitude, so this is the
    exact mean-field evolution map used for the field-coupling columns.
    """
    h = _hamiltonian_coefficients(params, a1, a1d, a2, a2d)
    return liouvillian_stack(h[None], _rate_coefficients(params)[None])[1][0]


def build_generator(params: SystemParams) -> Generator:
    """Generator at the mean field amplitudes."""
    h, r = coefficient_stack(params)
    coherent, lmat = liouvillian_stack(h[None], r[None])
    return Generator(matrix=lmat[0], adjoint=adjoint_stack(lmat)[0],
                     coherent=coherent[0], rates=r,
                     channels=dissipation_channels(params), params=params)



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
    dark with respect to the correlated spontaneous decay."""
    rm = build_rate_matrices(params)
    amps = np.array([state[3], state[1]])
    out = []
    for gmat in (rm.gamma_to_1, rm.gamma_to_3):
        root = sqrtm(gmat.astype(complex))
        out.append(root @ amps)
    return out
