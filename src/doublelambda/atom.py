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

from .params import BASIS, HERMITIAN_FRAME, ParamStack, SystemParams

I4 = np.eye(4, dtype=complex)


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


#: the COHERENT_BASIS + DISSIPATOR_BASIS entries with one coefficient at
#: every point (a field's two entries, a cross rate's two): each group's sum
#: preserves Hermiticity, so its table U^H T U in REAL_BASIS is real
HERMITIAN_GROUPS = ((0,), (1,), (2, 3), (4, 5), (6,), (7, 8), (9,), (10,),
                    (11, 12), (13,), (14,), (15,), (16,))
_ALL = np.concatenate([COHERENT_BASIS, DISSIPATOR_BASIS])
REAL_BASIS = (HERMITIAN_FRAME.conj().T @ np.array(
    [_ALL[list(g)].sum(0) for g in HERMITIAN_GROUPS]) @ HERMITIAN_FRAME).real
_LEADS = np.array([group[0] for group in HERMITIAN_GROUPS])
#: the DISSIPATOR_BASIS entries of each rate group of HERMITIAN_GROUPS,
#: radiative groups first, and each group's leading entry
RATE_GROUPS = tuple(tuple(j - len(COHERENT_BASIS) for j in group)
                    for group in HERMITIAN_GROUPS
                    if group[0] >= len(COHERENT_BASIS))
RATE_LEADS = np.array([group[0] for group in RATE_GROUPS])

#: K_j = L_n^+ L_m for each DISSIPATOR_BASIS entry j = (group, m, n), as
#: rows of vec(K_j^T) so that Tr(K_j rho) = JUMP_TRACES[j] @ vec(rho)
JUMP_TRACES = np.array([(ln.conj().T @ lm).T.reshape(16) for ops in JUMP_GROUPS
                        for lm in ops for ln in ops])
#: leading DISSIPATOR_BASIS entries that belong to the two radiative groups
RADIATIVE_ENTRIES = sum(len(ops) ** 2 for ops in JUMP_GROUPS[:2])
#: row k, column g: Tr(K_j F_k) summed over the entries j of RATE_GROUPS[g],
#: F_k of HERMITIAN_BASIS; real, as each group's sum of K_j is Hermitian
ACTIVITY_TABLE = np.array([JUMP_TRACES[list(group)].sum(0) @ HERMITIAN_FRAME
                           for group in RATE_GROUPS]).real.T


def _hamiltonian_coefficients(params) -> np.ndarray:
    """Coefficients of HAMILTONIAN_OPERATORS (and of COHERENT_BASIS) at the
    mean fields: (6,) for a SystemParams, (P, 6) for a ParamStack."""
    g1, g2 = params.g * params.a1_mean, params.g * params.a2_mean
    return np.ascontiguousarray(np.array([params.delta1, params.delta2,
                                          g1, g1, g2, g2]).T)


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
    return _hamiltonian_coefficients(ps), _rate_coefficients(ps)


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


def liouvillian_stack(h: np.ndarray, dissipators: np.ndarray) -> np.ndarray:
    """(P, 16, 16) Liouvillians from the Hamiltonian coefficient stack of
    coefficient_stack and the dissipator_stack of its rates, which a caller
    that varies only the Hamiltonian contracts once."""
    return _contract(h, COHERENT_BASIS) + dissipators


#: slack of gksl_defects' determinant test: 4 eps relative to r_aa r_bb
#: covers the rounding of the cross rate 2 p sqrt(gamma_a gamma_b), which at
#: p = +-1 leaves the exact determinant 0 negative in about a quarter of
#: draws; 8 subnormal spacings cover r_aa r_bb when it underflows
PSD_SLACK = 4 * np.finfo(float).eps
PSD_FLOOR = 8 * np.finfo(float).smallest_subnormal


def gksl_defects(rates: np.ndarray) -> dict:
    """What keeps each (P, 11) rate row from a GKSL dissipator, as {stack
    position: text}; a row that is not a key passes, and NaN passes nothing.

    A row passes when both radiative rate matrices [[r_aa, r_ab], [r_ba,
    r_bb]] are symmetric and positive semidefinite up to rounding (r_aa,
    r_bb >= 0 and r_aa r_bb - r_ab^2 >= -(PSD_SLACK r_aa r_bb + PSD_FLOOR))
    and the exchange and dephasing rates are >= 0.  With the real
    Hamiltonian coefficients of coefficient_stack, L is then a GKSL
    generator, whose spectrum lies in the closed left half-plane [Lindblad,
    Commun. Math. Phys. 48, 119 (1976); Gorini, Kossakowski and Sudarshan,
    J. Math. Phys. 17, 821 (1976)].  O(P): no eigenvalue is computed.
    """
    aa, ab, ba, bb = rates[:, :RADIATIVE_ENTRIES].reshape(-1, 2, 4).transpose(
        2, 0, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = aa * bb
        psd = ((aa >= 0) & (bb >= 0) & (ab == ba)
               & (prod - ab * ab >= -(PSD_SLACK * prod + PSD_FLOOR)))
    collisional = rates[:, RADIATIVE_ENTRIES:] >= 0
    defects = {}
    for k in np.flatnonzero(~(psd.all(axis=1) & collisional.all(axis=1))):
        texts = [f"rate matrix of the decay to level {level} not positive "
                 f"semidefinite: [[{aa[k, f]:.2e}, {ab[k, f]:.2e}], "
                 f"[{ba[k, f]:.2e}, {bb[k, f]:.2e}]]"
                 for f, level in ((0, 1), (1, 3)) if not psd[k, f]]
        if not collisional[k].all():
            texts.append("negative exchange or dephasing rate: "
                         + ", ".join(f"{x:.2e}" for x
                                     in rates[k, RADIATIVE_ENTRIES:]))
        defects[int(k)] = "; ".join(texts)
    return defects


def real_generator_stack(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(P, 16, 16) real generators B = U^H L U, U = HERMITIAN_FRAME, from
    coefficient_stack's (P, 6) and (P, 11) coefficients, with no complex L."""
    return _contract(np.concatenate([h, r], axis=1)[:, _LEADS], REAL_BASIS)


def dissipative_activity_stack(rates: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Total jump rate sum_j r_j Tr(K_j rho) of each pair of (P, 11) rate
    coefficients and (P, 16) state coordinates x in HERMITIAN_BASIS, from
    ACTIVITY_TABLE: the sum over the groups is elementwise, as a stacked
    (P, 1, 9) @ (P, 9, 1) product's rows differ from one-row products.

    Zero (to tolerance) means the state is strictly dark: no channel fires,
    no photon is scattered, no Langevin noise is generated.
    """
    traces = (coords[:, None, :] @ ACTIVITY_TABLE)[:, 0]
    return (traces * rates[:, RATE_LEADS]).sum(axis=1)


@dataclass(frozen=True)
class Generator:
    """Liouvillian of the model.

    matrix acts on row-major vec(rho); hamiltonian and rates are its
    COHERENT_BASIS and DISSIPATOR_BASIS coefficients; real is U^H L U.
    """

    matrix: np.ndarray
    hamiltonian: np.ndarray
    rates: np.ndarray
    real: np.ndarray


def build_generator(params: SystemParams) -> Generator:
    """Generator at the mean field amplitudes."""
    h, r = coefficient_stack(params)
    lmat = liouvillian_stack(h[None], dissipator_stack(r[None]))
    return Generator(matrix=lmat[0], hamiltonian=h, rates=r,
                     real=real_generator_stack(h[None], r[None])[0])
