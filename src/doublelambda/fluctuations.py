"""Linearized Heisenberg-Langevin dynamics about the steady state.

Atomic operators are split into mean value plus fluctuation; the fluctuation
vector lives on the 15-dimensional traceless subspace (trace is conserved
exactly, with zero noise).  Drift, field-coupling columns, and the Langevin
diffusion matrix are all derived from the same generator; the diffusion
follows from the generalized Einstein relation evaluated in the steady state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atom import FIELD_SUPEROPERATORS, Generator, radiative_dissipator
from .params import BASIS, SystemParams
from .steady import AtomState


class ResponseError(RuntimeError):
    pass


def traceless_embedding() -> np.ndarray:
    """Orthonormal embedding E (16 x 15) of the traceless subspace.

    Columns: three zero-sum combinations of the four diagonal components,
    then the twelve off-diagonal unit vectors in canonical order.
    """
    e = np.zeros((16, 15))
    diag = BASIS.diagonal
    combos = np.array([
        [1, -1, 0, 0] / np.sqrt(2.0),
        [1, 1, -2, 0] / np.sqrt(6.0),
        [1, 1, 1, -3] / np.sqrt(12.0),
    ]).T
    e[diag, 0:3] = combos
    col = 3
    for mu in range(16):
        if mu not in diag:
            e[mu, col] = 1.0
            col += 1
    return e


EMBED = traceless_embedding()


@dataclass(frozen=True)
class LinearizedSystem:
    """Drift A, field-coupling columns B, diffusion D on the traceless subspace.

    The columns of b correspond to (da1, da1+, da2, da2+) in the mean-field
    normalization of the pump amplitudes.  d is the diffusion matrix of the
    collective Langevin forces: <F_mu(z,t) F_nu(z',t')> =
    noise_scale * 2 d_[mu,nu] * delta(z-z') delta(t-t') with noise_scale = L/N.
    """

    a: np.ndarray          # 15 x 15
    b: np.ndarray          # 15 x 4
    d: np.ndarray          # 15 x 15
    noise_scale: float     # L / N
    projector: np.ndarray  # 15 x 16 map onto traceless coordinates


def drift_matrix(gen: Generator, state: AtomState,
                 params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Heisenberg drift with mean fields frozen, projected to 15 dimensions.

    Returns (A, projector).  The full 16-dim drift has the trace vector as an
    exact left null vector; fluctuations therefore stay on the subspace the
    projector maps onto.
    """
    a_full = gen.adjoint
    a15 = EMBED.T @ a_full @ EMBED
    max_re = float(np.max(np.real(np.linalg.eigvals(a15))))
    if max_re > 1e-10:
        raise ResponseError(f"drift matrix unstable: max Re eigenvalue {max_re:.2e}")
    return a15, EMBED.T.copy()


def field_coupling_matrix(gen: Generator, state: AtomState,
                          params: SystemParams) -> np.ndarray:
    """Columns of the field drive (da1, da1+, da2, da2+) acting on the state.

    The master equation is linear in each field amplitude, so each column is
    the exact derivative of the mean-field evolution map applied to the
    steady-state expectation vector; equivalently the expectation of
    i[dH/dv_k, sigma_mu].
    """
    # column k is <sigma_mu> in the state -i[dH/dv_k, rho]
    b_full = params.g * (FIELD_SUPEROPERATORS @ state.rho.reshape(16)).T
    return EMBED.T @ BASIS.swap @ b_full


def diffusion_matrix(gen: Generator, state: AtomState) -> np.ndarray:
    """Diffusion via the generalized Einstein relation, projected to 15 dims.

    2 D_[mu,nu] = <Ld(sigma_mu sigma_nu)> - <Ld(sigma_mu) sigma_nu>
                  - <sigma_mu Ld(sigma_nu)> in the steady state.  The purely
    Hamiltonian part of the generator drops out of this combination exactly;
    that cancellation is asserted here as a construction check.
    """
    d_full = _einstein_diffusion(gen.matrix, state.rho)
    resid = np.max(np.abs(_einstein_diffusion(gen.coherent, state.rho)))
    if resid > 1e-10:
        raise ResponseError(
            f"Hamiltonian part leaked into the diffusion matrix: {resid:.2e}")
    return EMBED.T @ d_full @ EMBED


def diffusion_matrix_vacuum_reservoir(gen: Generator, state: AtomState) -> np.ndarray:
    """Diffusion restricted to the shared-vacuum spontaneous-emission channels.

    The collisional lower-level channels then contribute drift but no Langevin
    force.  This reproduces the noise content of treatments where only the
    radiative reservoir is quantized; it does not preserve the field
    commutators exactly (the deficit is the dropped collisional noise).
    """
    lmat = radiative_dissipator(gen.params)
    return EMBED.T @ _einstein_diffusion(lmat, state.rho) @ EMBED


def _einstein_diffusion(lmat: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Full 16x16 matrix D with 2D from the Einstein relation under lmat."""
    sig = BASIS.sigmas
    ladj = lmat.conj().T  # Heisenberg action on vectorized operators
    lsig = (ladj @ sig.reshape(16, 16).T).T.reshape(16, 4, 4)
    prod = np.einsum("mkl,nlj->mnkj", sig, sig)
    lprod = (ladj @ prod.reshape(256, 16).T).T.reshape(16, 16, 4, 4)
    t1 = np.einsum("kl,mnlk->mn", rho, lprod)
    t2 = np.einsum("kl,mnlk->mn", rho, np.einsum("mkl,nlj->mnkj", lsig, sig))
    t3 = np.einsum("kl,mnlk->mn", rho, np.einsum("mkl,nlj->mnkj", sig, lsig))
    return (t1 - t2 - t3) / 2.0


def diffusion_matrix_channelwise(gen: Generator, state: AtomState) -> np.ndarray:
    """Independent evaluation of D: per-channel sum of commutator sandwiches.

    For each dissipation pair (m, n) with rate G_mn the Einstein relation
    reduces to G_mn <[L_n^+, sigma_mu][sigma_nu, L_m]>; the sum over channels
    must reproduce the generator-sandwich route to machine precision.
    """
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
    return EMBED.T @ d_full @ EMBED


def equal_time_covariance(state: AtomState, projected: bool = True) -> np.ndarray:
    """Ordered covariance <d sigma_mu d sigma_nu> directly from the state."""
    s = state.expectations
    rho = state.rho
    prod = np.einsum("mkl,nlj->mnkj", BASIS.sigmas, BASIS.sigmas)
    first = np.einsum("kl,mnlk->mn", rho, prod)
    cov = first - np.outer(s, s)
    if projected:
        return EMBED.T @ cov @ EMBED
    return cov


def atomic_response(a: np.ndarray, omega: float) -> np.ndarray:
    """Frequency-domain response R(omega) = (-i omega I - A)^-1.

    Refuses near-singular systems, naming the offending eigenvalue.
    """
    m = -1j * omega * np.eye(a.shape[0]) - a
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > 1e12:
        evals = np.linalg.eigvals(a)
        worst = evals[np.argmin(np.abs(-1j * omega - evals))]
        raise ResponseError(
            f"atomic response near-singular at omega={omega}: condition "
            f"{cond:.2e}, offending eigenvalue {worst:.3e}")
    r = np.linalg.inv(m)
    resid = np.linalg.norm(m @ r - np.eye(a.shape[0]))
    if resid > 1e-10:
        raise ResponseError(f"response inversion residual {resid:.2e}")
    return r


NOISE_MODELS = ("einstein", "vacuum-reservoir")


def linearize(gen: Generator, state: AtomState, params: SystemParams,
              noise_model: str = "einstein") -> LinearizedSystem:
    """Assemble the full linearized system about the solved steady state.

    noise_model selects the Langevin-force content: "einstein" applies the
    generalized Einstein relation to every dissipation channel (exact
    fluctuation-dissipation bookkeeping, commutator-preserving);
    "vacuum-reservoir" keeps only the spontaneous-emission forces.
    """
    a, projector = drift_matrix(gen, state, params)
    b = field_coupling_matrix(gen, state, params)
    if noise_model == "einstein":
        d = diffusion_matrix(gen, state)
    elif noise_model == "vacuum-reservoir":
        d = diffusion_matrix_vacuum_reservoir(gen, state)
    else:
        raise ValueError(f"unknown noise model {noise_model!r}; "
                         f"expected one of {NOISE_MODELS}")
    n_atoms = params.atom_number
    noise_scale = params.cell_length / n_atoms if n_atoms > 0 else 0.0
    return LinearizedSystem(a=a, b=b, d=d, noise_scale=noise_scale,
                            projector=projector)
