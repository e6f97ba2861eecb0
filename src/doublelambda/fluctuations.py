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

from .atom import (FIELD_SUPEROPERATORS, RADIATIVE_ENTRIES, Generator,
                   dissipator_stack)
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


def drift_stack(adjoints: np.ndarray) -> tuple[np.ndarray, dict]:
    """Drift of each (P, 16, 16) Heisenberg generator, projected to 15 dims.

    Returns the (P, 15, 15) drifts and the failures as {stack position:
    ResponseError} for drifts with an eigenvalue in the right half-plane.
    """
    a15 = EMBED.T @ adjoints @ EMBED
    max_re = np.max(np.real(np.linalg.eigvals(a15)), axis=1)
    failures = {int(k): ResponseError(
        f"drift matrix unstable: max Re eigenvalue {max_re[k]:.2e}")
        for k in np.flatnonzero(max_re > 1e-10)}
    return a15, failures


def drift_matrix(gen: Generator, state: AtomState,
                 params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Heisenberg drift with mean fields frozen, projected to 15 dimensions.

    Returns (A, projector).  The full 16-dim drift has the trace vector as an
    exact left null vector; fluctuations therefore stay on the subspace the
    projector maps onto.
    """
    a15, failures = drift_stack(gen.adjoint[None])
    if failures:
        raise failures[0]
    return a15[0], EMBED.T.copy()


#: (vec rho) @ FIELD_COLUMNS.T gives entry 4 mu + k = -i[dH/dv_k, rho]_mu
FIELD_COLUMNS = FIELD_SUPEROPERATORS.transpose(1, 0, 2).reshape(64, 16)
#: traceless projection of the index-swapped (expectation-order) vector
EMBED_SWAP = EMBED.T @ BASIS.swap


def field_coupling_stack(g: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """(P, 15, 4) field-drive columns for couplings g (P,) and states rhos."""
    b_full = (rhos.reshape(-1, 1, 16) @ FIELD_COLUMNS.T).reshape(-1, 16, 4)
    return EMBED_SWAP @ (g[:, None, None] * b_full)


def field_coupling_matrix(gen: Generator, state: AtomState,
                          params: SystemParams) -> np.ndarray:
    """Columns of the field drive (da1, da1+, da2, da2+) acting on the state.

    The master equation is linear in each field amplitude, so each column is
    the exact derivative of the mean-field evolution map applied to the
    steady-state expectation vector; equivalently the expectation of
    i[dH/dv_k, sigma_mu].
    """
    return field_coupling_stack(np.array([params.g]), state.rho[None])[0]


def diffusion_stack(noise_model: str, lmats: np.ndarray, coherents: np.ndarray,
                    rates: np.ndarray, rhos: np.ndarray) -> tuple[np.ndarray, dict]:
    """(P, 15, 15) diffusion matrices of the chosen noise model.

    "einstein" applies the Einstein relation to the full generators lmats
    and asserts, on every point, that their Hamiltonian parts coherents drop
    out; "vacuum-reservoir" applies it to the radiative part of the rates.
    Failures are {stack position: ResponseError}.
    """
    failures = {}
    if noise_model == "einstein":
        d_full = _einstein_diffusion(lmats, rhos)
        resid = np.max(np.abs(_einstein_diffusion(coherents, rhos)), axis=(1, 2))
        failures = {int(k): ResponseError(
            f"Hamiltonian part leaked into the diffusion matrix: {resid[k]:.2e}")
            for k in np.flatnonzero(resid > 1e-10)}
    elif noise_model == "vacuum-reservoir":
        radiative = dissipator_stack(rates[:, :RADIATIVE_ENTRIES])
        d_full = _einstein_diffusion(radiative, rhos)
    else:
        raise ValueError(f"unknown noise model {noise_model!r}; "
                         f"expected one of {NOISE_MODELS}")
    return EMBED.T @ d_full @ EMBED, failures


def diffusion_matrix(gen: Generator, state: AtomState) -> np.ndarray:
    """Diffusion via the generalized Einstein relation, projected to 15 dims.

    2 D_[mu,nu] = <Ld(sigma_mu sigma_nu)> - <Ld(sigma_mu) sigma_nu>
                  - <sigma_mu Ld(sigma_nu)> in the steady state.  The purely
    Hamiltonian part of the generator drops out of this combination exactly;
    that cancellation is asserted here as a construction check.
    """
    d, failures = diffusion_stack("einstein", gen.matrix[None],
                                  gen.coherent[None], gen.rates[None],
                                  state.rho[None])
    if failures:
        raise failures[0]
    return d[0]


def diffusion_matrix_vacuum_reservoir(gen: Generator, state: AtomState) -> np.ndarray:
    """Diffusion restricted to the shared-vacuum spontaneous-emission channels.

    The collisional lower-level channels then contribute drift but no Langevin
    force.  This reproduces the noise content of treatments where only the
    radiative reservoir is quantized; it does not preserve the field
    commutators exactly (the deficit is the dropped collisional noise).
    """
    return diffusion_stack("vacuum-reservoir", gen.matrix[None],
                           gen.coherent[None], gen.rates[None],
                           state.rho[None])[0][0]


#: row 16 mu + nu is vec(sigma_mu sigma_nu)
PRODUCTS = np.einsum("mkl,nlj->mnkj", BASIS.sigmas, BASIS.sigmas).reshape(256, 16)


def _einstein_diffusion(lmats: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """(P, 16, 16) matrices 2D/2 from the Einstein relation under lmats.

    With Tr(rho X) = vec(rho^T) . vec(X), the three terms are
    t1 = vec(rho^T) L^+ applied to every product sigma_mu sigma_nu,
    t2[m, n] = vec(L^+ sigma_m) . vec((sigma_n rho)^T) and
    t3[m, n] = vec((rho sigma_m)^T) . vec(L^+ sigma_n).  vec(sigma_mu) is
    the unit vector e_mu, so vec(L^+ sigma_mu) is row mu of conj(L).
    """
    n = len(lmats)
    lsig = lmats.conj()
    rho_t = rhos.transpose(0, 2, 1).reshape(n, 1, 16)
    t1 = ((rho_t @ lsig.transpose(0, 2, 1)) @ PRODUCTS.T).reshape(n, 16, 16)
    y = (BASIS.sigmas @ rhos[:, None]).transpose(0, 1, 3, 2).reshape(n, 16, 16)
    z = (rhos[:, None] @ BASIS.sigmas).transpose(0, 1, 3, 2).reshape(n, 16, 16)
    t1 -= lsig @ y.transpose(0, 2, 1)
    t1 -= z @ lsig.transpose(0, 2, 1)
    t1 /= 2.0
    return t1


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


def response_stack(a: np.ndarray, omegas: np.ndarray) -> tuple[np.ndarray, dict]:
    """Responses R(omega) = (-i omega I - A)^-1 of a (P, 15, 15) drift stack.

    Refuses near-singular systems, naming the offending eigenvalue; failures
    are {stack position: ResponseError}.
    """
    eye = np.eye(a.shape[-1])
    m = (-1j * omegas)[:, None, None] * eye - a
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


def atomic_response(a: np.ndarray, omega: float) -> np.ndarray:
    """Frequency-domain response R(omega) = (-i omega I - A)^-1.

    Refuses near-singular systems, naming the offending eigenvalue.
    """
    r, failures = response_stack(a[None], np.array([omega], dtype=float))
    if failures:
        raise failures[0]
    return r[0]


NOISE_MODELS = ("einstein", "vacuum-reservoir")


def noise_scale(params: SystemParams) -> float:
    """L / N, the scale of the collective Langevin correlator (0 if N = 0)."""
    n_atoms = params.atom_number
    return params.cell_length / n_atoms if n_atoms > 0 else 0.0


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
    d, failures = diffusion_stack(noise_model, gen.matrix[None],
                                  gen.coherent[None], gen.rates[None],
                                  state.rho[None])
    if failures:
        raise failures[0]
    return LinearizedSystem(a=a, b=b, d=d[0], noise_scale=noise_scale(params),
                            projector=projector)
