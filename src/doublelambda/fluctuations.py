"""Linearized Heisenberg-Langevin dynamics about the steady state.

Atomic operators are split into mean value plus fluctuation; the fluctuation
vector lives on the 15-dimensional traceless subspace (trace is conserved
exactly, with zero noise), in the coordinates y_k = <dF_k> of an orthonormal
basis of traceless Hermitian operators (FRAME), where every Heisenberg drift
is a real matrix.  Drift, field-coupling columns, and the Langevin
diffusion matrix are all derived from the same generator; the diffusion
follows from the generalized Einstein relation evaluated in the steady state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atom import (FIELD_SUPEROPERATORS, RADIATIVE_ENTRIES, Generator,
                   dissipator_stack)
from .params import BASIS, HERMITIAN_BASIS, SystemParams
from .steady import AtomState


class ResponseError(RuntimeError):
    pass


#: rows: the three zero-sum combinations of the diagonal F_k, then the
#: off-diagonal F_k of HERMITIAN_BASIS, each flattened in expectation order,
#: so y_k = <dF_k> = FRAME[k] @ d<sigma> are the real coordinates of the
#: traceless fluctuations; FRAME @ BASIS.swap == FRAME.conj()
FRAME = np.concatenate([
    np.array([[1, -1, 0, 0] / np.sqrt(2.0),
              [1, 1, -2, 0] / np.sqrt(6.0),
              [1, 1, 1, -3] / np.sqrt(12.0)])
    @ HERMITIAN_BASIS[:4].reshape(4, 16),
    HERMITIAN_BASIS[4:].reshape(12, 16)])


@dataclass(frozen=True)
class LinearizedSystem:
    """Drift A, field-coupling columns B, diffusion D in FRAME coordinates.

    a is real, b and d complex; the columns of b are (da1, da1+, da2, da2+)
    in the mean-field normalization of the pump amplitudes.  d is the
    diffusion matrix of the collective Langevin forces: <F_k(z,t) F_l(z',t')>
    = noise_scale * 2 d_[k,l] * delta(z-z') delta(t-t') with noise_scale = L/N.
    """

    a: np.ndarray          # 15 x 15, real
    b: np.ndarray          # 15 x 4
    d: np.ndarray          # 15 x 15
    noise_scale: float     # L / N


def drift_stack(adjoints: np.ndarray) -> tuple[np.ndarray, dict]:
    """Drift FRAME A FRAME^H of each (P, 16, 16) Heisenberg generator A.

    A Heisenberg generator preserves Hermiticity, so its drift is real in
    the Hermitian frame.  Returns the (P, 15, 15) float64 drifts and the
    failures as {stack position: ResponseError}: a drift whose imaginary
    part exceeds 1e-10 of its scale, or one with an eigenvalue in the right
    half-plane.
    """
    a = FRAME @ adjoints @ FRAME.conj().T
    scale = np.maximum(np.max(np.abs(a), axis=(1, 2)), np.finfo(float).tiny)
    imag = np.max(np.abs(a.imag), axis=(1, 2)) / scale
    failures = {int(k): ResponseError(
        f"drift not real in the Hermitian frame: imaginary part {imag[k]:.2e} "
        "of its scale") for k in np.flatnonzero(~(imag <= 1e-10))}
    a = np.ascontiguousarray(a.real)
    max_re = np.max(np.real(np.linalg.eigvals(a)), axis=1)
    for k in np.flatnonzero(max_re > 1e-10):
        failures.setdefault(int(k), ResponseError(
            f"drift matrix unstable: max Re eigenvalue {max_re[k]:.2e}"))
    return a, failures


def drift_matrix(gen: Generator, state: AtomState,
                 params: SystemParams) -> np.ndarray:
    """Real 15 x 15 Heisenberg drift with mean fields frozen, in FRAME.

    The full 16-dim drift has the trace vector as an exact left null vector;
    fluctuations therefore stay on the traceless subspace FRAME spans.
    """
    a, failures = drift_stack(gen.adjoint[None])
    if failures:
        raise failures[0]
    return a[0]


#: (vec rho) @ FIELD_COLUMNS.T gives entry 4 mu + k = -i[dH/dv_k, rho]_mu
FIELD_COLUMNS = FIELD_SUPEROPERATORS.transpose(1, 0, 2).reshape(64, 16)


def field_coupling_stack(g: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """(P, 15, 4) field-drive columns for couplings g (P,) and states rhos."""
    b_full = (rhos.reshape(-1, 1, 16) @ FIELD_COLUMNS.T).reshape(-1, 16, 4)
    # b_full is in index-swapped order: FRAME @ BASIS.swap == FRAME.conj()
    return FRAME.conj() @ (g[:, None, None] * b_full)


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
    products = _state_products(rhos)
    if noise_model == "einstein":
        d_full = _einstein_diffusion(lmats, products)
        resid = np.max(np.abs(_einstein_diffusion(coherents, products)),
                       axis=(1, 2))
        failures = {int(k): ResponseError(
            f"Hamiltonian part leaked into the diffusion matrix: {resid[k]:.2e}")
            for k in np.flatnonzero(resid > 1e-10)}
    elif noise_model == "vacuum-reservoir":
        radiative = dissipator_stack(rates[:, :RADIATIVE_ENTRIES])
        d_full = _einstein_diffusion(radiative, products)
    else:
        raise ValueError(f"unknown noise model {noise_model!r}; "
                         f"expected one of {NOISE_MODELS}")
    return FRAME @ d_full @ FRAME.T, failures


def diffusion_matrix(gen: Generator, state: AtomState) -> np.ndarray:
    """Diffusion via the generalized Einstein relation, in FRAME.

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

# sigma_mu = |i><j| (mu = 4 i + j) is a unit matrix: (sigma_mu rho)^T has row
# 4 q + i equal to rho[j, q], and (rho sigma_mu)^T row 4 j + q equal to
# rho[q, i], for q = 0..3
_MU = np.repeat(np.arange(16), 4)
_Q = np.tile(np.arange(4), 16)
_ROW_I = 4 * _Q + _MU // 4
_ROW_J = 4 * (_MU % 4) + _Q


def _state_products(rhos: np.ndarray) -> tuple:
    """vec(rho^T) as (P, 1, 16), and vec((sigma_mu rho)^T) and
    vec((rho sigma_mu)^T) as rows mu of (P, 16, 16), by index gathers."""
    n = len(rhos)
    flat = rhos.reshape(n, 16)
    y = np.zeros((n, 16, 16), dtype=rhos.dtype)
    z = np.zeros((n, 16, 16), dtype=rhos.dtype)
    y[:, _MU, _ROW_I] = flat[:, _ROW_J]
    z[:, _MU, _ROW_J] = flat[:, _ROW_I]
    return rhos.transpose(0, 2, 1).reshape(n, 1, 16), y, z


def _einstein_diffusion(lmats: np.ndarray, products: tuple) -> np.ndarray:
    """(P, 16, 16) matrices 2D/2 from the Einstein relation under lmats.

    With Tr(rho X) = vec(rho^T) . vec(X), the three terms are
    t1 = vec(rho^T) L^+ applied to every product sigma_mu sigma_nu,
    t2[m, n] = vec(L^+ sigma_m) . vec((sigma_n rho)^T) and
    t3[m, n] = vec((rho sigma_m)^T) . vec(L^+ sigma_n), with the state
    vectors from _state_products.  vec(sigma_mu) is the unit vector e_mu, so
    vec(L^+ sigma_mu) is row mu of conj(L).
    """
    n = len(lmats)
    rho_t, y, z = products
    lsig = lmats.conj()
    t1 = ((rho_t @ lsig.transpose(0, 2, 1)) @ PRODUCTS.T).reshape(n, 16, 16)
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
                c1 = lnd @ sig - sig @ lnd   # [L_n^+, sigma_mu]
                c2 = sig @ lm - lm @ sig     # [sigma_nu, L_m]
                # Tr(rho c1[mu] c2[nu]) = vec(c1[mu]) . vec((c2[nu] rho)^T)
                pair = c1.reshape(16, 16) @ (
                    (c2 @ rho).transpose(0, 2, 1).reshape(16, 16)).T
                d_full += rate * pair / 2.0
    return FRAME @ d_full @ FRAME.T


def equal_time_covariance(state: AtomState, projected: bool = True) -> np.ndarray:
    """Ordered covariance <dF_k dF_l> in FRAME (<d sigma_mu d sigma_nu>
    unless projected) directly from the state."""
    s = state.expectations
    # Tr(rho sigma_mu sigma_nu) = vec(rho^T) . vec(sigma_mu sigma_nu)
    first = (PRODUCTS @ state.rho.T.reshape(16)).reshape(16, 16)
    cov = first - np.outer(s, s)
    if projected:
        return FRAME @ cov @ FRAME.T
    return cov


def response_stack(a: np.ndarray, omegas: np.ndarray) -> tuple:
    """R(omega) = (-i omega I - A)^-1 and R(-omega) of a (P, 15, 15) stack.

    Refuses near-singular systems, naming the offending eigenvalue, and
    checks every inverse by its residual.  The drift is real, so R(-omega) =
    conj(R(omega)) with no second inversion; its own residual
    ||(i omega - A) R(-omega) - I|| checks that on every point.  Returns
    R(omega), R(-omega) and the failures as {stack position: ResponseError}.
    """
    eye = np.eye(a.shape[-1])
    iw = (1j * omegas)[:, None, None] * eye
    m = -iw - a
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
    r_minus = r.conj()
    resid = np.linalg.norm(m[ok] @ r[ok] - eye, axis=(1, 2))
    for j in np.flatnonzero(resid > 1e-10):
        failures[int(ok[j])] = ResponseError(
            f"response inversion residual {resid[j]:.2e}")
    # i omega - A, not conj(-i omega - A): only a real drift passes this
    resid = np.linalg.norm((iw - a) @ r_minus - eye, axis=(1, 2))
    for k in np.flatnonzero(resid > 1e-10):
        failures.setdefault(int(k), ResponseError(
            f"mirrored response residual {resid[k]:.2e} "
            f"at omega={-omegas[k]}"))
    return r, r_minus, failures


def atomic_response(a: np.ndarray, omega: float) -> np.ndarray:
    """Frequency-domain response R(omega) = (-i omega I - A)^-1.

    Refuses near-singular systems, naming the offending eigenvalue.
    """
    r, _, failures = response_stack(a[None], np.array([omega], dtype=float))
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
    a = drift_matrix(gen, state, params)
    b = field_coupling_matrix(gen, state, params)
    d, failures = diffusion_stack(noise_model, gen.matrix[None],
                                  gen.coherent[None], gen.rates[None],
                                  state.rho[None])
    if failures:
        raise failures[0]
    return LinearizedSystem(a=a, b=b, d=d[0], noise_scale=noise_scale(params))
