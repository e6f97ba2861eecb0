"""Linearized Heisenberg-Langevin dynamics about the steady state.

Atomic operators are split into mean value plus fluctuation; the fluctuation
vector lives on the 15-dimensional traceless subspace (trace is conserved
exactly, with zero noise), in the coordinates y_k = <dF_k> of an orthonormal
basis of traceless Hermitian operators (FRAME), where every Heisenberg drift
is a real matrix.  Drift, field-coupling columns, and the Langevin
diffusion matrix are all derived from the same generator; the diffusion
follows from the generalized Einstein relation evaluated in the steady state,
applied to the generator's dissipator alone: for a Hamiltonian generator
L_H+(XY) = L_H+(X) Y + X L_H+(Y), so its part of the relation vanishes
identically.

The kernels read the state as its real coordinates x in HERMITIAN_BASIS:
B is linear in x and D bilinear in x and the rates, so each is a real
table built at import from its complex route.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .atom import (DISSIPATOR_BASIS, FIELD_SUPEROPERATORS, JUMP_GROUPS,
                   RADIATIVE_ENTRIES, RATE_GROUPS, RATE_LEADS, gksl_defects)
from .matfuncs import inv_stack, norm_1
from .params import BASIS, HERMITIAN_BASIS, HERMITIAN_FRAME
from .steady import BORDERED_ROW, AtomState


class ResponseError(RuntimeError):
    pass


#: O: on the four population coordinates of HERMITIAN_BASIS, row 0 their
#: sum over 2 and rows 1-3 the zero-sum combinations; the identity on the
#: 12 coherences
ROTATION = np.eye(16)
ROTATION[:4, :4] = [[1, 1, 1, 1], [1, -1, 0, 0], [1, 1, -2, 0], [1, 1, 1, -3]]
ROTATION[:4] /= np.sqrt([[4.0], [2.0], [6.0], [12.0]])
#: rows 1-15 of O U^T, U = HERMITIAN_FRAME: the three zero-sum combinations
#: of the diagonal F_k, then the off-diagonal F_k, each flattened in
#: expectation order, so y_k = <dF_k> = FRAME[k] @ d<sigma> are the real
#: coordinates of the traceless fluctuations; FRAME @ BASIS.swap == FRAME.conj()
FRAME = ROTATION[1:] @ HERMITIAN_BASIS.reshape(16, 16)
#: O_1^T (O_1 = ROTATION[1:]) with row BORDERED_ROW zeroed (response_stack)
O1_BORDERED = ROTATION[1:].T * (np.arange(16) != BORDERED_ROW)[:, None]


def drift_stack(real: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, dict]:
    """Drift of each (P, 16, 16) real generator B = U^H L U (see
    atom.real_generator_stack), with the mean fields frozen, and its
    stability certificate from the (P, 11) rate coefficients.

    <sigma_ij> = rho_ji, so the Heisenberg drift of the expectation vector
    is L with both indices swapped, S L S, and its drift in FRAME is
    FRAME S L S FRAME^H = FRAME.conj() L FRAME^T = (O B O^T)[1:, 1:], with
    O = ROTATION: real, and O touches only the four populations.  The full
    16-dim drift has the trace vector as an exact left null vector, so
    fluctuations stay on the traceless subspace FRAME spans, and its
    spectrum is L's less that 0.  A GKSL generator has its spectrum in the
    closed left half-plane, so a row whose rates pass atom.gksl_defects has
    a stable drift with no eigenvalue computed; the eigenvalues are checked
    by the validate battery ("drift stability").  Returns the (P, 15, 15)
    drifts and the failures as {stack position: ResponseError} of the rows
    the certificate refuses.
    """
    a = ROTATION[1:] @ real @ ROTATION[1:].T
    failures = {k: ResponseError(f"drift stability not certified: {text}")
                for k, text in gksl_defects(rates).items()}
    return a, failures


#: row k: B at g = 1 in the state F_k of HERMITIAN_BASIS, as (re, im) pairs:
#: the commutators -i[dH/dv, F_k] in index-swapped order (FRAME.conj())
FIELD_TABLE = np.ascontiguousarray((FRAME.conj() @ FIELD_SUPEROPERATORS
                                    @ HERMITIAN_FRAME).transpose(2, 1, 0)
                                   ).view(float).reshape(16, 120)


def field_coupling_stack(g: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """(P, 15, 4) field-drive columns for couplings g (P,) and the (P, 16)
    state coordinates x in HERMITIAN_BASIS (rho = sum_k x_k F_k).

    The columns are (da1, da1+, da2, da2+).  The master equation is linear
    in each field amplitude, so each column is the exact derivative of the
    mean-field evolution map applied to the state; equivalently the
    expectation of i[dH/dv_k, sigma_mu]: one product per point with
    FIELD_TABLE.
    """
    b = (coords[:, None, :] @ FIELD_TABLE).view(complex).reshape(-1, 15, 4)
    return g[:, None, None] * b


def diffusion_stack(noise_model: str, rates: np.ndarray,
                    coords: np.ndarray) -> np.ndarray:
    """(P, 15, 15) diffusion matrices of the chosen noise model, in FRAME,
    of the (P, 11) rate coefficients and the (P, 16) state coordinates x in
    HERMITIAN_BASIS.

    Both apply the generalized Einstein relation in the steady state,
    2 D_[mu,nu] = <Ld(sigma_mu sigma_nu)> - <Ld(sigma_mu) sigma_nu>
                  - <sigma_mu Ld(sigma_nu)>,
    to the dissipator of their channels: the Hamiltonian part of a
    generator drops out of it exactly (see the module docstring), so this
    is the relation under the full generator.  "einstein" takes every rate
    entry.  "vacuum-reservoir" takes the radiative (shared-vacuum
    spontaneous-emission) entries only, as in treatments where only the
    radiative reservoir is quantized: the collisional lower-level channels
    contribute drift but no Langevin force, so the field commutators are not
    preserved exactly (the deficit is the dropped collisional noise).

    D comes from the model's DIFFUSION_TABLES entry, by elementwise
    operations only, so a point's D does not depend on the stack.
    """
    if noise_model not in NOISE_MODELS:
        raise ValueError(f"unknown noise model {noise_model!r}; "
                         f"expected one of {NOISE_MODELS}")
    groups, slots, order = DIFFUSION_TABLES[noise_model]
    n = len(coords)
    products = (rates[:, RATE_LEADS[:groups]].T[:, None]
                * coords.T[None]).reshape(16 * groups, n)
    acc = np.zeros((len(order), n))
    for size, rows, coefs in slots:
        acc[:size] += products[rows] * coefs
    upper = np.ascontiguousarray(acc[order].T).view(complex)
    d = np.empty((n, 15, 15), dtype=complex)
    d[:, _UPPER[1], _UPPER[0]] = upper.conj()
    d[:, _UPPER[0], _UPPER[1]] = upper  # the diagonal is real
    return d


#: row 16 mu + nu is vec(sigma_mu sigma_nu)
PRODUCTS = np.einsum("mkl,nlj->mnkj", BASIS.sigmas, BASIS.sigmas).reshape(256, 16)


def _state_products(rhos: np.ndarray) -> tuple:
    """vec(rho^T) as (P, 1, 16), and vec((sigma_mu rho)^T) and
    vec((rho sigma_mu)^T) as rows mu of (P, 16, 16)."""
    n = len(rhos)
    y = (BASIS.sigmas @ rhos[:, None]).transpose(0, 1, 3, 2).reshape(n, 16, 16)
    z = (rhos[:, None] @ BASIS.sigmas).transpose(0, 1, 3, 2).reshape(n, 16, 16)
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


#: the upper triangle of a 15 x 15 matrix: its (re, im) pairs are a
#: Hermitian D's 120 + 105 independent real entries (and 15 zeros)
_UPPER = np.triu_indices(15)


def _diffusion_table(values: np.ndarray) -> tuple:
    """(groups, slots, order) of a (16 * groups, 240) table: D's upper
    triangle, as (re, im) pairs, over the products r_g x_k.  The outputs
    are sorted by term count: slot s adds the s-th term (product row,
    coefficient) of the `size` outputs that have one; order is each
    output's sorted position."""
    counts = np.count_nonzero(values, axis=0)
    by_count = np.array(sorted(range(counts.size), key=lambda e: -counts[e]))
    rows = np.nonzero(values.T)[1]  # each output's terms in turn
    first = np.cumsum(counts) - counts  # each output's first term in rows
    slots = []
    for s in range(counts.max()):
        outputs = by_count[counts[by_count] > s]
        at = rows[first[outputs] + s]
        slots.append((outputs.size, at, values[at, outputs, None]))
    order = np.empty_like(by_count)
    order[by_count] = np.arange(by_count.size)
    return len(values) // 16, tuple(slots), order


def _diffusion_tables() -> dict:
    """Noise model -> its table: every rate group, or the radiative groups,
    which come first.  The values are _einstein_diffusion on each group's
    dissipator and each F_k, with the entries below 1e-12, the rounding
    residue of zeros (every exact entry is >= 1/12), set to 0."""
    products = _state_products(HERMITIAN_BASIS)
    values = np.empty((16 * len(RATE_GROUPS), 2 * len(_UPPER[0])))
    for i, group in enumerate(RATE_GROUPS):
        lmats = np.repeat(DISSIPATOR_BASIS[list(group)].sum(0)[None], 16, 0)
        d = FRAME @ _einstein_diffusion(lmats, products) @ FRAME.T
        block = np.ascontiguousarray(d[:, _UPPER[0], _UPPER[1]]).view(float)
        values[16 * i:16 * i + 16] = np.where(abs(block) < 1e-12, 0.0, block)
    radiative = sum(g[-1] < RADIATIVE_ENTRIES for g in RATE_GROUPS)
    return {"einstein": _diffusion_table(values),
            "vacuum-reservoir": _diffusion_table(values[:16 * radiative])}


DIFFUSION_TABLES = _diffusion_tables()


#: block j, for each rate entry j = (group, m, n) in gen.rates order, maps
#: vec(rho) to Tr(rho [L_n^+, sigma_mu][sigma_nu, L_m]) at [mu, nu], as rows
#: vec(X^T) since Tr(rho X) = vec(X^T) . vec(rho); built from the jump
#: operators alone, it shares nothing with the generator it checks
CHANNEL_SANDWICHES = np.array([
    ((ln.conj().T @ BASIS.sigmas - BASIS.sigmas @ ln.conj().T)[:, None]
     @ (BASIS.sigmas @ lm - lm @ BASIS.sigmas)[None]).transpose(0, 1, 3, 2)
    for ops in JUMP_GROUPS for lm in ops for ln in ops]).reshape(-1, 16, 16, 16)


def diffusion_matrix_channelwise(rates: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Independent evaluation of D: per-channel sum of commutator sandwiches.

    For each dissipation pair (m, n) with rate G_mn the Einstein relation
    reduces to G_mn <[L_n^+, sigma_mu][sigma_nu, L_m]>; summed over the
    channels, with rates (P, 11) and states rhos (P, 4, 4), it must reproduce
    diffusion_stack's table route to machine precision.  Returns (P, 15, 15).
    """
    n = len(rhos)
    pairs = (rhos.reshape(n, 1, 16) @ CHANNEL_SANDWICHES.reshape(-1, 16).T
             ).reshape(n, len(CHANNEL_SANDWICHES), 256)
    d_full = (rates[:, None, :] @ pairs).reshape(n, 16, 16) / 2.0
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


#: the largest Frobenius residual of a response's inverse (response_stack)
RESPONSE_RESIDUAL_TOL = 1e-10


def response_stack(a: np.ndarray, omegas: np.ndarray,
                   binv: np.ndarray | None = None) -> tuple:
    """R(omega) = (-i omega I - A)^-1 of a (P, 15, 15) stack, its rows all
    at omega = 0 or all at omega != 0 (transfer_stack splits them).

    Refuses near-singular systems (condition number above 1e12), naming the
    offending eigenvalue, and checks every inverse by its residual.  The
    inverse's kappa_1 brackets kappa_2 within n = 15 [Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, sec. 6.2]: a
    point whose inverse passes its residual and n kappa_1 (1 + 1e-9) <= 1e12
    needs no SVD; the SVD decides the others, among them an exactly
    singular member, whose inverse inv_stack leaves NaN.  At omega = 0,
    R(0) is real.  R(-omega) is not formed: for the real drift it is
    conj(R(omega)), which transfer_stack reads through the pairing.  With
    binv, the inverses of the bordered matrices B' of the rows, all at 0
    (steady_state_stack), a row whose block R(0) = -O_1 B'^-1 O1_BORDERED
    passes that test needs no inversion, and the others are inverted: as
    B' has the trace in row BORDERED_ROW, X = B'^-1 O1_BORDERED is
    traceless and B X = O_1^T (in that row both are minus the sum of the
    other population rows), so A O_1 X = O_1 B X = I.  Returns R(omega)
    and the failures as {stack position: ResponseError}.
    """
    eye = np.eye(a.shape[-1])
    iw = (1j * omegas)[:, None, None] * eye if omegas.any() else 0.0
    m = -iw - a
    with np.errstate(over="ignore", invalid="ignore"):  # a block may overflow
        if binv is not None:
            r = -ROTATION[1:] @ binv @ O1_BORDERED
            kappa1 = norm_1(m) * norm_1(r)
        else:
            r, kappa1 = inv_stack(m)  # NaN at an exactly singular member
        resid = np.linalg.norm(m @ r - eye, axis=(1, 2))
        svd = ~((len(eye) * (1.0 + 1e-9) * kappa1 <= 1e12)
                & (resid <= RESPONSE_RESIDUAL_TOL))
    if binv is not None and (redo := np.flatnonzero(svd)).size:  # inverted
        r[redo], refused = response_stack(a[redo], omegas[redo])
        return r, {int(redo[k]): e for k, e in refused.items()}
    cond = np.zeros(len(m))
    if svd.any():
        cond[svd] = np.linalg.cond(m[svd])
    singular = svd & ~(cond <= 1e12)
    failures = {}
    for k in np.flatnonzero(singular):
        evals = np.linalg.eigvals(a[k])
        worst = evals[np.argmin(np.abs(-1j * omegas[k] - evals))]
        failures[int(k)] = ResponseError(
            f"atomic response near-singular at omega={omegas[k]}: condition "
            f"{cond[k]:.2e}, offending eigenvalue {worst:.3e}")
    r[singular] = 0.0
    for k in np.flatnonzero(~singular & ~(resid <= RESPONSE_RESIDUAL_TOL)):
        failures[int(k)] = ResponseError(
            f"response inversion residual {resid[k]:.2e}")
    return r, failures


class Modes(NamedTuple):
    """A = V diag(values) V^-1 of each drift of a stack (modal_stack)."""

    values: np.ndarray   # (P, 15) eigenvalues lambda_k
    vectors: np.ndarray  # (P, 15, 15) V
    inverse: np.ndarray  # (P, 15, 15) V^-1
    norm: np.ndarray     # (P,) ||A||_1
    kappa: np.ndarray    # (P,) ||V||_1 ||V^-1||_1, NaN where eig failed


def modal_stack(a: np.ndarray) -> Modes:
    """The eigendecomposition of each drift of a (P, 15, 15) stack, from
    one batched eig and one batched inv.

    It gives every frequency's response at once, R(omega) = V diag(c)
    V^-1 with c_k = 1 / (-i omega - lambda_k), the modal form of a
    frequency response; its error grows with kappa(V) [Bauer-Fike; Golub
    and Van Loan, Matrix Computations, 4th ed., sec. 7.2], so each row
    that reads it carries a certificate (propagation._modal_transfer).  A
    drift that is not finite, or whose eig does not converge, gets NaN, so
    its rows take the inverse.
    """
    values = np.full(a.shape[:2], np.nan, dtype=complex)
    vectors = np.full(a.shape, np.nan, dtype=complex)
    finite = np.isfinite(a).all(axis=(1, 2))
    try:
        values[finite], vectors[finite] = np.linalg.eig(a[finite])
    except np.linalg.LinAlgError:  # no convergence: NaN, as not finite
        pass
    inverse, kappa = inv_stack(vectors)
    return Modes(values, vectors, inverse, norm_1(a), kappa)


NOISE_MODELS = ("einstein", "vacuum-reservoir")


def noise_scale(params) -> np.ndarray:
    """L / N, the scale of the collective Langevin correlator (0 if N = 0),
    of a SystemParams or, as a column, of a ParamStack: <F_k(z,t)
    F_l(z',t')> = (L/N) 2 D_kl delta(z-z') delta(t-t')."""
    n_atoms = np.asarray(params.atom_number)
    return np.divide(params.cell_length, n_atoms, where=n_atoms > 0,
                     out=np.zeros(n_atoms.shape))

