"""Mean-field steady state of the generator and the absorption it gives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import atom
from .atom import Generator
from .matfuncs import expm, inv_stack
from .params import BASIS, HERMITIAN_FRAME, SystemParams

#: fallback initial state: unpolarized atoms entering the beam
RHO_UNPOLARIZED = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)

DEGENERACY_RATIO = 1e-8
STEADY_RESIDUAL_TOL = 1e-10

#: row of the real-frame Liouvillian (the equation of <sigma_33>) that the
#: bordered solve replaces by the trace functional
BORDERED_ROW = 2
#: the trace functional in HERMITIAN_BASIS coordinates: Tr F_k = 1 for the
#: four diagonal F_k, 0 for the rest
TRACE_ROW = np.repeat([1.0, 0.0], [4, 12])
#: largest kappa_1 of a bordered matrix that certifies its solve: then
#: s_-2/s_0 >= 1/(32 kappa_1) >= DEGENERACY_RATIO (see _bordered_stack)
BORDERED_KAPPA_MAX = 1.0 / (32.0 * DEGENERACY_RATIO)


class SteadyStateError(RuntimeError):
    pass


@dataclass(frozen=True)
class AtomState:
    """Steady-state expectation values <sigma_ij> in canonical basis order."""

    expectations: np.ndarray
    method: str  # "null-space" | "long-time-integration"
    #: the state as the solve gave it, before it was made Hermitian with
    #: unit trace (None for a state not from solve_steady_state)
    raw: Optional[np.ndarray] = None

    @property
    def rho(self) -> np.ndarray:
        return BASIS.to_matrix(self.expectations)

    @property
    def populations(self) -> np.ndarray:
        return np.real(self.expectations[BASIS.diagonal])


def _state_failures(raw: np.ndarray, rhos: np.ndarray) -> dict:
    """Trace and Hermiticity of each state as the solve gave it (raw), and
    positivity of its Hermitian, unit-trace part (rhos), in that order."""
    dev = abs(raw.trace(axis1=1, axis2=2) - 1.0)
    herm = abs(raw - raw.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    min_eig = np.linalg.eigvalsh(rhos).min(axis=1)
    failures = {}
    for k in np.flatnonzero((dev > 1e-10) | (herm > 1e-10) | (min_eig < -1e-10)):
        if dev[k] > 1e-10:
            message = f"steady state trace deviates from 1 by {dev[k]:.2e}"
        elif herm[k] > 1e-10:
            message = f"steady state not Hermitian, residual {herm[k]:.2e}"
        else:
            message = f"steady state not positive, min eigenvalue {min_eig[k]:.2e}"
        failures[int(k)] = SteadyStateError(message)
    return failures


def _integrate_to_steady(lmat: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """Long-time integration by exact exponential stepping with doubling.

    Deterministic: the propagator over an initial interval is squared until
    the generator residual of the evolved state stops improving or passes
    the tolerance.
    """
    scale = np.linalg.norm(lmat, 2)
    # below the smallest normal float, ||L rho0|| is far inside the
    # tolerance, and dividing the complex L by ||L|| gives NaN
    if scale < np.finfo(float).tiny:
        return rho0.copy()
    prop = expm(lmat / scale)  # time step 1/||L||
    x = rho0.reshape(16)
    best = None
    for _ in range(60):  # covers times up to 2^60/||L||
        x = prop @ x
        x = x / np.real(np.trace(x.reshape(4, 4)))  # guard against rounding drift
        res = np.linalg.norm(lmat @ x)
        if best is None or res < best[0]:
            best = (res, x.copy())
        if res < STEADY_RESIDUAL_TOL:
            return x.reshape(4, 4)
        prop = prop @ prop
    res, x = best
    if res < STEADY_RESIDUAL_TOL * 10:
        return x.reshape(4, 4)
    raise SteadyStateError(
        f"long-time integration did not converge: residual {res:.2e} "
        f"(tolerance {STEADY_RESIDUAL_TOL:.1e})")


def _bordered_stack(real: np.ndarray) -> tuple:
    """The steady state of each (16, 16) real generator from one real solve.

    In the Hermitian frame U = HERMITIAN_FRAME, B = U^H L U is real, since
    L maps Hermitian matrices to Hermitian ones.  Replacing row BORDERED_ROW
    of B by the trace functional gives the bordered matrix B'; column
    BORDERED_ROW of its inverse holds the coordinates x of the state with
    unit trace (B x = 0 in every other row).  Returns the (P, 4, 4) states,
    the points the solve certifies, the residuals ||L rho|| = ||B x||, B'^-1.

    Certificate: kappa_1 = ||B'||_1 ||B'^-1||_1 <= BORDERED_KAPPA_MAX.  B'
    is B plus a rank-one change, so by interlacing s_min(B') <= s_-2(B) =
    s_-2(L), and s_min(B') >= 1/(4 ||B'^-1||_1) (norm equivalence, n = 16).
    L preserves the trace, so the replaced row is minus the sum of the
    other three population rows and ||B||_1 <= 2 ||B'||_1, whence
    s_0(L) = ||B||_2 <= 4 ||B||_1 <= 8 ||B'||_1.  A certified point thus
    passes the SVD's gap test, s_-2/s_0 >= 1/(32 kappa_1) >= DEGENERACY_RATIO,
    and its null space is one-dimensional.  It passes the SVD's trace test
    too: the unit null vector x/||x|| has trace 1/||x||, and ||x|| <=
    4 ||B'^-1||_1 <= 4 kappa_1 < 1e8, as ||B'||_1 >= 1.  NaN, as at an
    exactly singular B' (see inv_stack), is not certified.
    """
    bordered = real.copy()
    bordered[:, BORDERED_ROW] = TRACE_ROW
    inverse, kappa = inv_stack(bordered)
    x = inverse[:, :, BORDERED_ROW]
    certified = kappa <= BORDERED_KAPPA_MAX
    # an uncertified inverse may overflow; only certified states and
    # residuals are read
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm((real @ x[:, :, None])[:, :, 0], axis=1)
        states = (x @ HERMITIAN_FRAME.T).reshape(-1, 4, 4)
    return states, certified, residual, inverse


def steady_state_stack(real: np.ndarray, h: np.ndarray, r: np.ndarray,
                       method: str = "auto") -> tuple:
    """Solve L(rho) = 0 with unit trace at each point of a stack, from its
    real generators real = atom.real_generator_stack(h, r) and its (P, 6)
    Hamiltonian and (P, 11) rate coefficients h and r.

    Returns the (P, 4, 4) states, the states as solved (raw), the method
    used for each, the failures as {stack position: SteadyStateError} and
    the bordered inverses (None under "long-time-integration").
    The null spaces come from one batched bordered solve of real
    (_bordered_stack), whose certified points must also pass ||L rho|| <=
    STEADY_RESIDUAL_TOL.  The complex L is contracted only for the points
    it does not certify, or for every point under "long-time-integration".
    Those take one batched SVD of L, and the ones whose null space is
    degenerate, or (in "auto") whose SVD state fails its raw Hermiticity
    check, take the long-time integration one by one.  Each state's trace
    and Hermiticity are checked as solved, before it is made Hermitian with
    unit trace.  A failed point whose rates are all 0 has no dissipation,
    and its failure says so.
    """
    if method not in ("auto", "null-space", "long-time-integration"):
        raise ValueError(f"unknown method {method!r}")
    n = len(real)
    methods = ["null-space" if method == "auto" else method] * n
    failures = {}
    if method == "long-time-integration":
        rhos, inverse = np.empty((n, 4, 4), dtype=complex), None
        rest = np.arange(n)
    else:
        rhos, certified, residual, inverse = _bordered_stack(real)
        for k in np.flatnonzero(certified & (residual > STEADY_RESIDUAL_TOL)):
            failures[int(k)] = SteadyStateError(
                f"steady state residual {residual[k]:.2e} exceeds "
                f"{STEADY_RESIDUAL_TOL:.1e}")
        rest = np.flatnonzero(~certified)
    if rest.size:
        lmats = atom.liouvillian_stack(h[rest], atom.dissipator_stack(r[rest]))
        integrate = np.full(rest.size, method == "long-time-integration")
        if method != "long-time-integration":
            _, svals, vh = np.linalg.svd(lmats)
            vec = vh[:, -1].conj().reshape(rest.size, 4, 4)
            tr = vec.trace(axis1=1, axis2=2)
            degenerate = ((svals[:, -2] < DEGENERACY_RATIO * svals[:, 0])
                          | (abs(tr) < 1e-8))
            rhos[rest] = vec / np.where(degenerate, 1.0, tr)[:, None, None]
            if method == "auto":
                # integrated too: a state that fails its raw Hermiticity
                # check (vec / tr has trace 1 to rounding)
                herm = abs(rhos[rest] - rhos[rest].conj().transpose(0, 2, 1))
                integrate = degenerate | (herm.max(axis=(1, 2)) > 1e-10)
                for k in rest[integrate]:
                    methods[k] = "long-time-integration"
            else:
                for i in np.flatnonzero(degenerate):
                    failures[int(rest[i])] = SteadyStateError(
                        "null space degenerate (singular-value ratio "
                        f"{svals[i, -2] / svals[i, 0]:.2e}); use long-time "
                        "integration")
                rhos[rest[degenerate]] = RHO_UNPOLARIZED  # stand-ins
        for i in np.flatnonzero(integrate):
            try:
                rhos[rest[i]] = _integrate_to_steady(lmats[i], RHO_UNPOLARIZED)
            except SteadyStateError as exc:
                rhos[rest[i]] = RHO_UNPOLARIZED
                failures[int(rest[i])] = exc
    final = (rhos + rhos.conj().transpose(0, 2, 1)) / 2
    final = final / final.trace(axis1=1, axis2=2).real[:, None, None]
    for k, exc in _state_failures(rhos, final).items():
        failures.setdefault(k, exc)
    for k in failures:
        if not r[k].any():
            failures[k] = SteadyStateError(
                "no dissipation (every rate is 0) and so no unique steady "
                f"state: {failures[k]}")
    return final, rhos, methods, failures, inverse


def solve_steady_state(gen: Generator, params: SystemParams,
                       method: str = "auto") -> AtomState:
    """Solve L(rho) = 0 with unit trace.

    Primary route: null space of the 16x16 Liouvillian with the trace
    constraint, from the certified bordered solve of gen.real or else the
    SVD of L contracted from gen's coefficients (see steady_state_stack).
    If the null space is numerically degenerate (second-smallest singular
    value below 1e-8 * ||L||), or in "auto" the SVD state fails its raw
    checks, the solver falls back to long-time integration from an
    unpolarized lower-level mixture and records the method used.
    """
    rhos, raw, methods, failures, _ = steady_state_stack(
        gen.real[None], gen.hamiltonian[None], gen.rates[None], method)
    if failures:
        raise failures[0]
    return AtomState(expectations=BASIS.expectations(rhos[0]),
                     method=methods[0], raw=raw[0])


def absorption(expectations: np.ndarray, params) -> tuple:
    """s1, s2 and alpha_i = 2 chi_i Im(s_i) / <a_i> (NaN where <a_i> = 0),
    the intensity loss per meter of field i at the medium input, of
    expectation vectors (..., 16) and their SystemParams or ParamStack."""
    e = expectations
    s1 = e[..., BASIS.index(1, 4)] + e[..., BASIS.index(1, 2)]
    s2 = e[..., BASIS.index(3, 4)] + e[..., BASIS.index(3, 2)]
    with np.errstate(all="ignore"):  # silent as float arithmetic on a point
        return s1, s2, *(np.where(a > 0, 2.0 * chi * np.imag(s) / a, np.nan)
                         for s, chi, a in ((s1, params.chi1, params.a1_mean),
                                           (s2, params.chi2, params.a2_mean)))
