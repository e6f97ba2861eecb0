"""Mean-field steady state of the generator and derived observables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .atom import Generator
from .params import BASIS, SystemParams

#: fallback initial state: unpolarized atoms entering the beam
RHO_UNPOLARIZED = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)

DEGENERACY_RATIO = 1e-8
STEADY_RESIDUAL_TOL = 1e-10


class SteadyStateError(RuntimeError):
    pass


@dataclass(frozen=True)
class AtomState:
    """Steady-state expectation values <sigma_ij> in canonical basis order."""

    expectations: np.ndarray
    method: str  # "null-space" | "long-time-integration"

    @property
    def rho(self) -> np.ndarray:
        return BASIS.to_matrix(self.expectations)

    @property
    def populations(self) -> np.ndarray:
        return np.real(self.expectations[BASIS.diagonal])

    def expectation(self, i: int, j: int) -> complex:
        return complex(self.expectations[BASIS.index(i, j)])


def _state_failures(rhos: np.ndarray) -> dict:
    """Trace, Hermiticity and positivity of each state, in that order."""
    dev = abs(rhos.trace(axis1=1, axis2=2) - 1.0)
    herm = abs(rhos - rhos.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    # eigvalsh reads one triangle; the Hermiticity check covers the other
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


def _integrate_to_steady(lmat: np.ndarray, rho0: np.ndarray,
                         residual_tol: float = STEADY_RESIDUAL_TOL) -> np.ndarray:
    """Long-time integration by exact exponential stepping with doubling.

    Deterministic: the propagator over an initial interval is squared until
    the generator residual of the evolved state stops improving or passes
    the tolerance.
    """
    scale = np.linalg.norm(lmat, 2)
    if scale == 0:
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
        if res < residual_tol:
            return x.reshape(4, 4)
        prop = prop @ prop
    res, x = best
    if res < residual_tol * 10:
        return x.reshape(4, 4)
    raise SteadyStateError(
        f"long-time integration did not converge: residual {res:.2e} "
        f"(tolerance {residual_tol:.1e})")


def steady_state_stack(lmats: np.ndarray, method: str = "auto"
                       ) -> tuple[np.ndarray, list, dict]:
    """Solve L(rho) = 0 with unit trace for a (P, 16, 16) Liouvillian stack.

    Returns the (P, 4, 4) states, the method used for each, and the
    failures as {stack position: SteadyStateError}.  The null spaces come
    from one batched SVD; points whose null space is degenerate take the
    long-time integration one by one.
    """
    if method not in ("auto", "null-space", "long-time-integration"):
        raise ValueError(f"unknown method {method!r}")
    n = len(lmats)
    methods = [method] * n
    failures = {}
    if method == "long-time-integration":
        rhos = np.empty((n, 4, 4), dtype=complex)
        integrate = np.ones(n, dtype=bool)
    else:
        _, svals, vh = np.linalg.svd(lmats)
        vec = vh[:, -1].conj().reshape(n, 4, 4)
        tr = vec.trace(axis1=1, axis2=2)
        integrate = ((svals[:, -2] < DEGENERACY_RATIO * svals[:, 0])
                     | (abs(tr) < 1e-8))
        rhos = vec / np.where(integrate, 1.0, tr)[:, None, None]
        if method == "auto":
            methods = ["long-time-integration" if d else "null-space"
                       for d in integrate]
        else:
            failures = {int(k): SteadyStateError(
                "null space degenerate (singular-value ratio "
                f"{svals[k, -2] / svals[k, 0]:.2e}); use long-time integration")
                for k in np.flatnonzero(integrate)}
            rhos[integrate] = RHO_UNPOLARIZED  # stand-ins for failed points
            integrate[:] = False
    for k in np.flatnonzero(integrate):
        try:
            rhos[k] = _integrate_to_steady(lmats[k], RHO_UNPOLARIZED)
        except SteadyStateError as exc:
            rhos[k] = RHO_UNPOLARIZED
            failures[int(k)] = exc
    rhos = (rhos + rhos.conj().transpose(0, 2, 1)) / 2
    rhos = rhos / rhos.trace(axis1=1, axis2=2).real[:, None, None]
    for k, exc in _state_failures(rhos).items():
        failures.setdefault(k, exc)
    return rhos, methods, failures


def solve_steady_state(gen: Generator, params: SystemParams,
                       method: str = "auto") -> AtomState:
    """Solve L(rho) = 0 with unit trace.

    Primary route: null space of the 16x16 Liouvillian (SVD) with the trace
    constraint used for normalization.  If the null space is numerically
    degenerate (second-smallest singular value below 1e-8 * ||L||) the solver
    falls back to long-time integration from an unpolarized lower-level
    mixture and records the method used.
    """
    rhos, methods, failures = steady_state_stack(gen.matrix[None], method)
    if failures:
        raise failures[0]
    return AtomState(expectations=BASIS.expectations(rhos[0]),
                     method=methods[0])


@dataclass(frozen=True)
class Observables:
    """Populations, optical-coherence sums, and absorption coefficients."""

    populations: np.ndarray
    s1: complex  # <sigma_14> + <sigma_12>
    s2: complex  # <sigma_34> + <sigma_32>
    alpha1: Optional[float]  # intensity absorption, 1/m; None if <a1> = 0
    alpha2: Optional[float]


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


def observables(state: AtomState, params: SystemParams) -> Observables:
    """Input-plane observables of the solved steady state (see absorption);
    the mean fields themselves are never depleted."""
    s1, s2, alpha1, alpha2 = absorption(state.expectations, params)
    return Observables(
        populations=state.populations, s1=complex(s1), s2=complex(s2),
        alpha1=float(alpha1) if params.a1_mean > 0 else None,
        alpha2=float(alpha2) if params.a2_mean > 0 else None)
