"""Brute-force validation machinery: direct time evolution, regression-theorem
correlations, Lyapunov covariances, and the cross-check battery.

Everything here recomputes its target from the generator alone (plus its own
integrators) so that agreement with the analytic modules is a genuine
two-route check rather than a tautology.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_sylvester

from . import fluctuations as fl
from . import propagation as pr
from .atom import Generator, build_generator
from .params import BASIS, SystemParams
from .steady import AtomState, solve_steady_state


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class EvolutionResult:
    times: np.ndarray
    states: np.ndarray           # (n_samples, 4, 4)
    final_residual: float        # ||L(rho_final)||_F
    trace_drift: float           # max |tr(rho) - 1| along the trajectory

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _taylor_step(ldt: np.ndarray) -> np.ndarray:
    """One classical RK4 step of x' = L x over dt, given ldt = L dt.

    On a linear system RK4 is exactly the 4th-order Taylor polynomial of
    the exponential.
    """
    return (np.eye(16) + ldt + ldt @ ldt / 2.0
            + ldt @ ldt @ ldt / 6.0 + ldt @ ldt @ ldt @ ldt / 24.0)


def time_evolve(gen: Generator, rho0: np.ndarray, t_final: float, dt: float,
                sample_every: int = 100) -> EvolutionResult:
    """Fixed-step 4th-order integration of rho' = L(rho).

    Trace renormalization is never applied; trace drift is a diagnostic of
    integrator quality.  Aborts if the state develops negativity beyond 1e-6.
    """
    lmat = gen.matrix
    lnorm = np.linalg.norm(lmat, 2)
    if dt * lnorm >= 0.1:
        raise ValueError(
            f"dt too large: dt*||L|| = {dt * lnorm:.3f} >= 0.1; "
            f"use dt < {0.1 / lnorm:.2e}")
    n_steps = max(1, int(round(t_final / dt)))
    step = _taylor_step(lmat * dt)
    x = rho0.reshape(16).astype(complex)
    times = [0.0]
    states = [rho0.astype(complex).copy()]
    trace_drift = abs(np.trace(rho0) - 1.0)
    for k in range(1, n_steps + 1):
        x = step @ x
        if k % sample_every == 0 or k == n_steps:
            rho = x.reshape(4, 4)
            trace_drift = max(trace_drift, abs(np.trace(rho) - 1.0))
            min_eig = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)))
            if min_eig < -1e-6:
                raise OracleError(
                    f"positivity violated at t = {k * dt:.3f} "
                    f"(min eigenvalue {min_eig:.2e}); reduce dt")
            times.append(k * dt)
            states.append(rho.copy())
    final_residual = float(np.linalg.norm(lmat @ x))
    return EvolutionResult(times=np.array(times), states=np.array(states),
                           final_residual=final_residual,
                           trace_drift=float(trace_drift))


def regression_covariance(gen: Generator, state: AtomState, tau: float,
                          dt: Optional[float] = None) -> np.ndarray:
    """Two-time correlation matrix <d sigma_mu(tau) d sigma_nu(0)>.

    Quantum regression theorem: evolve sigma_nu rho_ss under L for time tau,
    trace against sigma_mu, subtract the product of means.  Returned in the
    full 16-dim basis ordering.
    """
    lmat = gen.matrix
    lnorm = np.linalg.norm(lmat, 2)
    if dt is None:
        dt = 0.02 / max(lnorm, 1e-12)
    if tau < 0:
        raise ValueError("tau must be >= 0")
    rho = state.rho
    # initial conditions sigma_nu rho_ss, vectorized as columns
    init = np.einsum("nkl,lj->nkj", BASIS.sigmas, rho)  # (16, 4, 4)
    y = init.reshape(16, 16).T.copy()  # vec index x nu
    if tau > 0:
        n_steps = max(1, int(round(tau / dt)))
        step = _taylor_step(lmat * (tau / n_steps))
        for _ in range(n_steps):
            y = step @ y
    evolved = y.T.reshape(16, 4, 4)
    corr = np.einsum("mkl,nlk->mn", BASIS.sigmas, evolved)
    means = state.expectations
    return corr - np.outer(means, means)


def rk4_covariance(setup: pr.PropagationSetup, c_in: pr.FieldCovariance,
                   slabs: int = 200) -> np.ndarray:
    """Integrate dC/dz = M C + C M(-omega)^T + Nfield by fixed-step RK4.

    Classical RK4 over `slabs` equal subdivisions of the cell, in plain 4 x 4
    matrix form, as an independent route to the closed-form propagation.
    One RK4 step is affine in C, so it is evaluated once on a stack of 17
    matrices (the zero matrix with the source term, then the 16 unit
    matrices E_k without it); their images are the columns of the 17 x 17
    augmented step matrix, which is applied `slabs` times by repeated
    squaring.  The step is built from f alone, never from the Kronecker
    generator the closed form exponentiates, so the two routes share no code.
    """
    if slabs < 1:
        raise ValueError("slabs must be >= 1")
    m, m2t = setup.m, setup.m_minus.T
    h = setup.cell_length / slabs
    # stack entry 0 is the zero matrix with the source term, entries 1..16
    # are the unit matrices E_k without it
    c = np.concatenate([np.zeros((1, 4, 4)), np.eye(16).reshape(16, 4, 4)])
    n = np.zeros((17, 4, 4), dtype=setup.nfield.dtype)
    n[0] = setup.nfield

    def f(x):
        return m @ x + x @ m2t + n

    k1 = f(c)
    k2 = f(c + 0.5 * h * k1)
    k3 = f(c + 0.5 * h * k2)
    k4 = f(c + h * k3)
    images = (c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)).reshape(17, 16)
    step = np.zeros((17, 17), dtype=images.dtype)
    step[:16, :16] = images[1:].T
    step[:16, 16] = images[0]
    step[16, 16] = 1.0
    x = np.linalg.matrix_power(step, slabs) @ np.append(c_in.c.reshape(16), 1.0)
    return x[:16].reshape(4, 4)


def lyapunov_covariance(lin: fl.LinearizedSystem) -> np.ndarray:
    """Stationary covariance solving A S + S A^T + 2 D = 0 (Bartels-Stewart).

    scipy's solve_sylvester reduces A and A^T to complex Schur form and
    back-substitutes (Bartels & Stewart 1972).  The drift is real and D
    complex Hermitian, so A is cast to complex: the complex
    back-substitution needs the triangular Schur form, which a real A
    would get only in quasi-triangular form.
    """
    a = lin.a.astype(complex)
    max_re = float(np.max(np.real(np.linalg.eigvals(a))))
    if max_re >= -1e-14:
        raise OracleError(
            f"drift not strictly stable (max Re eigenvalue {max_re:.2e}); "
            "stationary covariance undefined")
    return solve_sylvester(a, a.T, -2.0 * lin.d)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    residual: float
    tolerance: float
    seconds: float   # wall time spent since the previous check

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.tolerance)


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "residual": c.residual,
                 "tolerance": c.tolerance, "passed": c.passed,
                 "seconds": c.seconds}
                for c in self.checks
            ],
        }


def cross_validate(params: SystemParams) -> ValidationReport:
    """Full consistency battery at one parameter point.

    Covers: state invariants (trace, Hermiticity, positivity), dual-method
    steady-state agreement, the dual-path Einstein-relation identity,
    Lyapunov vs regression covariance, commutator preservation through the
    propagation, and the closed-form propagation against RK4.  Each check
    records the wall time since the previous one; the first also covers the
    generator build and the steady solve.
    """
    checks = []
    last = time.perf_counter()

    def record(name: str, residual: float, tolerance: float) -> None:
        nonlocal last
        now = time.perf_counter()
        checks.append(ValidationCheck(name, residual, tolerance, now - last))
        last = now

    gen = build_generator(params)
    state = solve_steady_state(gen, params)
    rho = state.rho
    record("trace", abs(np.trace(rho) - 1.0), 1e-10)
    record("hermiticity", float(np.max(np.abs(rho - rho.conj().T))), 1e-10)
    min_eig = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)))
    record("positivity", max(0.0, -min_eig), 1e-10)

    other = solve_steady_state(
        gen, params,
        method="long-time-integration" if state.method == "null-space"
        else "null-space")
    record("steady-state dual-method agreement",
           float(np.max(np.abs(other.expectations - state.expectations))), 1e-8)

    # lin.d is the sandwich route: the Einstein D of fl.diffusion_stack
    lin = fl.linearize(gen, state, params)
    d_channel = fl.diffusion_matrix_channelwise(gen, state)
    record("Einstein-relation dual-path identity",
           float(np.max(np.abs(lin.d - d_channel))), 1e-12)

    sigma_direct = fl.equal_time_covariance(state)
    sigma_lyap = lyapunov_covariance(lin)
    scale = max(float(np.max(np.abs(sigma_direct))), 1e-30)
    record("Lyapunov vs regression covariance",
           float(np.max(np.abs(sigma_lyap - sigma_direct))) / scale, 1e-6)

    setup = pr.make_setup(lin, params)
    c_in = pr.input_covariance()
    res = pr.propagate_covariance(setup, c_in)
    c1, c2 = res.covariance.commutator_blocks()
    record("commutator preservation", max(abs(c1 - 1.0), abs(c2 - 1.0)), 1e-6)
    record("propagation: closed form vs RK4",
           float(np.max(np.abs(res.covariance.c - rk4_covariance(setup, c_in)))),
           1e-6)
    return ValidationReport(checks=tuple(checks))
