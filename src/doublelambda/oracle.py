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

from . import fluctuations as fl
from . import propagation as pr
from .atom import Generator, build_generator
from .params import (BASIS, HERMITIAN_FRAME, SystemParams,
                     hermitian_coordinates)
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
                   slabs: int = 200,
                   opposite: Optional[pr.PropagationSetup] = None
                   ) -> np.ndarray:
    """Integrate dC/dz = M C + C M(-omega)^T + Nfield by fixed-step RK4.

    Classical RK4 over `slabs` equal subdivisions of the cell, in plain 4 x 4
    matrix form, as an independent route to the closed-form propagation.
    M(-omega) is the M of `opposite`, the point's setup at -omega from its
    own make_setup (setup itself, the default, at omega = 0): the oracle
    never reads it through the pairing Pi conj(M) Pi the closed form uses.
    One RK4 step is affine in C, so it is evaluated once on a stack of 17
    matrices (the zero matrix with the source term, then the 16 unit
    matrices E_k without it); their images are the columns of the 17 x 17
    augmented step matrix, which is applied `slabs` times by repeated
    squaring.  The step is built from f alone, never from the Van Loan
    generator the closed form exponentiates, so the two routes share no code.
    """
    if slabs < 1:
        raise ValueError("slabs must be >= 1")
    opposite = setup if opposite is None else opposite
    if opposite.omega != -setup.omega:
        raise ValueError(f"the setup at omega = {setup.omega} needs M(-omega) "
                         f"from a setup at {-setup.omega}, not {opposite.omega}")
    m, m2t = setup.m, opposite.m.T
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


#: Bound on the eigenbasis Lyapunov solve's relative residual
#: ||A S + S A^T + 2D||_F / (2 ||A||_F ||S||_F + 2 ||D||_F).  On every
#: point of the four figure grids at n0 and 1000 n0 and 500 random draws it
#: stays below 2e-14, with kappa_1(V) <= 305.
LYAPUNOV_RESIDUAL_BOUND = 1e-10


def lyapunov_covariance(a: np.ndarray, d: np.ndarray,
                        eig: Optional[tuple] = None) -> np.ndarray:
    """Stationary covariance solving A S + S A^T + 2 D = 0 in the drift's
    eigenbasis, for a real (15, 15) drift a and diffusion d.

    With A = V diag(lam) W, W = V^-1, the equation becomes
    lam_i X_ij + X_ij lam_j = (W (-2D) W^T)_ij for S = V X V^T.  One
    eigendecomposition (lam, V) = np.linalg.eig(a), taken here unless the
    caller passes it as eig, serves the stability guard and the solve, all
    in numpy.  The solve is only as good as V's conditioning: a defective or
    nearly defective drift (a Jordan block) has no usable eigenbasis, so
    the relative residual certifies each solution and a solve above
    LYAPUNOV_RESIDUAL_BOUND, or not finite, raises OracleError with the
    residual and kappa_1(V).
    """
    lam, v = np.linalg.eig(a) if eig is None else eig
    max_re = float(np.max(lam.real))
    if max_re >= -1e-14:
        raise OracleError(
            f"drift not strictly stable (max Re eigenvalue {max_re:.2e}); "
            "stationary covariance undefined")
    # a defective drift overflows W and the products: the residual refuses it
    with np.errstate(all="ignore"):
        w = np.linalg.inv(v)
        s = v @ ((w @ (-2.0 * d) @ w.T) / (lam[:, None] + lam)) @ v.T
        residual = float(
            np.linalg.norm(a @ s + s @ a.T + 2.0 * d)
            / (2.0 * np.linalg.norm(a) * np.linalg.norm(s)
               + 2.0 * np.linalg.norm(d)))
        if not residual <= LYAPUNOV_RESIDUAL_BOUND:
            kappa = np.linalg.norm(v, 1) * np.linalg.norm(w, 1)
            raise OracleError(
                f"eigenbasis Lyapunov solve not certified (relative residual "
                f"{residual:.2e} > {LYAPUNOV_RESIDUAL_BOUND:.0e}, "
                f"kappa_1(V) = {kappa:.2e}); the drift is defective or "
                "nearly so")
    return s


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

    Covers, in order: trace and Hermiticity of the state as the steady
    solve gave it and positivity of the final state, dual-method
    steady-state agreement, the real generator of the tables against
    U^H L U of the complex build, the dual-path Einstein-relation identity,
    the Einstein relation under the full generator against the rates route,
    drift stability (max Re eigenvalue of A <= 1e-10, which the sweep
    certifies from the rates alone), Lyapunov vs regression covariance,
    commutator preservation through the propagation, and the closed-form
    propagation against RK4.  The drift's one eigendecomposition serves the
    stability check and the Lyapunov solve; a drift that fails the check
    has no stationary covariance, and the report ends there.  Each check
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
    rho, raw = state.rho, state.raw
    record("trace", abs(np.trace(raw) - 1.0), 1e-10)
    record("hermiticity", float(np.max(np.abs(raw - raw.conj().T))), 1e-10)
    min_eig = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)))
    record("positivity", max(0.0, -min_eig), 1e-10)

    other = solve_steady_state(
        gen, params,
        method="long-time-integration" if state.method == "null-space"
        else "null-space")
    record("steady-state dual-method agreement",
           float(np.max(np.abs(other.expectations - state.expectations))), 1e-8)

    built = HERMITIAN_FRAME.conj().T @ gen.matrix @ HERMITIAN_FRAME
    record("real generator: tables vs complex build", float(np.max(np.abs(
        gen.real - built))) / max(float(np.max(np.abs(built))), 1e-30), 1e-12)

    # d is the table route, from the rates; no diffusion is formed on a
    # failed drift
    a, failures = fl.drift_stack(gen.real[None], gen.rates[None])
    if failures:
        raise failures[0]
    x = hermitian_coordinates(rho[None])
    a, d = a[0], fl.diffusion_stack("einstein", gen.rates[None], x)[0]
    b = fl.field_coupling_stack(np.array([params.g]), x)[0]
    d_channel = fl.diffusion_matrix_channelwise(gen.rates[None], rho[None])[0]
    record("Einstein-relation dual-path identity",
           float(np.max(np.abs(d - d_channel))), 1e-12)
    # the relation under the whole complex L, whose Hamiltonian part drops
    # out: a generator term the rates do not carry shows here
    d_full = fl.FRAME @ fl._einstein_diffusion(
        gen.matrix[None], fl._state_products(rho[None]))[0] @ fl.FRAME.T
    record("Einstein relation: full generator vs dissipator",
           float(np.max(np.abs(d_full - d))), 1e-12)

    eig = np.linalg.eig(a)
    record("drift stability", float(np.max(eig[0].real)), 1e-10)
    if not checks[-1].passed:
        return ValidationReport(checks=tuple(checks))
    sigma_direct = fl.equal_time_covariance(state)
    sigma_lyap = lyapunov_covariance(a, d, eig)
    scale = max(float(np.max(np.abs(sigma_direct))), 1e-30)
    record("Lyapunov vs regression covariance",
           float(np.max(np.abs(sigma_lyap - sigma_direct))) / scale, 1e-6)

    setup = pr.make_setup(a, b, d, params)
    c_in = pr.input_covariance()
    res = pr.propagate_covariance(setup, c_in)
    c1, c2 = res.covariance.commutator_blocks()
    record("commutator preservation", max(abs(c1 - 1.0), abs(c2 - 1.0)), 1e-6)
    record("propagation: closed form vs RK4",
           float(np.max(np.abs(res.covariance.c - rk4_covariance(setup, c_in)))),
           1e-6)
    return ValidationReport(checks=tuple(checks))
