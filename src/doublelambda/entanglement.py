"""Quadrature variances and the Duan inseparability criterion."""

from __future__ import annotations

import numpy as np

#: joint quadratures: u = x1 + x2 (symmetric), v = p1 - p2 (antisymmetric),
#: with x = a + a+ and p = -i (a - a+)
U_WEIGHTS = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
V_WEIGHTS = np.array([-1j, 1j, 1j, -1j], dtype=complex)

#: separability bound for these quadrature normalizations
DUAN_BOUND = 4.0


def quadrature_variance_stack(c: np.ndarray, weights) -> tuple[np.ndarray, dict]:
    """Symmetrized variances of sum_i w_i v_i for a (P, 4, 4) covariance stack.

    Uses sum_ij w_i w_j (C_ij + C_ji)/2; for Hermitian combinations the
    result is real, and an imaginary residual above 1e-10 of the summed
    magnitudes sum_ij |w_i w_j| |(C_ij + C_ji)/2| (at least 1) is a
    failure, given as {stack position: ValueError}, as is a variance that
    is not finite: the sum of a finite covariance near the float64 maximum
    may overflow.  Scaling by the terms, not the variance, admits the
    rounding of a large cancelling sum.
    """
    w = np.asarray(weights, dtype=complex)
    if w.shape != (4,):
        raise ValueError("weights must be a 4-vector")
    # an overflowing sum is named below, so its inf and NaN stay silent
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (c + c.transpose(0, 2, 1)) / 2.0
        value = ((w @ sym)[:, None, :] @ w[:, None])[:, 0, 0]  # one product per point
        terms = np.sum(np.abs(np.outer(w, w)) * np.abs(sym), axis=(1, 2))
        bad = ~np.isfinite(value) | (np.abs(value.imag)
                                     > 1e-10 * np.fmax(1.0, terms))
        failures = {int(k): ValueError(
            f"variance has non-negligible imaginary part {value[k].imag:.2e}"
            if np.isfinite(value[k]) else
            f"variance overflow: the quadrature sum of a finite covariance "
            f"(max |C| = {np.max(np.abs(c[k])):.2e}) is {value[k].real}")
            for k in np.flatnonzero(bad)}
    return value.real, failures


def duan_stack(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """(<du^2>, <dv^2>) of a (P, 4, 4) covariance stack, with failures as
    {stack position: ValueError}; V12 is their sum, and V12 < DUAN_BOUND
    certifies bipartite entanglement."""
    du2, failures = quadrature_variance_stack(c, U_WEIGHTS)
    dv2, more = quadrature_variance_stack(c, V_WEIGHTS)
    for k, exc in more.items():
        failures.setdefault(k, exc)
    return du2, dv2, failures


def variance_warnings(du2: float, dv2: float) -> tuple:
    """A warning for each of a row's du2 and dv2 that is below 0: no
    variance is, so the value is the rounding noise of a cancelling sum."""
    return tuple(f"{name} = {value:.1e} below 0: rounding noise"
                 for name, value in (("du2", du2), ("dv2", dv2)) if value < 0)
