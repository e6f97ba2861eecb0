"""Quadrature variances and the Duan inseparability criterion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import FieldCovariance

#: joint quadratures: u = x1 + x2 (symmetric), v = p1 - p2 (antisymmetric),
#: with x = a + a+ and p = -i (a - a+)
U_WEIGHTS = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
V_WEIGHTS = np.array([-1j, 1j, 1j, -1j], dtype=complex)

#: separability bound for these quadrature normalizations
DUAN_BOUND = 4.0


@dataclass(frozen=True)
class DuanResult:
    v12: float
    du2: float
    dv2: float
    entangled: bool


def quadrature_variance_stack(c: np.ndarray, weights) -> tuple[np.ndarray, dict]:
    """Symmetrized variances of sum_i w_i v_i for a (P, 4, 4) covariance stack.

    Uses sum_ij w_i w_j (C_ij + C_ji)/2; for Hermitian combinations the
    result is real, and a non-negligible imaginary residual is a failure,
    given as {stack position: ValueError}.
    """
    w = np.asarray(weights, dtype=complex)
    if w.shape != (4,):
        raise ValueError("weights must be a 4-vector")
    sym = (c + c.transpose(0, 2, 1)) / 2.0
    value = ((w @ sym)[:, None, :] @ w[:, None])[:, 0, 0]  # one product per point
    bad = np.abs(value.imag) > 1e-10 * np.fmax(1.0, np.abs(value.real))
    failures = {int(k): ValueError(
        f"variance has non-negligible imaginary part {value[k].imag:.2e}")
        for k in np.flatnonzero(bad)}
    return value.real, failures



def duan_stack(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """(<du^2>, <dv^2>) of a (P, 4, 4) covariance stack, with failures as
    {stack position: ValueError}; V12 is their sum."""
    du2, failures = quadrature_variance_stack(c, U_WEIGHTS)
    dv2, more = quadrature_variance_stack(c, V_WEIGHTS)
    for k, exc in more.items():
        failures.setdefault(k, exc)
    return du2, dv2, failures


def duan_v12(cov: FieldCovariance) -> DuanResult:
    """V12 = <du^2> + <dv^2>; values below 4 certify bipartite entanglement."""
    du2, dv2, failures = duan_stack(cov.c[None])
    if failures:
        raise failures[0]
    du2, dv2 = float(du2[0]), float(dv2[0])
    v12 = du2 + dv2
    return DuanResult(v12=v12, du2=du2, dv2=dv2, entangled=bool(v12 < DUAN_BOUND))
