"""Propagation of the field-fluctuation covariance through the medium.

The 4-vector of sideband operators v = (da1, da1+, da2, da2+) obeys
dv/dz = M(omega) v + xi(z, omega) after the atomic fluctuations are solved
in the frequency domain and substituted into the field equations.  The
covariance convention is <v_i(omega) v_j(omega')> = 2 pi delta(omega+omega')
C_ij with vacuum inputs normalized to C_12 = C_34 = 1 (flux units).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .atom import FIELD_OPERATORS
from . import fluctuations as fl
from .fluctuations import EMBED, LinearizedSystem
from .params import SPEED_OF_LIGHT, SystemParams

#: bound on the relative disagreement between the propagator block of the
#: augmented exponential and the Kronecker product of the two 4x4 exponentials
SELF_CHECK_TOL = 1e-10

#: adjoint pairing of the field components (a <-> a+ within each mode)
FIELD_PAIR = np.array([1, 0, 3, 2])

#: 4 x 15 selector of the coherence sums sourcing the field equations, in
#: traceless coordinates: field k is driven by the transpose of -dH/dv_k,
#: e.g. sigma_14 + sigma_12 for a1
SELECTOR = -FIELD_OPERATORS.transpose(0, 2, 1).reshape(4, 16).real @ EMBED


@dataclass(frozen=True)
class FieldCovariance:
    """Frequency-domain correlation matrix of (da1, da1+, da2, da2+)."""

    c: np.ndarray
    omega: float = 0.0
    z: float = 0.0

    def commutator_blocks(self) -> tuple[complex, complex]:
        return (self.c[0, 1] - self.c[1, 0], self.c[2, 3] - self.c[3, 2])

    def pairing_residual(self) -> float:
        """Max deviation from C_ij = conj(C_[jbar, ibar])."""
        paired = self.c[np.ix_(FIELD_PAIR, FIELD_PAIR)].T.conj()
        return float(np.max(np.abs(self.c - paired)))


@dataclass(frozen=True)
class PropagationSetup:
    """Transfer generator, distributed noise, and cell length."""

    chi1: float
    chi2: float
    m: np.ndarray         # M(omega), 4x4
    m_minus: np.ndarray   # M(-omega)
    nfield: np.ndarray    # distributed noise injection, 4x4 per meter
    cell_length: float
    omega: float = 0.0

    def __post_init__(self):
        failures = _nonfinite(self.m[None], self.m_minus[None],
                              self.nfield[None])
        if failures:
            raise failures[0]


def _nonfinite(m: np.ndarray, m_minus: np.ndarray, nfield: np.ndarray) -> dict:
    """{stack position: ValueError} naming the first non-finite matrix."""
    failures = {}
    for name, x in (("m", m), ("m_minus", m_minus), ("nfield", nfield)):
        for k in np.flatnonzero(~np.all(np.isfinite(x), axis=(1, 2))):
            failures.setdefault(int(k), ValueError(
                f"{name} contains non-finite entries"))
    return failures


def transfer_stack(a: np.ndarray, b: np.ndarray, d: np.ndarray,
                   noise: np.ndarray, points, omegas: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """M(omega), M(-omega) and Nfield, each (P, 4, 4), for a stack of points.

    a, b, d are the (P, 15, 15), (P, 15, 4), (P, 15, 15) linearized systems,
    noise their noise scales L/N, points the SystemParams and omegas the
    analysis frequencies.  Failures are {stack position: exception}: a
    response failure, or a non-finite transfer matrix.
    """
    r_plus, failures = fl.response_stack(a, omegas)
    # R(-0) is R(0): invert again only at nonzero frequencies
    again = np.flatnonzero(omegas != 0.0)
    again = again[~np.isin(again, list(failures))]
    r_again, more = fl.response_stack(a[again], -omegas[again])
    r_minus = r_plus.copy()
    r_minus[again] = r_again
    failures.update({int(again[j]): exc for j, exc in more.items()})
    chi = np.array([[1j * p.chi1, -1j * p.chi1, 1j * p.chi2, -1j * p.chi2]
                    for p in points]).reshape(-1, 4)
    # (c/L) * (L/N) * chi^2 == g * chi: the flux-normalized distributed noise
    # stays finite for arbitrarily dilute media
    injection = np.array([SPEED_OF_LIGHT / p.cell_length for p in points]) * noise
    ks = chi[:, :, None] * SELECTOR  # K S with K = diag(chi)
    ksr_plus = ks @ r_plus
    ksr_minus = ks @ r_minus
    m = ksr_plus @ b
    m_minus = ksr_minus @ b
    nfield = (injection[:, None, None] * ksr_plus @ (2.0 * d)
              @ ksr_minus.transpose(0, 2, 1))
    for k, exc in _nonfinite(m, m_minus, nfield).items():
        failures.setdefault(k, exc)
    return m, m_minus, nfield, failures


def transfer_matrix(lin: LinearizedSystem, params: SystemParams,
                    omega: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transfer generator M(omega) and noise-injection matrix Nfield(omega).

    M = K S R(omega) B with K = diag(i chi1, -i chi1, i chi2, -i chi2) and S
    the selector of the optical-coherence sums.  The field covariance is kept
    in flux normalization (vacuum C = 1), which converts the collective noise
    correlator (L/N) 2D into a per-length injection carrying c/L on top of
    the stored noise scale; this is the unique scaling that preserves the
    canonical commutators through the medium, and the test suite enforces it.
    Raises on a response failure and on a non-finite result.
    """
    m, m_minus, nfield, failures = transfer_stack(
        lin.a[None], lin.b[None], lin.d[None], np.array([lin.noise_scale]),
        [params], np.array([omega], dtype=float))
    if failures:
        raise failures[0]
    return m[0], m_minus[0], nfield[0]


def make_setup(lin: LinearizedSystem, params: SystemParams,
               omega: float = 0.0) -> PropagationSetup:
    m, m_minus, nfield = transfer_matrix(lin, params, omega)
    return PropagationSetup(chi1=params.chi1, chi2=params.chi2, m=m,
                            m_minus=m_minus, nfield=nfield,
                            cell_length=params.cell_length, omega=omega)


def input_covariance(kind: str = "vacuum", nbar: float = 0.0,
                     omega: float = 0.0) -> FieldCovariance:
    """Input covariance at z = 0.

    Coherent displacement does not change the fluctuation covariance, so
    "coherent" and "vacuum" coincide; "thermal" adds nbar to the occupation
    of both modes.
    """
    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = c[2, 3] = 1.0
    if kind in ("vacuum", "coherent"):
        pass
    elif kind == "thermal":
        if nbar < 0:
            raise ValueError(f"thermal occupation must be >= 0, got {nbar}")
        c[1, 0] = c[3, 2] = nbar
        c[0, 1] = c[2, 3] = 1.0 + nbar
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    return FieldCovariance(c=c, omega=omega, z=0.0)


@dataclass(frozen=True)
class PropagationResult:
    covariance: FieldCovariance
    converged: bool
    residual: float  # relative Kronecker self-check residual
    slabs: int = 0   # RK4 slabs integrated for this result (closed form: 0)
    warnings: tuple = field(default_factory=tuple)


def _augmented_generators(m: np.ndarray, m_minus: np.ndarray,
                          nfield: np.ndarray) -> np.ndarray:
    """(P, 17, 17) Van Loan generators of dC/dz = M C + C M(-omega)^T + Nfield.

    With row-major vec, vec(M C) = (M x I) vec C and vec(C M-^T) =
    (I x M-) vec C; the constant source rides in the last column.
    """
    n = len(m)
    eye = np.eye(4)
    g = np.zeros((n, 17, 17), dtype=complex)
    g[:, :16, :16] = (np.einsum("pij,kl->pikjl", m, eye)
                      + np.einsum("ij,pkl->pikjl", eye, m_minus)).reshape(n, 16, 16)
    g[:, :16, 16] = nfield.reshape(n, 16)
    return g


def propagate_stack(m: np.ndarray, m_minus: np.ndarray, nfield: np.ndarray,
                    lengths: np.ndarray, c_in: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form propagation of a stack of P covariances over their cells.

    m, m_minus, nfield are (P, 4, 4), lengths (P,) and c_in (P, 4, 4) or one
    (4, 4) input shared by all.  Returns the output covariances, the
    relative Kronecker self-check residuals and the converged flags (finite
    output and residual within SELF_CHECK_TOL).
    """
    n = len(m)
    scaled = lengths[:, None, None]
    e = expm(scaled * _augmented_generators(m, m_minus, nfield))
    phi = e[:, :16, :16]
    c_vec = np.broadcast_to(c_in, (n, 4, 4)).reshape(n, 16, 1)
    c_out = ((phi @ c_vec)[..., 0] + e[:, :16, 16]).reshape(n, 4, 4)
    ea, eb = expm(scaled * m), expm(scaled * m_minus)
    kron = (ea[:, :, None, :, None] * eb[:, None, :, None, :]).reshape(n, 16, 16)
    # exp(L M) may underflow to zero in a strongly absorbing medium
    scale = np.maximum(np.maximum(np.max(np.abs(phi), axis=(1, 2)),
                                  np.max(np.abs(kron), axis=(1, 2))),
                       np.finfo(float).tiny)
    residual = np.max(np.abs(phi - kron), axis=(1, 2)) / scale
    converged = np.all(np.isfinite(c_out), axis=(1, 2)) & (residual <= SELF_CHECK_TOL)
    return c_out, residual, converged


def self_check_warnings(residual: float, converged: bool) -> tuple:
    """Row warnings of one propagation: empty, or the failed self-check."""
    if converged:
        return ()
    return (f"closed-form propagation failed its self-check: Kronecker "
            f"residual {residual:.2e} (tolerance {SELF_CHECK_TOL:.0e})",)


def propagate_covariance(setup: PropagationSetup,
                         c_in: FieldCovariance) -> PropagationResult:
    """Solve dC/dz = M C + C M(-omega)^T + Nfield over the cell in closed form.

    M and Nfield are z-constant because the mean fields are never depleted,
    so exp(L G) of the augmented generator G carries both the propagator
    (top-left 16 x 16 block) and the accumulated noise (last column)
    [Van Loan, IEEE TAC 23, 395 (1978)].  The propagator block must equal
    kron(exp(L M), exp(L M-)); a larger disagreement or a non-finite output
    clears `converged` and names the residual in `warnings`.
    """
    c_out, residual, converged = propagate_stack(
        setup.m[None], setup.m_minus[None], setup.nfield[None],
        np.array([setup.cell_length]), c_in.c)
    residual, converged = float(residual[0]), bool(converged[0])
    cov = FieldCovariance(c=c_out[0], omega=setup.omega, z=setup.cell_length)
    return PropagationResult(covariance=cov, converged=converged,
                             residual=residual,
                             warnings=self_check_warnings(residual, converged))
