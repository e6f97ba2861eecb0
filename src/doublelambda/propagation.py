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
from .fluctuations import EMBED, LinearizedSystem, atomic_response
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
        for name in ("m", "m_minus", "nfield"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")


def transfer_matrix(lin: LinearizedSystem, params: SystemParams,
                    omega: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transfer generator M(omega) and noise-injection matrix Nfield(omega).

    M = K S R(omega) B with K = diag(i chi1, -i chi1, i chi2, -i chi2) and S
    the selector of the optical-coherence sums.  The field covariance is kept
    in flux normalization (vacuum C = 1), which converts the collective noise
    correlator (L/N) 2D into a per-length injection carrying c/L on top of
    the stored noise scale; this is the unique scaling that preserves the
    canonical commutators through the medium, and the test suite enforces it.
    """
    k = np.diag([1j * params.chi1, -1j * params.chi1,
                 1j * params.chi2, -1j * params.chi2])
    r_plus = atomic_response(lin.a, omega)
    r_minus = r_plus if omega == 0.0 else atomic_response(lin.a, -omega)
    ksr_plus = k @ SELECTOR @ r_plus
    ksr_minus = k @ SELECTOR @ r_minus
    m = ksr_plus @ lin.b
    m_minus = ksr_minus @ lin.b
    # (c/L) * (L/N) * chi^2 == g * chi: the flux-normalized distributed noise
    # stays finite for arbitrarily dilute media
    if params.atom_number > 0:
        scale = (SPEED_OF_LIGHT / params.cell_length) * lin.noise_scale
        nfield = scale * ksr_plus @ (2.0 * lin.d) @ ksr_minus.T
    else:
        nfield = np.zeros((4, 4), dtype=complex)
    return m, m_minus, nfield


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


def _augmented_generator(setup: PropagationSetup) -> np.ndarray:
    """17 x 17 Van Loan generator of dC/dz = M C + C M(-omega)^T + Nfield.

    With row-major vec, vec(M C) = (M x I) vec C and vec(C M-^T) =
    (I x M-) vec C; the constant source rides in the last column.
    """
    eye = np.eye(4)
    g = np.zeros((17, 17), dtype=complex)
    g[:16, :16] = np.kron(setup.m, eye) + np.kron(eye, setup.m_minus)
    g[:16, 16] = setup.nfield.reshape(16)
    return g


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
    length = setup.cell_length
    e = expm(length * _augmented_generator(setup))
    phi = e[:16, :16]
    c_out = (phi @ c_in.c.reshape(16) + e[:16, 16]).reshape(4, 4)
    kron = np.kron(expm(length * setup.m), expm(length * setup.m_minus))
    # exp(L M) may underflow to zero in a strongly absorbing medium
    scale = max(np.max(np.abs(phi)), np.max(np.abs(kron)),
                np.finfo(float).tiny)
    residual = float(np.max(np.abs(phi - kron)) / scale)
    converged = bool(np.all(np.isfinite(c_out))) and residual <= SELF_CHECK_TOL
    warnings = () if converged else (
        f"closed-form propagation failed its self-check: Kronecker residual "
        f"{residual:.2e} (tolerance {SELF_CHECK_TOL:.0e})",)
    cov = FieldCovariance(c=c_out, omega=setup.omega, z=length)
    return PropagationResult(covariance=cov, converged=converged,
                             residual=residual, warnings=warnings)
