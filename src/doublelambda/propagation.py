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

from .atom import FIELD_OPERATORS
from . import fluctuations as fl
from .fluctuations import FRAME
from .matfuncs import expm
from .params import (HERMITIAN_BASIS, HERMITIAN_FRAME, SPEED_OF_LIGHT,
                     SystemParams)

#: bound on the relative disagreement between the propagator block of the
#: augmented exponential and the real form of kron(exp(L M), conj(exp(L M)))
SELF_CHECK_TOL = 1e-10

#: bound on the relative residual of each adjoint-pairing guard
PAIRING_TOL = 1e-10

#: adjoint pairing of the field components (a <-> a+ within each mode)
FIELD_PAIR = np.array([1, 0, 3, 2])

#: column k is vec(F_k Pi): a paired covariance C (C Pi Hermitian) is
#: PAIRED_FRAME x with real x = PAIRED_FRAME^H vec(C)
PAIRED_FRAME = HERMITIAN_BASIS[:, :, FIELD_PAIR].reshape(16, 16).T
#: row 4 a + b, column 16 k + l is Tr(F_k E_ab F_l) = (F_l F_k)[b, a], so
#: 2 Re(vec(M) @ PAIRED_GENERATOR) is the real matrix of X -> M X + X M^H
PAIRED_GENERATOR = np.einsum("lbc,kca->abkl", HERMITIAN_BASIS,
                             HERMITIAN_BASIS).reshape(16, 256)

#: 4 x 15 selector of the coherence sums sourcing the field equations, in
#: FRAME coordinates: field k is driven by the transpose of -dH/dv_k,
#: e.g. sigma_14 + sigma_12 for a1
SELECTOR = (-FIELD_OPERATORS.transpose(0, 2, 1).reshape(4, 16).real
            @ FRAME.conj().T)


@dataclass(frozen=True)
class FieldCovariance:
    """Frequency-domain correlation matrix of (da1, da1+, da2, da2+)."""

    c: np.ndarray
    omega: float = 0.0

    def commutator_blocks(self) -> tuple[complex, complex]:
        """C01 - C10 and C23 - C32: the mode commutators, at omega = 0 only;
        at omega != 0 they are C01(omega) - C10(-omega), so it refuses."""
        if self.omega != 0:
            raise ValueError(f"commutator_blocks at omega = {self.omega}: "
                             "the commutator is C01(omega) - C10(-omega)")
        return (self.c[0, 1] - self.c[1, 0], self.c[2, 3] - self.c[3, 2])

    def pairing_residual(self) -> float:
        """Max deviation from C_ij = conj(C_[jbar, ibar]); a propagated
        covariance is paired by construction (see propagate_stack)."""
        paired = self.c[np.ix_(FIELD_PAIR, FIELD_PAIR)].T.conj()
        return float(np.max(np.abs(self.c - paired)))


@dataclass(frozen=True)
class PropagationSetup:
    """Transfer generator, distributed noise, and cell length."""

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
                   omegas: np.ndarray, chi: np.ndarray, lengths: np.ndarray,
                   noise: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """M(omega), M(-omega) and Nfield, each (P, 4, 4), for a stack of points.

    a, b, d are the (P, 15, 15), (P, 15, 4), (P, 15, 15) linearized systems,
    omegas the analysis frequencies, chi the (P, 2) couplings (chi1, chi2),
    lengths the cell lengths and noise the noise scales L/N.  Failures are
    {stack position: exception}: a response failure, or a non-finite
    transfer matrix.
    """
    r_plus, r_minus, failures = fl.response_stack(a, omegas)
    chi = np.stack([1j * chi[:, 0], -1j * chi[:, 0],
                    1j * chi[:, 1], -1j * chi[:, 1]], axis=1)
    # (c/L) * (L/N) * chi^2 == g * chi: the flux-normalized distributed noise
    # stays finite for arbitrarily dilute media
    injection = SPEED_OF_LIGHT / lengths * noise
    ks = chi[:, :, None] * SELECTOR  # K S with K = diag(chi)
    ksr_plus = ks @ r_plus
    ksr_minus = ksr_plus if r_minus is r_plus else ks @ r_minus  # R(-0) = R(0)
    m = ksr_plus @ b
    m_minus = ksr_minus @ b
    nfield = (injection[:, None, None] * ksr_plus @ (2.0 * d)
              @ ksr_minus.transpose(0, 2, 1))
    for k, exc in _nonfinite(m, m_minus, nfield).items():
        failures.setdefault(k, exc)
    return m, m_minus, nfield, failures


def make_setup(a: np.ndarray, b: np.ndarray, d: np.ndarray,
               params: SystemParams, omega: float = 0.0) -> PropagationSetup:
    """Setup with the transfer generator M(omega) and noise injection Nfield
    of one point's drift a, field-coupling columns b and diffusion d.

    M = K S R(omega) B with K = diag(i chi1, -i chi1, i chi2, -i chi2) and S
    the selector of the optical-coherence sums.  The field covariance is kept
    in flux normalization (vacuum C = 1), which converts the collective noise
    correlator (L/N) 2D into a per-length injection carrying c/L on top of
    the noise scale L/N; this is the unique scaling that preserves the
    canonical commutators through the medium, and the test suite enforces it.
    Raises on a response failure and on a non-finite result.
    """
    m, m_minus, nfield, failures = transfer_stack(
        a[None], b[None], d[None], np.array([omega], dtype=float),
        np.array([[params.chi1, params.chi2]]),
        np.array([params.cell_length]), np.array([fl.noise_scale(params)]))
    if failures:
        raise failures[0]
    return PropagationSetup(m=m[0], m_minus=m_minus[0], nfield=nfield[0],
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
    return FieldCovariance(c=c, omega=omega)


@dataclass(frozen=True)
class PropagationResult:
    covariance: FieldCovariance
    converged: bool
    residual: float  # relative Kronecker self-check residual
    slabs: int = 0   # RK4 slabs integrated for this result (closed form: 0)
    warnings: tuple = field(default_factory=tuple)


def _pairing_failures(m: np.ndarray, m_minus: np.ndarray, nfield: np.ndarray,
                      c_in: np.ndarray) -> dict:
    """{stack position: ValueError} naming the first broken pairing.

    The real propagation reads only M; it holds when M(-omega) =
    Pi conj(M(omega)) Pi and Nfield Pi and the input C Pi are Hermitian,
    each to PAIRING_TOL relative.
    """
    def relative(x, ref):
        scale = np.maximum(np.max(np.abs(ref), axis=(1, 2)), np.finfo(float).tiny)
        return np.max(np.abs(x - ref), axis=(1, 2)) / scale

    def hermitian_residual(x):
        y = x[..., FIELD_PAIR]
        return relative(y, y.conj().transpose(0, 2, 1))

    failures = {}
    for name, resid in (
            ("m_minus deviates from Pi conj(m) Pi",
             relative(m_minus, m.conj()[:, FIELD_PAIR[:, None], FIELD_PAIR])),
            ("nfield Pi is not Hermitian", hermitian_residual(nfield)),
            ("input C Pi is not Hermitian", hermitian_residual(c_in))):
        for k in np.flatnonzero(~(resid <= PAIRING_TOL)):
            failures.setdefault(int(k), ValueError(
                f"{name}: pairing residual {resid[k]:.2e} "
                f"(tolerance {PAIRING_TOL:.0e})"))
    return failures


def _per_point(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """vec(x_p) @ table for each point p of a stack, one vector-matrix
    product per point, so no point's result depends on the stack."""
    return (x.reshape(len(x), 1, len(table)) @ table)[:, 0]


def _paired_generators(m: np.ndarray, nfield: np.ndarray) -> np.ndarray:
    """(P, 17, 17) real Van Loan generators of dX/dz = M X + X M^H + Nfield Pi.

    X = C Pi is Hermitian, so it propagates as its 16 real coordinates in
    HERMITIAN_BASIS; the constant source rides in the last column.
    """
    n = len(m)
    g = np.zeros((n, 17, 17))
    g[:, :16, :16] = 2.0 * np.real(_per_point(m, PAIRED_GENERATOR)
                                   ).reshape(n, 16, 16)
    g[:, :16, 16] = np.real(_per_point(nfield, PAIRED_FRAME.conj()))
    return g


def propagate_stack(m: np.ndarray, m_minus: np.ndarray, nfield: np.ndarray,
                    lengths: np.ndarray, c_in: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Closed-form propagation of a stack of P covariances over their cells.

    m, m_minus, nfield are (P, 4, 4), lengths (P,) and c_in (P, 4, 4) or one
    (4, 4) input shared by all.  Returns the output covariances, the
    relative self-check residuals, the converged flags (residual within
    SELF_CHECK_TOL) and the failures as {stack position: ValueError} of the
    points whose adjoint pairing is broken or whose output is not finite.

    With M(-omega) = Pi conj(M) Pi, X = C Pi obeys dX/dz = M X + X M^H +
    Nfield Pi and stays Hermitian, so one real 17 x 17 exponential carries
    it; the output C = X Pi is paired by construction.  The propagator
    block must equal the real form of kron(exp(L M), conj(exp(L M))).
    """
    n = len(m)
    c_in = np.broadcast_to(c_in, (n, 4, 4))
    failures = _pairing_failures(m, m_minus, nfield, c_in)
    scaled = lengths[:, None, None]
    # an overflowing point is named below, so its inf and NaN stay silent
    with np.errstate(over="ignore", invalid="ignore"):
        e = expm(scaled * _paired_generators(m, nfield))
        phi = e[:, :16, :16]
        x_in = np.real(_per_point(c_in, PAIRED_FRAME.conj()))
        x_out = (phi @ x_in[:, :, None])[..., 0] + e[:, :16, 16]
        c_out = _per_point(x_out, PAIRED_FRAME.T).reshape(n, 4, 4)
        ea = expm(scaled * m)
        kron = (ea[:, :, None, :, None] * ea.conj()[:, None, :, None, :]
                ).reshape(n, 16, 16)
        kron = HERMITIAN_FRAME.conj().T @ kron @ HERMITIAN_FRAME
        # exp(L M) may underflow to zero in a strongly absorbing medium
        scale = np.maximum(np.maximum(np.max(np.abs(phi), axis=(1, 2)),
                                      np.max(np.abs(kron), axis=(1, 2))),
                           np.finfo(float).tiny)
        residual = np.max(np.abs(phi - kron), axis=(1, 2)) / scale
    # C grows like exp(2 L max Re eig(M)): past ~355 float64 overflows
    for k in np.flatnonzero(~np.all(np.isfinite(c_out), axis=(1, 2))):
        gain = np.max(np.linalg.eigvals(m[k]).real) * lengths[k]
        failures.setdefault(int(k), ValueError(
            "propagation overflow: output covariance not finite, gain "
            f"exponent max Re eig(M)·L = {gain:.1f}"))
    return c_out, residual, residual <= SELF_CHECK_TOL, failures


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
    (top-left block) and the accumulated noise (last column) [Van Loan,
    IEEE TAC 23, 395 (1978)]; G is the real 17 x 17 generator of X = C Pi
    (see propagate_stack).  The propagator block must equal the real form of
    kron(exp(L M), conj(exp(L M))); a larger disagreement clears
    `converged` and names the residual in `warnings`.  Raises ValueError,
    naming the residual, when M(-omega), Nfield or the input breaks the
    adjoint pairing, and naming the gain exponent when the output
    covariance overflows.
    """
    c_out, residual, converged, failures = propagate_stack(
        setup.m[None], setup.m_minus[None], setup.nfield[None],
        np.array([setup.cell_length]), c_in.c)
    if failures:
        raise failures[0]
    residual, converged = float(residual[0]), bool(converged[0])
    cov = FieldCovariance(c=c_out[0], omega=setup.omega)
    return PropagationResult(covariance=cov, converged=converged,
                             residual=residual,
                             warnings=self_check_warnings(residual, converged))
