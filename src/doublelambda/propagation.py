"""Propagation of the field-fluctuation covariance through the medium.

The 4-vector of sideband operators v = (da1, da1+, da2, da2+) obeys
dv/dz = M(omega) v + xi(z, omega) after the atomic fluctuations are solved
in the frequency domain and substituted into the field equations.  The
covariance convention is <v_i(omega) v_j(omega')> = 2 pi delta(omega+omega')
C_ij with vacuum inputs normalized to C_12 = C_34 = 1 (flux units).
M and the noise are z-constant, so the covariance crosses the cell in
closed form on 4 x 4 blocks: one 8 x 8 Van Loan exponential over a slice
of the cell, doubled back to its length (propagate_stack).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atom import FIELD_OPERATORS
from . import fluctuations as fl
from .fluctuations import FRAME
from .matfuncs import expm, norm_1, squarings
from .params import SPEED_OF_LIGHT, SystemParams

#: bound on the relative disagreement between the propagator carried with the
#: noise integral and the direct exp(L M)
SELF_CHECK_TOL = 1e-10

#: bound on the relative residual of each adjoint-pairing guard
PAIRING_TOL = 1e-10

#: adjoint pairing of the field components (a <-> a+ within each mode)
FIELD_PAIR = np.array([1, 0, 3, 2])

#: K = diag(chi1, chi1, chi2, chi2) FIELD_PHASES, the field equations' gains
FIELD_PHASES = np.array([1j, -1j, 1j, -1j])

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


@dataclass(frozen=True)
class PropagationSetup:
    """Transfer generator, distributed noise, and cell length."""

    m: np.ndarray         # M(omega), 4x4
    nfield: np.ndarray    # distributed noise injection, 4x4 per meter
    cell_length: float
    omega: float = 0.0

    def __post_init__(self):
        failures = _nonfinite(self.m[None], self.nfield[None])
        if failures:
            raise failures[0]


def _nonfinite(m: np.ndarray, nfield: np.ndarray) -> dict:
    """{stack position: ValueError} naming the first non-finite matrix."""
    failures = {}
    for name, x in (("m", m), ("nfield", nfield)):
        for k in np.flatnonzero(~np.all(np.isfinite(x), axis=(1, 2))):
            failures.setdefault(int(k), ValueError(
                f"{name} contains non-finite entries"))
    return failures


def transfer_stack(a: np.ndarray, b: np.ndarray, d: np.ndarray,
                   omegas: np.ndarray, chi: np.ndarray, lengths: np.ndarray,
                   noise: np.ndarray, binv: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray, dict]:
    """M(omega) and Nfield, each (P, 4, 4), for a stack of points.

    a, b, d are the (P, 15, 15), (P, 15, 4), (P, 15, 15) linearized systems,
    omegas the analysis frequencies, chi the (P, 2) couplings (chi1, chi2),
    lengths the cell lengths, noise the noise scales L/N and binv as in
    fluctuations.response_stack.  At omega = 0, in any stack, K S R(0) is K
    times the real S R(0).  Nfield reads K S R(-omega) as the row gather
    Pi conj(K S R(omega)): the drift is real, so R(-omega) = conj(R(omega)),
    and the tables give Pi conj(K S) = K S exactly.  Failures are {stack
    position: exception}: a response failure, or a non-finite matrix.
    """
    r, failures = fl.response_stack(a, omegas, binv)
    chi = (chi[:, [0, 0, 1, 1]] * FIELD_PHASES)[:, :, None]  # K
    # (c/L) * (L/N) * chi^2 == g * chi: the flux-normalized distributed noise
    # stays finite for arbitrarily dilute media
    injection = SPEED_OF_LIGHT / lengths * noise
    zero = omegas == 0
    if zero.all():  # R(0) real
        ksr = chi * (SELECTOR @ r)
    else:
        ksr = (chi * SELECTOR) @ r  # K S R with K = diag(chi)
        ksr[zero] = chi[zero] * (SELECTOR
                                 @ np.ascontiguousarray(r[zero].real))
    m = ksr @ b
    nfield = (injection[:, None, None] * ksr @ (2.0 * d)
              @ ksr.conj()[:, FIELD_PAIR].transpose(0, 2, 1))
    for k, exc in _nonfinite(m, nfield).items():
        failures.setdefault(k, exc)
    return m, nfield, failures


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
    m, nfield, failures = transfer_stack(
        a[None], b[None], d[None], np.array([omega], dtype=float),
        np.array([[params.chi1, params.chi2]]),
        np.array([params.cell_length]), np.array([fl.noise_scale(params)]))
    if failures:
        raise failures[0]
    return PropagationSetup(m=m[0], nfield=nfield[0],
                            cell_length=params.cell_length, omega=omega)


def input_covariance(*, omega: float = 0.0) -> FieldCovariance:
    """The vacuum input covariance at z = 0 (C_12 = C_34 = 1).

    A coherent displacement does not change the fluctuation covariance, so
    this is also the covariance of the coherent pump inputs.
    """
    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = c[2, 3] = 1.0
    return FieldCovariance(c=c, omega=omega)


@dataclass(frozen=True)
class PropagationResult:
    covariance: FieldCovariance
    converged: bool
    residual: float  # relative propagator self-check residual
    slabs: int = 0   # RK4 slabs integrated for this result (closed form: 0)
    warnings: tuple = field(default_factory=tuple)


def _adjoint(x: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a (P, n, n) stack."""
    return x.conj().transpose(0, 2, 1)


def _pairing_failures(nfield: np.ndarray, c_in: np.ndarray) -> dict:
    """{stack position: ValueError} naming the first broken pairing.

    The propagation reads only M, as M(-omega) = Pi conj(M(omega)) Pi; it
    holds when Nfield Pi and the input C Pi are Hermitian, each to
    PAIRING_TOL relative.
    """
    def hermitian_residual(x):
        y = x[..., FIELD_PAIR]
        scale = np.maximum(np.max(np.abs(y), axis=(1, 2)), np.finfo(float).tiny)
        return np.max(np.abs(y - _adjoint(y)), axis=(1, 2)) / scale

    failures = {}
    for name, resid in (
            ("nfield Pi is not Hermitian", hermitian_residual(nfield)),
            ("input C Pi is not Hermitian", hermitian_residual(c_in))):
        for k in np.flatnonzero(~(resid <= PAIRING_TOL)):
            failures.setdefault(int(k), ValueError(
                f"{name}: pairing residual {resid[k]:.2e} "
                f"(tolerance {PAIRING_TOL:.0e})"))
    return failures


def propagate_stack(m: np.ndarray, nfield: np.ndarray, lengths: np.ndarray,
                    c_in: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Closed-form propagation of a stack of P covariances over their cells.

    m and nfield are (P, 4, 4), lengths (P,) and c_in (P, 4, 4) or one
    (4, 4) input shared by all.  Returns the output covariances, the
    relative self-check residuals, the converged flags (residual within
    SELF_CHECK_TOL) and the failures as {stack position: ValueError} of the
    points whose adjoint pairing is broken or whose output is not finite.

    With M(-omega) = Pi conj(M) Pi, X = C Pi obeys dX/dz = M X + X M^H +
    Nfield Pi, so X(L) = E X(0) E^H + W with E = exp(L M) and the noise
    integral W = int_0^L exp(z M) Nfield Pi exp(z M^H) dz.  Over a slice
    h = L / 2^s, with s the fewest halvings that bring ||L G||_1 within
    the last Pade bound, one 8 x 8 exponential of G = [[-M, Nfield Pi],
    [0, M^H]] gives E_h = F22^H and W_h = E_h F12 [Van Loan, IEEE TAC 23,
    395 (1978)]; s doublings W <- W + E W E^H, E <- E^2 carry them to the
    cell, as the squarings of scaling and squaring do.  X is symmetrized,
    so the output C = X Pi is paired by construction.  The doubled E must
    equal the direct exp(L M).
    """
    n = len(m)
    c_in = np.broadcast_to(c_in, (n, 4, 4))
    failures = _pairing_failures(nfield, c_in)
    g = np.zeros((n, 8, 8), dtype=complex)
    g[:, :4, :4] = -m
    g[:, :4, 4:] = nfield[..., FIELD_PAIR]
    g[:, 4:, 4:] = _adjoint(m)
    # an overflowing point is named below, so its inf and NaN stay silent
    with np.errstate(over="ignore", invalid="ignore"):
        g *= lengths[:, None, None]
        s = squarings(norm_1(g), 8)
        g *= np.ldexp(1.0, -s)[:, None, None]  # h G, h = L / 2^s
        f = expm(g)
        e = _adjoint(f[:, 4:, 4:])
        w = e @ f[:, :4, 4:]
        for i in range(s.max(initial=0)):
            sel = s > i
            es = e[sel]
            w[sel] += es @ w[sel] @ _adjoint(es)
            e[sel] = es @ es
        x = e @ c_in[..., FIELD_PAIR] @ _adjoint(e) + w
        c_out = (0.5 * (x + _adjoint(x)))[..., FIELD_PAIR]
        direct = expm(lengths[:, None, None] * m)
        # exp(L M) may underflow to zero in a strongly absorbing medium
        scale = np.maximum(np.maximum(np.max(np.abs(e), axis=(1, 2)),
                                      np.max(np.abs(direct), axis=(1, 2))),
                           np.finfo(float).tiny)
        residual = np.max(np.abs(e - direct), axis=(1, 2)) / scale
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
    return (f"closed-form propagation failed its self-check: propagator "
            f"residual {residual:.2e} (tolerance {SELF_CHECK_TOL:.0e})",)


def propagate_covariance(setup: PropagationSetup,
                         c_in: FieldCovariance) -> PropagationResult:
    """Solve dC/dz = M C + C M(-omega)^T + Nfield over the cell in closed form.

    M and Nfield are z-constant because the mean fields are never depleted,
    so the covariance is an exponential propagator plus a noise integral,
    both read off one Van Loan exponential (see propagate_stack).  The
    doubled propagator must equal the direct exp(L M); a larger
    disagreement clears `converged` and names the residual in `warnings`.
    Raises ValueError, naming the residual, when Nfield or the input breaks
    the adjoint pairing, and naming the gain exponent when the output
    covariance overflows.
    """
    c_out, residual, converged, failures = propagate_stack(
        setup.m[None], setup.nfield[None], np.array([setup.cell_length]),
        c_in.c)
    if failures:
        raise failures[0]
    residual, converged = float(residual[0]), bool(converged[0])
    cov = FieldCovariance(c=c_out[0], omega=setup.omega)
    return PropagationResult(covariance=cov, converged=converged,
                             residual=residual,
                             warnings=self_check_warnings(residual, converged))
