import numpy as np
import pytest

from doublelambda import SystemParams
from doublelambda import fluctuations as fl
from doublelambda.params import hermitian_coordinates
from doublelambda.propagation import FIELD_PAIR, FieldCovariance
from doublelambda.atom import (JUMP_GROUPS, coefficient_stack,
                               dissipator_stack, liouvillian_stack)


def random_params(rng, with_fields=False) -> SystemParams:
    """Random physically-valid parameter draw for property suites."""
    kw = dict(
        gamma1=rng.uniform(0.1, 2), gamma2=rng.uniform(0.1, 2),
        gamma3=rng.uniform(0.1, 2), gamma4=rng.uniform(0.1, 2),
        gamma0=rng.uniform(0.1, 2),
        p1=rng.uniform(-1, 1), p2=rng.uniform(-1, 1),
        omega42=rng.uniform(0.5, 3), delta1=rng.uniform(-4, 4),
        g=rng.uniform(0.1, 0.6),
    )
    if with_fields:
        kw["a1_mean"] = rng.uniform(0.5, 2)
        kw["a2_mean"] = rng.uniform(0.5, 2)
    return SystemParams(**kw)


def thermal_covariance(nbar, omega=0.0) -> FieldCovariance:
    """A non-vacuum input: both modes thermally occupied with nbar quanta,
    so C_21 = C_43 = nbar and C_12 = C_34 = 1 + nbar."""
    c = np.zeros((4, 4), dtype=complex)
    c[1, 0] = c[3, 2] = nbar
    c[0, 1] = c[2, 3] = 1.0 + nbar
    return FieldCovariance(c=c, omega=omega)


def pairing_residual(cov: FieldCovariance) -> float:
    """Max deviation of a covariance from C_ij = conj(C_[jbar, ibar]); a
    propagated covariance is paired by construction (see propagate_stack)."""
    paired = cov.c[np.ix_(FIELD_PAIR, FIELD_PAIR)].T.conj()
    return float(np.max(np.abs(cov.c - paired)))


def linearized(gen, state, params, noise_model="einstein"):
    """Drift A, field-coupling columns B and diffusion D of one solved
    point, from the stack kernels; asserts that the drift did not fail."""
    a, failures = fl.drift_stack(gen.real[None], gen.rates[None])
    x = hermitian_coordinates(state.rho[None])
    d = fl.diffusion_stack(noise_model, gen.rates[None], x)
    assert failures == {}, failures
    b = fl.field_coupling_stack(np.array([params.g]), x)
    return a[0], b[0], d[0]


def full_generator_diffusion(lmats, rhos):
    """(P, 15, 15) D in FRAME from the Einstein relation under whole
    generators lmats, Hamiltonian part included: the route diffusion_stack
    took before it read the rates alone."""
    d_full = fl._einstein_diffusion(lmats, fl._state_products(rhos))
    return fl.FRAME @ d_full @ fl.FRAME.T


def rate_groups(rates):
    """(jump operators, rate matrix) of each JUMP_GROUPS entry, with the
    matrix read from the flat rate entries (gen.rates order)."""
    groups = []
    for ops in JUMP_GROUPS:
        n = len(ops)
        groups.append((ops, rates[:n * n].reshape(n, n)))
        rates = rates[n * n:]
    return groups


def field_coefficients(params, fields=None):
    """coefficient_stack's Hamiltonian coefficients (delta1, delta2, g a1,
    g a1+, g a2, g a2+), with the four field amplitudes replaced by
    independent c-numbers when `fields` is given."""
    h, _ = coefficient_stack(params)
    if fields is None:
        return h
    return np.concatenate([h[:2], params.g * np.asarray(fields)])


def fields_liouvillian(params, fields):
    """The Liouvillian matrix with the fields frozen at arbitrary c-numbers:
    the master equation is linear in each field amplitude, so this is the
    exact mean-field evolution map."""
    h = field_coefficients(params, fields)
    rates = coefficient_stack(params)[1]
    return liouvillian_stack(h[None], dissipator_stack(rates[None]))[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def defaults():
    return SystemParams()
