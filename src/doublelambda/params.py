"""Parameter set and operator-basis bookkeeping for the double-Lambda medium.

All rates and frequencies are expressed in units of gamma_1 (half decay rate
of the 4->1 channel, set to 1); geometry is in SI meters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

#: Atom-field coupling constant (units of gamma_1) calibrated once so that the
#: steady state at the doublet midpoint with <a1> = <a2> = 1 and perfectly
#: aligned dipoles reproduces the reference populations 0.436 / 0.064.
#: Recompute with experiments.calibrate_coupling.
CALIBRATED_G = 0.293807

SPEED_OF_LIGHT = 299792458.0  # m/s


class _Derived:
    """Quantities derived from the fields, on one point or on columns."""

    @property
    def delta2(self):
        """Detuning of field 1 from the 1-2 transition (two-photon resonance)."""
        return self.delta1 + self.omega42

    @property
    def gamma13(self):
        """Total decay rate of the 1-3 coherence."""
        return 2.0 * self.gamma0 + self.gamma_phi

    @property
    def atom_number(self):
        """Number of atoms in the beam volume, N = n0 * pi r^2 * L."""
        # Python's ** on a float, as float_power: numpy's ** would square
        return (self.n0 * np.pi * np.float_power(self.beam_radius, 2)
                * self.cell_length)

    @property
    def chi1(self):
        """Field-1 propagation coupling g*N/c, per meter."""
        return self.g * self.atom_number / SPEED_OF_LIGHT

    @property
    def chi2(self):
        """Field-2 propagation coupling; equal dipoles make it equal to chi1."""
        return self.chi1


@dataclass(frozen=True)
class SystemParams(_Derived):
    """Physical constants of the model.

    gamma1..gamma4 are half decay rates of the channels 4->1, 2->1, 4->3,
    2->3 (full rates 2*gamma_i); gamma0 is the half population-exchange rate
    between the lower levels 1 and 3; gamma_phi is extra pure dephasing of
    the 1-3 coherence.  p1, p2 are the dipole alignment parameters of the
    two decay-interference pairs.  delta1 is the one-photon detuning of
    field 1 from the 1-4 transition; the detuning from 1-2 is derived as
    delta1 + omega42 and two-photon resonance is always enforced.
    """

    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma3: float = 1.0
    gamma4: float = 1.0
    gamma0: float = 0.001
    gamma_phi: float = 0.0
    p1: float = 1.0
    p2: float = 1.0
    omega42: float = 2.0
    delta1: float = -1.0
    g: float = CALIBRATED_G
    a1_mean: float = 1.0
    a2_mean: float = 1.0
    n0: float = 3e16          # atomic number density, m^-3
    cell_length: float = 0.06  # m
    beam_radius: float = 2.2e-4  # m

    def __post_init__(self):
        for names, valid, message in _RULES:
            for name in names or FIELDS:
                if not valid(value := getattr(self, name)):
                    raise ValueError(message.format(name=name, value=value))

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


FIELDS = tuple(f.name for f in fields(SystemParams))

#: the checks of a point, in order: fields (all if None), the test a valid
#: number or column passes, the message of a failure
_RULES = (
    (None, lambda x: abs(x) < math.inf, "{name} must be finite, got {value}"),
    (("gamma1", "gamma2", "gamma3", "gamma4", "gamma0", "gamma_phi",
      "omega42", "n0"), lambda x: x >= 0, "{name} must be >= 0, got {value}"),
    (("p1", "p2"), lambda x: abs(x) <= 1, "|{name}| must be <= 1, got {value}"),
    (("cell_length", "beam_radius"), lambda x: x > 0,
     "{name} must be > 0, got {value}"),
    (("a1_mean", "a2_mean"), lambda x: x >= 0,
     "{name} must be >= 0 (mean fields real positive)"),
    (("g",), lambda x: x >= 0, "{name} must be >= 0"),
)

#: the fields of each rule, as rows of a ParamStack's table
_RULE_ROWS = [[FIELDS.index(name) for name in names or FIELDS]
              for names, _, _ in _RULES]


class ParamStack(_Derived):
    """Working points as columns: one float64 array per SystemParams field,
    under its name (scalars broadcast), and the derived quantities as
    arrays.  An invalid row raises what SystemParams raises for the first.
    """

    def __init__(self, **columns):
        size = max((len(c) for c in columns.values()
                    if not isinstance(c, numbers.Real)), default=1)
        table = np.empty((len(FIELDS), size))
        for k, name in enumerate(FIELDS):
            table[k] = columns[name]
        vars(self).update(zip(FIELDS, table))
        if not all(valid(table[rows]).all()
                   for rows, (_, valid, _) in zip(_RULE_ROWS, _RULES)):
            for i in range(size):  # the first invalid row raises its error
                self.point(i)

    @classmethod
    def of(cls, points) -> "ParamStack":
        points = list(points)
        return cls(**{name: [getattr(p, name) for p in points]
                      for name in FIELDS})

    def __len__(self) -> int:
        return len(self.g)

    def __getitem__(self, index) -> "ParamStack":
        """The rows of a slice or an index array."""
        return ParamStack(**{name: getattr(self, name)[index]
                             for name in FIELDS})

    def point(self, i: int) -> SystemParams:
        return SystemParams(**{name: float(getattr(self, name)[i])
                               for name in FIELDS})


class AtomicBasis:
    """Canonical ordering of the 16 single-atom operators sigma_ij = |i><j|.

    Indices run row-major over (i, j) with 1-based levels: mu = 4*(i-1)+(j-1).
    """

    n_levels = 4
    dim = 16

    def __init__(self):
        self._sigmas = np.zeros((self.dim, 4, 4), dtype=complex)
        for mu in range(self.dim):
            i, j = divmod(mu, 4)
            self._sigmas[mu, i, j] = 1.0
        self.pair = np.array([4 * (mu % 4) + mu // 4 for mu in range(self.dim)])
        self.diagonal = np.array([4 * k + k for k in range(4)])
        # swap permutation matrix: (P x)[(i,j)] = x[(j,i)]
        self.swap = np.zeros((self.dim, self.dim))
        self.swap[np.arange(self.dim), self.pair] = 1.0

    def index(self, i: int, j: int) -> int:
        """Index of sigma_ij for 1-based levels i, j."""
        if not (1 <= i <= 4 and 1 <= j <= 4):
            raise ValueError(f"levels must be in 1..4, got ({i}, {j})")
        return 4 * (i - 1) + (j - 1)

    def sigma(self, i: int, j: int) -> np.ndarray:
        return self._sigmas[self.index(i, j)]

    @property
    def sigmas(self) -> np.ndarray:
        """Stack of all 16 operators in canonical order, shape (16, 4, 4)."""
        return self._sigmas

    def expectations(self, rho: np.ndarray) -> np.ndarray:
        """<sigma_ij> = Tr[rho sigma_ij] for all 16 operators."""
        return np.einsum("kl,mlk->m", rho, self._sigmas)

    def to_matrix(self, expectations: np.ndarray) -> np.ndarray:
        """Density matrix whose expectation vector is the given one."""
        return expectations.reshape(4, 4).T.copy()


BASIS = AtomicBasis()


def hermitian_basis() -> np.ndarray:
    """Orthonormal Hermitian basis F_k (16, 4, 4) of the 4 x 4 matrices.

    E_ii, then for each i < j the pair (E_ij + E_ji)/sqrt2 and
    i(E_ij - E_ji)/sqrt2; Tr(F_k F_l) = delta_kl.
    """
    f = np.zeros((16, 4, 4), dtype=complex)
    f[np.arange(4), np.arange(4), np.arange(4)] = 1.0
    i, j = np.triu_indices(4, 1)
    k = 4 + 2 * np.arange(6)
    f[k, i, j] = f[k, j, i] = 1.0 / np.sqrt(2.0)
    f[k + 1, i, j], f[k + 1, j, i] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
    return f


HERMITIAN_BASIS = hermitian_basis()
