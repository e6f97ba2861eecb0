"""Matrix exponential and certified inverse of a stack of matrices, in
numpy alone.

Scaling and squaring with diagonal Padé approximants of degree 3, 5, 7, 9
or 13 [Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)].  Each matrix
takes the lowest degree whose bound THETA covers its 1-norm; past the last
bound it is halved s times into range (`squarings`) and its approximant
squared s times.
The stack is evaluated one degree at a time, so a stack costs a few batched
products per degree present, not a Python loop over its matrices.
"""

from __future__ import annotations

import math

import numpy as np

#: Padé degrees, and the largest 1-norm for which each reaches unit
#: roundoff in double precision (Higham 2005, Table 2.3)
DEGREES = (3, 5, 7, 9, 13)
THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                  9.504178996162932e-1, 2.097847961257068e0,
                  5.371920351148152e0])


def _pade_coefficients(m: int) -> list:
    """b_j = (2m - j)! m! / ((2m)! j! (m - j)!), j = 0..m, of the degree-m
    diagonal Padé approximant p(A) / p(-A) to exp(A)."""
    f = math.factorial
    return [f(2 * m - j) * f(m) / (f(2 * m) * f(j) * f(m - j))
            for j in range(m + 1)]


def _factors(m: int) -> np.ndarray:
    """Coefficients of I, A^2, A^4, ... in the factors F of U and V:
    U = A F0 and V = F1 up to degree 9; U = A (A^6 F0 + F1) and
    V = A^6 F2 + F3 at degree 13, Higham's evaluation in six products."""
    b = _pade_coefficients(m)
    if m == 13:
        return np.array([[0.0, *b[9::2]], b[1:9:2], [0.0, *b[8::2]],
                         b[0:8:2]])
    return np.array([b[1::2], b[0::2]])


FACTORS = {m: _factors(m) for m in DEGREES}


def norm_1(m: np.ndarray) -> np.ndarray:
    """The 1-norm (largest column sum of |m|) of each matrix of a stack."""
    return np.abs(m).sum(axis=-2).max(axis=-1)


def inv_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of each matrix of a (P, n, n) stack, and its kappa_1 =
    ||m||_1 ||m^-1||_1, from one batched inv.

    An exactly singular member (a zero pivot) fails the whole batch: the
    other members are then inverted alone, and that member's inverse and
    kappa_1 are NaN.
    """
    try:
        inverse = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        inverse = np.full_like(m, np.nan)
        # slogdet factors by the LU inv uses: sign 0 exactly at a zero pivot
        with np.errstate(divide="ignore"):  # it may take log 0
            regular = np.linalg.slogdet(m)[0] != 0
        inverse[regular] = np.linalg.inv(m[regular])
    with np.errstate(over="ignore", invalid="ignore"):
        return inverse, norm_1(m) * norm_1(inverse)


def squarings(norm: np.ndarray, n: int) -> np.ndarray:
    """The fewest halvings s >= 0 that bring each 1-norm within THETA[-1].

    s is capped at what any finite n x n matrix needs (its 1-norm is below
    n 2^1024); an infinite norm gets the cap.
    """
    s_max = 1024 + math.ceil(math.log2(n / THETA[-1]))
    with np.errstate(divide="ignore"):  # a zero norm needs no halving
        s = np.ceil(np.log2(norm / THETA[-1]))
    return np.clip(s, 0, s_max).astype(int)


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """(V - U)^-1 (V + U) for a (K, n, n) stack, with U and V the odd and
    even parts of the degree-m numerator.

    The products are written into the arrays already made: with fresh
    temporaries, a 128-frequency spectrum outgrew the heap the simulate
    process keeps (cli.MALLOPT), and each pass took ~970 minor page faults
    instead of ~1, 10 % more CPU time and 1.2 MB more peak RSS.
    """
    coef = FACTORS[m]
    powers = np.empty((coef.shape[1],) + a.shape, a.dtype)  # I, A^2, A^4...
    powers[0] = np.eye(a.shape[-1])
    np.matmul(a, a, out=powers[1])
    for j in range(2, len(powers)):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    f = (coef @ powers.reshape(len(powers), -1)).reshape((-1,) + a.shape)
    if m == 13:
        _, p2, p4, p6 = powers
        u = np.matmul(a, np.add(np.matmul(p6, f[0], out=p2), f[1], out=p2),
                      out=p4)
        v = np.add(np.matmul(p6, f[2], out=f[0]), f[3], out=f[0])
    else:
        u, v = np.matmul(a, f[0], out=powers[1]), f[1]
    return np.linalg.solve(np.subtract(v, u, out=f[-2]), np.add(v, u, out=v))


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of an (n, n) matrix, or of each matrix of an (..., n, n) stack.

    A matrix with a non-finite entry gives NaN, silently.  Any finite matrix
    is scaled into range (its 1-norm is below n 2^1024); an exponential too
    large for float64 overflows in the squarings, as np.exp does.
    """
    a = np.asarray(a)
    x = a.reshape((-1,) + a.shape[-2:]).astype(np.result_type(a, float),
                                              copy=False)
    with np.errstate(over="ignore"):  # an infinite norm is dealt with below
        norm = norm_1(x)
    # a norm past THETA[-1], infinite or NaN gives len(DEGREES)
    level = np.searchsorted(THETA, norm)
    if len(set(level.tolist())) == 1 and level[0] < len(DEGREES):  # usually
        return _pade(x, DEGREES[level[0]]).reshape(a.shape)
    finite = np.isfinite(x).all(axis=(1, 2))
    s = np.zeros(len(x), dtype=int)
    big = finite & (level == len(DEGREES))
    if big.any():
        s[big] = squarings(norm[big], x.shape[-1])
        level[big] = len(DEGREES) - 1
        x = x.copy()
        x[big] *= np.ldexp(1.0, -s[big])[:, None, None]
    out = np.full_like(x, np.nan)
    for lev in set(level[finite].tolist()):
        sel = finite & (level == lev)
        out[sel] = _pade(x[sel], DEGREES[lev])
    for i in range(s.max(initial=0)):
        sel = s > i
        out[sel] = out[sel] @ out[sel]
    return out.reshape(a.shape)
