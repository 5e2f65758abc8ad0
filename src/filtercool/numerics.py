"""Small dense linear-algebra kernel shared by the rest of the package.

Everything here operates on plain numpy arrays (row-major, float64 or
complex128).  Matrices in this package are tiny (at most 9x9 for the moment
systems, a few tens for truncated oscillators), so robustness is preferred
over speed: linear solves are LU with partial pivoting and an explicit
condition guard.  Affine systems dx/dt = A x + c are stepped exactly by
``propagate_affine``, the package's only ODE stepper and only matrix
exponential: one scaling-and-squaring exponential of the augmented matrix
[[A, c], [0, 0]] and then one matvec per step, written in place into the
path.  It checks finiteness only at power-of-two steps and the last step
(the error still names the first non-finite step), and stops stepping at a
row whose bits repeat the row before it, a fixed point of the map.
``hurwitz_test`` decides whether stacks of small matrices are stable from
their characteristic polynomials, without eigenvalues, and reports how far
each decision is from the boundary.

All quantities are dimensionless (hbar = 1); rate-like entries carry units
of inverse time as documented by the caller; ``require_positive`` is the
one check of a rate or a step, and ``require_count`` of a count.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, isfinite
from typing import Tuple

import numpy as np
from numpy.random import Generator, Philox
from scipy.linalg import expm

#: Condition-number estimate above which a linear solve is refused.
CONDITION_LIMIT = 1e12

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF


class NumericalError(RuntimeError):
    """A numerical operation could not produce a trustworthy result."""


class SingularMatrixError(NumericalError):
    """Singular or ill-conditioned matrix in a linear solve."""


class UnstableSystemError(NumericalError):
    """A stationary quantity was requested for a non-decaying system."""


def require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D square array, rejecting anything else."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def require_number(value, name: str):
    """``value``, refused when it is a bool: Python takes True for 1, so a
    bool given as a rate would run as one."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def require_positive(value, name: str):
    """``value``, refused unless it is a positive finite number (not a bool)."""
    require_number(value, name)
    try:
        ok = isfinite(value) and value > 0
    except TypeError:  # None, a string, a complex number
        ok = False
    if not ok:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def require_count(value, name: str, minimum=None):
    """``value``, refused unless it is an integer (not a bool) and, when
    ``minimum`` is given, at least ``minimum``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def require_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_real_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite real square matrix as float64."""
    a = require_square(np.asarray(a, dtype=float), name)
    return require_finite(a, name)


def solve_linear(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve a @ x = y with partial pivoting, a condition guard and one step
    of iterative refinement.

    The step x += solve(a, y - a @ x) makes the componentwise backward error
    about eps (Skeel 1980), so a component of small Skeel condition is
    accurate even at a large cond(a).

    Raises
    ------
    SingularMatrixError
        If the matrix is singular or its condition estimate exceeds
        ``CONDITION_LIMIT``.  Never returns silent garbage.
    """
    a = require_square(a, "coefficient matrix")
    y = np.asarray(y)
    if y.shape[0] != a.shape[0]:
        raise ValueError(f"right-hand side length {y.shape[0]} does not match "
                         f"matrix size {a.shape[0]}")
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError as exc:  # SVD failure on pathological input
        raise SingularMatrixError(f"condition estimate failed: {exc}") from exc
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularMatrixError(
            f"matrix is singular or ill-conditioned (cond ~ {cond:.3e})")
    try:
        x = np.linalg.solve(a, y)
        return x + np.linalg.solve(a, y - a @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix, as a complex array (unordered)."""
    a = require_square(a, "matrix")
    return np.linalg.eigvals(a)


def _minor(e, rows, cols):
    """Determinant of the entries ``e[i][j]`` on ``rows`` x ``cols``, expanded
    along its first row; each entry is an array of values."""
    if len(rows) == 1:
        return e[rows[0]][cols[0]]
    out = 0.0
    for n, c in enumerate(cols):
        term = e[rows[0]][c] * _minor(e, rows[1:], cols[:n] + cols[n + 1:])
        out = out - term if n % 2 else out + term
    return out


@functools.cache
def _cayley_matrix(m: int) -> np.ndarray:
    """Integer map from the elementary symmetric functions E_k of an m x m
    matrix's eigenvalues s_i to the ascending coefficients of
    sum_k E_k (1 - z)^(m-k) (1 + z)^k = prod_i ((1 - z) + s_i (1 + z)),
    whose roots are z_i = (1 + s_i)/(1 - s_i).  Built once per m and
    read-only, since every caller shares it."""
    P = np.polynomial.polynomial
    cayley = np.stack([P.polymul(P.polypow([1, -1], m - k), P.polypow([1, 1], k))
                       for k in range(m + 1)], axis=1)
    cayley.flags.writeable = False
    return cayley


def hurwitz_test(b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Whether every eigenvalue of each matrix ``b[..., :, :]`` has Re < 0.

    The coefficients of the characteristic polynomial of b (degree m) are
    summed from its principal minors, its roots s are mapped to the unit
    disk by the Cayley map z = (1 + s)/(1 - s), and the Schur-Cohn
    recursion runs on the complex coefficients: with k = a_0 / conj(a_n),
    the degree-n polynomial a(z) steps to (a(z) - k z^n conj(a(1/conj z)))/z,
    and all roots lie in |z| < 1 exactly when every reflection coefficient
    k_m, ..., k_1 has |k| < 1.  All of it is elementwise over the leading
    axes, so a whole grid of small matrices is one pass.

    Returns ``(stable, margin)``.  ``margin`` is a lower bound on the exact
    min_j |1 - |k_j|| over the stages up to the first with |k_j| >= 1: the
    computed value less a first-order running bound on its rounding error
    (Higham, *Accuracy and Stability of Numerical Algorithms*, sec. 3.3),
    nan where a stage divides by zero.  Where it is positive the decision
    holds for the matrices as given, up to second-order rounding terms.
    For a root s near the imaginary
    axis 1 - |z| is about -2 Re s / |1 - s|^2, so for matrices of norm
    about 1 the margin follows the distance of the eigenvalues from the axis.
    """
    m = b.shape[-1]
    u = 8 * np.finfo(float).eps  # per complex operation, with room to spare
    e = [[b[..., i, j] for j in range(m)] for i in range(m)]
    sym = [1.0] + [sum(_minor(e, rows, rows) for rows in itertools.combinations(range(m), k))
                   for k in range(1, m + 1)]
    cayley = _cayley_matrix(m)
    a = [sum(t * c for t, c in zip(row, sym) if t) for row in cayley]
    # E_k sums binom(m, k) minors of order k, and the terms of each expansion
    # add up in absolute value to at most ||b||_inf^k (a permanent of |b| is
    # at most the product of its row sums).  With at most 2 m^2 roundings of
    # u per term, a_i = sum_k T_ik E_k is off by at most
    # 2 m^2 u sum_k |T_ik| binom(m, k) ||b||_inf^k.
    norm = functools.reduce(np.maximum, (sum(np.abs(x) for x in row) for row in e))
    weights = (np.abs(cayley) * [comb(m, k) for k in range(m + 1)]).max(axis=0)
    err = 2 * m * m * u * np.polynomial.polynomial.polyval(norm, weights)
    stable = np.ones(b.shape[:-2], dtype=bool)
    margin = np.full(b.shape[:-2], np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(m, 0, -1):
            k = a[0] / np.conj(a[n])
            size = np.abs(k)
            dk = err * (1.0 + size) / np.abs(a[n]) + u * size  # error of k and of |k|
            margin = np.where(stable, np.minimum(margin, np.abs(1.0 - size) - dk), margin)
            stable &= size < 1.0
            if n > 1:  # one error bound for all the next stage's coefficients
                top = functools.reduce(np.maximum, (np.abs(x) for x in a))
                err = err * (1.0 + size) + (dk + u * (1.0 + size)) * top
                a = [a[i + 1] - k * np.conj(a[n - 1 - i]) for i in range(n)]
    return stable, margin


def propagate_affine(a: np.ndarray, c: np.ndarray, x0: np.ndarray,
                     dt: float, n_steps: int) -> np.ndarray:
    """Exact path of dx/dt = a @ x + c at the times k*dt, k = 0..n_steps.

    The exponential of the augmented matrix [[a, c], [0, 0]]*dt (scipy's
    scaling-and-squaring ``expm``) is the one-step map [[phi, d], [0, 1]],
    so each step is x <- phi @ x + d.  ``expm`` returns NaN once ||a dt|| is
    huge, even where the exact map is 0 (for the (2, 3) low-pass cascade
    from dt = 1e38, scipy 1.17); the finiteness check reports it.  It
    has no step-size error (a path at step k*dt equals every k-th row of one
    at dt, to rounding) and needs no inverse of ``a``, so a singular drift is
    covered.  Returns the full path, shape ``(n_steps + 1, dim)``, including
    x0.

    Each step writes its row in place, from the row before it.  Finiteness
    is checked at the steps k that are powers of two and at the last step,
    over the rows since the previous check, so an overflowing run computes
    at most twice the steps up to its first non-finite row.  At the same
    checks, a row whose bits equal the row before it is a fixed point of the
    deterministic map: the rest of the path is filled with it and no more
    steps are taken.  The rows are bit for bit those of the plain loop
    x = phi @ x + d.

    Raises
    ------
    ValueError
        If ``a`` or ``c`` is not finite, ``dt`` is not a positive finite
        number or ``n_steps`` is not a nonnegative integer.
    NumericalError
        If the state overflows to non-finite values; the message names the
        first non-finite step and its time k*dt.
    """
    a = require_square(a, "drift matrix")
    c = np.asarray(c, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (a.shape[0],) or c.shape != (a.shape[0],):
        raise ValueError("dimension mismatch between matrix, offset and state")
    require_positive(dt, "dt")
    require_count(n_steps, "n_steps", 0)
    dim = x0.size
    augmented = np.zeros((dim + 1, dim + 1))
    augmented[:dim, :dim] = a
    augmented[:dim, dim] = c
    require_finite(augmented, "drift and offset")
    path = np.empty((n_steps + 1, dim))
    path[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        hop = expm(augmented * dt)
        phi, d = hop[:dim, :dim], hop[:dim, dim]
        done = 0  # rows 0..done are computed and finite
        while done < n_steps:
            check = min(2 * done or 1, n_steps)  # the next power of two, or the last step
            for k in range(done + 1, check + 1):
                np.matmul(phi, path[k - 1], out=path[k])
                path[k] += d
            bad = ~np.isfinite(path[done + 1:check + 1]).all(axis=1)
            if bad.any():
                k = done + 1 + int(bad.argmax())
                raise NumericalError(f"state became non-finite at step {k} "
                                     f"(t = {k * dt:.12g})")
            if np.array_equal(path[check].view(np.uint64), path[check - 1].view(np.uint64)):
                path[check + 1:] = path[check]
                break
            done = check
    return path


@dataclass(frozen=True)
class NoiseStream:
    """Deterministic Gaussian substream keyed by (base_seed, substream_index).

    Built on the counter-based Philox generator, so distinct substream
    indices are statistically independent by construction and the draw
    sequence for a given key is identical across runs, platforms and thread
    schedules.
    """

    base_seed: int
    substream_index: int = 0

    def generator(self) -> Generator:
        """A fresh generator positioned at the start of this substream."""
        key = np.array([self.base_seed & _UINT64_MASK,
                        self.substream_index & _UINT64_MASK], dtype=np.uint64)
        return Generator(Philox(key=key))
