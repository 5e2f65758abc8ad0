"""State-space realizations of the linear signal filters.

Every filter is stored as an explicit pair (M, b): the processed signal
vector G obeys ``dG = M G dt + b z dt`` where z is the raw measurement
record.  Three constructors cover the cases used for cooling protocols:

* :func:`lowpass_cascade` -- a chain of exponential smoothing stages, each
  stage driving the next (components D1..Dn).
* :func:`bandpass` -- the two quadratures (E1, E2) of a frequency-shifted
  exponential filter centered at Omega.
* :func:`kernel_filter` -- a convolution filter whose kernel satisfies a
  finite linear ODE, realized in companion form (components F1..Fn).

The drive z is white around the measured mean, so under a frozen mean the
components form a multivariate Ornstein-Uhlenbeck process; their stationary
mean and covariance are available from :func:`stationary_statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    UnstableSystemError,
    as_real_matrix,
    propagate_affine,
    require_finite,
    solve_linear,
)


@dataclass
class FilterModel:
    """A linear filter realization dG = M G dt + b z dt.

    Attributes
    ----------
    M : (n, n) real array
        Internal drift, entries in units of inverse time.
    b : (n,) real array
        Injection of the raw record into each component, inverse time.
    """

    M: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.M = as_real_matrix(self.M, "filter drift M")
        self.b = require_finite(np.asarray(self.b, dtype=float), "filter input b")
        if self.b.shape != (self.M.shape[0],):
            raise ValueError("b length must match M dimension")
        self.M.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def n(self) -> int:
        return self.M.shape[0]


@dataclass
class KernelSpec:
    """Kernel f(t) defined by a monic linear ODE and its initial derivatives.

    ``coefficients`` are (a0, ..., a_{n-1}) of
    ``f^(n) + a_{n-1} f^(n-1) + ... + a0 f = 0`` and
    ``initial_derivatives`` are (f(0), f'(0), ..., f^(n-1)(0)).
    """

    coefficients: tuple = field(default_factory=tuple)
    initial_derivatives: tuple = field(default_factory=tuple)

    def __post_init__(self):
        self.coefficients = tuple(float(a) for a in self.coefficients)
        self.initial_derivatives = tuple(float(f) for f in self.initial_derivatives)
        if self.order < 1:
            raise ValueError("kernel ODE order must be at least 1")
        if len(self.initial_derivatives) != self.order:
            raise ValueError("need exactly one initial derivative per order")
        for v in self.coefficients + self.initial_derivatives:
            if not np.isfinite(v):
                raise ValueError("kernel spec entries must be finite")

    @property
    def order(self) -> int:
        return len(self.coefficients)


def lowpass_cascade(gammas) -> FilterModel:
    """Cascade of exponential low-pass stages with bandwidths gamma_k.

    Stage 1 smooths the raw record; each later stage smooths the previous
    one.  The drift is lower bidiagonal with -gamma_k on the diagonal and
    +gamma_k on the subdiagonal (k >= 2); only the first component is driven,
    b = (gamma_1, 0, ..., 0).
    """
    gammas = tuple(float(g) for g in gammas)
    if not gammas:
        raise ValueError("cascade needs at least one stage")
    if any(g <= 0 for g in gammas):
        raise ValueError("all cascade bandwidths must be positive")
    n = len(gammas)
    M = np.zeros((n, n))
    for k, g in enumerate(gammas):
        M[k, k] = -g
        if k >= 1:
            M[k, k - 1] = g
    b = np.zeros(n)
    b[0] = gammas[0]
    return FilterModel(M, b)


def bandpass(gamma: float, Omega: float) -> FilterModel:
    """Band-pass filter as two coupled quadratures (E1, E2).

    E1 carries the cosine quadrature of an exponential window of width gamma
    shifted to center frequency Omega, E2 the sine quadrature:

        M = [[-gamma, -Omega], [Omega, -gamma]],  b = (gamma, 0).

    Omega = 0 is allowed and degenerates to a single low-pass stage plus an
    inert second component.
    """
    gamma = float(gamma)
    Omega = float(Omega)
    if gamma <= 0:
        raise ValueError("bandwidth gamma must be positive")
    if Omega < 0:
        raise ValueError("center frequency Omega must be nonnegative")
    M = np.array([[-gamma, -Omega], [Omega, -gamma]])
    b = np.array([gamma, 0.0])
    return FilterModel(M, b)


def kernel_filter(spec: KernelSpec) -> FilterModel:
    """Companion-form realization of a general kernel filter.

    Component 1 is the convolution of the record with f(t); components
    2..n carry the convolutions with the higher derivatives of f.  The drift
    is the companion matrix of the kernel ODE (ones on the superdiagonal,
    last row -a0..-a_{n-1}) and b collects the initial derivatives.
    """
    n = spec.order
    M = np.zeros((n, n))
    for k in range(n - 1):
        M[k, k + 1] = 1.0
    M[n - 1, :] = [-a for a in spec.coefficients]
    b = np.array(spec.initial_derivatives)
    return FilterModel(M, b)


def impulse_response(model: FilterModel, t: float) -> np.ndarray:
    """Response of every component at time t to a unit impulse in the record.

    Equals exp(M t) @ b, the solution of dh/dt = M h from h(0) = b, taken
    in one exact step of ``propagate_affine``; at t = 0 this is b itself.
    Raises ``NumericalError`` if the response overflows at t.
    """
    if t < 0:
        raise ValueError("impulse response is causal; t must be nonnegative")
    if t == 0:
        return model.b.copy()
    return propagate_affine(model.M, np.zeros(model.n), model.b, t, 1)[-1]


def transfer_function(model: FilterModel, nu: float) -> np.ndarray:
    """Frequency response (i nu I - M)^-1 b of each component.

    `nu` is the angular frequency of a unit-amplitude drive.  Raises
    SingularMatrixError if i*nu is (numerically) an eigenvalue of M.
    """
    n = model.n
    A = 1j * float(nu) * np.eye(n) - model.M
    return solve_linear(A, model.b.astype(complex))


def stationary_statistics(model: FilterModel, lam: float,
                          mean_A: float = 0.0):
    """Stationary mean and covariance under a white record with fixed mean.

    With the record z = mean_A + white noise of intensity 1/(4 lam), the
    signal vector relaxes to mean ``-M^-1 b * mean_A`` and its covariance
    solves the Lyapunov equation ``M S + S M^T + b b^T / (4 lam) = 0``
    (solved here by Kronecker vectorization; dimensions are tiny).

    Returns
    -------
    (mean, covariance) : ((n,) array, (n, n) array)

    Raises
    ------
    UnstableSystemError
        If M has an eigenvalue with nonnegative real part ("no stationary
        state").
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"measurement strength lam must be positive and finite, got {lam}")
    if not np.isfinite(mean_A):
        raise ValueError(f"record mean mean_A must be finite, got {mean_A}")
    M, b = model.M, model.b
    n = model.n
    if np.linalg.eigvals(M).real.max() >= 0:
        raise UnstableSystemError("no stationary state: filter drift is not stable")
    mean = solve_linear(M, -b * float(mean_A))
    Q = np.outer(b, b) / (4.0 * lam)
    # row-major vec: vec(M S) = kron(M, I) vec(S), vec(S M^T) = kron(I, M) vec(S)
    L = np.kron(M, np.eye(n)) + np.kron(np.eye(n), M)
    sigma = solve_linear(L, -Q.reshape(-1)).reshape(n, n)
    return mean, 0.5 * (sigma + sigma.T)
