"""Independent references that the package's own paths are tested against.

``integrate_affine`` (classical RK4) shares no arithmetic with the exact
propagator ``numerics.propagate_affine``, and ``characteristic_polynomial``
(``np.poly`` of the eigenvalues) none with the principal-minor sums of
``numerics.hurwitz_test``.  Neither is part of the package.
"""

import numpy as np

from filtercool.numerics import NumericalError, eigenvalues, require_square


def _affine_inputs(a, c, x0, dt):
    """Validated (a, c, x) of dx/dt = a @ x + c started at x0, for a step dt."""
    a = require_square(a, "drift matrix")
    c = np.asarray(c, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (a.shape[0],) or c.shape != (a.shape[0],):
        raise ValueError("dimension mismatch between matrix, offset and state")
    if dt <= 0:
        raise ValueError("dt must be positive")
    return a, c, x


def _non_finite(k: int, dt: float) -> NumericalError:
    return NumericalError(f"state became non-finite at step {k} (t = {k * dt:.12g})")


def integrate_affine(a: np.ndarray, c: np.ndarray, x0: np.ndarray,
                     dt: float, n_steps: int) -> np.ndarray:
    """Integrate dx/dt = a @ x + c with classical fixed-step RK4.

    The RK4 reference for ``propagate_affine``: it shares no arithmetic with
    the exact propagator, so tests compare the two.  Returns the full path,
    shape ``(n_steps + 1, dim)``, including x0.  Global error is O(dt^4).

    Raises
    ------
    NumericalError
        If the state overflows to non-finite values; the message names the
        failing step and its time k*dt.
    """
    a, c, x = _affine_inputs(a, c, x0, dt)
    path = np.empty((n_steps + 1, x.size))
    path[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1 = a @ x + c
            k2 = a @ (x + 0.5 * dt * k1) + c
            k3 = a @ (x + 0.5 * dt * k2) + c
            k4 = a @ (x + dt * k3) + c
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x).all():
                raise _non_finite(k + 1, dt)
            path[k + 1] = x
    return path


def characteristic_polynomial(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(sI - a), monic, in descending powers of s."""
    a = np.asarray(a, dtype=float)
    coeffs = np.poly(eigenvalues(a))
    return np.real(coeffs)
