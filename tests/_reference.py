"""Independent references that the package's own paths are tested against.

``integrate_affine`` (classical RK4) shares no arithmetic with the exact
propagator ``numerics.propagate_affine``, ``characteristic_polynomial``
(``np.poly`` of the eigenvalues) none with the principal-minor sums of
``numerics.hurwitz_test``, and ``sme_step`` (the density-matrix stochastic
master equation) none with the state-vector kernel of ``trajectory``.  None
of them is part of the package.
"""

import numpy as np

from filtercool.numerics import NumericalError, eigenvalues, require_square
from filtercool.trajectory import ShiftedTrapFeedback


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


def _hamiltonians(model, G):
    """H(G) of each trajectory of a batch with signals G, shape (n, d, d)."""
    fb = model.feedback
    if fb is None:
        return np.broadcast_to(model.H0, (len(G),) + model.H0.shape)
    if isinstance(fb, ShiftedTrapFeedback):
        # (omega/2)[(p - g_p)^2 + (x - g_x)^2] for the whole batch at once
        osc, g = fb.oscillator, G[:, :, fb.tap_index, None, None]
        X = osc.x - g[:, 0] * np.eye(osc.dim)
        P = osc.p - g[:, 1] * np.eye(osc.dim)
        return 0.5 * osc.omega * (P @ P + X @ X)
    return np.stack([np.asarray(fb(g), dtype=complex) for g in G])


def _stack(model):
    """The measured operators as one (ch, d, d) array."""
    return np.array(model.measured_ops, dtype=complex).reshape(-1, model.dim, model.dim)


def _dagger(x):
    """The adjoint of each matrix of a batch (n, d, d)."""
    return x.conj().transpose(0, 2, 1)


def sme_step(model, rho, G, dW, dt):
    """One Euler-Maruyama step of the diffusive stochastic master equation.

    A batch of density matrices rho (n, d, d) with signals G (n, ch, m) takes
    the Wiener increments dW (n, ch):

        drho = -i [H(G), rho] dt + lam sum_k (A_k rho A_k - {A_k^2, rho}/2) dt
               + sqrt(lam) sum_k (A_k rho + rho A_k - 2 <A_k> rho) dW_k,

    after which rho is re-Hermitized and divided by its trace.  Each
    channel's filter reads its record z_k dt = <A_k> dt + dW_k / sqrt(4 lam),
    G <- G + dt G M^T + b z dt.  Returns (rho, G).

    rho, H and the A_k are Hermitian, so X rho = (rho X)^dagger: each
    product of rho from the right is the adjoint of one from the left,
    which takes 1 + 3 ch batched products per step instead of 2 + 5 ch.
    """
    ops, lam = model.measured_ops, model.lam
    H = _hamiltonians(model, G)
    a = np.einsum("kij,nji->nk", _stack(model), rho).real
    Hr = H @ rho
    drho = (-1j * dt) * (Hr - _dagger(Hr))
    for k, A in enumerate(ops):
        Ar = A @ rho
        AAr = A @ Ar
        drho += (lam * dt) * (Ar @ A - 0.5 * (AAr + _dagger(AAr)))
        drho += (np.sqrt(lam) * dW[:, k])[:, None, None] * (
            Ar + _dagger(Ar) - 2.0 * a[:, k, None, None] * rho)
    rho = rho + drho
    rho = 0.5 * (rho + _dagger(rho))
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    if model.filter_model is not None and ops:
        M, b = model.filter_model.M, model.filter_model.b
        z_dt = a * dt + dW / np.sqrt(4.0 * lam)
        G = G + dt * (G @ M.T) + b * z_dt[:, :, None]
    return rho, G


def sme_ensemble(model, rho0, dt, xi, stride):
    """Records of density-matrix trajectories stepped as one batch.

    Trajectory i starts at rho0 with zero signals and takes the Wiener
    increments xi[i] * sqrt(dt), xi of shape (n, n_steps, ch).  Returns
    <H(G)> and the <A_k> at steps 0, stride, 2 stride, ..., shapes
    (n, n_rec) and (n, n_rec, ch).
    """
    n, n_steps, ch = xi.shape
    rho = np.array(np.broadcast_to(rho0, (n,) + rho0.shape), dtype=complex)
    G = np.zeros((n, ch, model.n_signal_components))
    energy = np.empty((n, n_steps // stride + 1))
    ops = np.empty(energy.shape + (ch,))
    for s in range(n_steps + 1):
        if s:
            rho, G = sme_step(model, rho, G, xi[:, s - 1] * np.sqrt(dt), dt)
        if s % stride == 0:
            H = _hamiltonians(model, G)
            energy[:, s // stride] = np.einsum("nij,nji->n", H, rho).real
            ops[:, s // stride] = np.einsum("kij,nji->nk", _stack(model), rho).real
    return energy, ops
