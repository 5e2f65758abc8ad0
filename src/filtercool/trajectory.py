"""Stochastic trajectory engine for continuous measurement with feedback.

Each trajectory co-integrates two coupled pieces with a shared Wiener
increment per measurement channel:

* the conditioned quantum state under weak monitoring of Hermitian
  operators A_k with strength lam, and
* the filtered signal vector of each channel, dG = M G dt + b z_k dt, where
  the record z_k dt = <A_k> dt + dW_k / sqrt(4 lam) reuses the same dW_k
  that drove the state update.

The measurement has unit efficiency, so a pure state stays pure.  When the
initial state is pure, :func:`run_ensemble` steps the state vector psi with
the stochastic Schroedinger equation (SSE), a_k = <A_k>,

    dpsi = [-i (H - <H>) dt - (lam/2) sum_k (A_k - a_k)^2 dt
            + sqrt(lam) sum_k (A_k - a_k) dW_k] psi,

one Euler-Maruyama move followed by renormalization per step.  It
reproduces the diffusive stochastic master equation (SME) term for term
(Wiseman & Milburn, Quantum Measurement and Control, 2010, ch. 4; Jacobs &
Steck, Contemp. Phys. 47, 279, 2006) at O(d^2) instead of O(d^3) work per
step.  H is centred on <H>: the exact flow ignores a constant added to H,
and with the centring the Euler step does too.  A step applies the operator
stack [H0, A_1..A_ch, S = sum_k A_k^2] (4 blocks for the cooling protocols)
to psi once, as a sparse CSR product: for the oscillator models every block
is diagonal or tridiagonal, 140 stored entries at d = 24 in place of 2304.
The products give the moments the records read, and one coefficient product
per trajectory, one weight per block, forms the whole Euler move.

A mixed initial state is stepped as a density matrix under the SME
(unitary drift, backaction dissipators and the nonlinear innovation term),
Euler-Maruyama with re-Hermitization and trace renormalization after every
step.  This path is exact for mixed input; :func:`step` uses it, and it is
the reference the SSE path is tested against.

Feedback enters by recomputing the Hamiltonian from the current signals at
every step.  The cooling protocols recentre the trap on one filter
component, with filter and tap read from ``moment_systems.ProtocolParams``;
the engine exploits the linearity of that shift in x and p so whole
ensembles can be stepped as one batched array operation.

Ensembles are reproducible by construction: trajectory i draws its noise
from ``NoiseStream(base_seed, i)`` and statistics are reduced in trajectory
order, so results are independent of chunking or execution order.  The
reduction runs while the ensemble is stepped: per-slot sums of the values
and of their deviations from trajectory 0 are updated at the end of each
noise block, so a run's memory is set by ``chunk_size``, ``NOISE_BLOCK``
and the number of records, not by the ensemble size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .filters import FilterModel
from .moment_systems import ProtocolParams
from .numerics import NoiseStream, NumericalError

#: Sum of the top two basis-state populations above which a run is flagged
#: as truncation limited; it is sampled on the record grid.
EDGE_POPULATION_LIMIT = 1e-3

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10

#: An initial state whose top eigenvalue exceeds 1 - _PURE_TOL is stepped
#: as a state vector.
_PURE_TOL = 1e-12

#: Steps of noise drawn at once per trajectory; bounds the noise buffer at
#: chunk_size * NOISE_BLOCK * channels doubles whatever the step count.
NOISE_BLOCK = 1024


class TrajectoryError(NumericalError):
    """A trajectory produced a non-finite state."""


# ---------------------------------------------------------------------------
# states and operators


@dataclass
class QuantumState:
    """Finite-dimensional density matrix (the conditioned state).

    Hermiticity (to 1e-12) and unit trace (to 1e-10) are enforced on
    construction; positivity is not, since the density-matrix integrator
    (the mixed-state path of :func:`run_ensemble` and :func:`step`) can
    transiently produce slightly negative eigenvalues.  Pure states are
    stepped as state vectors, which cannot lose positivity.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got {rho.shape}")
        if not np.isfinite(rho.view(float)).all():
            raise ValueError("density matrix has non-finite entries")
        if np.abs(rho - rho.conj().T).max() > _HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > _TRACE_TOL or abs(np.trace(rho).imag) > _TRACE_TOL:
            raise ValueError("density matrix trace must be 1")
        self.rho = rho

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def ground_state(cls, dim: int) -> "QuantumState":
        """The lowest basis state |0><0|."""
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return cls(rho)

    @classmethod
    def ground_state_of(cls, hamiltonian: np.ndarray) -> "QuantumState":
        """Pure state built from the lowest eigenvector of a Hermitian matrix."""
        _, vecs = np.linalg.eigh(hamiltonian)
        v = vecs[:, 0]
        return cls(np.outer(v, v.conj()))

    def expectation(self, op: np.ndarray) -> float:
        """Real expectation value of a Hermitian operator."""
        return float(np.trace(self.rho @ op).real)

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)

    def populations(self) -> np.ndarray:
        return np.diag(self.rho).real.copy()


@dataclass
class TruncatedOscillator:
    """Dimensionless oscillator operators on a truncated number basis.

    x and p are built from ladder operators so that [x, p] = i holds exactly
    away from the last two basis states, and H0 = (omega/2)(p^2 + x^2).
    """

    omega: float
    dim: int
    H0: np.ndarray
    x: np.ndarray
    p: np.ndarray


def build_truncated_oscillator(n_fock: int, omega: float) -> TruncatedOscillator:
    """Construct (H0, x, p) on an n_fock-dimensional number basis.

    Requires n_fock >= 3 so that at least one commutator row is exact.
    """
    if n_fock < 3:
        raise ValueError(f"need at least 3 basis states, got {n_fock}")
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    n = np.arange(n_fock - 1)
    a = np.zeros((n_fock, n_fock), dtype=complex)
    a[n, n + 1] = np.sqrt(n + 1.0)
    ad = a.conj().T
    x = (a + ad) / np.sqrt(2.0)
    p = 1j * (ad - a) / np.sqrt(2.0)
    H0 = 0.5 * omega * (p @ p + x @ x)
    return TruncatedOscillator(float(omega), n_fock, H0, x, p)


@dataclass
class ShiftedTrapFeedback:
    """Trap-recentering feedback H(G) = (omega/2)[(p - g_p)^2 + (x - g_x)^2].

    g_x and g_p are the component ``tap_index`` of the x- and p-channel
    signal vectors.  Calling the instance with the stacked signals (one row
    per channel) returns the Hermitian feedback Hamiltonian.
    """

    oscillator: TruncatedOscillator
    tap_index: int

    def __post_init__(self):
        if self.tap_index < 0:
            raise ValueError("tap index must be nonnegative")

    def hamiltonian(self, signals: np.ndarray) -> np.ndarray:
        signals = np.asarray(signals, dtype=float)
        if signals.ndim != 2 or signals.shape[0] != 2:
            raise ValueError("expected signals with one row per (x, p) channel")
        if self.tap_index >= signals.shape[1]:
            raise ValueError(
                f"tap index {self.tap_index} out of range for "
                f"{signals.shape[1]}-component signals")
        osc = self.oscillator
        gx = signals[0, self.tap_index]
        gp = signals[1, self.tap_index]
        eye = np.eye(osc.dim)
        X = osc.x - gx * eye
        P = osc.p - gp * eye
        return 0.5 * osc.omega * (P @ P + X @ X)

    __call__ = hamiltonian


FeedbackRule = Union[ShiftedTrapFeedback, Callable[[np.ndarray], np.ndarray], None]


# ---------------------------------------------------------------------------
# system model


@dataclass
class SystemModel:
    """Everything the engine needs: operators, filter and feedback rule.

    Each measured operator defines one channel with its own record and its
    own copy of the filter.  ``feedback`` maps the stacked signal vectors of
    all channels to a Hermitian Hamiltonian; ``None`` means evolve under H0
    alone.
    """

    H0: np.ndarray
    measured_ops: tuple
    lam: float
    filter_model: Optional[FilterModel] = None
    feedback: FeedbackRule = None

    def __post_init__(self):
        self.H0 = np.asarray(self.H0, dtype=complex)
        d = self.H0.shape[0]
        if self.H0.shape != (d, d):
            raise ValueError("H0 must be square")
        ops = tuple(np.asarray(A, dtype=complex) for A in self.measured_ops)
        for A in (self.H0,) + ops:
            if A.shape != (d, d):
                raise ValueError("all operators must share the Hilbert dimension")
            if np.abs(A - A.conj().T).max() > _HERMITICITY_TOL:
                raise ValueError("operators must be Hermitian")
        if ops and not self.lam > 0:
            raise ValueError("measurement strength lam must be positive")
        if self.lam < 0:
            raise ValueError("measurement strength lam must be nonnegative")
        self.measured_ops = ops

    @property
    def dim(self) -> int:
        return self.H0.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.measured_ops)

    @property
    def n_signal_components(self) -> int:
        return self.filter_model.n if self.filter_model is not None else 0


def oscillator_cooling_model(params: ProtocolParams, n_fock: int) -> SystemModel:
    """Monitored oscillator with trap-shift feedback on filtered quadratures.

    Position and momentum are both measured with strength ``params.lam``;
    each record passes through ``params.filter_model()`` and the trap is
    recentered on component ``params.kind.tap``.
    """
    osc = build_truncated_oscillator(n_fock, params.omega)
    fb = ShiftedTrapFeedback(osc, params.kind.tap)
    return SystemModel(osc.H0, (osc.x, osc.p), params.lam, params.filter_model(), fb)


def measurement_only_model(n_fock: int, omega: float, lam: float,
                           filter_model: Optional[FilterModel] = None) -> SystemModel:
    """Monitored oscillator without feedback (pure measurement backaction)."""
    osc = build_truncated_oscillator(n_fock, omega)
    return SystemModel(osc.H0, (osc.x, osc.p), lam, filter_model, None)


def frozen_signal_model(filter_model: FilterModel, lam: float,
                        mean_A: float = 0.0) -> SystemModel:
    """Signal-only model: the record mean is frozen at ``mean_A``.

    Uses a trivial one-dimensional Hilbert space whose measured operator is
    the constant mean_A, so the quantum state is inert and the filter sees
    z dt = mean_A dt + dW / sqrt(4 lam).  Useful as an exact
    Ornstein-Uhlenbeck reference for the filter statistics.
    """
    H0 = np.zeros((1, 1), dtype=complex)
    A = np.array([[mean_A]], dtype=complex)
    return SystemModel(H0, (A,), lam, filter_model, None)


# ---------------------------------------------------------------------------
# configuration and results


@dataclass
class TrajectoryConfig:
    """Run configuration for :func:`run_ensemble`.

    ``record_stride`` must divide ``n_steps``; observables are recorded at
    step 0 and every stride-th step after.  ``chunk_size`` only bounds
    memory, results are bit-identical for any value.  A run holds one
    chunk's noise block and record window,
    chunk_size * (NOISE_BLOCK * ch + (NOISE_BLOCK // record_stride + 1) * q)
    doubles with q = 1 + ch + ch * m record columns, plus 4 * n_rec * q
    doubles of per-slot sums; nothing grows with ``n_traj``.  Counts and
    the seed must be integers, and ``dt`` and ``initial_signals`` finite.
    """

    dt: float
    n_steps: int
    n_traj: int
    base_seed: int
    record_stride: int = 1
    initial_state: Optional[QuantumState] = None
    initial_signals: Optional[np.ndarray] = None
    chunk_size: int = 256

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        for name in ("n_steps", "n_traj", "record_stride", "chunk_size",
                     "base_seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}")
        if self.n_steps < 1 or self.n_traj < 1 or self.chunk_size < 1:
            raise ValueError("n_steps, n_traj and chunk_size must be at least 1")
        if self.record_stride < 1 or self.n_steps % self.record_stride:
            raise ValueError("record_stride must be positive and divide n_steps")
        if self.initial_signals is not None and not np.isfinite(
                np.asarray(self.initial_signals, dtype=float)).all():
            raise ValueError("initial signals must be finite")


@dataclass
class TrajectoryRecord:
    """Ensemble observables on the recording grid.

    ``op_mean``/``op_stderr`` hold the ensemble statistics of each measured
    operator's conditional expectation (one row per channel);
    ``signal_mean``/``signal_var`` the per-component statistics of each
    channel's filtered signals, shape (channels, components, times).
    """

    times: np.ndarray
    energy_mean: np.ndarray
    energy_stderr: np.ndarray
    op_mean: np.ndarray
    op_stderr: np.ndarray
    signal_mean: np.ndarray
    signal_var: np.ndarray
    n_traj: int
    max_edge_population: float
    truncation_warning: bool


# ---------------------------------------------------------------------------
# stepping kernel


class _Engine:
    """Precomputed batched stepping kernel for one SystemModel.

    A batch is either state vectors, shape (n, d), or density matrices,
    shape (n, d, d); :meth:`step` and the observables accept both.

    ``blocks`` is the operator stack B_j = [H0, A_1..A_ch, S = sum_k A_k^2],
    plus x, p only when they are not the measured pair: 4 blocks for the
    cooling protocols.  The state-vector path applies them stacked as one
    CSR array, :attr:`Wt`, so the products cost O(nnz) per trajectory.
    Steps and records read the same :meth:`_moments`.  A state-vector step
    then makes one coefficient product per trajectory,
    sum_j c_j B_j psi + c0 psi: the columns of c are -i dt on H0 and
    -lam dt / 2 on S (both prefilled), kick_k on A_k and +i dt w g on the
    trap's x, p blocks (see :meth:`_advance_psi`).
    """

    def __init__(self, model: SystemModel):
        self.d = model.dim
        self.n_ch = model.n_channels
        self.m = model.n_signal_components
        self.ops = model.measured_ops
        self.ops_sq = tuple(A @ A for A in self.ops)
        self.H0 = model.H0
        self.lam = model.lam
        self.sqrt_lam = np.sqrt(model.lam) if self.n_ch else 0.0
        self.noise_gain = 1.0 / np.sqrt(4.0 * model.lam) if self.n_ch else 0.0
        self.M_T = model.filter_model.M.T.copy() if self.m else None
        self.b = model.filter_model.b if self.m else None
        fb = model.feedback
        if fb is None:
            self.mode = "free"
        elif isinstance(fb, ShiftedTrapFeedback):
            if self.n_ch != 2:
                raise ValueError("trap-shift feedback needs the (x, p) channel pair")
            if self.m == 0:
                raise ValueError("trap-shift feedback needs a filter model")
            if fb.tap_index >= self.m:
                raise ValueError(f"tap index {fb.tap_index} out of range for "
                                 f"{self.m}-component filter")
            self.mode = "trap"
            self.osc = fb.oscillator
            self.tap = fb.tap_index
        else:
            self.mode = "generic"
            self.fb = fb
        blocks = [self.H0, *self.ops] + ([sum(self.ops_sq)] if self.n_ch else [])
        # <B> is taken of the first n_ev blocks: H0 and the A_k, and all of
        # them when x and p need blocks of their own after S.
        self.n_ev = 1 + self.n_ch
        if self.mode == "trap":
            xp = (self.osc.x, self.osc.p)
            if not all(np.array_equal(A, B) for A, B in zip(self.ops, xp)):
                blocks += xp
                self.n_ev = len(blocks)
            self.xp = slice(self.n_ev - 2, self.n_ev)
        self.blocks = blocks
        self._coef = None  # (buffer, dt) of _coefficients

    @cached_property
    def Wt(self):
        """The blocks stacked row-wise as a ``scipy.sparse.csr_array``, the
        stack the state-vector path applies.  It is built on first use, so a
        density-matrix run and :func:`step` neither build it nor import
        ``scipy.sparse``."""
        from scipy.sparse import csr_array
        return csr_array(np.concatenate(self.blocks))

    def _coefficients(self, n: int, dt: float) -> np.ndarray:
        """The (n, blocks) coefficient rows of a state-vector step, with the
        constant columns filled: -i dt on H0 (0 for a generic rule, whose
        H(G) psi is dense) and -lam dt / 2 on S.  The buffer is kept while n
        fits and dt stays; each step writes the other columns."""
        if self._coef is None or len(self._coef[0]) < n or self._coef[1] != dt:
            c = np.zeros((n, len(self.blocks)), dtype=complex)
            if self.mode != "generic":
                c[:, 0] = -1j * dt
            if self.n_ch:
                c[:, 1 + self.n_ch] = -0.5 * self.lam * dt
            self._coef = (c, dt)
        return self._coef[0][:n]

    def _moments(self, state: np.ndarray):
        """(prod, ev) of a batch, which :meth:`energies` and :meth:`op_means`
        take as ``mom``: ev[:, j] = <B_j> for the first ``n_ev`` blocks, and
        for state vectors prod[:, j] = B_j psi for every block."""
        if state.ndim == 3:
            return None, np.stack([np.einsum('nij,ji->n', state, A).real
                                   for A in self.blocks[:self.n_ev]], axis=1)
        # A CSR product adds each output row's stored terms in one order, so
        # a trajectory's arithmetic is the same for any batch size.  It comes
        # back trajectory-minor; the copy gives every trajectory a contiguous
        # (blocks, d) slab, without which the stacked products below take a
        # different path, and round differently, for some batch sizes.
        prod = np.ascontiguousarray((self.Wt @ state.T).T).reshape(
            len(state), -1, self.d)
        ev = (prod[:, :self.n_ev] @ state.conj()[:, :, None])[:, :, 0].real
        return prod, ev

    def op_means(self, mom) -> np.ndarray:
        """Conditional <A_k> of a batch from its :meth:`_moments`, shape
        (n, channels)."""
        return mom[1][:, 1:1 + self.n_ch]

    def _commutator(self, rho: np.ndarray, G: np.ndarray) -> np.ndarray:
        if self.mode == "trap":
            # H(G) = H0 - w(gx x + gp p) + const; the constant drops out.
            w = self.osc.omega
            gx = (w * G[:, 0, self.tap])[:, None, None]
            gp = (w * G[:, 1, self.tap])[:, None, None]
            return (self.H0 @ rho - rho @ self.H0
                    - gx * (self.osc.x @ rho - rho @ self.osc.x)
                    - gp * (self.osc.p @ rho - rho @ self.osc.p))
        if self.mode == "generic":
            H = self._feedback_hamiltonians(G)
            return H @ rho - rho @ H
        return self.H0 @ rho - rho @ self.H0

    def _feedback_hamiltonians(self, G: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(self.fb(Gi), dtype=complex) for Gi in G])

    def _filter_step(self, G, a, dW, dt):
        """dG = M G dt + b z dt with z dt = <A> dt + dW / sqrt(4 lam)."""
        if self.m and self.n_ch:
            z_dt = a * dt + dW * self.noise_gain
            G = G + dt * (G @ self.M_T) + self.b[None, None, :] * z_dt[:, :, None]
        return G

    def step(self, state: np.ndarray, G: np.ndarray, xi: np.ndarray, dt: float):
        """One Euler-Maruyama step of a batch on standard-normal draws xi:
        the SSE for state vectors, the SME for density matrices.  Returns
        (state, G)."""
        advance = self._advance_psi if state.ndim == 2 else self._advance_rho
        return advance(state, G, xi * np.sqrt(dt), dt, self._moments(state))

    def _advance_rho(self, rho, G, dW, dt, mom):
        """SME :meth:`step` on Wiener increments dW and rho's moments."""
        a = self.op_means(mom)
        drho = (-1j * dt) * self._commutator(rho, G)
        for k in range(self.n_ch):
            A, A2 = self.ops[k], self.ops_sq[k]
            Ar = A @ rho
            rA = rho @ A
            drho += (self.lam * dt) * (Ar @ A - 0.5 * (A2 @ rho + rho @ A2))
            drho += (self.sqrt_lam * dW[:, k])[:, None, None] * (
                Ar + rA - 2.0 * a[:, k][:, None, None] * rho)
        rho = rho + drho
        rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
        trace = np.einsum('nii->n', rho).real
        rho = rho / trace[:, None, None]
        return rho, self._filter_step(G, a, dW, dt)

    def _advance_psi(self, psi, G, dW, dt, mom):
        """SSE :meth:`step` on Wiener increments dW and psi's moments.

        With kick_k = sqrt(lam) dW_k + lam dt a_k, the SSE move expanded in
        powers of A_k (S carries sum_k A_k^2) is
        dpsi = sum_j c_j B_j psi + c0 psi, with
        c0 = i dt <H> - sum_k (kick_k - (lam dt / 2) a_k) a_k.  The trap's
        H(G) = H0 - w (g_x x + g_p p) + const adds +i dt w g on the x, p
        blocks; the constant drops out.
        """
        ch = self.n_ch
        prod, ev = mom
        a = ev[:, 1:1 + ch]
        c = self._coefficients(len(psi), dt)
        if self.mode == "generic":
            Hpsi = (self._feedback_hamiltonians(G) @ psi[:, :, None])[:, :, 0]
            eH = (psi.conj() * Hpsi).sum(axis=1).real
        else:
            eH = ev[:, 0]
        c0 = (1j * dt) * eH
        if ch:
            kick = self.sqrt_lam * dW + (self.lam * dt) * a
            c[:, 1:1 + ch] = kick
            c0 += (((0.5 * self.lam * dt) * a - kick) * a).sum(axis=1)
        if self.mode == "trap":
            shift = (1j * dt * self.osc.omega) * G[:, :, self.tap]
            c0 -= (shift * ev[:, self.xp]).sum(axis=1)
            if self.xp.start == 1:  # x and p are the measured A_1, A_2
                c[:, self.xp] += shift
            else:
                c[:, self.xp] = shift
        dpsi = (c[:, None, :] @ prod)[:, 0]
        if self.mode == "generic":
            dpsi += (-1j * dt) * Hpsi
        psi = psi + (dpsi + c0[:, None] * psi)
        v = psi.view(float)
        psi /= np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
        return psi, self._filter_step(G, a, dW, dt)

    def populations(self, state: np.ndarray) -> np.ndarray:
        """Basis-state populations, shape (n, d)."""
        if state.ndim == 2:
            return state.real**2 + state.imag**2
        return np.einsum('nii->ni', state).real

    def energies(self, state: np.ndarray, G: np.ndarray, mom) -> np.ndarray:
        """<H(G)> of a batch with moments ``mom`` (H0 when there is no
        feedback)."""
        if self.mode == "generic":
            H = self._feedback_hamiltonians(G)
            if state.ndim == 2:
                Hpsi = (H @ state[:, :, None])[:, :, 0]
                return (state.conj() * Hpsi).sum(axis=1).real
            return np.einsum('nij,nji->n', H, state).real
        ev = mom[1]
        if self.mode == "trap":
            w, g = self.osc.omega, G[:, :, self.tap]
            return (ev[:, 0] - w * (g * ev[:, self.xp]).sum(axis=1)
                    + 0.5 * w * (g**2).sum(axis=1))
        return ev[:, 0]


def step(state: QuantumState, signals: np.ndarray, model: SystemModel,
         dt: float, noise) -> tuple:
    """Advance one trajectory by a single Euler-Maruyama step of the SME.

    This is the density-matrix SME reference: it accepts mixed states, and
    the state-vector path :func:`run_ensemble` takes for pure states is
    tested against it.

    ``noise`` is either a numpy Generator (one standard normal is drawn per
    channel) or an array of per-channel standard-normal draws; internally
    they are scaled to Wiener increments dW_k ~ N(0, dt).  The same dW_k
    drives both the state update and that channel's record
    z_k dt = <A_k> dt + dW_k / sqrt(4 lam).

    Returns the new ``(state, signals)`` pair; the state is re-Hermitized
    and trace-normalized, so its trace is exactly 1.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    engine = _Engine(model)
    signals = np.asarray(signals, dtype=float)
    if signals.shape != (engine.n_ch, engine.m):
        raise ValueError(f"signals must have shape {(engine.n_ch, engine.m)}, "
                         f"got {signals.shape}")
    if isinstance(noise, np.random.Generator):
        xi = noise.standard_normal(engine.n_ch)
    else:
        xi = np.asarray(noise, dtype=float)
        if xi.shape != (engine.n_ch,):
            raise ValueError(f"need one noise draw per channel, got shape {xi.shape}")
    rho, G = engine.step(state.rho[None], signals[None], xi[None], dt)
    if not np.isfinite(rho.view(float)).all() or not np.isfinite(G).all():
        raise TrajectoryError("state became non-finite during the step")
    return QuantumState(rho[0]), G[0]


def _initial_state(model: SystemModel, config: TrajectoryConfig):
    """One trajectory's start: (state vector or density matrix, signals).

    A pure initial state comes back as its state vector, so that the run
    steps the SSE; a mixed one as its density matrix.
    """
    if config.initial_state is not None:
        state = config.initial_state
        if state.dim != model.dim:
            raise ValueError("initial state dimension does not match the model")
    else:
        state = QuantumState.ground_state_of(model.H0)
    evals, evecs = np.linalg.eigh(state.rho)
    state0 = evecs[:, -1] if evals[-1] > 1.0 - _PURE_TOL else state.rho
    shape = (model.n_channels, model.n_signal_components)
    if config.initial_signals is not None:
        G0 = np.asarray(config.initial_signals, dtype=float)
        if G0.shape != shape:
            raise ValueError(f"initial signals must have shape {shape}, got {G0.shape}")
    else:
        G0 = np.zeros(shape)
    return state0, G0


def _accumulate(acc, ref, win, lo, hi, first_chunk):
    """Add a chunk's window of record slots lo..hi-1 into the run's sums.

    ``acc`` holds per slot the sums of the values, of their deviations from
    ``ref`` (trajectory 0's records) and of the squared deviations.  Rows
    are added one trajectory at a time, so every sum runs in trajectory
    order whatever the chunking.  Sums start from +0.0, as numpy's sum over
    the leading axis of the full record does, so means are the same to the
    bit, signed zeros included.  The window is overwritten.
    """
    rows = win[:, :hi - lo]
    total, dev, dev_sq = acc[:, lo:hi]
    if first_chunk:
        ref[lo:hi] = rows[0]
    for row in rows:
        total += row
    np.subtract(rows, ref[lo:hi], out=rows)
    for row in rows:
        dev += row
    np.square(rows, out=rows)
    for row in rows:
        dev_sq += row


def run_ensemble(model: SystemModel, config: TrajectoryConfig) -> TrajectoryRecord:
    """Simulate ``config.n_traj`` independent trajectories and average them.

    Trajectory i is driven by ``NoiseStream(config.base_seed, i)``; the
    default initial condition is the ground state of H0 with zero signals.
    A pure initial state (top eigenvalue above 1 - 1e-12) is stepped as a
    state vector (SSE), a mixed one as a density matrix (SME).  The output
    is deterministic for fixed configuration, independent of chunking.  A
    run whose top-two basis populations exceed ``EDGE_POPULATION_LIMIT`` at
    any recorded step is flagged and a ``RuntimeWarning`` is emitted, since
    its energies are no longer trustworthy; the populations are sampled on
    the record grid only, so an excursion between records goes unseen.

    Statistics are reduced while the run goes, so no per-trajectory record
    is kept.  Each chunk writes its records (energy, <A_k>, flattened
    signals: q = 1 + ch + ch*m values per slot) into a window holding the
    slots of one noise block, at most ``NOISE_BLOCK // record_stride + 1``,
    and adds the window into per-slot sums at the end of each block, in
    trajectory order.  Means are sum / n.  Variances come from sums of the
    deviations d from trajectory 0's value at each slot,
    var = (sum d^2 - (sum d)^2 / n) / (n - 1); the shift keeps the
    cancellation small.  Memory is about
    chunk_size * (NOISE_BLOCK // record_stride + 1) * q doubles for the
    window, chunk_size * NOISE_BLOCK * ch for the noise and 4 * n_rec * q
    for the sums and trajectory 0's records, whatever ``n_traj``.

    Raises
    ------
    TrajectoryError
        If any trajectory produces a non-finite state; the message names
        the trajectory index and step.
    """
    engine = _Engine(model)
    stride = config.record_stride
    n_rec = config.n_steps // stride + 1
    n_traj = config.n_traj
    ch, m = engine.n_ch, engine.m
    state0, G0 = _initial_state(model, config)
    advance = engine._advance_psi if state0.ndim == 1 else engine._advance_rho

    # Per slot and record column: sum of values, of deviations from
    # trajectory 0 and of squared deviations.
    q = 1 + ch + ch * m
    acc = np.zeros((3, n_rec, q))
    ref = np.empty((n_rec, q))
    # Noise and record window of one block, shared by all chunks.
    block = min(NOISE_BLOCK, config.n_steps)
    n_max = min(config.chunk_size, n_traj)
    dW_buf = np.empty((n_max, block, ch))
    win_buf = np.empty((n_max, block // stride + 1, q))
    max_edge = 0.0

    track_edge = model.dim >= 3
    for start in range(0, n_traj, config.chunk_size):
        stop = min(start + config.chunk_size, n_traj)
        n = stop - start
        state = np.broadcast_to(state0, (n,) + state0.shape).copy()
        G = np.broadcast_to(G0, (n,) + G0.shape).copy()
        # Each trajectory's Philox stream is read in sequence, block by
        # block, so the draws equal one up-front (n_steps, ch) array.
        gens = [NoiseStream(config.base_seed, start + i).generator()
                for i in range(n)]
        dW, win = dW_buf[:n], win_buf[:n]
        edge = np.zeros(n)
        lo = 0  # first slot held in the window

        def record(row, state, G, mom):
            row[:, 0] = engine.energies(state, G, mom)
            row[:, 1:1 + ch] = engine.op_means(mom)
            row[:, 1 + ch:] = G.reshape(n, -1)
            if track_edge:
                pops = engine.populations(state)[:, -2:].sum(axis=1)
                np.maximum(edge, pops, out=edge)

        # The moments of each state serve its record and the next step.
        mom = engine._moments(state)
        record(win[:, 0], state, G, mom)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for s in range(config.n_steps):
                j = s % NOISE_BLOCK
                if j == 0:
                    rows = min(NOISE_BLOCK, config.n_steps - s)
                    for i, gen in enumerate(gens):
                        dW[i, :rows] = gen.standard_normal((rows, ch))
                    dW[:, :rows] *= np.sqrt(config.dt)  # as step's xi * sqrt(dt)
                state, G = advance(state, G, dW[:, j, :], config.dt, mom)
                # One sum finds a non-finite entry; then rows are checked.
                if not np.isfinite(state.sum() + G.sum()):
                    ok = np.isfinite(np.c_[state.reshape(n, -1), G.reshape(n, -1)])
                    if not ok.all():
                        bad = int(np.nonzero(~ok.all(axis=1))[0][0]) + start
                        raise TrajectoryError(
                            f"trajectory {bad} became non-finite at step {s + 1}")
                mom = engine._moments(state)
                if (s + 1) % stride == 0:
                    record(win[:, (s + 1) // stride - lo], state, G, mom)
                if j == NOISE_BLOCK - 1 or s + 1 == config.n_steps:
                    hi = (s + 1) // stride + 1
                    if hi > lo:
                        _accumulate(acc, ref, win, lo, hi, start == 0)
                    lo = hi
        if track_edge:
            max_edge = max(max_edge, float(edge.max()))

    times = np.arange(n_rec) * (stride * config.dt)
    warn = track_edge and max_edge > EDGE_POPULATION_LIMIT
    if warn:
        warnings.warn(
            f"top-two basis populations reached {max_edge:.2e}; "
            "results are truncation limited", RuntimeWarning, stacklevel=2)

    mean = acc[0] / n_traj
    if n_traj > 1:
        var = np.maximum(acc[2] - acc[1]**2 / n_traj, 0.0) / (n_traj - 1)
    else:
        var = np.zeros((n_rec, q))
    stderr = np.sqrt(var) / np.sqrt(n_traj)

    def signal_part(stat):
        return np.moveaxis(stat[:, 1 + ch:].reshape(n_rec, ch, m), 0, -1)

    return TrajectoryRecord(
        times=times,
        energy_mean=mean[:, 0].copy(),
        energy_stderr=stderr[:, 0].copy(),
        op_mean=mean[:, 1:1 + ch].T,
        op_stderr=stderr[:, 1:1 + ch].T,
        signal_mean=signal_part(mean),
        signal_var=signal_part(var),
        n_traj=n_traj,
        max_edge_population=max_edge,
        truncation_warning=bool(warn),
    )
