"""Stochastic trajectories for continuous measurement with feedback.

Each trajectory co-integrates two coupled pieces with a shared Wiener
increment per measurement channel:

* the conditioned quantum state under weak monitoring of Hermitian
  operators A_k with strength lam, and
* the filtered signal vector of each channel, dG = M G dt + b z_k dt, where
  the record z_k dt = <A_k> dt + dW_k / sqrt(4 lam) reuses the same dW_k
  that drove the state update.

:func:`run_ensemble` is one driver for two engines.  The driver owns what
every engine needs: chunking, the noise of trajectory i from
``NoiseStream(base_seed, i)`` drawn a block of engine steps at a time, and
the record window and its streamed reduction.  An engine is built for one
run and writes every record row itself: ``start`` makes the start batch
and its record, and ``run_block`` steps a batch over one noise block into
the window slots of the block's records, checks finiteness once per block
and walks a failed block again to name the trajectory and step.  The
driver reads only these, ``span``, ``draw_shape`` and ``max_edge`` (the
largest top-two basis population recorded, for the truncation check).
The engine is fixed by the model:

* d = 1, the classical engine: psi is a phase, so <H0> and the <A_k> are
  constants read once from the operators' single entries, and the filter
  is a linear SDE with Gaussian transitions.  A step is one record
  interval, taken exactly (``filters.exact_transition``), so the records
  carry no dt bias (``frozen_signal_model`` runs here);
* d > 1, the state-vector engine, one Euler-Maruyama step per dt.

The measurement has unit efficiency, so a pure state stays pure.  A mixed
start rho0 = sum_i p_i |psi_i><psi_i| is sampled: trajectory j draws its
component i ~ p with one uniform from its own stream, ahead of its noise,
and is stepped as psi_i.  The record probabilities are linear in rho0, so
every ensemble mean is the one the density matrix would give (Wiseman &
Milburn, ch. 4); the standard errors are those of the sampled estimator,
and the truncation check reads each sampled trajectory's psi.  The
state-vector engine steps psi with the stochastic Schroedinger equation
(SSE), a_k = <A_k>,

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
per trajectory, one weight per block, forms the whole Euler move.  The
density-matrix SME is not part of the package: the tests keep it as the
independent reference the SSE is held to.

Feedback is a Hamiltonian H(G) of the current signals.  The cooling
protocols recentre the trap on one filter component (filter and tap from
``moment_systems.ProtocolParams``), linear in x and p, so whole ensembles
step as one batched array operation.  A generic rule (any callable) runs
once per state, n_traj * (n_steps + 1) times a run, and
n_traj * (n_steps / record_stride + 1) times on the classical engine,
whose states are the recorded ones: the moments of a state carry <H(G)>
to its record and H(G) to the step from it.

Ensembles are reproducible by construction: trajectory i draws its noise
from ``NoiseStream(base_seed, i)`` and statistics are reduced in trajectory
order, so results are independent of chunking or execution order.
:func:`run_ensemble` reduces them as it goes, so a run's memory does not
grow with the ensemble size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .filters import FilterModel, exact_transition
from .moment_systems import ProtocolParams
from .numerics import (NoiseStream, NumericalError, require_count, require_number,
                       require_positive)

#: Sum of the top two basis-state populations above which a run is flagged
#: as truncation limited; it is sampled on the record grid.
EDGE_POPULATION_LIMIT = 1e-3

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10

#: An initial state whose top eigenvalue exceeds 1 - _PURE_TOL is pure: its
#: trajectories draw no component.
_PURE_TOL = 1e-12

#: Steps of noise drawn at once per trajectory; bounds the noise buffer at
#: CHUNK_SIZE * NOISE_BLOCK * channels doubles whatever the step count.
NOISE_BLOCK = 1024

#: Trajectories per chunk of :func:`run_ensemble`; bounds memory only.
CHUNK_SIZE = 256


class TrajectoryError(NumericalError):
    """A trajectory produced a non-finite state."""


# ---------------------------------------------------------------------------
# states and operators


@dataclass
class QuantumState:
    """Finite-dimensional density matrix (the conditioned state).

    Hermiticity (to 1e-12), unit trace (to 1e-10) and positivity (no
    eigenvalue below -1e-12) are enforced on construction: a mixed start is
    sampled from its eigenvalues, which must be probabilities.
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
        if np.linalg.eigvalsh(rho)[0] < -_HERMITICITY_TOL:
            raise ValueError("density matrix is not positive semidefinite")
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


@dataclass
class TruncatedOscillator:
    """Dimensionless oscillator operators on a truncated number basis.

    x and p are built from ladder operators so that [x, p] = i holds exactly
    away from the last two basis states, and H0 = (omega/2)(p^2 + x^2).
    """

    omega: float
    H0: np.ndarray
    x: np.ndarray
    p: np.ndarray

    @property
    def dim(self) -> int:
        return self.H0.shape[0]


def build_truncated_oscillator(n_fock: int, omega: float) -> TruncatedOscillator:
    """Construct (H0, x, p) on an n_fock-dimensional number basis.

    Requires n_fock >= 3 so that at least one commutator row is exact.
    """
    if n_fock < 3:
        raise ValueError(f"need at least 3 basis states, got {n_fock}")
    require_positive(omega, "omega")
    n = np.arange(n_fock - 1)
    a = np.zeros((n_fock, n_fock), dtype=complex)
    a[n, n + 1] = np.sqrt(n + 1.0)
    ad = a.conj().T
    x = (a + ad) / np.sqrt(2.0)
    p = 1j * (ad - a) / np.sqrt(2.0)
    H0 = 0.5 * omega * (p @ p + x @ x)
    return TruncatedOscillator(float(omega), H0, x, p)


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
    alone.  Operators and ``lam`` must be finite.  A
    :class:`ShiftedTrapFeedback` needs the (x, p) channel pair, a filter
    with its tap and an oscillator of the model's dimension.
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
            if not np.isfinite(A).all():
                raise ValueError("operators must be finite")
            if np.abs(A - A.conj().T).max() > _HERMITICITY_TOL:
                raise ValueError("operators must be Hermitian")
        require_number(self.lam, "lam")
        if ops and not self.lam > 0:
            raise ValueError("measurement strength lam must be positive")
        if not (self.lam >= 0 and np.isfinite(self.lam)):
            raise ValueError("measurement strength lam must be finite and nonnegative")
        self.measured_ops = ops
        fb = self.feedback
        if isinstance(fb, ShiftedTrapFeedback):
            if len(ops) != 2:
                raise ValueError("trap-shift feedback needs the (x, p) channel pair")
            if self.filter_model is None:
                raise ValueError("trap-shift feedback needs a filter model")
            if fb.tap_index >= self.filter_model.n:
                raise ValueError(f"tap index {fb.tap_index} out of range for "
                                 f"{self.filter_model.n}-component filter")
            if fb.oscillator.dim != d:
                raise ValueError("trap-shift feedback oscillator must have the "
                                 "model's dimension")

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
    Ornstein-Uhlenbeck reference for the filter statistics.  Being d = 1,
    it runs on the classical engine of :func:`run_ensemble`: noise, the
    filter recursion and records, with no quantum state to step.
    """
    H0 = np.zeros((1, 1), dtype=complex)
    A = np.array([[require_number(mean_A, "mean_A")]], dtype=complex)
    return SystemModel(H0, (A,), lam, filter_model, None)


# ---------------------------------------------------------------------------
# configuration and results


@dataclass
class TrajectoryConfig:
    """Run configuration for :func:`run_ensemble`.

    ``record_stride`` must divide ``n_steps``; observables are recorded at
    step 0 and every stride-th step after.  A d = 1 model steps from record
    to record with the exact transition of its filter: its records are
    exact, and ``dt`` sets only their spacing, record_stride * dt.
    Results are bit-identical for any CHUNK_SIZE.  A run holds one chunk's
    noise block and record window,
    CHUNK_SIZE * (NOISE_BLOCK * ch + (NOISE_BLOCK // record_stride + 1) * q)
    doubles with q = 1 + ch + ch * m record columns, plus 4 * n_rec * q
    doubles of per-slot sums; nothing grows with ``n_traj``.  At d = 1 the
    block is B = max(1, NOISE_BLOCK // record_stride) record intervals of
    ch * m normals each, CHUNK_SIZE * (B * ch * m + (B + 1) * q) doubles,
    and m > 1 adds one scratch array of CHUNK_SIZE * B * ch doubles; its
    signals are stepped straight into the window, with one scratch array
    of the chunk's signals.  The state-vector engine steps its signals in
    place: a block adds two arrays of the chunk's signals (a scratch and
    the copy a failed block is replayed from).  The reduction copies one
    window row, (B + 1) * q doubles.  ``dt`` must be positive and finite,
    counts and the seed integers (not bools), the seed below 2**64 (one
    Philox key, so no two seeds alias) and ``initial_signals`` finite.
    A mixed ``initial_state`` (default: the ground state of H0) is sampled,
    one component per trajectory, so the ensemble means are its own and
    the standard errors those of the sampled estimator.
    """

    dt: float
    n_steps: int
    n_traj: int
    base_seed: int
    record_stride: int = 1
    initial_state: Optional[QuantumState] = None
    initial_signals: Optional[np.ndarray] = None

    def __post_init__(self):
        require_positive(self.dt, "dt")
        require_count(self.base_seed, "base_seed")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must be in [0, 2**64), got {self.base_seed}")
        for name in ("n_steps", "n_traj", "record_stride"):
            require_count(getattr(self, name), name, 1)
        if self.n_steps % self.record_stride:
            raise ValueError(f"record_stride must divide n_steps, got "
                             f"{self.record_stride} and {self.n_steps}")
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
    """The state-vector engine: the batched SSE kernel of one run.

    It holds the run's step dt, record stride and :attr:`max_edge`, the
    largest top-two basis population of its records (0 below d = 3, where
    those two states are the whole space), and writes every record row.
    :func:`run_ensemble` uses :attr:`span`, :attr:`draw_shape` (the
    standard normals per trajectory and engine step: one per channel),
    :meth:`start`, :meth:`run_block` and :attr:`max_edge`; the d = 1
    engine, :class:`_ClassicalEngine`, has the same five and shares
    nothing else.  A batch state is (psi, moments): state vectors, shape
    (n, d), one per trajectory (a mixed start reaches it already sampled),
    and their :meth:`_moments`, the one evaluation per state, read by its
    record and the next step.  The feedback rule is ``trap`` (the
    :class:`ShiftedTrapFeedback`) or ``fb`` (a generic rule).

    ``blocks`` is the operator stack B_j = [H0, A_1..A_ch, S = sum_k A_k^2],
    plus x, p only when they are not the measured pair: 4 blocks for the
    cooling protocols.  The kernel applies them stacked as one CSR array,
    ``Wt``, so the products cost O(nnz) per trajectory; ``scipy.sparse``
    (about 20 ms to import) is imported when the engine is built.  A step
    then makes one coefficient product per trajectory,
    sum_j c_j B_j psi + c0 psi: each step builds the columns of c, -i dt on
    H0, -lam dt / 2 on S, kick_k on A_k and +i dt w g on the trap's x, p
    blocks (see :meth:`advance`).
    """

    def __init__(self, model: SystemModel, dt: float, stride: int):
        from scipy.sparse import csr_array

        self.dt, self.stride, self.max_edge = dt, stride, 0.0
        self.d = model.dim
        self.n_ch = model.n_channels
        self.draw_shape = (self.n_ch,)
        self.m = model.n_signal_components
        ops = model.measured_ops
        self.lam = model.lam
        self.sqrt_lam = np.sqrt(model.lam) if self.n_ch else 0.0
        self.noise_gain = 1.0 / np.sqrt(4.0 * model.lam) if self.n_ch else 0.0
        self.M_T = model.filter_model.M.T.copy() if self.m else None
        self.b = model.filter_model.b if self.m else None
        fb = model.feedback
        self.trap = fb if isinstance(fb, ShiftedTrapFeedback) else None
        self.fb = None if self.trap else fb
        blocks = [model.H0, *ops] + ([sum(A @ A for A in ops)] if self.n_ch else [])
        # <B> is taken of the first n_ev blocks: H0 and the A_k, and all of
        # them when x and p need blocks of their own after S.
        self.n_ev = 1 + self.n_ch
        if self.trap is not None:
            xp = (fb.oscillator.x, fb.oscillator.p)
            if not all(np.array_equal(A, B) for A, B in zip(ops, xp)):
                blocks += xp
                self.n_ev = len(blocks)
            self.xp = slice(self.n_ev - 2, self.n_ev)
        self.blocks = blocks
        self.Wt = csr_array(np.concatenate(blocks))

    #: Steps of dt that one engine step spans: the SSE takes every step.
    span = 1

    def start(self, psi: np.ndarray, G: np.ndarray, row: np.ndarray):
        """The start state of a batch of state vectors psi, shape (n, d),
        with signals G; their record is written into ``row``."""
        mom = self._moments(psi, G)
        self._record(row, psi, G, mom)
        return psi, mom

    def _moments(self, state: np.ndarray, G: np.ndarray):
        """(prod, ev, HG) of a batch with signals G: prod[:, j] = B_j psi
        and ev[:, j] = <B_j> for the first ``n_ev`` blocks, with <H(G)> in
        ev[:, 0] under a generic rule.  HG is a generic rule's H(G) psi,
        else None."""
        HG = None if self.fb is None else _feedback_hamiltonians(self.fb, G)
        # A CSR product adds each output row's stored terms in one order, so
        # a trajectory's arithmetic is the same for any batch size.  It comes
        # back trajectory-minor; the copy gives every trajectory a contiguous
        # (blocks, d) slab, without which the stacked products below take a
        # different path, and round differently, for some batch sizes.
        prod = np.ascontiguousarray((self.Wt @ state.T).T).reshape(
            len(state), -1, self.d)
        ev = (prod[:, :self.n_ev] @ state.conj()[:, :, None])[:, :, 0].real
        if HG is not None:
            HG = (HG @ state[:, :, None])[:, :, 0]
            ev[:, 0] = (state.conj() * HG).sum(axis=1).real
        return prod, ev, HG

    def _record(self, row, psi, G, mom):
        """Write the record of states psi with signals G and moments
        ``mom`` into ``row``: energy, <A_k> and the flattened signals; from
        d = 3 on, raise :attr:`max_edge` to their top-two populations."""
        ch = self.n_ch
        row[:, 0] = self.energies(G, mom)
        row[:, 1:1 + ch] = mom[1][:, 1:1 + ch]
        row[:, 1 + ch:] = G.reshape(len(G), -1)
        if self.d >= 3:
            edge = psi[:, -2:]
            self.max_edge = max(self.max_edge,
                                (edge.real**2 + edge.imag**2).sum(axis=1).max())

    def energies(self, G: np.ndarray, mom) -> np.ndarray:
        """<H(G)> of a batch with signals G and moments ``mom``: the trap
        shift's expansion about <H0>, and ev[:, 0] otherwise (<H0> without
        feedback, <H(G)> under a generic rule)."""
        ev = mom[1]
        if self.trap is None:
            return ev[:, 0]
        w, g = self.trap.oscillator.omega, G[:, :, self.trap.tap_index]
        return (ev[:, 0] - w * (g * ev[:, self.xp]).sum(axis=1)
                + 0.5 * w * (g**2).sum(axis=1))

    def _filter_step(self, G, z_dt, out, scratch):
        """dG = M G dt + b z dt on the records z dt, shape (n, ch), at the
        engine's dt: writes G + dt (G M^T) + b z dt to ``out`` (which may
        be G) with G M^T in ``scratch``.  Returns the new signals, G itself
        when no filter reads a record."""
        if not (self.m and self.n_ch):
            return G
        np.matmul(G, self.M_T, out=scratch)
        scratch *= self.dt
        scratch += G
        np.multiply(self.b, z_dt[:, :, None], out=out)
        out += scratch
        return out

    def run_block(self, state, G, dW, first, start, slots):
        """Engine steps first + 1 .. first + rows of a batch on one noise block.

        dW holds the steps' standard normals, shape (n, rows, ch), scaled in
        place to the Wiener increments.  Each step is one :meth:`advance`: a
        new psi, and G stepped in place with the block's one scratch array.
        Then the moments are taken, and when the stride divides step s,
        the state's record is written into the row of ``slots`` (the window
        slots of the block's records, one per stride) that holds record
        s / stride.  Returns the state after the last step.

        Finiteness is checked after the last step only: psi is renormalized
        by its own norm and G is added into its successor, so a non-finite
        entry stays non-finite.  A block that fails is replayed from its
        start with :func:`_check_finite` after every step, which names the
        first trajectory (row i is trajectory start + i) and the step s.  A
        generic rule sees only finite signals: under one, every step is
        checked as it is taken.
        """
        every = self.stride
        dW *= np.sqrt(self.dt)
        scratch = np.empty_like(G)

        def walk(psi, mom, check):
            for j in range(dW.shape[1]):
                s = first + j + 1  # steps taken, this one included
                psi, _ = self.advance(psi, G, dW[:, j], mom, G, scratch)
                if check:
                    _check_finite(psi, G, s, start)
                mom = self._moments(psi, G)
                if s % every == 0:
                    self._record(slots[:, s // every - first // every - 1], psi, G, mom)
            return psi, mom

        G_start = G.copy()
        end = walk(*state, self.fb is not None)
        if not (np.isfinite(end[0]).all() and np.isfinite(G).all()):
            G[...] = G_start
            walk(*state, True)
        return end

    def advance(self, psi, G, dW, mom, out, scratch):
        """One Euler-Maruyama SSE step of a batch, of the engine's dt, on
        Wiener increments dW, shape (n, ch), and its :meth:`_moments`.
        Returns (psi, G): psi is a new array, and the signals step through
        :meth:`_filter_step` into ``out`` with ``scratch``.

        With kick_k = sqrt(lam) dW_k + lam dt a_k, the SSE move expanded in
        powers of A_k (S carries sum_k A_k^2) is
        dpsi = sum_j c_j B_j psi + c0 psi, with
        c0 = i dt <H> - sum_k (kick_k - (lam dt / 2) a_k) a_k.  The trap's
        H(G) = H0 - w (g_x x + g_p p) + const adds +i dt w g on the x, p
        blocks; the constant drops out.  A generic rule puts 0 on H0 and
        adds the moments' -i dt H(G) psi apart.
        """
        ch, dt = self.n_ch, self.dt
        prod, ev, Hpsi = mom
        a = ev[:, 1:1 + ch]
        c = np.zeros((len(psi), len(self.blocks)), dtype=complex)
        if Hpsi is None:
            c[:, 0] = -1j * dt
        c0 = (1j * dt) * ev[:, 0]
        if ch:
            kick = self.sqrt_lam * dW + (self.lam * dt) * a
            c[:, 1:1 + ch] = kick
            c[:, 1 + ch] = -0.5 * self.lam * dt
            c0 += (((0.5 * self.lam * dt) * a - kick) * a).sum(axis=1)
        if self.trap is not None:
            shift = (1j * dt * self.trap.oscillator.omega) * G[:, :, self.trap.tap_index]
            c0 -= (shift * ev[:, self.xp]).sum(axis=1)
            c[:, self.xp] += shift  # onto the kicks when x, p are A_1, A_2
        dpsi = (c[:, None, :] @ prod)[:, 0]
        if Hpsi is not None:
            dpsi += (-1j * dt) * Hpsi
        psi = psi + (dpsi + c0[:, None] * psi)
        v = psi.view(float)
        psi /= np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
        z_dt = a * dt + dW * self.noise_gain
        return psi, self._filter_step(G, z_dt, out, scratch)


class _ClassicalEngine:
    """The engine of a one-dimensional model (d = 1).

    There psi is a phase that no step can make observable, so every moment
    is a constant: <H0> and the <A_k> are the operators' single entries,
    read once from the model.  The batch state is the (n, 1 + ch) array of
    those moments; no operator is applied.  Under a feedback rule the
    energy is H(G)[0, 0].

    The filter is then a linear SDE driven by a record of constant mean,
    so its signals are Gaussian from one record to the next.  A step is one
    record interval h = stride * dt, taken exactly with
    :func:`filters.exact_transition`, whose Phi^T, Gamma and L the engine
    computes when it is built: per channel G <- Phi G + Gamma <A_k> + L xi,
    with m standard normals xi per channel and interval.  The records carry
    no dt bias; dt sets only their spacing.  No state has populations to
    watch, so :attr:`max_edge` stays 0.
    """

    def __init__(self, model: SystemModel, dt: float, stride: int):
        self.span, self.max_edge = stride, 0.0
        self.n_ch, self.m = model.n_channels, model.n_signal_components
        self.draw_shape = (self.n_ch, self.m)  # normals per record interval
        self.fb = model.feedback
        self.moments = [B[0, 0].real for B in (model.H0, *model.measured_ops)]
        if self.m and self.n_ch:
            phi, self.Gamma, self.L = exact_transition(model.filter_model, model.lam,
                                                       stride * dt)
            self.Phi_T = phi.T.copy()

    def start(self, psi, G, row):
        state = np.tile(self.moments, (len(psi), 1))
        self._rows(state, row[:, None])[:, 0] = G
        self._rule_energy(row, G)
        return state

    def _rows(self, state, slots):
        """The signal columns, shape (n, rows, ch, m), of the record rows
        ``slots``, whose energy and <A_k> columns take ``state``."""
        for k, column in enumerate(state.T):  # column by column: long inner loops
            slots[:, :, k] = column[:, None]
        return slots[:, :, 1 + self.n_ch:].reshape(slots.shape[:2] + (self.n_ch, self.m),
                                                   copy=False)

    def _rule_energy(self, row, G):
        if self.fb is not None:  # a rule's energy is H(G)[0, 0]
            row[:, 0] = _feedback_hamiltonians(self.fb, G)[:, 0, 0].real

    def _block_noise(self, xi, state):
        """The block's increments L xi + Gamma <A_k>, written over the
        normals xi, shape (n, rows, ch, m); the <A_k> are the constant
        columns of ``state``.  L is lower triangular, so component i is
        written before the components j < i it reads are, and one scratch
        array of a component's size (none for m = 1) is all the product
        adds."""
        tmp = None
        for i in reversed(range(self.m)):
            xi_i = xi[..., i]
            xi_i *= self.L[i, i]
            for j in range(i):
                tmp = np.multiply(xi[..., j], self.L[i, j], out=tmp)
                xi_i += tmp
        xi += self.Gamma * state[:, None, 1:, None]
        return xi

    def run_block(self, state, G, xi, first, start, slots):
        """Record intervals first + 1 .. first + rows of a batch, written
        straight into ``slots``, the window slots of their records, shape
        (n, rows, q).

        xi holds the intervals' standard normals, shape (n, rows, ch, m),
        which :meth:`_block_noise` turns into the increments.  The energy
        and <A_k> columns are filled once per block, and interval j writes
        its signals G_j = G_{j-1} Phi^T + inc_j into slot j, from G before
        the first.  The signals do not depend on the moments, so a feedback
        rule is evaluated after the block is stepped, interval by interval,
        each interval checked before the rule sees it.  Without one only
        the last signals are checked: a non-finite entry of any interval
        reaches them through Phi.  A failed check names the first
        trajectory of the first non-finite interval and its record step
        (first + j + 1) * stride.  G takes the last slot's signals.
        """
        sig = self._rows(state, slots)
        if G.size:
            inc = self._block_noise(xi, state)
            product, factor = np.matmul, self.Phi_T
            if self.m == 1:
                # G Phi^T is G phi, one multiply per entry where matmul
                # makes one call per trajectory
                product, factor = np.multiply, factor[0, 0]
            scratch, prev = np.empty_like(G), G
            for inc_j, sig_j in zip(inc.swapaxes(0, 1), sig.swapaxes(0, 1)):
                product(prev, factor, out=scratch)
                prev = np.add(scratch, inc_j, out=sig_j)
        if self.fb is not None or not np.isfinite(sig[:, -1]).all():
            for j, sig_j in enumerate(sig.swapaxes(0, 1)):
                _check_finite(state, sig_j, (first + j + 1) * self.span, start)
                self._rule_energy(slots[:, j], sig_j)
        G[...] = sig[:, -1]
        return state


def _initial_state(model: SystemModel, config: TrajectoryConfig):
    """The start: (psi, cdf, signals).

    The rows of psi are the start's components.  A pure start (top
    eigenvalue above 1 - _PURE_TOL; by default the ground state of H0) has
    one, and cdf is None.  A mixed one has its eigenvectors, and cdf the
    running sums of its eigenvalues, clipped at 0 and scaled to end at
    exactly 1: a trajectory whose uniform draw is u takes row
    ``searchsorted(cdf, u, side="right")``, which never has probability 0.
    """
    cdf = None
    if config.initial_state is not None:
        state = config.initial_state
        if state.dim != model.dim:
            raise ValueError("initial state dimension does not match the model")
        evals, evecs = np.linalg.eigh(state.rho)
        if evals[-1] > 1.0 - _PURE_TOL:
            psi = evecs[:, -1:].T
        else:
            psi, cdf = evecs.T, np.cumsum(np.maximum(evals, 0.0))
            cdf /= cdf[-1]
    else:
        psi = np.linalg.eigh(model.H0)[1][:, :1].T
    shape = (model.n_channels, model.n_signal_components)
    if config.initial_signals is not None:
        G0 = np.asarray(config.initial_signals, dtype=float)
        if G0.shape != shape:
            raise ValueError(f"initial signals must have shape {shape}, got {G0.shape}")
    else:
        G0 = np.zeros(shape)
    return psi, cdf, G0


def _check_finite(state, G, s, start):
    """Raise :class:`TrajectoryError` naming the first trajectory of a batch
    whose state or signals are non-finite after step s; ``start`` is the
    index of the batch's first trajectory."""
    n = len(G)
    ok = np.isfinite(np.c_[state.reshape(n, -1), G.reshape(n, -1)]).all(axis=1)
    if not ok.all():
        bad = int(np.nonzero(~ok)[0][0]) + start
        raise TrajectoryError(f"trajectory {bad} became non-finite at step {s}")


def _feedback_hamiltonians(rule, G: np.ndarray) -> np.ndarray:
    """A feedback rule's H(G) of each trajectory's signals G[i], stacked."""
    return np.stack([np.asarray(rule(Gi), dtype=complex) for Gi in G])


def _accumulate(acc, ref, win, lo, hi, first_chunk):
    """Add a chunk's window of record slots lo..hi-1 into the run's sums.

    ``acc`` holds per slot the sums of the values, of their deviations from
    ``ref`` (trajectory 0's records) and of the squared deviations, each
    added by :func:`_add_rows`, so every sum runs in trajectory order
    whatever the chunking.  Sums start from +0.0, as numpy's sum over
    the leading axis of the full record does, so means are the same to the
    bit, signed zeros included.  The window is overwritten.
    """
    rows = win[:, :hi - lo]
    total, dev, dev_sq = acc[:, lo:hi]
    if first_chunk:
        ref[lo:hi] = rows[0]
    _add_rows(total, rows)
    np.subtract(rows, ref[lo:hi], out=rows)
    _add_rows(dev, rows)
    np.square(rows, out=rows)
    _add_rows(dev_sq, rows)


def _add_rows(total, rows):
    """Add rows[0], rows[1], ... into ``total`` in that order, as one array
    pass: ``total`` goes into rows[0] (restored after) and ``add.reduce``
    over the leading axis adds the rows one after another.  A reduction
    over that axis alone (one slot of one column) adds in pairs, so there
    the rows are added one at a time."""
    if total.size == 1:
        for row in rows:
            total += row
        return
    first = rows[0].copy()
    rows[0] += total
    np.add.reduce(rows, axis=0, out=total)
    rows[0] = first


def run_ensemble(model: SystemModel, config: TrajectoryConfig) -> TrajectoryRecord:
    """Simulate ``config.n_traj`` independent trajectories and average them.

    Trajectory i is driven by ``NoiseStream(config.base_seed, i)``; the
    default initial condition is the ground state of H0 with zero signals.
    A one-dimensional model runs on the classical engine, any other on the
    state-vector engine (SSE).  The classical engine steps the filter from
    record to record with its exact Gaussian transition, m normals per
    channel and interval, so its records are exact at any dt; a failure
    there is named at its record step k * record_stride.  A mixed
    initial state (top eigenvalue at most 1 - 1e-12) is sampled: trajectory
    i takes the eigenvector of rho0 picked by one uniform draw, the first
    of its stream, with the eigenvalues as probabilities.  The means are
    those of rho0, the standard errors those of the sampled estimator; a
    pure start draws nothing.  The output
    is deterministic for fixed configuration, independent of chunking.  A
    run whose top-two basis populations exceed ``EDGE_POPULATION_LIMIT`` at
    any recorded step is flagged and a ``RuntimeWarning`` is emitted, since
    its energies are no longer trustworthy; the engine reads them from each
    sampled trajectory's psi as it writes a record, so an excursion
    between records goes unseen.

    Statistics are reduced while the run goes, so no per-trajectory record
    is kept.  The engine, built for the run, writes each chunk's records
    (energy, <A_k>, flattened signals: q = 1 + ch + ch*m values per slot),
    record 0 in ``start`` and the rest in ``run_block``, into a window
    holding the slots of one noise block, at most
    ``NOISE_BLOCK // record_stride + 1`` on either engine.  At the end of
    each block the window is added into per-slot sums in three array
    passes (values, deviations, squared deviations), each one
    ``add.reduce`` over the trajectories with the running sum added into
    the first row, so every sum is taken in trajectory order from +0.0
    whatever the chunking.  Means are sum / n.  Variances come from sums of the
    deviations d from trajectory 0's value at each slot,
    var = (sum d^2 - (sum d)^2 / n) / (n - 1); the shift keeps the
    cancellation small.  :class:`TrajectoryConfig` gives the memory bound.

    Raises
    ------
    TrajectoryError
        If any trajectory produces a non-finite state; the message names
        the trajectory index and step.  Also if a mean or variance is
        non-finite, as when finite records sum or square past the largest
        double; the message names the first such record and its time.
    """
    stride = config.record_stride
    engine = (_ClassicalEngine if model.dim == 1 else _Engine)(model, config.dt, stride)
    every = stride // engine.span  # engine steps per record
    n_rec = config.n_steps // stride + 1
    n_traj = config.n_traj
    ch, m = engine.n_ch, engine.m
    psi0, cdf, G0 = _initial_state(model, config)

    # Per slot and record column: sum of values, of deviations from
    # trajectory 0 and of squared deviations.
    q = 1 + ch + ch * m
    acc = np.zeros((3, n_rec, q))
    ref = np.empty((n_rec, q))
    # Noise and record window of one block of engine steps, shared by all
    # chunks.
    n_moves = config.n_steps // engine.span
    block = min(max(1, NOISE_BLOCK // engine.span), n_moves)
    n_max = min(CHUNK_SIZE, n_traj)
    dW_buf = np.empty((n_max, block) + engine.draw_shape)
    win_buf = np.empty((n_max, block // every + 1, q))

    for start in range(0, n_traj, CHUNK_SIZE):
        stop = min(start + CHUNK_SIZE, n_traj)
        n = stop - start
        # Each trajectory's Philox stream is read in sequence: under a mixed
        # start one uniform picks its component, then its noise block by
        # block, so the draws equal one up-front (n_moves,) + draw_shape
        # array.
        gens = [NoiseStream(config.base_seed, start + i).generator()
                for i in range(n)]
        pick = (np.zeros(n, dtype=int) if cdf is None else
                np.searchsorted(cdf, [gen.random() for gen in gens], side="right"))
        G = np.broadcast_to(G0, (n,) + G0.shape).copy()
        dW, win = dW_buf[:n], win_buf[:n]
        lo = 0  # first slot held in the window

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            state = engine.start(psi0[pick], G, win[:, 0])
            for first in range(0, n_moves, block):
                rows = min(block, n_moves - first)
                for i, gen in enumerate(gens):
                    gen.standard_normal(out=dW[i, :rows])
                hi = (first + rows) // every + 1
                state = engine.run_block(state, G, dW[:, :rows], first, start,
                                         win[:, first // every + 1 - lo:hi - lo])
                if hi > lo:
                    _accumulate(acc, ref, win, lo, hi, start == 0)
                lo = hi

    times = np.arange(n_rec) * (stride * config.dt)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = acc[0] / n_traj
        if n_traj > 1:
            var = np.maximum(acc[2] - acc[1]**2 / n_traj, 0.0) / (n_traj - 1)
        else:
            var = np.zeros((n_rec, q))
    # Finite records can still sum or square past the largest double.
    bad = ~(np.isfinite(mean) & np.isfinite(var)).all(axis=1)
    if bad.any():
        k = int(bad.argmax())
        raise TrajectoryError(f"ensemble statistics became non-finite at record {k} "
                              f"(t = {times[k]:.12g})")
    stderr = np.sqrt(var) / np.sqrt(n_traj)

    warn = engine.max_edge > EDGE_POPULATION_LIMIT
    if warn:
        warnings.warn(
            f"top-two basis populations reached {engine.max_edge:.2e}; "
            "results are truncation limited", RuntimeWarning, stacklevel=2)

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
        max_edge_population=float(engine.max_edge),
        truncation_warning=bool(warn),
    )
