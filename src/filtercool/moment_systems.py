"""The cooling protocols and their exact ensemble moment dynamics.

Each protocol is a linear filter (M, b) on the measurement record with the
trap recentred on one filter component.  This module is the one table of
them: ``ProtocolKind.n_layers`` and ``.tap``,
:meth:`ProtocolParams.filter_model` and the closed-loop drift
:func:`filter_drift`, read by the moment systems, the phase sweep and the
Monte Carlo engine alike.

For quadratic trap-shifting feedback the ensemble expectation values close
into a finite affine ODE system d x/dt = A x + c.  The four protocols are:

* single low-pass stage, feedback on D1 (scalar energy equation),
* two-stage cascade, feedback on D2 (4 coupled moments),
* three-stage cascade with equal second and third bandwidths, feedback on
  D3 (9 coupled moments),
* band-pass quadratures, feedback on E1 (9 coupled moments).

Each builder returns the transcribed system with labeled components; the
first component is always the ensemble energy in units of hbar*omega.
Energies at or above 1/2 are physical (1/2 is the ground state); a formal
steady state below that signals a non-cooling parameter region.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .filters import FilterModel, bandpass, lowpass_cascade
from .numerics import NumericalError, eigenvalues, propagate_affine, solve_linear

#: Relative slack used for the stability and physicality classifications.
STABILITY_TOL = 1e-9
PHYSICAL_MIN = 0.5


class ProtocolKind(enum.Enum):
    LOWPASS1 = "lowpass1"
    LOWPASS2 = "lowpass2"
    LOWPASS3 = "lowpass3"
    BANDPASS = "bandpass"

    @property
    def n_layers(self) -> int:
        """Number of filter stages the protocol hardware needs."""
        return {"lowpass1": 1, "lowpass2": 2, "lowpass3": 3, "bandpass": 2}[self.value]

    @property
    def tap(self) -> int:
        """Filter component the trap is recentred on (0-based): the last
        cascade stage, or E1 for band-pass."""
        return 0 if self is ProtocolKind.BANDPASS else self.n_layers - 1


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol parameters, all rates in units of inverse time.

    lam is the measurement strength, omega the oscillator frequency, gamma
    the first-stage bandwidth and Omega the second bandwidth (cascades) or
    the band-pass center frequency.  The three-stage cascade uses Omega for
    both of its later stages; the single stage takes no Omega.
    """

    lam: float
    omega: float
    gamma: float
    Omega: Optional[float] = None
    kind: ProtocolKind = ProtocolKind.LOWPASS1

    def __post_init__(self):
        if self.kind is ProtocolKind.LOWPASS1 and self.Omega is not None:
            raise ValueError("lowpass1 has a single bandwidth; Omega does not apply")
        for name in ("lam", "omega", "gamma"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.kind is not ProtocolKind.LOWPASS1:
            if self.Omega is None or not (np.isfinite(self.Omega) and self.Omega > 0):
                raise ValueError(f"{self.kind.value} requires Omega > 0, got {self.Omega}")

    def filter_model(self) -> FilterModel:
        """The filter the protocol applies to each quadrature record.

        Cascades chain the bandwidths (gamma, Omega, Omega) over their
        stages; band-pass is centred at Omega with width gamma.
        """
        if self.kind is ProtocolKind.BANDPASS:
            return bandpass(self.gamma, self.Omega)
        return lowpass_cascade((self.gamma, self.Omega, self.Omega)[:self.kind.n_layers])


def filter_drift(params: ProtocolParams) -> np.ndarray:
    """Complex drift K of the closed loop of a protocol's filter and oscillator.

    With the filter dG = M G dt + b z dt fed the measured mean
    alpha = <x> + i<p>, and the trap centred on the tapped component, the
    moment system is dX/dt = K X + X K^dagger + Q.  When M 1 + b = 0 (every
    low-pass cascade) the filter passes DC unchanged and the mean drops out
    of zeta = G - alpha 1, whose drift is K = M - i omega 1 e_tap^T (m x m).
    Otherwise (band-pass) the state is (G, alpha) and
    K = [[M, b], [i omega e_tap^T, -i omega]].
    """
    fm = params.filter_model()
    tap = params.kind.tap
    m = fm.n
    if not (fm.M.sum(axis=1) + fm.b).any():
        k = fm.M.astype(complex)
        k[:, tap] -= 1j * params.omega
        return k
    k = np.zeros((m + 1, m + 1), dtype=complex)
    k[:m, :m] = fm.M
    k[:m, m] = fm.b
    k[m, tap] = 1j * params.omega
    k[m, m] = -1j * params.omega
    return k


@dataclass
class MomentSystem:
    """Affine ODE system d x/dt = A x + c with labeled expectation values."""

    A: np.ndarray
    c: np.ndarray
    labels: tuple
    energy_index = 0  # not a field: the energy is component 0 of every system

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        if len(self.labels) != self.dim:
            raise ValueError("need one label per component")

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass
class SteadyState:
    """Fixed point of a moment system together with its classification."""

    values: np.ndarray
    energy_over_hw: float
    eigenvalues: np.ndarray
    stable: bool
    physical: bool


def _require_kind(p: ProtocolParams, kind: ProtocolKind):
    if p.kind is not kind:
        raise ValueError(f"expected {kind.value} parameters, got {p.kind.value}")


def build_single_layer(p: ProtocolParams) -> MomentSystem:
    """Scalar energy equation for feedback on a single low-pass stage.

    The ensemble energy U relaxes at rate 2*gamma towards
    U_inf = (lam/gamma + gamma/(4 lam)) / 2, so A = (-2 gamma) and
    c = 2 gamma U_inf = lam + gamma^2/(4 lam).
    """
    _require_kind(p, ProtocolKind.LOWPASS1)
    g, lam = p.gamma, p.lam
    A = np.array([[-2.0 * g]])
    c = np.array([lam + g * g / (4.0 * lam)])
    return MomentSystem(A, c, ("<H>/hw",))


def build_two_layer(p: ProtocolParams) -> MomentSystem:
    """Four-moment system for feedback on the second cascade component."""
    _require_kind(p, ProtocolKind.LOWPASS2)
    lam, w, g, Om = p.lam, p.omega, p.gamma, p.Omega
    A = np.array([
        [0.0,     -Om,      0.0,             0.0],
        [2.0 * g, -(Om + g), -Om,            -w],
        [0.0,     2.0 * g,  -2.0 * (Om + g), 0.0],
        [0.0,     w,        0.0,             -(Om + g)],
    ])
    c = np.array([lam, 0.0, g * g / (2.0 * lam), 0.0])
    labels = (
        "<H>/hw",
        "<(x-Dx2)(Dx1-Dx2)>+<(p-Dp2)(Dp1-Dp2)>",
        "<(Dx1-Dx2)^2>+<(Dp1-Dp2)^2>",
        "<(x-Dx2)(Dp1-Dp2)>-<(p-Dp2)(Dx1-Dx2)>",
    )
    return MomentSystem(A, c, labels)


def build_three_layer(p: ProtocolParams) -> MomentSystem:
    """Nine-moment system for feedback on the third cascade component.

    The second and third stage share the bandwidth Omega; an unequal third
    bandwidth is not supported.
    """
    _require_kind(p, ProtocolKind.LOWPASS3)
    lam, w, g, Om = p.lam, p.omega, p.gamma, p.Omega
    A = np.array([
        [0,       -Om, 0,   0,        0,         0,         0,              0,              0],
        [0,       -Om, w,   -Om,      Om,        0,         0,              0,              0],
        [0,       -w,  -Om, 0,        0,         Om,        0,              0,              0],
        [0,       0,   0,   -2 * Om,  0,         0,         2 * Om,         0,              0],
        [2 * g,   -g,  0,   0,        -(g + Om), w,         -Om,            0,              0],
        [0,       0,   -g,  0,        -w,        -(g + Om), 0,              -Om,            0],
        [0,       g,   0,   -g,       0,         0,         -(2 * Om + g),  0,              Om],
        [0,       0,   -g,  0,        0,         0,         0,              -(2 * Om + g),  0],
        [0,       0,   0,   0,        2 * g,     0,         -2 * g,         0,              -2 * (Om + g)],
    ], dtype=float)
    c = np.zeros(9)
    c[0] = lam
    c[8] = g * g / (2.0 * lam)
    labels = (
        "<H>/hw",
        "<(x-Dx3)(Dx2-Dx3)>+<(p-Dp3)(Dp2-Dp3)>",
        "<(p-Dp3)(Dx2-Dx3)>-<(x-Dx3)(Dp2-Dp3)>",
        "<(Dx2-Dx3)^2>+<(Dp2-Dp3)^2>",
        "<(x-Dx3)(Dx1-Dx2)>+<(p-Dp3)(Dp1-Dp2)>",
        "<(p-Dp3)(Dx1-Dx2)>-<(x-Dx3)(Dp1-Dp2)>",
        "<(Dx1-Dx2)(Dx2-Dx3)>+<(Dp1-Dp2)(Dp2-Dp3)>",
        "<(Dp2-Dp3)(Dx1-Dx2)>-<(Dx2-Dx3)(Dp1-Dp2)>",
        "<(Dx1-Dx2)^2>+<(Dp1-Dp2)^2>",
    )
    return MomentSystem(A, c, labels)


def build_bandpass_moments(p: ProtocolParams) -> MomentSystem:
    """Nine-moment system for feedback on the first band-pass quadrature."""
    _require_kind(p, ProtocolKind.BANDPASS)
    lam, w, g, Om = p.lam, p.omega, p.gamma, p.Omega
    A = np.array([
        [-2 * g, Om,     0,      0,      0,   0,   0,   0,  0],
        [0,      -2 * g, -w,     Om,     Om,  0,   0,   0,  0],
        [0,      w,      -2 * g, 0,      0,   Om,  0,   0,  0],
        [0,      0,      0,      -2 * g, 0,   0,   2 * Om, 0, 0],
        [2 * g,  -Om,    0,      0,      -g,  -w,  Om,  0,  0],
        [0,      0,      -Om,    0,      w,   -g,  0,   Om, 0],
        [0,      g,      0,      -Om,    0,   0,   -g,  0,  Om],
        [0,      0,      -g,     0,      0,   0,   0,   -g, 0],
        [0,      0,      0,      0,      2 * g, 0, -2 * Om, 0, 0],
    ], dtype=float)
    c = np.zeros(9)
    # Energy pump: dissipator heating (lam) plus the white-noise variance the
    # tapped quadrature injects directly into the trap center (gamma^2/4lam).
    c[0] = lam + g * g / (4.0 * lam)
    c[4] = -g * g / (2.0 * lam)
    c[8] = g * g / (2.0 * lam)
    labels = (
        "<H>/hw",
        "<(x-Ex1)Ex2>+<(p-Ep1)Ep2>",
        "<(x-Ex1)Ep2>-<(p-Ep1)Ex2>",
        "<Ex2^2+Ep2^2>",
        "<(x-Ex1)Ex1>+<(p-Ep1)Ep1>",
        "<(x-Ex1)Ep1>-<(p-Ep1)Ex1>",
        "<Ex1*Ex2+Ep1*Ep2>",
        "<Ex2*Ep1-Ep2*Ex1>",
        "<Ex1^2+Ep1^2>",
    )
    return MomentSystem(A, c, labels)


_BUILDERS = {
    ProtocolKind.LOWPASS1: build_single_layer,
    ProtocolKind.LOWPASS2: build_two_layer,
    ProtocolKind.LOWPASS3: build_three_layer,
    ProtocolKind.BANDPASS: build_bandpass_moments,
}


def build_moment_system(p: ProtocolParams) -> MomentSystem:
    """The builder matching ``p.kind``; NumericalError if A or c overflows."""
    sys = _BUILDERS[p.kind](p)
    if not (np.isfinite(sys.A).all() and np.isfinite(sys.c).all()):
        raise NumericalError(f"{p.kind.value} moment system overflows at "
                             f"gamma={p.gamma}, Omega={p.Omega}")
    return sys


def steady_state(sys: MomentSystem) -> SteadyState:
    """Solve A x = -c and classify the fixed point.

    ``stable`` requires every eigenvalue of A to satisfy
    Re < -STABILITY_TOL * ||A||_inf; points failing this are reported as
    non-converging even though the linear solve still produces a formal
    value.  ``physical`` requires the energy component to be at least 1/2
    (ground state) up to slack.

    Raises
    ------
    SingularMatrixError
        If A is singular ("no unique steady state").
    """
    values = solve_linear(sys.A, -sys.c)
    eig = eigenvalues(sys.A)
    scale = np.linalg.norm(sys.A, np.inf)
    stable = bool(eig.real.max() < -STABILITY_TOL * scale)
    energy = float(values[sys.energy_index])
    physical = bool(energy >= PHYSICAL_MIN - STABILITY_TOL)
    return SteadyState(values, energy, eig, stable, physical)


def evolve(sys: MomentSystem, x0: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """Exact path of the moment system from x0 at the times k*dt; shape (n_steps + 1, dim).

    The system is affine, so ``numerics.propagate_affine`` steps it with one
    matrix exponential and has no dt error: ``dt`` sets only where the path
    is sampled.  Raises ``NumericalError`` naming the step and time at which
    an unstable system overflows.
    """
    return propagate_affine(sys.A, sys.c, x0, dt, n_steps)

