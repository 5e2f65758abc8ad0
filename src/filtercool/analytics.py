"""Closed-form asymptotic ensemble energies of the cooling protocols.

All energies are returned in units of hbar*omega; 1/2 is the ground-state
value.  The exact expressions agree with the steady states of the moment
systems wherever those are well defined, and the large-Omega expansions
give the leading 1/Omega corrections used to rank the low-pass protocols.

The ``energy_*`` functions also take broadcasting numpy arrays and then
return arrays, so a whole grid is evaluated by the same formula as a point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .moment_systems import PHYSICAL_MIN, STABILITY_TOL, ProtocolKind

PHYSICAL = "physical"
UNPHYSICAL = "unphysical"
NOT_APPLICABLE = "not_applicable"

#: gamma/lam above which adding a second cascade stage lowers the asymptotic
#: energy (sign flip of the first-order correction), and above which the
#: third stage beats the second.
TWO_LAYER_THRESHOLD = 2.0 * math.sqrt(2.0)
THREE_LAYER_THRESHOLD = 4.0

#: gamma/lam above which the three-stage cascade beats the single stage.
THREE_VS_ONE_THRESHOLD = 2.0 * math.sqrt(8.0 / 3.0)

_DENOM_REL_TOL = 1e-12


@dataclass(frozen=True)
class EnergyResult:
    """An asymptotic energy with its physicality classification.

    The energy is NaN where the closed form is NOT_APPLICABLE (vanishing
    denominator or a value that overflows float64: no meaningful
    closed-form value, and no exception or warning).  Scalar inputs give a
    float and a bool; array inputs give arrays of the broadcast shape in
    both fields.
    """

    energy_over_hw: float
    physical: bool

    @property
    def note(self):
        """PHYSICAL, UNPHYSICAL or NOT_APPLICABLE (where the energy is NaN),
        derived on access: a str for a scalar call, else an array of them."""
        note = np.where(np.isnan(self.energy_over_hw), NOT_APPLICABLE,
                        np.where(self.physical, PHYSICAL, UNPHYSICAL))
        return str(note) if note.ndim == 0 else note


def _closed_form(fn):
    """Evaluate ``fn`` on float64 arguments with numpy's floating-point
    warnings off; :func:`_classify` makes what overflowed NOT_APPLICABLE."""
    @functools.wraps(fn)
    def evaluate(*args, **kwargs):
        # [()] makes a scalar a numpy float64, whose ** is libm's pow, as a
        # Python float's is; arrays keep numpy's array loops.
        args = [np.asarray(v, dtype=float)[()] for v in args]
        kwargs = {k: np.asarray(v, dtype=float)[()] for k, v in kwargs.items()}
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return evaluate


def _classify(energy, na=False) -> EnergyResult:
    na = na | ~np.isfinite(energy)
    energy = np.where(na, np.nan, energy)
    physical = energy >= PHYSICAL_MIN - STABILITY_TOL
    if energy.ndim == 0:
        return EnergyResult(float(energy), bool(physical))
    return EnergyResult(energy, physical)


def _require_positive(**kwargs):
    for name, v in kwargs.items():
        if not np.all(v > 0):
            raise ValueError(f"{name} must be positive, got {v}")


@_closed_form
def energy_1layer(lam: float, gamma: float) -> EnergyResult:
    """Single low-pass stage: (lam/gamma + gamma/(4 lam)) / 2.

    Minimized over gamma at gamma = 2 lam, where it reaches the ground-state
    value 1/2.
    """
    _require_positive(lam=lam, gamma=gamma)
    return _classify(0.5 * (lam / gamma + gamma / (4.0 * lam)))


@_closed_form
def energy_2layer(lam: float, gamma: float, Omega: float, omega: float) -> EnergyResult:
    """Two-stage cascade with bandwidths (gamma, Omega).

    Uses the series-combined bandwidth gt, 1/gt = 1/gamma + 1/Omega:

        E = [lam/gt + gt/(4 lam) + lam/(Omega+gamma)
             + lam omega^2 / (gt (Omega+gamma)^2)] / 2
    """
    _require_positive(lam=lam, gamma=gamma, Omega=Omega, omega=omega)
    gt = 1.0 / (1.0 / gamma + 1.0 / Omega)
    s = Omega + gamma
    e = 0.5 * (lam / gt + gt / (4.0 * lam) + lam / s + lam * omega**2 / (gt * s * s))
    return _classify(e)


@_closed_form
def energy_3layer(lam: float, gamma: float, Omega: float, omega: float) -> EnergyResult:
    """Three-stage cascade with bandwidths (gamma, Omega, Omega).

    Full rational expression; returns NOT_APPLICABLE where the denominator
    vanishes (no finite asymptotic value) or overflows.
    """
    _require_positive(lam=lam, gamma=gamma, Omega=Omega, omega=omega)
    g, Om, w = gamma, Omega, omega
    l2 = lam * lam
    num = (8.0 * l2 * Om**3 * (w**2 + Om**2) ** 2
           + 8.0 * g * l2 * Om**2 * (3.0 * w**4 + 7.0 * w**2 * Om**2 + 8.0 * Om**4)
           + g**5 * (Om**4 + 4.0 * l2 * (w**2 + 5.0 * Om**2))
           + 2.0 * g**4 * (2.0 * Om**5 + l2 * (9.0 * w**2 * Om + 48.0 * Om**3))
           + g**3 * (5.0 * Om**6 + 4.0 * l2 * (w**4 + 10.0 * w**2 * Om**2 + 45.0 * Om**4))
           + 2.0 * g**2 * (Om**7 + l2 * (9.0 * w**4 * Om + 31.0 * w**2 * Om**3 + 80.0 * Om**5)))
    den = 2.0 * g * lam * Om**2 * (4.0 * g**4 * Om - 4.0 * w**2 * Om**3 + 4.0 * Om**5
                                   - 2.0 * g**3 * (w**2 - 8.0 * Om**2)
                                   + g**2 * (-9.0 * w**2 * Om + 24.0 * Om**3)
                                   + 4.0 * g * (-3.0 * w**2 * Om**2 + 4.0 * Om**4))
    na = (abs(den) <= _DENOM_REL_TOL * abs(num)) | np.isinf(den)
    return _classify(0.5 * num / np.where(na, 1.0, den), na)


@_closed_form
def energy_bandpass(lam: float, gamma: float, Omega: float, omega: float) -> EnergyResult:
    """Band-pass quadrature feedback centered at Omega (Omega >= 0 allowed).

    Two-term expression with resonant denominator 4 gamma^2 + omega^2
    - 4 Omega^2; at the resonance the value diverges and NOT_APPLICABLE is
    returned.  At Omega = 0 the expression reduces to the single-stage
    energy.
    """
    _require_positive(lam=lam, gamma=gamma, omega=omega)
    if np.any(Omega < 0):
        raise ValueError(f"Omega must be nonnegative, got {Omega}")
    g, Om, w = gamma, Omega, omega
    den = 4.0 * g * g + w * w - 4.0 * Om * Om
    scale = 4.0 * g * g + w * w + 4.0 * Om * Om
    na = abs(den) <= _DENOM_REL_TOL * scale
    den = np.where(na, 1.0, den)
    base = 0.5 * (lam / g + g / (4.0 * lam))
    e = (base * (1.0 + (Om * Om / (w * w)) * (4.0 * g * g - w * w + 4.0 * Om * Om) / den)
         + 0.5 * g * Om * Om * (3.0 * w * w - 4.0 * g * g - 4.0 * Om * Om)
         / (4.0 * lam * w * w * den))
    return _classify(e, na)


@_closed_form
def energy_2layer_largeOmega(lam: float, gamma: float, Omega: float) -> float:
    """First-order large-Omega energy of the two-stage cascade.

    Single-stage value plus (lam - gamma^2/(8 lam)) / Omega; the correction
    changes sign at gamma/lam = 2 sqrt(2).  NaN where the value overflows.
    """
    _require_positive(lam=lam, gamma=gamma, Omega=Omega)
    e = 0.5 * (lam / gamma + gamma / (4.0 * lam)) + (lam - gamma**2 / (8.0 * lam)) / Omega
    return _classify(e).energy_over_hw


@_closed_form
def energy_3layer_largeOmega(lam: float, gamma: float, Omega: float) -> float:
    """First-order large-Omega energy of the three-stage cascade.

    Single-stage value plus (2 lam - 3 gamma^2/(16 lam)) / Omega.  NaN where
    the value overflows.
    """
    _require_positive(lam=lam, gamma=gamma, Omega=Omega)
    e = (0.5 * (lam / gamma + gamma / (4.0 * lam))
         + (2.0 * lam - 3.0 * gamma**2 / (16.0 * lam)) / Omega)
    return _classify(e).energy_over_hw


def best_protocol_largeOmega(gamma_over_lam: float) -> ProtocolKind:
    """Which low-pass protocol cools best in the large-Omega limit.

    Single stage up to gamma/lam = 2 sqrt(2), two stages up to 4, three
    stages beyond.
    """
    if not gamma_over_lam > 0:
        raise ValueError(f"ratio must be positive, got {gamma_over_lam}")
    if gamma_over_lam <= TWO_LAYER_THRESHOLD:
        return ProtocolKind.LOWPASS1
    if gamma_over_lam <= THREE_LAYER_THRESHOLD:
        return ProtocolKind.LOWPASS2
    return ProtocolKind.LOWPASS3
