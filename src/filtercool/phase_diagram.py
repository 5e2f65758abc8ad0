"""Protocol comparison over a (gamma, Omega) grid at fixed (lam, omega).

For every grid cell the four closed-form asymptotic energies are evaluated
and classified: a protocol qualifies when its moment system is stable (all
eigenvalues strictly in the left half plane) and its energy is physical
(at least 1/2).  The winner is the qualifying protocol with the lowest
energy; ties go to the protocol with fewer filter stages.  Stability is
read from the moment-system eigenvalues because the closed form alone
cannot distinguish a stable fixed point from the formal solution of a
runaway system.

The sweep is one array pass per protocol over the whole mesh.  Each
hand-typed moment matrix is affine in (gamma, Omega) at fixed (lam, omega)
with small-integer coefficients, so three builds assemble every cell's
A = A0 + gamma dA_gamma + Omega dA_Omega, bit-equal to a per-cell build.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import analytics
from .moment_systems import (
    STABILITY_TOL,
    ProtocolKind,
    ProtocolParams,
    build_moment_system,
    steady_state,
)
from .numerics import NumericalError, SingularMatrixError

ALL_PROTOCOLS = (ProtocolKind.LOWPASS1, ProtocolKind.LOWPASS2,
                 ProtocolKind.LOWPASS3, ProtocolKind.BANDPASS)

FLAG_OK = "ok"
FLAG_UNSTABLE = "unstable"
FLAG_UNPHYSICAL = "unphysical"
FLAG_NA = "na"

CSV_HEADER = ("gamma", "Omega", "E1", "E2", "E3", "Ebp", "winner", "flags")

_ENERGY_FN = {
    ProtocolKind.LOWPASS1: lambda lam, g, Om, w: analytics.energy_1layer(lam, g),
    ProtocolKind.LOWPASS2: analytics.energy_2layer,
    ProtocolKind.LOWPASS3: analytics.energy_3layer,
    ProtocolKind.BANDPASS: analytics.energy_bandpass,
}

_CROSSCHECK_RTOL = 1e-9


@dataclass
class GridSpec:
    """Log-style sweep axes and the fixed protocol parameters.

    Axis values must be positive and strictly increasing; they are the
    actual gamma and Omega values evaluated (use :meth:`log_spaced` for the
    usual geometric grids).
    """

    gamma_values: np.ndarray
    Omega_values: np.ndarray
    lam: float = 1.0
    omega: float = 1.0
    protocols: Tuple[ProtocolKind, ...] = ALL_PROTOCOLS

    def __post_init__(self):
        self.gamma_values = np.asarray(self.gamma_values, dtype=float)
        self.Omega_values = np.asarray(self.Omega_values, dtype=float)
        for name, ax in (("gamma", self.gamma_values), ("Omega", self.Omega_values)):
            if ax.size == 0:
                raise ValueError(f"{name} axis is empty")
            if (ax <= 0).any() or (np.diff(ax) <= 0).any():
                raise ValueError(f"{name} axis must be positive and strictly increasing")
        if not (self.lam > 0 and self.omega > 0):
            raise ValueError("lam and omega must be positive")
        self.protocols = tuple(self.protocols)
        if not self.protocols:
            raise ValueError("need at least one protocol")

    @classmethod
    def log_spaced(cls, gamma_range=(0.1, 100.0), Omega_range=(0.1, 1000.0),
                   n_gamma: int = 200, n_Omega: int = 200,
                   lam: float = 1.0, omega: float = 1.0,
                   protocols: Tuple[ProtocolKind, ...] = ALL_PROTOCOLS) -> "GridSpec":
        """Geometrically spaced grid; defaults bracket both decision
        thresholds and the band-pass resonance."""
        return cls(np.geomspace(*gamma_range, n_gamma),
                   np.geomspace(*Omega_range, n_Omega),
                   lam, omega, protocols)


@dataclass
class PhaseGridResult:
    """Per-cell energies, qualification flags and the winner map.

    All cell arrays are indexed ``[i_gamma, j_Omega]``.  ``winner`` holds
    protocol names (``ProtocolKind.value``) or ``"none"`` when no protocol
    qualifies in a cell.
    """

    spec: GridSpec
    energies: Dict[ProtocolKind, np.ndarray]
    flags: Dict[ProtocolKind, np.ndarray]
    winner: np.ndarray


def _moment_matrices(kind: ProtocolKind, spec: GridSpec) -> np.ndarray:
    """Every cell's moment matrix, shape ``(n_gamma, n_Omega, dim, dim)``."""
    a11, a21, a12 = (build_moment_system(ProtocolParams(spec.lam, spec.omega, g, Om, kind)).A
                     for g, Om in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0)))
    d_gamma, d_Omega = a21 - a11, a12 - a11
    return ((a11 - d_gamma - d_Omega + spec.gamma_values[:, None, None, None] * d_gamma)
            + spec.Omega_values[:, None, None] * d_Omega)


def _stability_map(kind: ProtocolKind, spec: GridSpec) -> np.ndarray:
    """Boolean stability per cell from the moment-system eigenvalues."""
    if kind is ProtocolKind.LOWPASS1:  # single eigenvalue -2*gamma
        return np.ones((spec.gamma_values.size, spec.Omega_values.size), dtype=bool)
    mats = _moment_matrices(kind, spec)
    eig = np.linalg.eigvals(mats)
    scale = np.abs(mats).sum(axis=-1).max(axis=-1)  # infinity norm per matrix
    return eig.real.max(axis=-1) < -STABILITY_TOL * scale


def sweep(spec: GridSpec, n_crosscheck: int = 50) -> PhaseGridResult:
    """Evaluate and classify every cell, then pick the per-cell winner.

    ``n_crosscheck`` randomly sampled cells (deterministic choice) are
    re-solved through the moment systems and compared with the closed forms
    at relative 1e-9; a mismatch raises, since it would mean the two
    implementations have diverged.
    """
    gamma, Omega = np.meshgrid(spec.gamma_values, spec.Omega_values, indexing="ij")
    energies: Dict[ProtocolKind, np.ndarray] = {}
    flags: Dict[ProtocolKind, np.ndarray] = {}
    for kind in spec.protocols:
        unstable = ~_stability_map(kind, spec)
        res = _ENERGY_FN[kind](spec.lam, gamma, Omega, spec.omega)
        f = np.full(gamma.shape, FLAG_OK, dtype=object)
        f[~res.physical] = FLAG_UNPHYSICAL
        f[unstable] = FLAG_UNSTABLE
        f[res.note == analytics.NOT_APPLICABLE] = FLAG_NA
        energies[kind] = res.energy_over_hw
        flags[kind] = f

    # Ties go to fewer filter stages, then to the earlier protocol.
    kinds = sorted(spec.protocols, key=lambda k: (k.n_layers, ALL_PROTOCOLS.index(k)))
    ok = np.stack([flags[k] == FLAG_OK for k in kinds])
    e = np.stack([energies[k] for k in kinds])
    e_min = np.where(ok, e, np.inf).min(axis=0)
    first_best = (ok & (e == e_min)).argmax(axis=0)
    winner = np.array([k.value for k in kinds], dtype=object)[first_best]
    winner[~ok.any(axis=0)] = "none"

    _crosscheck(spec, energies, n_crosscheck)
    return PhaseGridResult(spec, energies, flags, winner)


def _crosscheck(spec: GridSpec, energies, n_cells: int):
    """Spot-check the closed forms against moment-system steady states."""
    if n_cells <= 0:
        return
    rng = np.random.default_rng(1234)
    ng, nO = spec.gamma_values.size, spec.Omega_values.size
    for _ in range(n_cells):
        i = int(rng.integers(ng))
        j = int(rng.integers(nO))
        kind = spec.protocols[int(rng.integers(len(spec.protocols)))]
        exact = energies[kind][i, j]
        if not np.isfinite(exact):
            continue
        p = ProtocolParams(spec.lam, spec.omega, spec.gamma_values[i],
                           spec.Omega_values[j], kind)
        try:
            solved = steady_state(build_moment_system(p)).energy_over_hw
        except SingularMatrixError:
            continue
        if abs(solved - exact) > _CROSSCHECK_RTOL * max(abs(exact), 1.0):
            raise NumericalError(
                f"closed form and moment system disagree for {kind.value} at "
                f"gamma={spec.gamma_values[i]}, Omega={spec.Omega_values[j]}: "
                f"{exact} vs {solved}")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def export_phase_csv(result: PhaseGridResult, path) -> None:
    """Write the grid as CSV rows ``gamma,Omega,E1,E2,E3,Ebp,winner,flags``.

    Energies are in units of hbar*omega with 12 significant digits (``nan``
    for protocols that are not applicable or not requested); ``flags`` joins
    the four per-protocol flags with semicolons in the order E1;E2;E3;Ebp.
    """
    spec = result.spec
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i, g in enumerate(spec.gamma_values):
            for j, Om in enumerate(spec.Omega_values):
                row = [_fmt(g), _fmt(Om)]
                fl = []
                for kind in ALL_PROTOCOLS:
                    if kind in result.energies:
                        row.append(_fmt(result.energies[kind][i, j]))
                        fl.append(result.flags[kind][i, j])
                    else:
                        row.append("nan")
                        fl.append(FLAG_NA)
                row.append(result.winner[i, j])
                row.append(";".join(fl))
                writer.writerow(row)


def load_phase_csv(path):
    """Parse a file written by :func:`export_phase_csv`.

    Returns ``(gamma, Omega, energies, winner, flags)`` as flat per-row
    arrays/lists, in file order.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        gamma, Omega, energies, winner, flags = [], [], [], [], []
        for row in reader:
            gamma.append(float(row[0]))
            Omega.append(float(row[1]))
            energies.append([float(v) for v in row[2:6]])
            winner.append(row[6])
            flags.append(tuple(row[7].split(";")))
    return (np.array(gamma), np.array(Omega), np.array(energies),
            winner, flags)
