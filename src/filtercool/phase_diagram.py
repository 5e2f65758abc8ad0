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

The eigenvalues are not taken from A itself.  Every filtered-feedback
moment system is one complex Lyapunov equation dX/dt = K X + X K^dagger + Q
for a small complex drift K (:func:`moment_systems.filter_drift`, m x m or
(m+1) x (m+1) for an m-component filter), so the spectrum of A is
{lambda_i(K) + conj(lambda_j(K))} and its largest real part is
2 max Re lambda(K).  A cell is stable when 2 max Re lambda(K) <
-STABILITY_TOL ||A||_inf: the threshold of :func:`moment_systems.steady_state`,
with ||A||_inf summed entry by entry from the affine parts of A, so no
per-cell A is ever held.  ``steady_state`` keeps the direct eigenvalues of
A and is the per-cell oracle of the cross-check.

Nor are eigenvalues taken from K, except near the threshold.  The threshold
says that B = (K + delta I)/||A||_inf, with delta = STABILITY_TOL
||A||_inf / 2, has every eigenvalue in the left half plane.
:func:`numerics.hurwitz_test` decides that for thousands of cells per array
pass from the characteristic polynomial of B (degree 2 or 3): the Cayley map
to the unit disk, then the Schur-Cohn recursion on the complex coefficients.
Its margin is a lower bound on min_j |1 - |k_j|| over the reflection
coefficients, net of a running rounding-error bound; for a root near the
imaginary axis it is about the root's distance from the threshold in units
of ||A||_inf.  A cell whose margin is below STABILITY_MARGIN = 1e-8 (about
sqrt(eps), the eigenvalue error a defective pair can carry) is decided as
before, by ``np.linalg.eigvals`` of its K.  On the default 200 x 200 grid
1 856 of the 120 000 (cell, protocol) pairs fall back: 1 845 band-pass and
11 three-stage cells.  ``PhaseGridResult.stability_fallback_cells`` reports
the count.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import sys
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import analytics
from .moment_systems import (
    STABILITY_TOL,
    ProtocolKind,
    ProtocolParams,
    build_moment_system,
    filter_drift,
    steady_state,
)
from .numerics import NumericalError, hurwitz_test, require_positive

ALL_PROTOCOLS = tuple(ProtocolKind)

FLAG_OK = "ok"
FLAG_UNSTABLE = "unstable"
FLAG_UNPHYSICAL = "unphysical"
FLAG_NA = "na"

CSV_HEADER = ("gamma", "Omega", "E1", "E2", "E3", "Ebp", "winner", "flags")

#: A protocol's 2-bit flag code, and the phase CSV's flags field for each
#: 8-bit code of the four protocols, E1's code in the top bits.
_FLAG_CODES = {FLAG_OK: 0, FLAG_UNSTABLE: 1, FLAG_UNPHYSICAL: 2, FLAG_NA: 3}
_FLAG_FIELDS = np.array([";".join(f) for f in itertools.product(_FLAG_CODES, repeat=4)],
                        dtype=object)

_ENERGY_FN = {
    ProtocolKind.LOWPASS1: lambda lam, g, Om, w: analytics.energy_1layer(lam, g),
    ProtocolKind.LOWPASS2: analytics.energy_2layer,
    ProtocolKind.LOWPASS3: analytics.energy_3layer,
    ProtocolKind.BANDPASS: analytics.energy_bandpass,
}

_CROSSCHECK_RTOL = 1e-9

#: Smallest :func:`hurwitz_test` margin (a lower bound on min_j |1 - |k_j||)
#: at which the polynomial test decides a cell; cells below it, which lie
#: within about 1e-8 ||A||_inf of the threshold, are decided by ``eigvals``.
STABILITY_MARGIN = 1e-8

#: Cells per block of the stability map: its working arrays take about
#: 0.4 KB per cell of a 3 x 3 drift, whatever the grid size.
_BLOCK_CELLS = 4096

#: (gamma, Omega) of the three builds that fix a matrix affine in them.
_AFFINE_POINTS = ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0))

#: Rows per block of :func:`write_csv`.
_CSV_BLOCK_ROWS = 4096


@dataclass
class GridSpec:
    """Log-style sweep axes and the fixed protocol parameters.

    Axis values must be positive, finite and strictly increasing; they are
    the actual gamma and Omega values evaluated (use :meth:`log_spaced` for
    the usual geometric grids).  Each ``ProtocolKind`` may appear once.
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
            if not (np.isfinite(ax) & (ax > 0)).all() or (np.diff(ax) <= 0).any():
                raise ValueError(f"{name} axis must be positive, finite and strictly increasing")
        require_positive(self.lam, "lam")
        require_positive(self.omega, "omega")
        self.protocols = tuple(self.protocols)
        if not self.protocols:
            raise ValueError("need at least one protocol")
        for kind in self.protocols:
            if not isinstance(kind, ProtocolKind):
                raise ValueError(f"protocols must be ProtocolKind members, got {kind!r}")
        if len(set(self.protocols)) != len(self.protocols):
            raise ValueError("protocols must not repeat, got "
                             + ",".join(k.value for k in self.protocols))

    @classmethod
    def log_spaced(cls, gamma_range=(0.1, 100.0), Omega_range=(0.1, 1000.0),
                   n_gamma: int = 200, n_Omega: int = 200,
                   lam: float = 1.0, omega: float = 1.0,
                   protocols: Tuple[ProtocolKind, ...] = ALL_PROTOCOLS) -> "GridSpec":
        """Geometrically spaced grid; defaults bracket both decision
        thresholds and the band-pass resonance.  Both ends of each range
        must be positive and finite."""
        for name, ends in (("gamma_range", gamma_range), ("Omega_range", Omega_range)):
            for k, v in enumerate(ends):
                require_positive(v, f"{name}[{k}]")
        return cls(np.geomspace(*gamma_range, n_gamma),
                   np.geomspace(*Omega_range, n_Omega),
                   lam, omega, protocols)


@dataclass
class PhaseGridResult:
    """Per-cell energies, qualification flags and the winner map.

    All cell arrays are indexed ``[i_gamma, j_Omega]``.  ``winner`` holds
    protocol names (``ProtocolKind.value``) or ``"none"`` when no protocol
    qualifies in a cell.

    The cross-check fields count the sampled cells re-solved through the
    moment systems (``crosscheck_cells``), the sampled cells it could not
    check because the closed form is not finite, the moment system
    overflows or is singular, or its steady state overflows
    (``crosscheck_skipped``), and
    the largest |solved - closed form| / max(|closed form|, 1) among the
    checked ones (0 when none was checked).

    ``stability_fallback_cells`` counts the (cell, protocol) pairs whose
    stability the characteristic-polynomial test left to ``eigvals``
    (see :func:`hurwitz_test` and ``STABILITY_MARGIN``).
    """

    spec: GridSpec
    energies: Dict[ProtocolKind, np.ndarray]
    flags: Dict[ProtocolKind, np.ndarray]
    winner: np.ndarray
    crosscheck_cells: int = 0
    crosscheck_skipped: int = 0
    crosscheck_max_residual: float = 0.0
    stability_fallback_cells: int = 0


def _affine_parts(build, kind: ProtocolKind, spec: GridSpec):
    """``(X0, dX_gamma, dX_Omega)`` of a matrix ``build(params)`` affine in (gamma, Omega)."""
    x11, x21, x12 = (build(ProtocolParams(spec.lam, spec.omega, g, Om, kind))
                     for g, Om in _AFFINE_POINTS)
    d_gamma, d_Omega = x21 - x11, x12 - x11
    return x11 - d_gamma - d_Omega, d_gamma, d_Omega


def _on_grid(parts, gamma: np.ndarray, Omega: np.ndarray) -> np.ndarray:
    """The matrix at each (gamma, Omega) pair of the broadcast axes, from its
    affine parts; shape ``(*broadcast shape, n, n)``."""
    x0, d_gamma, d_Omega = parts
    return (x0 + gamma[..., None, None] * d_gamma) + Omega[..., None, None] * d_Omega


def _moment_parts(kind: ProtocolKind, spec: GridSpec):
    return _affine_parts(lambda p: build_moment_system(p).A, kind, spec)


def _inf_norms(parts, spec: GridSpec) -> np.ndarray:
    """||A||_inf per cell, summed one nonzero entry of A at a time over the grid."""
    a0, d_gamma, d_Omega = parts
    gamma = spec.gamma_values[:, None]
    norms = np.zeros((spec.gamma_values.size, spec.Omega_values.size))
    for i in range(a0.shape[0]):
        row = np.zeros_like(norms)
        for j in np.flatnonzero((a0[i] != 0) | (d_gamma[i] != 0) | (d_Omega[i] != 0)):
            row += np.abs((a0[i, j] + gamma * d_gamma[i, j]) + spec.Omega_values * d_Omega[i, j])
        np.maximum(norms, row, out=norms)
    return norms


def _stability(kind: ProtocolKind, spec: GridSpec) -> Tuple[np.ndarray, int]:
    """Stability per cell, and how many cells fell back to ``eigvals``.

    The threshold 2 max Re lambda(K) < -STABILITY_TOL ||A||_inf says that
    (K + delta I)/||A||_inf with delta = STABILITY_TOL ||A||_inf / 2 is
    Hurwitz, which :func:`hurwitz_test` decides.  A cell whose margin is
    below STABILITY_MARGIN (or nan) is decided as before, from the
    eigenvalues of its K.  The grid is taken in blocks of gamma rows of
    about _BLOCK_CELLS cells, so the working arrays do not grow with it.
    """
    shape = (spec.gamma_values.size, spec.Omega_values.size)
    if kind is ProtocolKind.LOWPASS1:  # single eigenvalue -2*gamma
        return np.ones(shape, dtype=bool), 0
    norms = _inf_norms(_moment_parts(kind, spec), spec)
    parts = _affine_parts(filter_drift, kind, spec)
    stable = np.empty(shape, dtype=bool)
    n_fallback = 0
    step = max(1, _BLOCK_CELLS // shape[1])
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        gamma = spec.gamma_values[rows]
        scale = norms[rows]
        shifted = _on_grid(parts, gamma[:, None], spec.Omega_values)
        shifted /= scale[..., None, None]
        for i in range(shifted.shape[-1]):
            shifted[..., i, i] += STABILITY_TOL / 2
        block, margin = hurwitz_test(shifted)
        uncertain = ~(margin >= STABILITY_MARGIN)
        if uncertain.any():
            i_gamma, j_Omega = np.nonzero(uncertain)
            drifts = _on_grid(parts, gamma[i_gamma], spec.Omega_values[j_Omega])
            rate = np.linalg.eigvals(drifts).real.max(axis=-1)
            block[uncertain] = 2.0 * rate < -STABILITY_TOL * scale[uncertain]
        stable[rows] = block
        n_fallback += int(uncertain.sum())
    return stable, n_fallback


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
    n_fallback = 0
    for kind in spec.protocols:
        stable, n = _stability(kind, spec)
        n_fallback += n
        res = _ENERGY_FN[kind](spec.lam, gamma, Omega, spec.omega)
        f = np.full(gamma.shape, FLAG_OK, dtype=object)
        f[~res.physical] = FLAG_UNPHYSICAL
        f[~stable] = FLAG_UNSTABLE
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

    checked, skipped, worst = _crosscheck(spec, energies, n_crosscheck)
    return PhaseGridResult(spec, energies, flags, winner, checked, skipped, worst,
                           n_fallback)


def _crosscheck(spec: GridSpec, energies, n_cells: int) -> Tuple[int, int, float]:
    """Spot-check the closed forms against moment-system steady states.

    Returns the cells checked, the cells skipped and the worst relative
    residual (see :class:`PhaseGridResult`).
    """
    checked, skipped, worst = 0, 0, 0.0
    rng = np.random.default_rng(1234)
    ng, nO = spec.gamma_values.size, spec.Omega_values.size
    for _ in range(n_cells):
        i = int(rng.integers(ng))
        j = int(rng.integers(nO))
        kind = spec.protocols[int(rng.integers(len(spec.protocols)))]
        exact = energies[kind][i, j]
        if not np.isfinite(exact):
            skipped += 1
            continue
        Om = None if kind is ProtocolKind.LOWPASS1 else spec.Omega_values[j]
        p = ProtocolParams(spec.lam, spec.omega, spec.gamma_values[i], Om, kind)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                solved = steady_state(build_moment_system(p)).energy_over_hw
        except NumericalError:
            solved = np.nan
        if not np.isfinite(solved):
            skipped += 1
            continue
        if abs(solved - exact) > _CROSSCHECK_RTOL * max(abs(exact), 1.0):
            raise NumericalError(
                f"closed form and moment system disagree for {kind.value} at "
                f"gamma={spec.gamma_values[i]}, Omega={spec.Omega_values[j]}: "
                f"{exact} vs {solved}")
        checked += 1
        worst = max(worst, abs(solved - exact) / max(abs(exact), 1.0))
    return checked, skipped, float(worst)


def _format_runs(values: np.ndarray) -> np.ndarray:
    """The ``%.12g`` text of each value, formatted once per run.

    A run starts where the float64 bits differ from the value before, so
    0.0 and -0.0 are told apart, and NaNs of different payloads, each
    printed ``nan``, are too.  The run values are formatted in one ``%``
    call and repeated over their runs.
    """
    bits = values.view(np.uint64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    text = ("%.12g," * starts.size % tuple(values[starts].tolist())).split(",")[:-1]
    return np.repeat(np.array(text, dtype=object), np.diff(starts, append=values.size))


def write_csv(path, header, columns) -> None:
    """Write ``header`` as a ``csv.writer`` row, then the rows of ``columns``.

    The column types set the format: a column of ``str`` is written as is
    (its fields must need no quoting), any other column is read once as
    float64 and written as ``%.12g``.  Rows go out ``_CSV_BLOCK_ROWS`` at a
    time, so the text held does not grow with the row count; within a
    block each run of equal values of a float column is formatted once.
    Fields are joined with ``,`` and rows end in ``\\r\\n``, as ``csv.writer``
    writes them.  ``path`` ``"-"`` is standard output, which stays open.
    """
    is_text = [len(c) > 0 and isinstance(c[0], str) for c in columns]
    columns = [c if t else np.asarray(c, dtype=float) for c, t in zip(columns, is_text)]
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError("CSV columns differ in length: " + ",".join(str(len(c)) for c in columns))
    fields = np.empty((min(n_rows, _CSV_BLOCK_ROWS), 2 * len(columns)), dtype=object)
    fields[:, 1::2] = ","
    fields[:, -1:] = "\r\n"
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", newline="")) as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = fields[:min(_CSV_BLOCK_ROWS, n_rows - start)]
            for k, (column, text) in enumerate(zip(columns, is_text)):
                part = column[start:start + len(block)]
                block[:, 2 * k] = part if text else _format_runs(part)
            fh.write("".join(block.ravel().tolist()))


def export_phase_csv(result: PhaseGridResult, path) -> None:
    """Write the grid as CSV rows ``gamma,Omega,E1,E2,E3,Ebp,winner,flags``.

    Energies are in units of hbar*omega with 12 significant digits (``nan``
    for protocols that are not applicable or not requested); ``flags`` joins
    the four per-protocol flags with semicolons in the order E1;E2;E3;Ebp.
    Rows run over Omega fastest.  The columns go through :func:`write_csv`:
    gamma as a float column, whose runs of n_Omega rows are formatted once
    per value, Omega as its axis formatted once and tiled, and the flags as
    one text column picked from ``_FLAG_FIELDS`` by a 2-bit code per protocol
    (a flag that is not one of the four names raises ``KeyError``).
    ``path`` ``"-"`` writes to standard output.
    """
    spec = result.spec
    ng, nO = spec.gamma_values.size, spec.Omega_values.size
    energies = []
    code = np.zeros(ng * nO, dtype=np.intp)
    for kind in ALL_PROTOCOLS:
        code <<= 2
        if kind in result.energies:
            energies.append(result.energies[kind].ravel())
            code += np.fromiter(map(_FLAG_CODES.__getitem__, result.flags[kind].ravel().tolist()),
                                dtype=np.intp, count=code.size)
        else:
            energies.append(np.full(ng * nO, np.nan))
            code += _FLAG_CODES[FLAG_NA]
    Omega = np.array(["%.12g" % v for v in spec.Omega_values.tolist()], dtype=object)
    write_csv(path, CSV_HEADER, [np.repeat(spec.gamma_values, nO), np.tile(Omega, ng),
                                 *energies, result.winner.ravel(), _FLAG_FIELDS[code]])


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
