"""Protocol comparison over a (gamma, Omega) grid at fixed (lam, omega).

For every grid cell the four closed-form asymptotic energies are evaluated
and classified: a protocol qualifies when its moment system is stable (all
eigenvalues strictly in the left half plane) and its energy is physical
(at least 1/2).  The winner is the qualifying protocol with the lowest
energy; ties go to the protocol with fewer filter stages.  Stability is
read from the moment-system eigenvalues because the closed form alone
cannot distinguish a stable fixed point from the formal solution of a
runaway system.

The sweep is one pass over blocks of gamma rows of about _BLOCK_CELLS
cells, so its working arrays do not grow with the grid.  Each block
evaluates the closed forms and the stability map of every protocol and
gives each cell a small-int decision: per protocol a uint8 flag code (ok 0,
unstable 1, unphysical 2, na 3: the index into _FLAG_NAMES) and a winner
code, the winner's index in the tie-break order _TIE_ORDER or 4 for none.
Text is made only when a block is written.  :func:`sweep` gathers the
blocks into a :class:`PhaseGridResult`; :func:`write_phase_csv`, the one CSV
writer, writes each block as it comes, so it holds one block at any size.

Each hand-typed moment matrix A, and each drift K below, is affine in
(gamma, Omega) at fixed (lam, omega) with small-integer coefficients, so
three builds per protocol give its parts: A = A0 + gamma dA_gamma + Omega
dA_Omega, assembled from them, is bit-equal to a per-cell build.

The eigenvalues are not taken from A itself.  Every filtered-feedback
moment system is one complex Lyapunov equation dX/dt = K X + X K^dagger + Q
for a small complex drift K (:func:`moment_systems.filter_drift`, m x m or
(m+1) x (m+1) for an m-component filter), so the spectrum of A is
{lambda_i(K) + conj(lambda_j(K))} and its largest real part is
2 max Re lambda(K).  A cell is stable when 2 max Re lambda(K) <
-STABILITY_TOL ||A||_inf: the threshold of :func:`moment_systems.steady_state`.
``steady_state`` keeps the direct eigenvalues of A and is the per-cell
oracle of the cross-check.

||A||_inf comes from the three parts of A, and no per-cell A is ever
held.  No entry of a hand-typed A mixes signs over its affine parts, so
for gamma, Omega > 0 row i of |A| sums to the plane
r0_i + gamma r_gamma_i + Omega r_Omega_i, each r the row sums of the
absolute part; ||A||_inf is the largest of the n planes, one broadcast max
per block.

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
from .numerics import NumericalError, hurwitz_test, require_count, require_positive

ALL_PROTOCOLS = tuple(ProtocolKind)

FLAG_OK = "ok"
FLAG_UNSTABLE = "unstable"
FLAG_UNPHYSICAL = "unphysical"
FLAG_NA = "na"

CSV_HEADER = ("gamma", "Omega", "E1", "E2", "E3", "Ebp", "winner", "flags")

#: A protocol's flag name for each 2-bit flag code, and the phase CSV's
#: flags field for each 8-bit code of the four protocols, E1's in the top bits.
_FLAG_NAMES = np.array([FLAG_OK, FLAG_UNSTABLE, FLAG_UNPHYSICAL, FLAG_NA], dtype=object)
_FLAG_FIELDS = np.array([";".join(f) for f in itertools.product(_FLAG_NAMES, repeat=4)],
                        dtype=object)

#: Ties go to fewer filter stages, then to the earlier protocol.  A winner
#: code is an index into this order, or 4 when no protocol qualifies; the
#: winner column's text for each code.
_TIE_ORDER = tuple(sorted(ALL_PROTOCOLS, key=lambda k: (k.n_layers, ALL_PROTOCOLS.index(k))))
_WINNER_NAMES = np.array([k.value for k in _TIE_ORDER] + ["none"], dtype=object)

_ENERGY_FN = {
    ProtocolKind.LOWPASS1: lambda lam, g, Om, w: analytics.energy_1layer(lam, g),
    ProtocolKind.LOWPASS2: analytics.energy_2layer,
    ProtocolKind.LOWPASS3: analytics.energy_3layer,
    ProtocolKind.BANDPASS: analytics.energy_bandpass,
}

_CROSSCHECK_RTOL = 1e-9

#: Cells that :func:`sweep` and :func:`write_phase_csv` re-solve through
#: the moment systems.
_CROSSCHECK_CELLS = 50

#: Smallest :func:`hurwitz_test` margin (a lower bound on min_j |1 - |k_j||)
#: at which the polynomial test decides a cell; cells below it, which lie
#: within about 1e-8 ||A||_inf (the largest of A's row planes) of the
#: threshold, are decided by ``eigvals``.
STABILITY_MARGIN = 1e-8

#: Cells per block of the sweep: the stability map's working arrays take
#: about 0.4 KB per cell of a 3 x 3 drift, whatever the grid size.
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
        must be positive and finite, and the first must not exceed the
        second (equal ends only for one point); each point count must be
        an integer of at least 1."""
        require_count(n_gamma, "n_gamma", 1)
        require_count(n_Omega, "n_Omega", 1)
        for name, ends in (("gamma_range", gamma_range), ("Omega_range", Omega_range)):
            for k, v in enumerate(ends):
                require_positive(v, f"{name}[{k}]")
            if ends[0] > ends[1]:
                raise ValueError(f"{name} must be increasing, got {ends[0]} > {ends[1]}")
        return cls(np.geomspace(*gamma_range, n_gamma),
                   np.geomspace(*Omega_range, n_Omega),
                   lam, omega, protocols)


@dataclass
class PhaseGridResult:
    """Per-cell energies, flag codes and winner codes.

    All cell arrays are indexed ``[i_gamma, j_Omega]``.  ``energies`` and
    ``flag_codes`` hold one array per protocol of the spec; a flag code is a
    uint8 index into the flag names (0 ok, 1 unstable, 2 unphysical, 3 na).
    ``winner_codes`` holds the uint8 index of each cell's winner in the
    tie-break order (fewer filter stages first, then ``ALL_PROTOCOLS``
    order), or 4 when no protocol qualifies.  ``flags`` and ``winner`` give
    the same as names, built on each access: object arrays of the FLAG_*
    strings, and of ``ProtocolKind.value`` or ``"none"``.

    The cross-check fields count the sampled cells re-solved through the
    moment systems (``crosscheck_cells``), the sampled cells it could not
    check because the closed form is not finite, the moment system
    overflows or is singular, its steady state overflows, or it misses the
    tolerance by no more than 1e4 cond(A) eps (``crosscheck_skipped``), and
    the largest |solved - closed form| / max(|closed form|, 1) among the
    checked ones (0 when none was checked).

    ``stability_fallback_cells`` counts the (cell, protocol) pairs whose
    stability the characteristic-polynomial test left to ``eigvals``
    (see :func:`hurwitz_test` and ``STABILITY_MARGIN``).
    """

    spec: GridSpec
    energies: Dict[ProtocolKind, np.ndarray]
    flag_codes: Dict[ProtocolKind, np.ndarray]
    winner_codes: np.ndarray
    crosscheck_cells: int = 0
    crosscheck_skipped: int = 0
    crosscheck_max_residual: float = 0.0
    stability_fallback_cells: int = 0

    @property
    def flags(self) -> Dict[ProtocolKind, np.ndarray]:
        return {kind: _FLAG_NAMES[code] for kind, code in self.flag_codes.items()}

    @property
    def winner(self) -> np.ndarray:
        return _WINNER_NAMES[self.winner_codes]


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


def _stability_parts(kind: ProtocolKind, spec: GridSpec):
    """What :func:`_stability` reads: the row sums of |part| over the three
    affine parts of A, shape (3, n, 1, 1), whose planes give ||A||_inf, and
    the affine parts of K; None for the single stage, whose A has the single
    eigenvalue -2 gamma."""
    if kind is ProtocolKind.LOWPASS1:
        return None
    moment = np.abs(_affine_parts(lambda p: build_moment_system(p).A, kind, spec))
    return moment.sum(axis=-1)[..., None, None], _affine_parts(filter_drift, kind, spec)


def _stability(parts, gamma: np.ndarray, Omega: np.ndarray) -> Tuple[np.ndarray, int]:
    """Stability per cell of gamma x Omega, and how many cells fell back to ``eigvals``.

    ``parts`` come from :func:`_stability_parts`.  The threshold
    2 max Re lambda(K) < -STABILITY_TOL ||A||_inf says that
    (K + delta I)/||A||_inf with delta = STABILITY_TOL ||A||_inf / 2 is
    Hurwitz, which :func:`hurwitz_test` decides.  A cell whose margin is
    below STABILITY_MARGIN (or nan) is decided as before, from the
    eigenvalues of its K.
    """
    if parts is None:
        return np.ones((gamma.size, Omega.size), dtype=bool), 0
    (r0, r_gamma, r_Omega), drift = parts
    scale = ((r0 + r_gamma * gamma[:, None]) + r_Omega * Omega).max(axis=0)
    shifted = _on_grid(drift, gamma[:, None], Omega)
    shifted /= scale[..., None, None]
    for i in range(shifted.shape[-1]):
        shifted[..., i, i] += STABILITY_TOL / 2
    stable, margin = hurwitz_test(shifted)
    uncertain = ~(margin >= STABILITY_MARGIN)
    if uncertain.any():
        i_gamma, j_Omega = np.nonzero(uncertain)
        drifts = _on_grid(drift, gamma[i_gamma], Omega[j_Omega])
        rate = np.linalg.eigvals(drifts).real.max(axis=-1)
        stable[uncertain] = 2.0 * rate < -STABILITY_TOL * scale[uncertain]
    return stable, int(uncertain.sum())


def _row_blocks(spec: GridSpec):
    """Slices of the gamma rows, each of about _BLOCK_CELLS cells (one row at least)."""
    step = max(1, _BLOCK_CELLS // spec.Omega_values.size)
    return [slice(start, start + step) for start in range(0, spec.gamma_values.size, step)]


def _blocks(spec: GridSpec):
    """Evaluate and classify the grid one block of gamma rows at a time.

    Yields ``(rows, energies, flag_codes, winner_codes, n_fallback)`` per
    block of :func:`_row_blocks`: the energies and flag codes by protocol of
    the spec, shape ``(rows, n_Omega)``, and the block's winner codes and
    count of ``eigvals`` fallbacks (see :class:`PhaseGridResult`).
    """
    parts = {kind: _stability_parts(kind, spec) for kind in spec.protocols}
    Omega = spec.Omega_values
    for rows in _row_blocks(spec):
        gamma = spec.gamma_values[rows]
        shape = (gamma.size, Omega.size)
        energies, codes, n_fallback = {}, {}, 0
        for kind in spec.protocols:
            stable, n = _stability(parts[kind], gamma, Omega)
            res = _ENERGY_FN[kind](spec.lam, gamma[:, None], Omega, spec.omega)
            energy, physical = (np.broadcast_to(v, shape)  # the single stage's are (rows, 1)
                                for v in (res.energy_over_hw, res.physical))
            code = np.zeros(shape, dtype=np.uint8)  # ok, unless
            code[~physical] = 2  # unphysical, unless
            code[~stable] = 1  # unstable, unless
            code[np.isnan(energy)] = 3  # na: the closed form is NaN where not applicable
            energies[kind], codes[kind] = energy, code
            n_fallback += n
        winner = np.full(shape, len(_TIE_ORDER), dtype=np.uint8)
        best = np.full(shape, np.inf)
        for w, kind in enumerate(_TIE_ORDER):  # a tie keeps the earlier protocol
            if kind in codes:
                better = (codes[kind] == 0) & (energies[kind] < best)
                winner[better] = w
                np.copyto(best, energies[kind], where=better)
        yield rows, energies, codes, winner, n_fallback


def sweep(spec: GridSpec) -> PhaseGridResult:
    """Evaluate and classify every cell, then pick the per-cell winner.

    _CROSSCHECK_CELLS randomly sampled cells (deterministic choice) are
    re-solved through the moment systems and compared with the closed forms
    (see :func:`_crosscheck`); a mismatch raises, since it would mean the
    two implementations have diverged.  The blocks of the sweep are
    gathered into whole-grid arrays.
    """
    checked, skipped, worst = _crosscheck(spec)
    shape = (spec.gamma_values.size, spec.Omega_values.size)
    energies = {kind: np.empty(shape) for kind in spec.protocols}
    codes = {kind: np.empty(shape, dtype=np.uint8) for kind in spec.protocols}
    winner = np.empty(shape, dtype=np.uint8)
    n_fallback = 0
    for rows, block_energies, block_codes, block_winner, n in _blocks(spec):
        for kind in spec.protocols:
            energies[kind][rows] = block_energies[kind]
            codes[kind][rows] = block_codes[kind]
        winner[rows] = block_winner
        n_fallback += n
    return PhaseGridResult(spec, energies, codes, winner, checked, skipped, worst, n_fallback)


def _crosscheck(spec: GridSpec) -> Tuple[int, int, float]:
    """Spot-check the closed forms against moment-system steady states.

    _CROSSCHECK_CELLS cells are sampled (deterministic choice).  Their
    closed forms are evaluated as one array per protocol, and each cell is
    solved by ``steady_state``; a miss of _CROSSCHECK_RTOL raises unless it
    is within 1e4 cond(A) eps, the float solve's own error.  Returns the cells checked, the cells skipped and
    the worst relative residual (see :class:`PhaseGridResult`).
    """
    rng = np.random.default_rng(1234)
    ng, nO, nk = spec.gamma_values.size, spec.Omega_values.size, len(spec.protocols)
    draws = np.array([[rng.integers(ng), rng.integers(nO), rng.integers(nk)]
                      for _ in range(_CROSSCHECK_CELLS)], dtype=np.intp).reshape(-1, 3)
    i_gamma, j_Omega, which = draws.T
    closed = np.empty(len(draws))
    for n, kind in enumerate(spec.protocols):
        pick = which == n
        closed[pick] = _ENERGY_FN[kind](spec.lam, spec.gamma_values[i_gamma[pick]],
                                        spec.Omega_values[j_Omega[pick]],
                                        spec.omega).energy_over_hw
    checked, skipped, worst = 0, 0, 0.0
    for i, j, n, exact in zip(i_gamma.tolist(), j_Omega.tolist(), which.tolist(),
                              closed.tolist()):
        kind = spec.protocols[n]
        if not np.isfinite(exact):
            skipped += 1
            continue
        Om = None if kind is ProtocolKind.LOWPASS1 else spec.Omega_values[j]
        p = ProtocolParams(spec.lam, spec.omega, spec.gamma_values[i], Om, kind)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                system = build_moment_system(p)
                solved = steady_state(system).energy_over_hw
        except NumericalError:
            solved = np.nan
        if not np.isfinite(solved):
            skipped += 1
            continue
        residual = abs(solved - exact) / max(abs(exact), 1.0)
        if residual > _CROSSCHECK_RTOL:
            # the float solve is good only to about cond(A) eps, which
            # passes the tolerance on band-pass cells from cond(A) ~ 6e5;
            # the worst of 75 000 random ones missed by 295 cond(A) eps
            if residual <= 1e4 * np.finfo(float).eps * np.linalg.cond(system.A):
                skipped += 1
                continue
            raise NumericalError(
                f"closed form and moment system disagree for {kind.value} at "
                f"gamma={spec.gamma_values[i]}, Omega={spec.Omega_values[j]}: "
                f"{exact} vs {solved}")
        checked += 1
        worst = max(worst, residual)
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


def _checked_columns(columns):
    """``(columns, is_text)`` of one block of :func:`write_csv`: its float
    columns read as float64, and whether each column is text."""
    is_text = [len(c) > 0 and isinstance(c[0], str) for c in columns]
    columns = [c if t else np.asarray(c, dtype=float) for c, t in zip(columns, is_text)]
    if any(len(c) != len(columns[0]) for c in columns):
        raise ValueError("CSV columns differ in length: " + ",".join(str(len(c)) for c in columns))
    return columns, is_text


def write_csv(path, header, blocks) -> None:
    """Write ``header`` as a ``csv.writer`` row, then the rows of ``blocks``.

    ``blocks`` is an iterable of column lists, all with the same columns;
    each is taken only once the rows before it are written, so a generator
    of blocks is written as it comes.  The column types set the format: a
    column of ``str`` is written as is (its fields must need no quoting),
    any other column is read once as float64 and written as ``%.12g``.  The
    rows of a block go out ``_CSV_BLOCK_ROWS`` at a time, so the text held
    does not grow with the row count; within those rows each run of equal
    values of a float column is formatted once.  Fields are joined with
    ``,`` and rows end in ``\\r\\n``, as ``csv.writer`` writes them.
    ``path`` ``"-"`` is standard output, which stays open.

    A block whose columns differ in length raises ``ValueError`` before any
    of its rows is written; the first block is taken and checked before
    ``path`` is opened, so a bad first block leaves ``path`` untouched.
    """
    blocks = iter(blocks)
    first = [_checked_columns(columns) for columns in itertools.islice(blocks, 1)]
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", newline="")) as fh:
        csv.writer(fh).writerow(header)
        for columns, is_text in itertools.chain(first, map(_checked_columns, blocks)):
            n_rows = len(columns[0]) if columns else 0
            for start in range(0, n_rows, _CSV_BLOCK_ROWS):
                fields = np.empty((min(_CSV_BLOCK_ROWS, n_rows - start), 2 * len(columns)),
                                  dtype=object)
                fields[:, 1::2] = ","
                fields[:, -1] = "\r\n"
                for k, (column, text) in enumerate(zip(columns, is_text)):
                    part = column[start:start + len(fields)]
                    fields[:, 2 * k] = part if text else _format_runs(part)
                fh.write("".join(fields.ravel().tolist()))


def _csv_blocks(spec: GridSpec, blocks):
    """The phase CSV's columns for each ``(rows, energies, flag_codes,
    winner_codes, ...)`` block of gamma rows.

    Gamma is a float column, whose runs of n_Omega rows are formatted once
    per value, and Omega its axis formatted once and tiled.  The flags are
    one text column picked from ``_FLAG_FIELDS`` by the four 2-bit codes,
    and a protocol the spec does not request is a ``nan`` energy and ``na``.
    """
    n_Omega = spec.Omega_values.size
    Omega = np.array(["%.12g" % v for v in spec.Omega_values.tolist()], dtype=object)
    for rows, energies, codes, winner, *_ in blocks:
        gamma = spec.gamma_values[rows]
        flags = np.zeros(gamma.size * n_Omega, dtype=np.uint8)
        columns = [np.repeat(gamma, n_Omega), np.tile(Omega, gamma.size)]
        for kind in ALL_PROTOCOLS:
            flags <<= 2
            if kind in energies:
                columns.append(energies[kind].ravel())
                flags += codes[kind].ravel()
            else:
                columns.append(np.full(flags.size, np.nan))
                flags += 3  # na
        yield columns + [_WINNER_NAMES[winner.ravel()], _FLAG_FIELDS[flags]]


def write_phase_csv(spec: GridSpec, path) -> None:
    """Sweep ``spec`` and write its phase CSV one block of gamma rows at a time.

    Rows of ``CSV_HEADER`` run over Omega fastest: energies in hbar*omega to
    12 digits (``nan`` where not applicable or not requested), and flags
    joined by semicolons in the order E1;E2;E3;Ebp.  The cross-check of
    :func:`sweep` runs first, so a mismatch raises before ``path`` (``"-"``
    is standard output) is opened; then each block is written as it comes.
    """
    _crosscheck(spec)
    write_csv(path, CSV_HEADER, _csv_blocks(spec, _blocks(spec)))


def load_phase_csv(path):
    """Parse a file written by :func:`write_phase_csv`.

    Returns ``(gamma, Omega, energies, winner, flags)`` as flat per-row
    arrays/lists, in file order.  A header other than ``CSV_HEADER``, or a
    row without one field per header column, raises ``ValueError``; the
    latter names the row's line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        gamma, Omega, energies, winner, flags = [], [], [], [], []
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"line {reader.line_num}: expected {len(CSV_HEADER)} "
                                 f"fields, got {len(row)}")
            gamma.append(float(row[0]))
            Omega.append(float(row[1]))
            energies.append([float(v) for v in row[2:6]])
            winner.append(row[6])
            flags.append(tuple(row[7].split(";")))
    return (np.array(gamma), np.array(Omega), np.array(energies),
            winner, flags)
