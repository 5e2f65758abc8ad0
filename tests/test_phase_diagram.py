import contextlib
import csv
import hashlib
import io
import math
import struct
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from filtercool import phase_diagram
from filtercool.analytics import energy_1layer, energy_bandpass
from filtercool.moment_systems import (
    STABILITY_TOL,
    ProtocolKind,
    ProtocolParams,
    build_moment_system,
    filter_drift,
)
from filtercool.numerics import NumericalError, SingularMatrixError, hurwitz_test
from filtercool.phase_diagram import (
    ALL_PROTOCOLS,
    CSV_HEADER,
    FLAG_NA,
    FLAG_OK,
    FLAG_UNPHYSICAL,
    FLAG_UNSTABLE,
    STABILITY_MARGIN,
    GridSpec,
    PhaseGridResult,
    _CSV_BLOCK_ROWS,
    _FLAG_NAMES,
    _TIE_ORDER,
    _WINNER_NAMES,
    _affine_parts,
    _blocks,
    _crosscheck,
    _csv_blocks,
    _on_grid,
    _stability,
    _stability_parts,
    load_phase_csv,
    sweep,
    write_csv,
    write_phase_csv,
)

#: Floats whose bits differ while their texts agree (0.0 and -0.0, NaN
#: payloads, 0.1 + 0.2 and 0.3), extremes, and values near a 12-digit tie.
_TRICKY_FLOATS = [0.0, -0.0, math.nan,
                  struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0],
                  math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 0.3,
                  1.0000000000005, 9.9999999999995, 0.1234567890125, 999999999999.5]

_DRIFT_PROTOCOLS = (ProtocolKind.LOWPASS2, ProtocolKind.LOWPASS3, ProtocolKind.BANDPASS)
_RATE = st.floats(min_value=0.01, max_value=100.0)
_LOG_RATE = st.floats(min_value=-3.0, max_value=3.0).map(lambda x: 10.0 ** x)


def _moment_parts(kind, spec):
    """The affine parts of the hand-typed moment matrix A: the oracle the
    sweep's stability map is checked against."""
    return _affine_parts(lambda p: build_moment_system(p).A, kind, spec)


class TestGridSpec:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(np.array([]), np.array([1.0]))

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(np.array([2.0, 1.0]), np.array([1.0]))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(np.array([0.0, 1.0]), np.array([1.0]))

    def test_log_spaced(self):
        spec = GridSpec.log_spaced((0.1, 10.0), (1.0, 100.0), 5, 7)
        assert spec.gamma_values.size == 5 and spec.Omega_values.size == 7
        assert spec.gamma_values[0] == pytest.approx(0.1)
        assert spec.Omega_values[-1] == pytest.approx(100.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_axis_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(np.array([1.0, bad]), np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            GridSpec(np.array([1.0]), np.array([1.0, bad]))

    @pytest.mark.parametrize("field", ["lam", "omega"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rate_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(np.array([1.0]), np.array([1.0]), **{field: bad})

    def test_duplicate_protocols_rejected(self):
        with pytest.raises(ValueError, match="must not repeat"):
            GridSpec(np.array([1.0]), np.array([1.0]),
                     protocols=(ProtocolKind.LOWPASS2, ProtocolKind.BANDPASS,
                                ProtocolKind.LOWPASS2))

    def test_protocol_name_rejected(self):
        # a name is refused, not converted: the sweep would fail on it late
        with pytest.raises(ValueError, match="^protocols must be ProtocolKind members, "
                                             "got 'lowpass2'$"):
            GridSpec(np.array([1.0]), np.array([1.0]), protocols=("lowpass2",))

    @pytest.mark.parametrize("gamma_range, Omega_range", [
        ((-1.0, 10.0), (1.0, 10.0)),
        ((0.0, 10.0), (1.0, 10.0)),
        ((1.0, 10.0), (1.0, -10.0)),
        ((1.0, np.inf), (1.0, 10.0)),
        ((1.0, 10.0), (np.nan, 10.0)),
    ])
    def test_log_spaced_bad_range_raises_without_warning(self, gamma_range, Omega_range):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive and finite"):
                GridSpec.log_spaced(gamma_range, Omega_range, 4, 4)


class TestSweep:
    def test_winner_is_argmin_of_qualifying(self):
        spec = GridSpec.log_spaced((0.5, 20.0), (0.5, 50.0), 12, 12)
        result = sweep(spec)
        for i in range(12):
            for j in range(12):
                qualifying = [(result.energies[k][i, j], k.n_layers, n, k)
                              for n, k in enumerate(ALL_PROTOCOLS)
                              if result.flags[k][i, j] == FLAG_OK]
                if not qualifying:
                    assert result.winner[i, j] == "none"
                else:
                    assert result.winner[i, j] == min(qualifying)[3].value

    def test_single_stage_always_qualifies(self):
        # its energy is at least 1/2 everywhere and its system always decays
        spec = GridSpec.log_spaced((0.1, 100.0), (0.2, 10.0), 8, 6)
        result = sweep(spec)
        assert (result.flags[ProtocolKind.LOWPASS1] == FLAG_OK).all()
        assert (result.winner != "none").all()

    def test_none_winner_when_only_runaway_candidate(self):
        # restricted to the band-pass protocol at its runaway point
        spec = GridSpec(np.array([1.0]), np.array([2.0]),
                        protocols=(ProtocolKind.BANDPASS,))
        result = sweep(spec)
        assert result.winner[0, 0] == "none"
        assert result.flags[ProtocolKind.BANDPASS][0, 0] != FLAG_OK

    def test_zero_center_bandpass_ties_to_single_stage(self):
        # as the band-pass center goes to zero its energy merges with the
        # single stage, and the tie must go to the simpler hardware
        e_bp = energy_bandpass(1.0, 1.7, 0.0, 1.0)
        e_lp = energy_1layer(1.0, 1.7)
        assert e_bp.energy_over_hw == e_lp.energy_over_hw
        key_lp = (e_lp.energy_over_hw, ProtocolKind.LOWPASS1.n_layers, 0)
        key_bp = (e_bp.energy_over_hw, ProtocolKind.BANDPASS.n_layers, 3)
        assert key_lp < key_bp

    def test_time_rescaling_leaves_winner_map_invariant(self):
        # doubling every rate leaves the dimensionless energies bit-identical
        base = GridSpec.log_spaced((0.3, 30.0), (0.3, 300.0), 10, 10,
                                   lam=1.0, omega=1.0)
        scaled = GridSpec(2.0 * base.gamma_values, 2.0 * base.Omega_values,
                          lam=2.0, omega=2.0)
        ra = sweep(base)
        rb = sweep(scaled)
        for kind in ALL_PROTOCOLS:
            ea, eb = ra.energies[kind], rb.energies[kind]
            both_nan = np.isnan(ea) & np.isnan(eb)
            assert np.array_equal(ea[~both_nan], eb[~both_nan])
        assert (ra.winner == rb.winner).all()

    def test_threshold_location_stable_under_refinement(self):
        # the LP1 -> LP2 switch in the fast-late-stage row must move by less
        # than one coarse cell when the gamma resolution doubles
        def switch_gamma(n):
            spec = GridSpec(np.geomspace(2.0, 4.0, n), np.array([1e4]))
            res = sweep(spec)
            col = [res.winner[i, 0] for i in range(n)]
            idx = next(i for i, w in enumerate(col) if w != "lowpass1")
            return spec.gamma_values[idx]

        coarse_cells = np.geomspace(2.0, 4.0, 40)
        cell_ratio = coarse_cells[1] / coarse_cells[0]
        a, b = switch_gamma(40), switch_gamma(80)
        assert abs(np.log(b / a)) < np.log(cell_ratio)


class TestArrayAssembly:
    @pytest.mark.parametrize("kind", [ProtocolKind.LOWPASS2, ProtocolKind.LOWPASS3,
                                      ProtocolKind.BANDPASS])
    def test_assembled_matrices_equal_per_cell_builds(self, kind):
        spec = GridSpec.log_spaced(n_gamma=23, n_Omega=19, lam=0.37, omega=2.9)
        mats = _on_grid(_moment_parts(kind, spec), spec.gamma_values[:, None], spec.Omega_values)
        for i, g in enumerate(spec.gamma_values):
            for j, Om in enumerate(spec.Omega_values):
                p = ProtocolParams(spec.lam, spec.omega, g, Om, kind)
                assert np.array_equal(mats[i, j], build_moment_system(p).A)

    @pytest.mark.parametrize("kind", _DRIFT_PROTOCOLS)
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(lam=_LOG_RATE, omega=_LOG_RATE, gamma=_LOG_RATE, Omega=_LOG_RATE)
    def test_row_planes_give_the_inf_norm(self, kind, lam, omega, gamma, Omega):
        # the stability scale's row planes are exact only while no entry of
        # A mixes signs over its affine parts; a protocol whose A does must
        # fail here rather than get a bound in place of ||A||_inf
        spec = GridSpec([gamma], [Omega], lam, omega)
        parts = np.array(_moment_parts(kind, spec))
        assert not ((parts > 0).any(axis=0) & (parts < 0).any(axis=0)).any()
        (r0, r_gamma, r_Omega), _ = _stability_parts(kind, spec)
        scale = ((r0 + r_gamma * gamma) + r_Omega * Omega).max()
        a = build_moment_system(ProtocolParams(lam, omega, gamma, Omega, kind)).A
        norm = np.linalg.norm(a, np.inf)
        assert abs(scale - norm) <= 4 * np.finfo(float).eps * norm

    def test_three_builds_per_protocol(self, monkeypatch):
        calls = []

        def counting_build(p):
            calls.append(p.kind)
            return build_moment_system(p)

        monkeypatch.setattr(phase_diagram, "build_moment_system", counting_build)
        for _ in _blocks(GridSpec.log_spaced(n_gamma=17, n_Omega=13)):
            pass
        assert Counter(calls) == {ProtocolKind.LOWPASS2: 3, ProtocolKind.LOWPASS3: 3,
                                  ProtocolKind.BANDPASS: 3}


class TestDriftStability:
    @pytest.mark.parametrize("kind", _DRIFT_PROTOCOLS)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(lam=_RATE, omega=_RATE, gamma=_RATE, Omega=_RATE)
    @example(lam=1.0, omega=1.0, gamma=1.0, Omega=2.0)   # band-pass runaway point
    @example(lam=1.0, omega=1.0, gamma=0.1, Omega=1.0)   # unstable band-pass transient
    @example(lam=1.0, omega=5.0, gamma=20.0, Omega=0.5)  # unstable three-stage cascade
    def test_moment_spectrum_is_pair_sums_of_drift(self, kind, lam, omega, gamma, Omega):
        # eig(A) = {lambda_i(K) + conj lambda_j(K)} as multisets, stable or not
        p = ProtocolParams(lam, omega, gamma, Omega, kind)
        a = build_moment_system(p).A
        lk = np.linalg.eigvals(filter_drift(p))
        pair_sums = (lk[:, None] + lk.conj()[None, :]).ravel()
        eig = np.linalg.eigvals(a)
        assert pair_sums.size == eig.size
        dist = np.abs(eig[:, None] - pair_sums[None, :])
        rows, cols = linear_sum_assignment(dist)
        # a defective pair of K eigenvalues moves those of A by ~sqrt(eps)
        assert dist[rows, cols].max() <= 1e-6 * np.linalg.norm(a, np.inf)

    def test_examples_include_unstable_systems(self):
        for p in (ProtocolParams(1.0, 1.0, 1.0, 2.0, ProtocolKind.BANDPASS),
                  ProtocolParams(1.0, 1.0, 0.1, 1.0, ProtocolKind.BANDPASS),
                  ProtocolParams(1.0, 5.0, 20.0, 0.5, ProtocolKind.LOWPASS3)):
            assert np.linalg.eigvals(build_moment_system(p).A).real.max() > 0

    @pytest.mark.parametrize("spec", [
        GridSpec.log_spaced(n_gamma=30, n_Omega=30),
        GridSpec.log_spaced(n_gamma=100, n_Omega=100),
        GridSpec.log_spaced(),
        GridSpec.log_spaced(n_gamma=60, n_Omega=70, lam=0.37, omega=2.9),
    ], ids=["30x30", "100x100", "200x200", "lam0.37-omega2.9"])
    def test_map_equals_moment_matrix_eigenvalues(self, spec):
        n_unstable = 0
        for kind in _DRIFT_PROTOCOLS:
            mats = _on_grid(_moment_parts(kind, spec), spec.gamma_values[:, None],
                            spec.Omega_values)
            scale = np.abs(mats).sum(axis=-1).max(axis=-1)
            direct = np.linalg.eigvals(mats).real.max(axis=-1) < -STABILITY_TOL * scale
            stable = _stability(_stability_parts(kind, spec), spec.gamma_values,
                                spec.Omega_values)[0]
            assert np.array_equal(stable, direct), kind
            n_unstable += (~direct).sum()
        assert n_unstable > 0  # the grid crosses a stability boundary

    def test_map_memory_bounded(self):
        # a (cells, 9, 9) batch plus its |A| copy would take 5 MB in one
        # 40-row block here, and 15 MB over the whole grid
        spec = GridSpec.log_spaced(n_gamma=100, n_Omega=100, protocols=(ProtocolKind.LOWPASS3,))
        tracemalloc.start()
        try:
            for _ in _blocks(spec):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


def _cell_decisions(kind, lam, omega, gamma, Omega):
    """(polynomial decision, margin, eigvals-of-K decision) of one cell."""
    p = ProtocolParams(lam, omega, gamma, Omega, kind)
    k = filter_drift(p)
    norm = np.linalg.norm(build_moment_system(p).A, np.inf)
    shifted = k / norm + STABILITY_TOL / 2 * np.eye(k.shape[0])
    stable, margin = hurwitz_test(shifted)
    direct = 2.0 * np.linalg.eigvals(k).real.max() < -STABILITY_TOL * norm
    return bool(stable), float(margin), bool(direct)


class TestPolynomialStability:
    @pytest.mark.parametrize("kind", _DRIFT_PROTOCOLS)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(lam=_LOG_RATE, omega=_LOG_RATE, gamma=_LOG_RATE, Omega=_LOG_RATE)
    @example(lam=1.0, omega=1.0, gamma=1.0, Omega=2.0)   # band-pass runaway point
    @example(lam=1.0, omega=1.0, gamma=0.1, Omega=1.0)   # unstable band-pass transient
    @example(lam=1.0, omega=5.0, gamma=20.0, Omega=0.5)  # unstable three-stage cascade
    # on and beside the band-pass resonance 4 gamma^2 + omega^2 = 4 Omega^2
    @example(lam=1.0, omega=2.0, gamma=1.0, Omega=math.sqrt(2.0))
    @example(lam=0.3, omega=1.0, gamma=0.3, Omega=math.sqrt(0.34) * (1 + 1e-9))
    @example(lam=2.0, omega=3.0, gamma=0.01, Omega=math.sqrt(2.2501) * (1 - 1e-6))
    @example(lam=1.0, omega=1e3, gamma=1e-3, Omega=500.000001)
    def test_certified_decision_equals_drift_eigenvalues(self, kind, lam, omega, gamma, Omega):
        stable, margin, direct = _cell_decisions(kind, lam, omega, gamma, Omega)
        if margin >= STABILITY_MARGIN:
            assert stable == direct

    def test_examples_are_mostly_certified(self):
        # the property above must not hold only because nothing is certified
        rng = np.random.default_rng(7)
        for kind in _DRIFT_PROTOCOLS:
            draws = 10.0 ** rng.uniform(-3.0, 3.0, size=(200, 4))
            certified = [_cell_decisions(kind, *d)[1] >= STABILITY_MARGIN for d in draws]
            assert np.mean(certified) > 0.5, kind

    def test_forced_fallback_leaves_flags_unchanged(self, monkeypatch):
        spec = GridSpec.log_spaced(n_gamma=40, n_Omega=50)
        base = sweep(spec)
        monkeypatch.setattr(phase_diagram, "STABILITY_MARGIN", np.inf)
        forced = sweep(spec)
        assert forced.stability_fallback_cells == len(_DRIFT_PROTOCOLS) * 40 * 50
        assert base.stability_fallback_cells < forced.stability_fallback_cells
        for kind in ALL_PROTOCOLS:
            assert np.array_equal(forced.flags[kind], base.flags[kind]), kind

    def test_fallback_is_a_small_share(self):
        # only cells within about 1e-8 ||A||_inf of the threshold fall back:
        # a few percent of the band-pass cells and none elsewhere
        result = sweep(GridSpec.log_spaced(n_gamma=100, n_Omega=100))
        assert 0 < result.stability_fallback_cells < 0.02 * len(_DRIFT_PROTOCOLS) * 100 * 100

    def test_blocks_do_not_change_the_map(self, monkeypatch):
        spec = GridSpec.log_spaced(n_gamma=23, n_Omega=31, lam=0.37, omega=2.9)
        whole = sweep(spec)
        monkeypatch.setattr(phase_diagram, "_BLOCK_CELLS", 70)  # two rows, then one
        blocked = sweep(spec)
        assert blocked.stability_fallback_cells == whole.stability_fallback_cells
        assert np.array_equal(blocked.winner_codes, whole.winner_codes)
        for kind in ALL_PROTOCOLS:
            assert np.array_equal(blocked.energies[kind], whole.energies[kind], equal_nan=True)
            assert np.array_equal(blocked.flag_codes[kind], whole.flag_codes[kind]), kind

    def test_rounding_bound_certifies_wide_scales(self):
        # rates over twelve decades: here the polynomial's rounding errors
        # exceed STABILITY_MARGIN, and only the running error bound keeps
        # every cell with a positive margin on the side eigvals finds
        rng = np.random.default_rng(11)
        checked = 0
        for kind in _DRIFT_PROTOCOLS:
            for d in 10.0 ** rng.uniform(-6.0, 6.0, size=(700, 4)):
                stable, margin, direct = _cell_decisions(kind, *d)
                if margin > 0:
                    assert stable == direct, (kind, d)
                    checked += 1
        assert checked > 1500

    def test_eigvals_only_for_fallback_cells(self, monkeypatch):
        seen = []
        real = np.linalg.eigvals

        def counting(a):
            seen.append(a.shape[0])
            return real(a)

        monkeypatch.setattr(phase_diagram.np.linalg, "eigvals", counting)
        n_fallback = sum(block[-1] for block in _blocks(GridSpec.log_spaced(n_gamma=30,
                                                                            n_Omega=30)))
        assert sum(seen) == n_fallback


class TestCrosscheckCounts:
    def test_counts_and_residual(self):
        result = sweep(GridSpec.log_spaced(n_gamma=30, n_Omega=30))
        assert result.crosscheck_cells + result.crosscheck_skipped == 50
        assert result.crosscheck_cells > 0
        assert 0.0 <= result.crosscheck_max_residual <= phase_diagram._CROSSCHECK_RTOL

    def test_non_finite_closed_form_skipped(self, monkeypatch):
        # band-pass alone on its resonance 4 gamma^2 + omega^2 = 4 Omega^2,
        # where the closed form is not finite
        spec = GridSpec(np.array([1.0]), np.array([np.sqrt(2.0)]), omega=2.0,
                        protocols=(ProtocolKind.BANDPASS,))
        assert not np.isfinite(sweep(spec).energies[ProtocolKind.BANDPASS]).all()
        monkeypatch.setattr(phase_diagram, "_CROSSCHECK_CELLS", 7)
        assert _crosscheck(spec) == (0, 7, 0.0)

    def test_singular_cells_skipped(self, monkeypatch):
        def singular(system):
            raise SingularMatrixError("singular")

        monkeypatch.setattr(phase_diagram, "steady_state", singular)
        monkeypatch.setattr(phase_diagram, "_CROSSCHECK_CELLS", 9)
        assert _crosscheck(GridSpec.log_spaced(n_gamma=5, n_Omega=5))[:2] == (0, 9)

    def test_mismatch_raises(self, monkeypatch):
        real = phase_diagram.steady_state

        def shifted(system):
            ss = real(system)
            ss.energy_over_hw += 1e-6
            return ss

        monkeypatch.setattr(phase_diagram, "steady_state", shifted)
        with pytest.raises(NumericalError, match="disagree"):
            sweep(GridSpec.log_spaced(n_gamma=5, n_Omega=5))

    def test_overflowing_axes_raise_nothing(self):
        # closed forms and cross-check cells that overflow float64 come back
        # na or skipped, with no warning or exception escaping the sweep
        spec = GridSpec.log_spaced((0.1, 1e300), (0.1, 1e300), 20, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sweep(spec)
        assert result.crosscheck_cells + result.crosscheck_skipped == 50
        assert result.crosscheck_skipped > 0
        assert (result.flags[ProtocolKind.LOWPASS3] == FLAG_NA).any()

    def test_no_crosscheck(self, monkeypatch):
        monkeypatch.setattr(phase_diagram, "_CROSSCHECK_CELLS", 0)
        assert _crosscheck(GridSpec.log_spaced(n_gamma=5, n_Omega=5)) == (0, 0, 0.0)

    @pytest.mark.parametrize("lam, omega, gamma, Omega, cond", [
        (1.0, 1.0, 3.956231872544294, 1e4, 5.7e11),
        (0.1, 2.0, 797.0, 1150.0, 8.3e6),
    ], ids=["cond-5.7e11", "cond-8.3e6"])
    def test_ill_conditioned_miss_skipped(self, monkeypatch, lam, omega, gamma, Omega, cond):
        # band-pass cells whose float moment solve misses the closed form by
        # more than 1e-9 relative, but within a few cond(A) eps: against a
        # 60-digit closed form at the same inputs the solve is 5.5e-9 and
        # 8.9e-9 off, the float closed form 1.4e-15 and 3.6e-9.  The cell is
        # skipped, not failed
        p = ProtocolParams(lam, omega, gamma, Omega, ProtocolKind.BANDPASS)
        system = build_moment_system(p)
        assert np.linalg.cond(system.A) == pytest.approx(cond, rel=0.01)
        exact = energy_bandpass(lam, gamma, Omega, omega).energy_over_hw
        solved = phase_diagram.steady_state(system).energy_over_hw
        assert abs(solved - exact) > phase_diagram._CROSSCHECK_RTOL * abs(exact)
        spec = GridSpec([gamma], [Omega], lam=lam, omega=omega,
                        protocols=(ProtocolKind.BANDPASS,))
        monkeypatch.setattr(phase_diagram, "_CROSSCHECK_CELLS", 3)
        assert _crosscheck(spec) == (0, 3, 0.0)

    @pytest.mark.parametrize("lam, omega, gamma, Omega", [
        (1.0, 1.0, 3.956231872544294, 1e4),
        (0.1, 2.0, 797.0, 1150.0),
    ], ids=["cond-5.7e11", "cond-8.3e6"])
    def test_skip_is_bounded_by_the_solve_error(self, monkeypatch, lam, omega, gamma, Omega):
        # on the same ill-conditioned cells, a miss of half of 1e4 cond(A) eps
        # is skipped and one of twice that fails
        p = ProtocolParams(lam, omega, gamma, Omega, ProtocolKind.BANDPASS)
        bound = 1e4 * np.finfo(float).eps * np.linalg.cond(build_moment_system(p).A)
        exact = energy_bandpass(lam, gamma, Omega, omega).energy_over_hw
        assert abs(exact) > 1.0
        real = phase_diagram.steady_state
        spec = GridSpec([gamma], [Omega], lam=lam, omega=omega,
                        protocols=(ProtocolKind.BANDPASS,))
        monkeypatch.setattr(phase_diagram, "_CROSSCHECK_CELLS", 3)
        for factor, raises in ((0.5, False), (2.0, True)):
            def missed(system):
                ss = real(system)
                ss.energy_over_hw = exact * (1.0 + factor * bound)
                return ss

            monkeypatch.setattr(phase_diagram, "steady_state", missed)
            if raises:
                with pytest.raises(NumericalError, match="disagree for bandpass"):
                    _crosscheck(spec)
            else:
                assert _crosscheck(spec) == (0, 3, 0.0)


class TestCsv:
    @pytest.mark.parametrize("text", [
        "", "gamma,Omega,E1,E2,E3,Ebp,winner\r\n", "gamma,Omega,E1,E2,E3,Ebp,flags,winner\r\n",
    ], ids=["empty", "short", "reordered"])
    def test_load_rejects_a_bad_header(self, tmp_path, text):
        path = tmp_path / "grid.csv"
        path.write_text(text, newline="")
        with pytest.raises(ValueError, match="^unexpected header "):
            load_phase_csv(path)

    @pytest.mark.parametrize("row, fields", [("1,2,3", 3), ("", 0)], ids=["short", "blank"])
    def test_load_rejects_a_short_row_naming_its_line(self, tmp_path, row, fields):
        # a good header and first row, then a row without eight fields
        header = ",".join(CSV_HEADER)
        good = "1,2,0.5,0.5,0.5,0.5,lowpass1,ok;ok;ok;ok"
        path = tmp_path / "grid.csv"
        path.write_text(f"{header}\r\n{good}\r\n{row}\r\n", newline="")
        with pytest.raises(ValueError, match=f"^line 3: expected 8 fields, got {fields}$"):
            load_phase_csv(path)

    def test_single_cell_round_trip(self, tmp_path):
        spec = GridSpec(np.array([2.0]), np.array([3.0]))
        result = sweep(spec)
        path = tmp_path / "grid.csv"
        write_phase_csv(spec, path)
        gamma, Omega, energies, winner, flags = load_phase_csv(path)
        assert gamma[0] == 2.0 and Omega[0] == 3.0
        for col, kind in enumerate(ALL_PROTOCOLS):
            expect = result.energies[kind][0, 0]
            assert energies[0, col] == pytest.approx(expect, rel=1e-11)
        assert winner[0] == result.winner[0, 0]
        assert flags[0] == tuple(result.flags[k][0, 0] for k in ALL_PROTOCOLS)

    @pytest.mark.parametrize("kind", ALL_PROTOCOLS, ids=[k.value for k in ALL_PROTOCOLS])
    def test_one_protocol_file_matches_its_sweep(self, tmp_path, kind):
        # the columns of protocols not requested are nan and na; the
        # requested one holds the sweep's energies, flags and winner
        spec = GridSpec.log_spaced((0.3, 30.0), (0.4, 40.0), 7, 6, protocols=(kind,))
        result = sweep(spec)
        path = tmp_path / "grid.csv"
        write_phase_csv(spec, path)
        _, _, energies, winner, flags = load_phase_csv(path)
        for col, other in enumerate(ALL_PROTOCOLS):
            if other is kind:
                want = [float("%.12g" % e) for e in result.energies[kind].ravel()]
                assert np.array_equal(energies[:, col], want, equal_nan=True)
                assert [f[col] for f in flags] == list(result.flags[kind].ravel())
            else:
                assert np.isnan(energies[:, col]).all()
                assert {f[col] for f in flags} == {FLAG_NA}
        assert winner == list(result.winner.ravel())
        assert set(winner) <= {kind.value, "none"}

    @pytest.mark.parametrize("to", ["file", "stdout"])
    def test_crosscheck_mismatch_writes_nothing(self, tmp_path, monkeypatch, capsys, to):
        real = phase_diagram.steady_state

        def shifted(system):
            ss = real(system)
            ss.energy_over_hw += 1e-6
            return ss

        monkeypatch.setattr(phase_diagram, "steady_state", shifted)
        path = tmp_path / "grid.csv"
        with pytest.raises(NumericalError, match="disagree"):
            write_phase_csv(GridSpec.log_spaced(n_gamma=5, n_Omega=5),
                            path if to == "file" else "-")
        assert not path.exists()
        assert capsys.readouterr().out == ""

    def test_code_tables(self):
        # the code order the CSV and the flags/winner views read
        assert list(_FLAG_NAMES) == [FLAG_OK, FLAG_UNSTABLE, FLAG_UNPHYSICAL, FLAG_NA]
        assert list(_WINNER_NAMES) == ["lowpass1", "lowpass2", "bandpass", "lowpass3", "none"]

    def test_header_exact(self, tmp_path):
        spec = GridSpec(np.array([1.0]), np.array([1.0]))
        path = tmp_path / "grid.csv"
        write_phase_csv(spec, path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER)

    def test_winner_column_matches_recomputed_argmin(self, tmp_path):
        spec = GridSpec.log_spaced((0.5, 10.0), (0.5, 10.0), 6, 5)
        path = tmp_path / "grid.csv"
        write_phase_csv(spec, path)
        _, _, energies, winner, flags = load_phase_csv(path)
        for row in range(energies.shape[0]):
            qualifying = [(energies[row, col], k.n_layers, col, k)
                          for col, k in enumerate(ALL_PROTOCOLS)
                          if flags[row][col] == FLAG_OK]
            expected = min(qualifying)[3].value if qualifying else "none"
            assert winner[row] == expected

    def test_digest_pinned(self, tmp_path):
        # 30 x 30 over the default ranges with all four protocols; pins every
        # printed digit, flag and winner of the export byte for byte
        path = tmp_path / "grid.csv"
        write_phase_csv(GridSpec.log_spaced(n_gamma=30, n_Omega=30), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "c5a7f0cadb9745de0f6ffd69942e78e1e5e40c92a84153d399ac5617053f13e6"

    def test_default_grid_digest_pinned(self, tmp_path):
        # the default 200 x 200 grid, as csv.writer wrote it from fields
        # formatted one at a time
        path = tmp_path / "grid.csv"
        write_phase_csv(GridSpec.log_spaced(), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "162403b11e2368f87dc76aeba3967b74a05d197379ad52d2c12591dc63638f07"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_export_load_round_trip(self, tmp_path_factory, data):
        axis = st.floats(min_value=1e-6, max_value=1e6)
        gamma = sorted(data.draw(st.lists(axis, min_size=1, max_size=4, unique=True)))
        Omega = sorted(data.draw(st.lists(axis, min_size=1, max_size=4, unique=True)))
        kinds = tuple(data.draw(st.lists(st.sampled_from(ALL_PROTOCOLS), min_size=1,
                                         max_size=4, unique=True)))
        spec = GridSpec(np.array(gamma), np.array(Omega), protocols=kinds)
        shape = (len(gamma), len(Omega))
        cells = shape[0] * shape[1]
        energies = {k: np.array(data.draw(st.lists(st.floats(), min_size=cells,
                                                   max_size=cells))).reshape(shape)
                    for k in kinds}
        codes = {k: np.array(data.draw(st.lists(st.integers(0, 3), min_size=cells,
                                                max_size=cells)), dtype=np.uint8).reshape(shape)
                 for k in kinds}
        winner_codes = np.array(data.draw(st.lists(
            st.sampled_from([_TIE_ORDER.index(k) for k in kinds] + [len(_TIE_ORDER)]),
            min_size=cells, max_size=cells)), dtype=np.uint8).reshape(shape)
        result = PhaseGridResult(spec, energies, codes, winner_codes)
        flags, winner = result.flags, result.winner
        assert set(np.unique(winner)) <= {k.value for k in kinds} | {"none"}

        path = tmp_path_factory.mktemp("round_trip") / "grid.csv"
        write_csv(path, CSV_HEADER,
                  _csv_blocks(spec, [(slice(None), energies, codes, winner_codes)]))
        g, O, e, w, f = load_phase_csv(path)

        def printed(x):  # what the 12-digit export keeps of each value
            return np.array([float(f"{v:.12g}") for v in np.ravel(x)])

        assert np.array_equal(g, printed(np.repeat(gamma, shape[1])))
        assert np.array_equal(O, printed(np.tile(Omega, shape[0])))
        for col, kind in enumerate(ALL_PROTOCOLS):
            if kind in kinds:
                expect = printed(energies[kind])
                expect_flags = list(flags[kind].ravel())
            else:
                expect = np.full(cells, np.nan)
                expect_flags = [FLAG_NA] * cells
            assert np.array_equal(e[:, col], expect, equal_nan=True), kind
            assert np.array_equal(np.isnan(e[:, col]), np.isnan(expect)), kind
            assert [row[col] for row in f] == expect_flags, kind
        assert w == list(winner.ravel())

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_write_csv_matches_csv_writer(self, tmp_path_factory, data):
        # the reference: csv.writer over fields formatted one at a time; the
        # float columns are runs of values whose bits or 12-digit texts are
        # easy to confuse, over row counts of 0 to 2 and within 2 of one and
        # two blocks, so runs cross block boundaries.  The rows reach the
        # writer as a generator of up to four blocks cut at random rows, some
        # of them empty.  Small blocks keep a failure quick to shrink; the
        # memory test and the 200 x 200 digest run the module's own block size.
        block = data.draw(st.sampled_from([1, 5, 64]), label="block")
        n_rows = max(0, data.draw(st.sampled_from([0, block, 2 * block]), label="rows near")
                     + data.draw(st.integers(-2, 2), label="offset"))
        value = st.sampled_from(_TRICKY_FLOATS) | st.floats()

        def runs(values):  # values[k] repeated over the k-th of len(values) runs
            cuts = sorted(data.draw(st.lists(st.integers(0, n_rows), min_size=len(values) - 1,
                                             max_size=len(values) - 1)))
            return np.repeat(np.array(values), np.diff([0, *cuts, n_rows]))

        columns = []
        for k in range(data.draw(st.integers(1, 3), label="float columns")):
            # the first column keeps the neighbours of _TRICKY_FLOATS adjacent
            column = runs(_TRICKY_FLOATS if k == 0 else
                          data.draw(st.lists(value, min_size=1, max_size=8)))
            columns.append(column.tolist() if data.draw(st.booleans()) else column)
        words = data.draw(st.lists(st.text("abz;_-0.9", min_size=1), min_size=1, max_size=4))
        columns.insert(data.draw(st.integers(0, len(columns))),
                       np.resize(np.array(words, dtype=object), n_rows))
        header = [f"c{k}" for k in range(len(columns))]

        cuts = sorted(data.draw(st.lists(st.integers(0, n_rows), max_size=3), label="cuts"))
        blocks = [[c[a:b] for c in columns] for a, b in zip([0, *cuts], [*cuts, n_rows])]

        ref = io.StringIO()
        writer = csv.writer(ref)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([x if isinstance(x, str) else f"{float(x):.12g}" for x in row])
        with mock.patch.object(phase_diagram, "_CSV_BLOCK_ROWS", block):
            if data.draw(st.booleans(), label="stdout"):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    write_csv("-", header, iter(blocks))
                written = out.getvalue()
            else:
                path = tmp_path_factory.mktemp("write_csv") / "out.csv"
                write_csv(path, header, iter(blocks))
                with open(path, newline="") as fh:
                    written = fh.read()
        assert written == ref.getvalue()

    def test_columns_of_different_lengths_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="differ in length: 2,1"):
            write_csv(path, ["a", "b"], [[[1.0, 2.0], ["x"]]])
        assert not path.exists()  # a bad first block opens nothing
        with pytest.raises(ValueError, match="differ in length: 1,2"):
            write_csv(path, ["a", "b"], [[[1.0], ["x"]], [[3.0], ["y", "z"]]])
        assert path.read_bytes() == b"a,b\r\n1,x\r\n"  # no row of the bad block

    def test_write_csv_memory_is_bounded_by_a_block(self, tmp_path):
        # one block of text is held at a time: ten blocks of rows peak within
        # 1.5x of what one block does (the columns themselves are not counted)
        rng = np.random.default_rng(0)

        def peak(n_rows):
            columns = [rng.standard_normal(n_rows) for _ in range(3)]
            columns.append(np.full(n_rows, "ok;na;unstable;unphysical", dtype=object))
            tracemalloc.start()
            try:
                write_csv(tmp_path / "out.csv", ["a", "b", "c", "flags"], [columns])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(_CSV_BLOCK_ROWS)
        assert peak(10 * _CSV_BLOCK_ROWS) < 1.5 * one
