import hashlib
from collections import Counter

import numpy as np
import pytest

from filtercool import phase_diagram
from filtercool.analytics import energy_1layer, energy_bandpass
from filtercool.moment_systems import ProtocolKind, ProtocolParams, build_moment_system
from filtercool.phase_diagram import (
    ALL_PROTOCOLS,
    CSV_HEADER,
    FLAG_OK,
    GridSpec,
    _moment_matrices,
    export_phase_csv,
    load_phase_csv,
    sweep,
)


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


class TestSweep:
    def test_winner_is_argmin_of_qualifying(self):
        spec = GridSpec.log_spaced((0.5, 20.0), (0.5, 50.0), 12, 12)
        result = sweep(spec, n_crosscheck=20)
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
        result = sweep(spec, n_crosscheck=0)
        assert (result.flags[ProtocolKind.LOWPASS1] == FLAG_OK).all()
        assert (result.winner != "none").all()

    def test_none_winner_when_only_runaway_candidate(self):
        # restricted to the band-pass protocol at its runaway point
        spec = GridSpec(np.array([1.0]), np.array([2.0]),
                        protocols=(ProtocolKind.BANDPASS,))
        result = sweep(spec, n_crosscheck=0)
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
        ra = sweep(base, n_crosscheck=0)
        rb = sweep(scaled, n_crosscheck=0)
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
            res = sweep(spec, n_crosscheck=0)
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
        mats = _moment_matrices(kind, spec)
        for i, g in enumerate(spec.gamma_values):
            for j, Om in enumerate(spec.Omega_values):
                p = ProtocolParams(spec.lam, spec.omega, g, Om, kind)
                assert np.array_equal(mats[i, j], build_moment_system(p).A)

    def test_three_builds_per_protocol(self, monkeypatch):
        calls = []

        def counting_build(p):
            calls.append(p.kind)
            return build_moment_system(p)

        monkeypatch.setattr(phase_diagram, "build_moment_system", counting_build)
        sweep(GridSpec.log_spaced(n_gamma=17, n_Omega=13), n_crosscheck=0)
        assert Counter(calls) == {ProtocolKind.LOWPASS2: 3, ProtocolKind.LOWPASS3: 3,
                                  ProtocolKind.BANDPASS: 3}


class TestCsv:
    def test_single_cell_round_trip(self, tmp_path):
        spec = GridSpec(np.array([2.0]), np.array([3.0]))
        result = sweep(spec, n_crosscheck=4)
        path = tmp_path / "grid.csv"
        export_phase_csv(result, path)
        gamma, Omega, energies, winner, flags = load_phase_csv(path)
        assert gamma[0] == 2.0 and Omega[0] == 3.0
        for col, kind in enumerate(ALL_PROTOCOLS):
            expect = result.energies[kind][0, 0]
            assert energies[0, col] == pytest.approx(expect, rel=1e-11)
        assert winner[0] == result.winner[0, 0]
        assert flags[0] == tuple(result.flags[k][0, 0] for k in ALL_PROTOCOLS)

    def test_header_exact(self, tmp_path):
        spec = GridSpec(np.array([1.0]), np.array([1.0]))
        path = tmp_path / "grid.csv"
        export_phase_csv(sweep(spec, n_crosscheck=0), path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER)

    def test_winner_column_matches_recomputed_argmin(self, tmp_path):
        spec = GridSpec.log_spaced((0.5, 10.0), (0.5, 10.0), 6, 5)
        result = sweep(spec, n_crosscheck=0)
        path = tmp_path / "grid.csv"
        export_phase_csv(result, path)
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
        export_phase_csv(sweep(GridSpec.log_spaced(n_gamma=30, n_Omega=30)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "c5a7f0cadb9745de0f6ffd69942e78e1e5e40c92a84153d399ac5617053f13e6"
