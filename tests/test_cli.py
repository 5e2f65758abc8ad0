import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtercool import cli, phase_diagram
from filtercool.cli import load_config, main
from filtercool.cli import ConfigError
from filtercool.filters import impulse_response, lowpass_cascade
from filtercool.moment_systems import (
    ProtocolKind,
    ProtocolParams,
    build_moment_system,
    steady_state,
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSteadyState:
    def test_ground_state_row(self, tmp_path):
        out = tmp_path / "ss.csv"
        code = main(["steady-state", "--protocol", "lowpass1", "--lambda", "1",
                     "--gamma", "2", "--output", str(out)])
        assert code == 0
        header, row = read_rows(out)
        assert header == ["protocol", "lambda", "omega", "gamma", "Omega",
                          "energy", "stable", "physical"]
        assert row[0] == "lowpass1"
        assert float(row[5]) == pytest.approx(0.5, abs=1e-12)
        assert row[6] == "true" and row[7] == "true"

    def test_runaway_bandpass_reports_flags(self, tmp_path):
        out = tmp_path / "ss.csv"
        code = main(["steady-state", "--protocol", "bandpass", "--lambda", "1",
                     "--gamma", "1", "--Omega", "2", "--omega", "1",
                     "--output", str(out)])
        assert code == 0
        _, row = read_rows(out)
        assert row[7] == "false"

    @pytest.mark.parametrize("args, row", [
        (["lowpass1", "--gamma", "2"], b"lowpass1,1,1,2,nan,0.5,true,true\r\n"),
        (["lowpass2", "--gamma", "2", "--Omega", "2"],
         b"lowpass2,1,1,2,2,0.78125,true,true\r\n"),
        (["bandpass", "--gamma", "1", "--Omega", "2"],
         b"bandpass,1,1,1,2,-2.92045454545,false,false\r\n"),
    ])
    def test_output_bytes_pinned(self, args, row, tmp_path):
        out = tmp_path / "ss.csv"
        assert main(["steady-state", "--lambda", "1", "--omega", "1", "--protocol",
                     *args, "--output", str(out)]) == 0
        assert out.read_bytes() == (
            b"protocol,lambda,omega,gamma,Omega,energy,stable,physical\r\n" + row)

    def test_negative_gamma_exits_2(self):
        assert main(["steady-state", "--protocol", "lowpass1", "--lambda", "1",
                     "--gamma", "-1"]) == 2

    def test_missing_omega2_exits_2(self):
        assert main(["steady-state", "--protocol", "lowpass2", "--lambda", "1",
                     "--gamma", "1"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["steady-state", "--protocol", "lowpass1", "--gamma", "1",
                     "--bogus", "3"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_twelve_digit_round_trip(self, tmp_path):
        out = tmp_path / "ss.csv"
        main(["steady-state", "--protocol", "lowpass2", "--lambda", "1",
              "--gamma", "2", "--Omega", "2", "--omega", "1",
              "--output", str(out)])
        _, row = read_rows(out)
        assert float(row[5]) == pytest.approx(0.78125, rel=1e-11)


class TestFilterResponse:
    def test_bandpass_csv(self, tmp_path):
        out = tmp_path / "fr.csv"
        code = main(["filter-response", "--filter", "bandpass", "--gamma", "1.0",
                     "--Omega", "2.0", "--t-max", "1.0", "--points", "11",
                     "--output", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["t", "h_1", "h_2"]
        assert float(rows[1][1]) == pytest.approx(1.0)  # b at t=0
        assert float(rows[1][2]) == 0.0
        assert len(rows) == 12

    def test_lowpass_needs_gammas(self):
        assert main(["filter-response", "--filter", "lowpass"]) == 2

    def test_kernel_filter(self, tmp_path):
        out = tmp_path / "fr.csv"
        code = main(["filter-response", "--filter", "kernel",
                     "--kernel-coeffs", "5.0,2.0", "--kernel-init", "1.0,-1.0",
                     "--t-max", "2.0", "--points", "5", "--output", str(out)])
        assert code == 0
        assert read_rows(out)[0] == ["t", "h_1", "h_2"]

    def test_lowpass_cascade_is_exact_on_its_grid(self, tmp_path):
        out = tmp_path / "fr.csv"
        assert main(["filter-response", "--filter", "lowpass", "--gammas", "1,2",
                     "--t-max", "3", "--points", "7", "--output", str(out)]) == 0
        header, *rows = read_rows(out)
        assert header == ["t", "h_1", "h_2"] and len(rows) == 7
        model = lowpass_cascade((1.0, 2.0))
        for row in rows:
            t, h = float(row[0]), [float(v) for v in row[1:]]
            assert np.allclose(h, impulse_response(model, t), rtol=1e-11, atol=0)


class TestEvolve:
    def test_header_and_initial_row(self, tmp_path):
        out = tmp_path / "ev.csv"
        code = main(["evolve", "--protocol", "lowpass2", "--lambda", "1",
                     "--gamma", "2", "--Omega", "2", "--omega", "1",
                     "--e0", "1.0", "--dt", "0.001", "--steps", "100",
                     "--stride", "20", "--output", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0][0] == "t" and len(rows[0]) == 5
        assert float(rows[1][1]) == 1.0  # energy starts at e0
        assert all(float(v) == 0.0 for v in rows[1][2:])
        assert len(rows) == 7

    def test_long_run_stays_bounded(self, tmp_path):
        # 1e8 steps stepped at the stride: the rows in between are never held
        out = tmp_path / "ev.csv"
        tracemalloc.start()
        try:
            code = main(["evolve", "--protocol", "lowpass2", "--gamma", "2",
                         "--Omega", "2", "--dt", "1e-3", "--steps", "100000000",
                         "--stride", "1000000", "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 10_000_000
        rows = read_rows(out)[1:]
        assert len(rows) == 101
        assert rows[-1][0] == "100000"
        ss = steady_state(build_moment_system(
            ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)))
        assert float(rows[-1][1]) == pytest.approx(ss.energy_over_hw, rel=1e-9)

    def test_unstable_system_exits_3_naming_the_time(self, capsys):
        # max Re(eigenvalue) = 0.19: the energy overflows near t = 3657
        code = main(["evolve", "--protocol", "bandpass", "--gamma", "0.1",
                     "--Omega", "1", "--dt", "0.01", "--steps", "500000",
                     "--stride", "100"])
        assert code == 3
        err = capsys.readouterr().err
        match = re.search(r"t = ([0-9.e+]+)", err)
        assert match, err
        assert 3650.0 < float(match.group(1)) < 3665.0

    def test_unstable_system_message_names_the_first_non_finite_row(self, capsys):
        # the same run: rows are 1 time unit apart, and row 3658 lies between
        # the powers of two 2048 and 4096
        code = main(["evolve", "--protocol", "bandpass", "--gamma", "0.1",
                     "--Omega", "1", "--dt", "0.01", "--steps", "500000",
                     "--stride", "100"])
        assert code == 3
        assert capsys.readouterr().err == ("filtercool: numerical failure: state became "
                                           "non-finite at step 3658 (t = 3658)\n")

    def test_bench_run_digest_pinned(self, tmp_path):
        # the benchmark's three-stage run (2001 rows), as csv.writer wrote it
        # from fields formatted one at a time
        out = tmp_path / "ev.csv"
        code = main(["evolve", "--e0", "2.0", "--protocol", "lowpass3",
                     "--lambda", "1.0", "--omega", "1.0", "--gamma", "5.0",
                     "--Omega", "20.0", "--dt", "0.001", "--steps", "80000",
                     "--stride", "40", "--output", str(out)])
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "5f5d05572a71c07b0d0f99b697503959839c836878262a5a4b61d6d4f8263e4a"


@pytest.mark.parametrize("argv, digest", [
    (["filter-response", "--filter", "lowpass", "--gammas", "1,2,3", "--t-max", "5",
      "--points", "60"], "de4329717c5e12124bf52ba00a9bb13e2fa9d85530b875f9fdc40f797df99c2c"),
    (["filter-response", "--filter", "bandpass", "--gamma", "1", "--Omega", "3",
      "--t-max", "8", "--points", "80"],
     "a9e25a0e4b76c7be3b302d9bdcb4c8a771112d963f6b31c3e7261c4f3303180f"),
    (["filter-response", "--filter", "kernel", "--kernel-coeffs", "2,3",
      "--kernel-init", "1,0", "--points", "40"],
     "5f322a7a68041b7c66112e06c45106e3390b27b50e1ba37f6922c476b37d938f"),
    (["steady-state", "--protocol", "lowpass1", "--gamma", "2"],
     "c9d3cc9d3d2eed11a73e1ae18198570b00db21386fe9d6991c725cc9f606d96f"),
    (["steady-state", "--protocol", "bandpass", "--gamma", "1", "--Omega", "2"],
     "ea0be09d133278b4d523f15baa085dbe380050a500d304754e6d6ff92e759993"),
    (["steady-state", "--protocol", "lowpass3", "--gamma", "5", "--Omega", "20",
      "--lambda", "0.5"], "b274b5098d3612e67668aa2145a1348846adfb2a0425ed8b813c61fa8f879fb8"),
    (["trajectory", "--protocol", "lowpass1", "--gamma", "2", "--dt", "0.001",
      "--steps", "60", "--ntraj", "6", "--seed", "3", "--fock", "8", "--stride", "5"],
     "0c83ed1ab0a9951369f75ae210d56289435f960b7c96be08cfab60ad2561041a"),
    (["trajectory", "--protocol", "lowpass2", "--gamma", "2", "--Omega", "2",
      "--dt", "0.001", "--steps", "40", "--ntraj", "4", "--seed", "11", "--fock", "10",
      "--stride", "4"], "5bba8ce567b7ae7a7966f8d4db4abbf250d31cb43855bdf1d5ebfbce6ddac540"),
])
def test_csv_digest_pinned(argv, digest, tmp_path):
    # small seeded runs of the other commands, as csv.writer wrote them from
    # fields formatted one at a time
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTrajectory:
    def test_schema_and_determinism(self, tmp_path):
        args = ["trajectory", "--protocol", "lowpass1", "--lambda", "1",
                "--gamma", "2", "--dt", "0.001", "--steps", "40",
                "--ntraj", "5", "--seed", "3", "--fock", "8", "--stride", "20"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_rows(out1)
        assert rows[0] == ["t", "mean_energy", "stderr_energy",
                           "mean_Dx", "var_Dx", "mean_Dp", "var_Dp"]
        assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-12)

    def test_truncation_limited_run_exits_0_with_warning(self, tmp_path):
        # five Fock states are too few: the run is flagged, not failed
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "t.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "filtercool.cli", "trajectory", "--protocol",
             "lowpass1", "--lambda", "1", "--gamma", "2", "--fock", "5",
             "--dt", "0.01", "--steps", "100", "--ntraj", "10", "--stride", "10",
             "--output", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" in proc.stderr
        assert "truncation limited" in proc.stderr
        rows = read_rows(out)
        assert rows[0][:2] == ["t", "mean_energy"] and len(rows) == 1 + 11

    def test_help_says_truncation_limited_runs_exit_0(self, capsys):
        assert main(["trajectory", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "truncation limited: it still exits 0 and writes its CSV" in text


class TestPhaseDiagram:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "phase.csv"
        code = main(["phase-diagram", "--gamma-min", "0.5", "--gamma-max", "10",
                     "--gamma-points", "4", "--Omega-min", "0.5",
                     "--Omega-max", "10", "--Omega-points", "3",
                     "--output", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["gamma", "Omega", "E1", "E2", "E3", "Ebp",
                           "winner", "flags"]
        assert len(rows) == 1 + 4 * 3

    def test_output_required(self):
        assert main(["phase-diagram", "--gamma-points", "2"]) == 2

    def test_duplicate_protocols_exit_2(self, tmp_path, capsys):
        out = tmp_path / "phase.csv"
        assert main(["phase-diagram", "--protocols", "lowpass2,lowpass2",
                     "--gamma-points", "3", "--Omega-points", "3",
                     "--output", str(out)]) == 2
        assert "must not repeat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gamma-min", "--Omega-min"])
    def test_negative_range_end_prints_only_the_error(self, flag, tmp_path):
        # numpy's log10 warning from geomspace must not reach the user
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "filtercool.cli", "phase-diagram", flag, "-1",
             "--output", str(tmp_path / "phase.csv")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("filtercool: error:"), proc.stderr
        assert "positive and finite" in lines[0]

    @pytest.mark.parametrize("axis", ["gamma", "Omega"])
    def test_reversed_range_exits_2_at_one_point(self, axis, tmp_path, capsys):
        out = tmp_path / "phase.csv"
        assert main(["phase-diagram", f"--{axis}-min", "5", f"--{axis}-max", "1",
                     f"--{axis}-points", "1", "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"filtercool: error: {axis}_range must be increasing, got 5.0 > 1.0\n")
        assert not out.exists()
        # equal ends still give the one point
        assert main(["phase-diagram", f"--{axis}-min", "5", f"--{axis}-max", "5",
                     f"--{axis}-points", "1", "--output", str(out)]) == 0

    def test_default_grid_digest_pinned(self, tmp_path):
        # the streamed command writes the bytes of the whole-grid export
        out = tmp_path / "phase.csv"
        assert main(["phase-diagram", "--output", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "162403b11e2368f87dc76aeba3967b74a05d197379ad52d2c12591dc63638f07"

    def test_partial_last_block_equals_whole_grid_export(self, tmp_path, monkeypatch):
        args = ["--gamma-min", "0.2", "--gamma-max", "50", "--gamma-points", "23",
                "--Omega-min", "0.3", "--Omega-max", "80", "--Omega-points", "31",
                "--lambda", "0.37", "--omega", "2.9"]
        whole = tmp_path / "whole.csv"
        assert main(["phase-diagram", *args, "--output", str(whole)]) == 0
        # blocks of two gamma rows and a last one of one, each written as a
        # 45-row and a 17-row piece
        with monkeypatch.context() as mp:
            mp.setattr(phase_diagram, "_BLOCK_CELLS", 70)
            mp.setattr(phase_diagram, "_CSV_BLOCK_ROWS", 45)
            streamed = tmp_path / "streamed.csv"
            assert main(["phase-diagram", *args, "--output", str(streamed)]) == 0
        assert streamed.read_bytes() == whole.read_bytes()

        # the file holds the library's sweep cell for cell, to its 12 digits
        spec = phase_diagram.GridSpec.log_spaced((0.2, 50.0), (0.3, 80.0), 23, 31, 0.37, 2.9)
        result = phase_diagram.sweep(spec)
        gamma, Omega, energies, winner, flags = phase_diagram.load_phase_csv(streamed)

        def printed(x):
            return np.array([float("%.12g" % v) for v in np.ravel(x)])

        assert np.array_equal(gamma, printed(np.repeat(spec.gamma_values, 31)))
        assert np.array_equal(Omega, printed(np.tile(spec.Omega_values, 23)))
        for col, kind in enumerate(phase_diagram.ALL_PROTOCOLS):
            assert np.array_equal(energies[:, col], printed(result.energies[kind]),
                                  equal_nan=True), kind
            assert [f[col] for f in flags] == list(result.flags[kind].ravel()), kind
        assert winner == list(result.winner.ravel())

    def test_crosscheck_mismatch_exits_3_before_the_output_is_opened(
            self, tmp_path, monkeypatch, capsys):
        real = phase_diagram.steady_state

        def shifted(system):
            ss = real(system)
            ss.energy_over_hw += 1e-6
            return ss

        monkeypatch.setattr(phase_diagram, "steady_state", shifted)
        out = tmp_path / "phase.csv"
        assert main(["phase-diagram", "--gamma-points", "5", "--Omega-points", "5",
                     "--output", str(out)]) == 3
        assert "disagree" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--Omega-max", "100000"],
        ["--gamma-min", "2", "--gamma-max", "4", "--gamma-points", "64",
         "--Omega-min", "10000", "--Omega-max", "10000", "--Omega-points", "1"],
    ], ids=["default-to-1e5", "gamma-2-4-at-1e4"])
    def test_ill_conditioned_crosscheck_cells_do_not_fail(self, args, tmp_path, capsys):
        # the cross-check samples band-pass cells whose moment solve runs at
        # cond(A) > 1e8, where the float solve misses rtol 1e-9 though the
        # closed form is right; such a cell is skipped, not a failure
        out = tmp_path / "phase.csv"
        assert main(["phase-diagram", *args, "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(read_rows(out)) > 1

    def test_streamed_memory_is_bounded_by_a_block(self, tmp_path):
        # one 40-row block of 100 cells per row, then four: the peak stays
        # within 1.5x (a sweep held whole would take four times the arrays)
        def peak(n_gamma):
            tracemalloc.start()
            try:
                assert main(["phase-diagram", "--gamma-points", str(n_gamma),
                             "--Omega-points", "100", "--output", str(tmp_path / "p.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * 40) < 1.5 * peak(40)

    @pytest.mark.slow
    def test_million_cell_grid_peaks_under_200_mb(self):
        # a fresh process: its ru_maxrss is the whole run's peak resident set
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = ("import resource, sys; from filtercool.cli import main; "
                  "code = main(['phase-diagram', '--gamma-points', '1000', "
                  "'--Omega-points', '1000', '--output', sys.argv[1]]); "
                  "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        proc = subprocess.run([sys.executable, "-c", script, os.devnull],
                              capture_output=True, text=True, env=env, timeout=300)
        code, max_rss_kb = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
        assert max_rss_kb < 200 * 1024


#: The argument lists whose output the parser of one subcommand must leave
#: as the full parser writes it: no subcommand, --help, each subcommand's
#: --help, an unknown subcommand and unknown or incomplete options.
_PARSER_ARGVS = [[], ["--help"], ["-h"], ["bogus"], ["bogus", "--x"], ["--bogus"],
                 ["evolve", "--bogus", "1"], ["phase-diagram", "--gamma-points"],
                 *([name, "--help"] for name in cli._SUBCOMMANDS)]


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
def test_parser_of_one_subcommand_prints_what_the_full_parser_does(argv, monkeypatch, capsys):
    code = main(list(argv))
    lazy = capsys.readouterr()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert main(list(argv)) == code
    assert capsys.readouterr() == lazy


def test_parser_adds_only_the_named_subcommand_arguments():
    subs = cli.build_parser("evolve")._subparsers._group_actions[0].choices
    assert list(subs) == list(cli._SUBCOMMANDS)
    sizes = {name: len(sp._actions) for name, sp in subs.items()}
    assert sizes == {name: 1 for name in cli._SUBCOMMANDS} | {"evolve": 2 + 10}


class TestConfigFile:
    def test_empty_file_plus_flags(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("")
        out = tmp_path / "ss.csv"
        code = main(["steady-state", "--config", str(cfg), "--protocol",
                     "lowpass1", "--gamma", "2", "--output", str(out)])
        assert code == 0

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": "lowpass1", "gamma": 2.0}))
        out = tmp_path / "ss.csv"
        code = main(["steady-state", "--config", str(cfg), "--gamma", "3",
                     "--output", str(out)])
        assert code == 0
        _, row = read_rows(out)
        assert float(row[3]) == 3.0

    def test_file_supplies_required_values(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": "lowpass1", "gamma": 2.0}))
        out = tmp_path / "ss.csv"
        assert main(["steady-state", "--config", str(cfg),
                     "--output", str(out)]) == 0
        _, row = read_rows(out)
        assert float(row[5]) == pytest.approx(0.5)

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gama": 2.0}))
        code = main(["steady-state", "--config", str(cfg), "--protocol",
                     "lowpass1", "--gamma", "2"])
        assert code == 2
        assert "gama" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{\n  "gamma": 2.0,\n  oops\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(str(cfg), {"gamma"})

    def test_nested_value_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": {"value": 2.0}}))
        with pytest.raises(ConfigError, match="flat"):
            load_config(str(cfg), {"gamma"})


@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_integral_int_value_exits_2_naming_the_option(source, tmp_path, capsys):
    # a flag and a file value pass through one converter and fail alike
    cfg = tmp_path / "c.json"
    cfg.write_text('{"protocol": "lowpass1", "gamma": 2.0'
                   + (', "steps": 2.7}' if source == "config" else "}"))
    argv = ["evolve", "--config", str(cfg)] + (["--steps", "2.7"] if source == "flag" else [])
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("filtercool: error: option 'steps': "), lines


def test_integral_json_number_is_an_int_value(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"protocol": "lowpass1", "gamma": 2.0, "steps": 4.0, "stride": 2}')
    out = tmp_path / "ev.csv"
    assert main(["evolve", "--config", str(cfg), "--output", str(out)]) == 0
    assert len(read_rows(out)) == 1 + 3


_SMALL_RUNS = {
    "filter-response": ["--filter", "lowpass", "--gammas", "1,2", "--points", "5"],
    "steady-state": ["--protocol", "lowpass2", "--gamma", "2", "--Omega", "2"],
    "evolve": ["--protocol", "lowpass1", "--gamma", "2", "--steps", "10", "--stride", "5"],
    "trajectory": ["--protocol", "lowpass1", "--gamma", "2", "--steps", "20",
                   "--ntraj", "3", "--fock", "6"],
    "phase-diagram": ["--gamma-points", "3", "--Omega-points", "2"],
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_output_dash_is_stdout(command, tmp_path, monkeypatch, capsys):
    # the CSV a file gets is printed, and no file named '-' appears
    monkeypatch.chdir(tmp_path)
    argv = [command, *_SMALL_RUNS[command], "--output"]
    assert main(argv + ["file.csv"]) == 0
    assert main(argv + ["-"]) == 0
    out = capsys.readouterr().out
    assert not sys.stdout.closed
    assert out.encode() == (tmp_path / "file.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.csv"]


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_numerical_failure_exits_3(self, tmp_path):
        # a divergent Monte Carlo run is a numerical failure
        out = tmp_path / "t.csv"
        code = main(["trajectory", "--protocol", "lowpass1", "--lambda", "1",
                     "--gamma", "2", "--dt", "50.0", "--steps", "400",
                     "--ntraj", "2", "--seed", "0", "--fock", "6",
                     "--stride", "400", "--output", str(out)])
        assert code == 3


@pytest.mark.parametrize("args", [
    ["phase-diagram", "--gamma-max", "inf"],
    ["filter-response", "--filter", "lowpass", "--gammas", "1", "--t-max", "nan"],
    ["filter-response", "--filter", "lowpass", "--gammas", "1,inf"],
    ["evolve", "--protocol", "lowpass1", "--gamma", "1", "--dt", "nan"],
    ["evolve", "--protocol", "lowpass1", "--gamma", "1", "--e0", "nan"],
    ["trajectory", "--protocol", "lowpass1", "--gamma", "1", "--dt", "inf"],
])
def test_non_finite_float_flag_exits_2(args, tmp_path, capsys):
    assert main(args + ["--output", str(tmp_path / "out.csv")]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"protocol": "lowpass1", "gamma": 1.0, "dt": NaN}')
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert "'dt' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["steady-state", "evolve", "trajectory"])
def test_lowpass1_rejects_Omega(command, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command, "--protocol", "lowpass1", "--gamma", "2",
                 "--Omega", "5", "--output", str(out)]) == 2
    assert "Omega does not apply" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_protocol_in_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"protocol": "lowpass9", "gamma": 1.0}')
    assert main(["steady-state", "--config", str(cfg)]) == 2
    assert "'lowpass9' is not a valid ProtocolKind" in capsys.readouterr().err


def test_config_value_outside_choices_names_key_and_choices(tmp_path, capsys):
    # a file value and a flag get the same check, in _build_filter
    cfg = tmp_path / "f.json"
    cfg.write_text('{"filter": "xyz"}')
    assert main(["filter-response", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "option 'filter': 'xyz' is not one of lowpass, bandpass, kernel" in err
    assert "kernel-coeffs" not in err


@pytest.mark.parametrize("command, values, message", [
    pytest.param("steady-state", {"protocol": "lowpass1", "gamma": True},
                 "'gamma': no option takes a boolean, got True", id="float"),
    pytest.param("evolve", {"protocol": "lowpass1", "gamma": 2.0, "steps": True},
                 "'steps': no option takes a boolean, got True", id="int"),
    pytest.param("filter-response", {"filter": "lowpass", "gammas": [1.0, True]},
                 "'gammas': no option takes a boolean, got [1.0, True]", id="list-item"),
])
def test_config_boolean_exits_2_naming_the_option(command, values, message, tmp_path, capsys):
    # float(True) is 1.0 and int(True) is 1: a boolean would run as the number 1
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(values))
    assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"filtercool: error: option {message}"]
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("output", [5, True])
def test_config_output_that_is_not_text_exits_2(output, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"protocol": "lowpass1", "gamma": 2.0, "output": output}))
    assert main(["steady-state", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("filtercool: error: option 'output': ")
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_trajectory_zero_steps_names_the_field(capsys):
    assert main(["trajectory", "--protocol", "lowpass1", "--gamma", "2",
                 "--steps", "0"]) == 2
    err = capsys.readouterr().err
    assert "n_steps must be at least 1, got 0" in err


def test_trajectory_small_fock_reports_the_oscillator_check(capsys):
    assert main(["trajectory", "--protocol", "lowpass1", "--gamma", "2",
                 "--fock", "2"]) == 2
    assert "need at least 3 basis states, got 2" in capsys.readouterr().err


def _log_rate(lo=-1.0, hi=1.0):
    return st.floats(min_value=lo, max_value=hi).map(lambda x: 10.0 ** x)


@st.composite
def _command_options(draw):
    """A subcommand and a full set of its options, keyed by flag name."""
    command = draw(st.sampled_from(["steady-state", "evolve", "phase-diagram"]))
    if command == "phase-diagram":
        g_lo, O_lo = draw(_log_rate()), draw(_log_rate())
        opts = {"gamma-min": g_lo, "gamma-max": g_lo * draw(_log_rate(0.1, 2.0)),
                "gamma-points": draw(st.integers(1, 4)),
                "Omega-min": O_lo, "Omega-max": O_lo * draw(_log_rate(0.1, 2.0)),
                "Omega-points": draw(st.integers(1, 4)),
                "lambda": draw(_log_rate()), "omega": draw(_log_rate()),
                "protocols": draw(st.lists(st.sampled_from(
                    [k.value for k in ProtocolKind]), min_size=1, max_size=4, unique=True))}
        return command, opts
    kind = draw(st.sampled_from(list(ProtocolKind)))
    opts = {"protocol": kind.value, "lambda": draw(_log_rate()),
            "omega": draw(_log_rate()), "gamma": draw(_log_rate())}
    if kind is not ProtocolKind.LOWPASS1:
        opts["Omega"] = draw(_log_rate())
    if command == "evolve":
        stride = draw(st.integers(1, 5))
        opts.update({"e0": draw(st.floats(0.5, 5.0)), "dt": draw(_log_rate(-3.0, -1.0)),
                     "steps": stride * draw(st.integers(1, 40)), "stride": stride})
    return command, opts


def _as_flags(opts):
    flags = []
    for name, value in opts.items():
        if isinstance(value, list):
            text = ",".join(value)
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        flags += [f"--{name}", text]
    return flags


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=_command_options(), split=st.lists(st.booleans(), min_size=10, max_size=10))
def test_config_file_equals_flags(tmp_path_factory, case, split):
    # the same options as flags, as a config file, and split between the two
    command, opts = case
    in_file = [dict(zip(opts, split))[name] for name in opts]
    variants = {
        "flags": ({}, opts),
        "config": (opts, {}),
        "split": ({n: v for n, v, f in zip(opts, opts.values(), in_file) if f},
                  {n: v for n, v, f in zip(opts, opts.values(), in_file) if not f}),
    }
    tmp = tmp_path_factory.mktemp("equivalence")
    outputs = {}
    for name, (file_opts, flag_opts) in variants.items():
        cfg = tmp / f"{name}.json"
        cfg.write_text(json.dumps(file_opts))
        out = tmp / f"{name}.csv"
        code = main([command, "--config", str(cfg), *_as_flags(flag_opts),
                     "--output", str(out)])
        outputs[name] = (code, out.read_bytes() if out.exists() else None)
    assert outputs["flags"][0] == 0
    assert outputs["config"] == outputs["flags"]
    assert outputs["split"] == outputs["flags"]


@pytest.mark.parametrize("args, code, message", [
    # bad input
    pytest.param(["steady-state", "--config", "{not_utf8}"], 2,
                 "filtercool: error: {not_utf8}: 'utf-8' codec can't decode", id="config-not-utf8"),
    pytest.param(["evolve", "--config", "{huge_steps}"], 2,
                 "filtercool: error: option 'steps': cannot convert float infinity to integer",
                 id="config-int-overflow"),
    pytest.param(["phase-diagram", "--protocols", "lowpass9", "--output", "{out}"], 2,
                 "filtercool: error: option 'protocols': 'lowpass9' is not a valid ProtocolKind",
                 id="unknown-protocol"),
    # a flag outside an option's values gets the same one line as a file value
    pytest.param(["steady-state", "--protocol", "lowpass9", "--gamma", "1"], 2,
                 "filtercool: error: option 'protocol': 'lowpass9' is not a valid ProtocolKind",
                 id="unknown-protocol-flag"),
    pytest.param(["filter-response", "--filter", "xyz"], 2,
                 "filtercool: error: option 'filter': 'xyz' is not one of lowpass, bandpass, "
                 "kernel", id="unknown-filter-flag"),
    pytest.param(["steady-state", "--config", "{array}"], 2,
                 "filtercool: error: {array}: expected a flat JSON object", id="config-array"),
    pytest.param(["filter-response", "--filter", "bandpass", "--gamma", "1"], 2,
                 "filtercool: error: bandpass filter needs --gamma and --Omega",
                 id="bandpass-without-Omega"),
    pytest.param(["filter-response", "--filter", "kernel", "--kernel-coeffs", "1"], 2,
                 "filtercool: error: kernel filter needs --kernel-coeffs and --kernel-init",
                 id="kernel-without-init"),
    # an option of another filter kind is refused, not ignored
    pytest.param(["filter-response", "--filter", "lowpass", "--gammas", "1", "--gamma", "5",
                  "--Omega", "3", "--kernel-coeffs", "1"], 2,
                 "filtercool: error: option 'gamma' does not apply to --filter lowpass",
                 id="lowpass-with-gamma"),
    pytest.param(["filter-response", "--filter", "bandpass", "--gamma", "1", "--Omega", "2",
                  "--gammas", "1"], 2,
                 "filtercool: error: option 'gammas' does not apply to --filter bandpass",
                 id="bandpass-with-gammas"),
    pytest.param(["filter-response", "--filter", "kernel", "--kernel-coeffs", "1",
                  "--kernel-init", "1", "--Omega", "2"], 2,
                 "filtercool: error: option 'Omega' does not apply to --filter kernel",
                 id="kernel-with-Omega"),
    pytest.param(["filter-response", "--filter", "lowpass", "--gammas", "1", "--t-max", "0"],
                 2, "filtercool: error: t-max must be positive and points at least 2",
                 id="t-max-zero"),
    pytest.param(["filter-response", "--filter", "lowpass", "--gammas", "1", "--points", "1"],
                 2, "filtercool: error: t-max must be positive and points at least 2",
                 id="one-point"),
    pytest.param(["evolve", "--protocol", "lowpass1", "--gamma", "1", "--steps", "10",
                  "--stride", "3"], 2,
                 "filtercool: error: stride must be positive and divide steps",
                 id="stride-not-dividing-steps"),
    pytest.param(["phase-diagram", "--protocols", "", "--output", "{out}"], 2,
                 "filtercool: error: need at least one protocol", id="no-protocols"),
    pytest.param(["phase-diagram", "--gamma-points", "-3", "--output", "{out}"], 2,
                 "filtercool: error: n_gamma must be at least 1, got -3",
                 id="negative-gamma-points"),
    pytest.param(["phase-diagram", "--Omega-points", "0", "--output", "{out}"], 2,
                 "filtercool: error: n_Omega must be at least 1, got 0", id="no-Omega-points"),
    # a seed outside one 64-bit Philox key word would alias one inside it
    pytest.param(["trajectory", "--protocol", "lowpass1", "--gamma", "2", "--seed", "-1"], 2,
                 "filtercool: error: base_seed must be in [0, 2**64), got -1",
                 id="seed-negative"),
    pytest.param(["trajectory", "--protocol", "lowpass1", "--gamma", "2",
                  "--seed", str(2**64)], 2,
                 f"filtercool: error: base_seed must be in [0, 2**64), got {2**64}",
                 id="seed-2**64"),
    # arrays of 7 PiB and more, beyond the address space a process gets,
    # so the allocator refuses them at once; the message names the options
    pytest.param(["trajectory", "--protocol", "lowpass1", "--gamma", "2",
                  "--steps", str(10**15), "--stride", "1"], 2,
                 "filtercool: error: --steps too large for memory: Unable to allocate ",
                 id="trajectory-too-many-steps"),
    pytest.param(["evolve", "--protocol", "lowpass1", "--gamma", "2",
                  "--steps", str(10**15), "--stride", "1"], 2,
                 "filtercool: error: --steps too large for memory: Unable to allocate ",
                 id="evolve-too-many-steps"),
    pytest.param(["filter-response", "--filter", "lowpass", "--gammas", "1",
                  "--points", str(10**15)], 2,
                 "filtercool: error: --points too large for memory: Unable to allocate ",
                 id="filter-response-too-many-points"),
    # valid input whose moment system overflows float64
    pytest.param(["steady-state", "--protocol", "lowpass1", "--gamma", "1e200"], 3,
                 "filtercool: numerical failure: lowpass1 moment system overflows at "
                 "gamma=1e+200", id="steady-state-overflow"),
    pytest.param(["evolve", "--protocol", "lowpass2", "--gamma", "1e200", "--Omega", "1"], 3,
                 "filtercool: numerical failure: lowpass2 moment system overflows at "
                 "gamma=1e+200", id="evolve-overflow"),
    pytest.param(["evolve", "--protocol", "lowpass2", "--gamma", "1e150", "--Omega", "1",
                  "--dt", "1e200", "--steps", "2"], 3,
                 "filtercool: numerical failure: state became non-finite at step 1",
                 id="evolve-step-overflow"),
    # dt and stride are each valid; only the output step dt * stride overflows
    pytest.param(["evolve", "--protocol", "lowpass1", "--gamma", "1", "--dt", "1e300",
                  "--steps", "10000000000", "--stride", "10000000000"], 3,
                 "filtercool: numerical failure: dt * stride overflows: 1e+300 * 10000000000",
                 id="evolve-stride-overflow"),
    # h(t) = exp(t) is finite at t = 500 and overflows at t = 1000
    pytest.param(["filter-response", "--filter", "kernel", "--kernel-coeffs", "-1",
                  "--kernel-init", "1", "--t-max", "1000", "--points", "3"], 3,
                 "filtercool: numerical failure: state became non-finite at step 2 (t = 1000)",
                 id="filter-response-overflow"),
    # valid grids whose cross-checked cells reach cond(A) ~ 1e8
    pytest.param(["phase-diagram", "--gamma-max", "1e10", "--gamma-points", "20",
                  "--Omega-points", "20", "--output", "{out}"], 0, None, id="grid-1e10"),
    pytest.param(["phase-diagram", "--gamma-max", "1e80", "--gamma-points", "20",
                  "--Omega-points", "20", "--output", "{out}"], 0, None, id="grid-1e80"),
])
def test_exit_code_contract(args, code, message, tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"protocol": "lowpass1", "gamma": 2.0, "note": "\xe9"}')
    huge_steps = tmp_path / "steps.json"
    huge_steps.write_text('{"protocol": "lowpass1", "gamma": 2.0, "steps": 1e400}')
    array = tmp_path / "array.json"
    array.write_text('["protocol", "lowpass1"]')
    argv = [a.format(not_utf8=not_utf8, huge_steps=huge_steps, array=array,
                     out=tmp_path / "out.csv") for a in args]
    message = message and message.format(not_utf8=not_utf8, array=array)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing but the one line reaches the user
        assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    if message is None:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith(message), lines
