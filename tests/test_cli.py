import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtercool.cli import load_config, main
from filtercool.cli import ConfigError
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
            load_config(str(cfg))

    def test_nested_value_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": {"value": 2.0}}))
        with pytest.raises(ConfigError, match="flat"):
            load_config(str(cfg))


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
