import csv
import json

import pytest

from filtercool.cli import load_config, main
from filtercool.cli import ConfigError


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
