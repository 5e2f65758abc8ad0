"""Package-level checks: the README's library example and command lines,
the lazy import of ``scipy.sparse``, the modules an import leaves unloaded
and the committed benchmark records."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import filtercool

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = str(Path(filtercool.__file__).resolve().parent.parent)


def _run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_readme_library_example_runs_as_written():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    lines = _run_python(blocks[0]).splitlines()
    # the moment system and the closed form, as the comments say
    assert lines[:2] == ["0.78125", "0.78125"]
    assert len(lines) == 3 and "+-" in lines[2]


def test_readme_command_lines_run_clean(tmp_path):
    # every filtercool line of the command block, continuations joined, in a
    # scratch directory: each exits 0 and none is truncation limited
    text = README.read_text().replace("\\\n", " ")
    lines = re.findall(r"^filtercool (.*)$", text, re.M)
    assert len(lines) == 6
    env = dict(os.environ, PYTHONPATH=SRC)
    for line in lines:
        done = subprocess.run([sys.executable, "-m", "filtercool.cli", *shlex.split(line)],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, (line, done.stderr)
        assert "truncation" not in done.stderr, (line, done.stderr)


_SPARSE_PROBE = """
import os, sys
import filtercool
from filtercool.cli import main

out = sys.argv[1]
assert main(["phase-diagram", "--gamma-points", "6", "--Omega-points", "5",
             "--output", os.path.join(out, "phase.csv")]) == 0
for command in ("evolve", "steady-state"):
    assert main([command, "--protocol", "lowpass2", "--gamma", "2", "--Omega", "2",
                 "--output", os.path.join(out, command + ".csv")]) == 0
print("scipy.sparse" in sys.modules)
assert main(["trajectory", "--protocol", "lowpass2", "--gamma", "2", "--Omega", "2",
             "--fock", "6", "--steps", "20", "--ntraj", "2", "--stride", "10",
             "--output", os.path.join(out, "trajectory.csv")]) == 0
print("scipy.sparse" in sys.modules)
"""


def test_scipy_sparse_is_imported_only_by_state_vector_runs(tmp_path):
    # the import costs about 20 ms; only the state-vector Monte Carlo path
    # applies the sparse stack
    assert _run_python(_SPARSE_PROBE, str(tmp_path)).split() == ["False", "True"]


_CLASSICAL_PROBE = """
import sys
from filtercool.filters import lowpass_cascade
from filtercool.trajectory import TrajectoryConfig, frozen_signal_model, run_ensemble

run_ensemble(frozen_signal_model(lowpass_cascade((1.0,)), 1.0),
             TrajectoryConfig(dt=1e-3, n_steps=20, n_traj=2, base_seed=0))
print("scipy.sparse" in sys.modules)
"""


def test_one_dimensional_runs_do_not_import_scipy_sparse():
    # a d = 1 model runs on the classical engine, which applies no stack
    assert _run_python(_CLASSICAL_PROBE).split() == ["False"]


_IMPORT_PROBE = """
import sys
import filtercool, filtercool.cli, filtercool.trajectory

heavy = ("scipy.sparse", "scipy.signal", "scipy.stats", "scipy.optimize",
         "scipy.integrate", "numba")
print(" ".join(name for name in heavy if name in sys.modules) or "none")
"""


def test_import_loads_no_heavy_module():
    # every command pays its imports before it does any work; none of these
    # modules is needed to import the package, its CLI or the trajectories
    assert _run_python(_IMPORT_PROBE).split() == ["none"]


def test_bench_records_hold_the_claimed_medians():
    # each BENCH_<nn>.json names its claim as "<workload> <metric>, ..."; the
    # claimed workload must hold a parent and a change median of every
    # end-to-end metric, and its alternating pairs must all be counted
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        workload, metric = record["claim"].replace(",", " ").split()[:2]
        assert metric in metrics, path.name
        entry = record["workloads"][workload]
        assert entry["pairs"] == len(entry["seeds"]) >= 3, path.name
        for side in ("parent", "change"):
            for name in metrics:
                stats = entry[side][name]
                assert stats["median"] > 0 and len(stats["runs"]) == entry["pairs"], (
                    path.name, side, name)
