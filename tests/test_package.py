"""Package-level checks: the README's library example and the lazy import
of ``scipy.sparse``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import filtercool

README = Path(__file__).resolve().parent.parent / "README.md"
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
