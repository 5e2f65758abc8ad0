"""filtercool benchmark: times one workload end to end, or by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration is a fresh process (``bench/worker.py``) with BLAS/OpenMP
threads pinned to 1.  It pays set-up (interpreter start, imports, building
the inputs) once, as a user of the command pays it, and then repeats the
timed run for ``PROCESS_BUDGET_S`` seconds.  Iterations repeat until
``--seconds`` have passed (at least three).  Every timed run of a run gets
the same inputs, derived from ``--seed``, and must produce a byte-identical
output that passes its workload's check.

With ``--trace 0`` the result holds the end-to-end metrics.  The host these
figures come from is shared and its speed drifts by up to 1.8x, so each
worker also times a fixed calibration loop (``worker.calibrate``) before and
after every timed run; ``wall_s`` is the median timed run scaled to the
loop's speed on a quiet host (``CAL_REF_S``), and ``work_per_s`` follows
from it.  ``setup_s`` and ``peak_rss_mb`` are plain medians over the
processes.  The raw wall times are printed and kept.  With ``--trace 1``
untraced and traced iterations alternate; a traced iteration makes one timed
run.  The result then holds the per-layer metrics of the traced runs
(medians, in plain seconds) and the tracing overhead (median traced minus
median untraced wall time, both at the reference speed).  The last line of
standard output is the result JSON; the line before it is the run manifest,
which is also written with the per-iteration samples to ``.bench_run/`` in
the checkout.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc_lowpass2_d24", "mc_ou_long", "phase_100x100", "evolve_lowpass3")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PROCESSES = 3
#: Seconds of repeated timed runs per worker process.  Each process pays
#: set-up once, so a run of 30 s gives several set-up samples and many
#: timed ones.
PROCESS_BUDGET_S = 4.0
#: No iteration starts after START_DEADLINE_S and none outlives RUN_LIMIT_S,
#: so a run ends within 180 s whatever the program does.
START_DEADLINE_S = 120.0
RUN_LIMIT_S = 170.0
ITERATION_TIMEOUT_S = 50.0
OUT_DIR = ".bench_run"
#: Seconds ``worker.calibrate`` takes on a quiet host of the machine named in
#: README.md.  End-to-end timings are reported at that host speed.
CAL_REF_S = 0.013

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
LAYER_UNITS = {
    "trajectory.run_ensemble_s": "s", "trajectory.self_s": "s",
    "trajectory.us_per_traj_step": "us", "trajectory.record_bytes": "bytes",
    "trajectory.max_edge_population": "prob", "trajectory.truncation_flag": "flag",
    "trajectory.check_dev_sigma": "sigma",
    "numerics.noise_calls": "count", "numerics.noise_s": "s",
    "numerics.noise_max_block_bytes": "bytes", "numerics.integrate_s": "s",
    "numerics.eig_calls": "count", "numerics.eig_s": "s",
    "numerics.solve_calls": "count", "numerics.solve_s": "s",
    "filters.build_calls": "count", "filters.build_s": "s",
    "moment_systems.build_calls": "count", "moment_systems.build_s": "s",
    "moment_systems.steady_state_calls": "count", "moment_systems.steady_state_s": "s",
    "analytics.energy_calls": "count", "analytics.energy_s": "s",
    "phase_diagram.sweep_s": "s", "phase_diagram.sweep_self_s": "s",
    "phase_diagram.export_s": "s", "phase_diagram.csv_bytes": "bytes",
    "phase_diagram.cells_ok": "count", "phase_diagram.cells_unstable": "count",
    "phase_diagram.cells_unphysical": "count", "phase_diagram.cells_na": "count",
    "phase_diagram.crosscheck_cells": "count",
    "cli.main_s": "s", "cli.self_s": "s",
    "bench.traced_wall_s": "s", "bench.trace_overhead_s": "s", "bench.span_coverage": "ratio",
}


def sim_seed(seed):
    """The seed handed to the program, derived from the benchmark seed."""
    return random.Random(seed).getrandbits(31)


def at_ref_speed(sample):
    """The wall times of a worker's timed runs at the reference host speed.

    Each run is scaled by ``CAL_REF_S`` over the mean of the calibration
    loops timed right before and right after it.
    """
    cals = sample["cals"]
    return [wall * CAL_REF_S / (0.5 * (before + after))
            for wall, before, after in zip(sample["walls"], cals, cals[1:])]


def run_iteration(workload, seed, traced, budget, timeout):
    """Run one worker process.

    Returns ``(sample, failures)``.  ``sample`` is None when the worker did
    not complete; ``failures`` lists the messages of its failed timed runs.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--sim-seed", str(sim_seed(seed)), "--out-dir", OUT_DIR, "--budget", str(budget)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, **PINNED_ENV)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, [f"timed out after {timeout:.0f} s"]
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None, [f"worker exited with code {proc.returncode}"]
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["setup_s"] = sample.pop("t_ready") - t_spawn
    sample["traced"] = traced
    return sample, sample["failures"]


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def manifest(args):
    sys.path.insert(0, HERE)
    import numpy
    import scipy
    import worker  # safe to import: its work runs only under __main__

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "sim_seed": sim_seed(args.seed),
        "params": worker.PARAMS[args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": PINNED_ENV,
        "cal_ref_s": CAL_REF_S,
        "machine": platform.machine(),
    }


def main():
    ap = argparse.ArgumentParser(description="filtercool benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "filtercool", "__init__.py")):
        sys.exit("bench: run from the root of a filtercool checkout (src/filtercool not found)")
    os.makedirs(OUT_DIR, exist_ok=True)

    samples, failures = [], []
    t_start = time.monotonic()
    processes = attempted = 0
    while processes < MIN_PROCESSES or time.monotonic() - t_start < args.seconds:
        elapsed = time.monotonic() - t_start
        if elapsed > START_DEADLINE_S:
            break
        traced = bool(args.trace) and processes % 2 == 1
        budget = max(0.0, min(PROCESS_BUDGET_S, args.seconds - elapsed))
        sample, failed = run_iteration(args.workload, args.seed, traced, budget,
                                       min(ITERATION_TIMEOUT_S, RUN_LIMIT_S - elapsed))
        processes += 1
        attempted += len(sample["walls"]) if sample is not None else 1
        for failure in failed:
            failures.append(failure)
            print(f"process {processes}: FAILED: {failure}", file=sys.stderr)
        if sample is not None:
            samples.append(sample)

    # Same inputs must give the same bytes: a timed run whose output differs
    # from the first one fails.  Completed runs are timed even when their
    # output is wrong; ``correct`` then reports it.
    if samples:
        first = samples[0]["digests"][0]
        failures += ["output differs between timed runs"
                     for s in samples for digest in s["digests"] if digest != first]

    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    if not plain or (args.trace and not traced):
        sys.exit(f"bench: no completed iteration to report ({'; '.join(failures)})")

    walls = [wall for s in plain for wall in s["walls"]]
    ref_walls = [w for s in plain for w in at_ref_speed(s)]
    print(f"wall_s over {len(walls)} untraced timed runs in {len(plain)} processes: "
          f"min {min(walls):.4f} median {statistics.median(walls):.4f} max {max(walls):.4f}; "
          f"calibration loop median {statistics.median(c for s in plain for c in s['cals']):.5f}; "
          f"at reference speed median {statistics.median(ref_walls):.4f}")
    if args.trace:
        layers = {name: statistics.median(s["layers"].get(name, 0) for s in traced)
                  for name in LAYER_UNITS}
        layers["bench.traced_wall_s"] = statistics.median(
            w for s in traced for w in at_ref_speed(s))
        layers["bench.trace_overhead_s"] = (layers["bench.traced_wall_s"]
                                            - statistics.median(ref_walls))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        wall = statistics.median(ref_walls)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(s["setup_s"] for s in plain),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
            "work_per_s": plain[0]["work"] / wall,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    info = manifest(args)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"manifest": info, "result": result, "failures": failures,
                   "samples": samples}, fh, indent=1)
    print("manifest: " + json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
