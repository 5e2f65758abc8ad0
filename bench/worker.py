"""One benchmark iteration of one workload, in a fresh process.

Run from the root of a source checkout (``src/filtercool`` must exist):

    python3 bench/worker.py --workload NAME --sim-seed N --out-dir DIR [--budget S] [--trace]

The process imports the package from ``src`` and builds the workload's inputs
(that is set-up).  It then runs the workload through the package's public
entry point (that is a timed run) and checks the output, repeating the timed
run until ``--budget`` seconds have passed (at least once; once when traced).
It prints one JSON line: the monotonic time at which the inputs were ready,
the wall time and output digest of each timed run, the time of the
calibration loop before the first and after every timed run, the messages of
failed checks, the peak RSS of the first run and, with ``--trace``, the
per-layer figures of its one run.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import sys
import time
import warnings

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402
from scipy.linalg import expm  # noqa: E402

import filtercool  # noqa: E402
import filtercool.cli  # noqa: E402
from filtercool import analytics, moment_systems, trajectory  # noqa: E402
from filtercool.filters import lowpass_cascade  # noqa: E402

from spans import Recorder  # noqa: E402  (bench/spans.py)

#: sha256 of the phase CSV that the seed commit writes for this workload's
#: grid.  The phase CSV must stay byte-identical across refactors.
PHASE_SHA256 = "23cabbb688aebfffe7fbcc5a74c28a833521f5409ed761c852a4c75141ea2601"

#: Deviation, in standard errors, above which a Monte Carlo check fails.
MAX_DEV_SIGMA = 4.0

#: Relative tolerance of the evolve energies against the closed form and the
#: exact propagator (RK4 at this dt is within 1e-9).
EVOLVE_RTOL = 1e-6

# Sizes are scaled so one iteration takes about 1 s on a 2-core machine; each
# keeps the property that makes its workload load its layer (see README.md).
MC_LOWPASS2 = dict(protocol="lowpass2", lam=1.0, omega=1.0, gamma=2.0, Omega=2.0,
                   fock=24, dt=5e-4, steps=200, ntraj=64, stride=20)
MC_OU = dict(gamma=1.0, lam=1.0, dt=1e-3, n_steps=15000, n_traj=256, record_stride=10,
             check_spacing_steps=2500)
EVOLVE_LOWPASS3 = dict(protocol="lowpass3", lam=1.0, omega=1.0, gamma=5.0, Omega=20.0,
                       e0=2.0, dt=1e-3, steps=80000, stride=40)
PHASE_GRID = dict(gamma_points=100, Omega_points=100)

_CAL_VEC = np.ones(64)
_CAL_MAT = np.eye(24, dtype=complex) * 0.5

PARAMS = {
    "mc_lowpass2_d24": MC_LOWPASS2,
    "mc_ou_long": MC_OU,
    "phase_100x100": PHASE_GRID,
    "evolve_lowpass3": EVOLVE_LOWPASS3,
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class CliWorkload:
    """A workload run as ``filtercool.cli.main(argv)`` writing one CSV."""

    def __init__(self, name, out_dir, sim_seed):
        self.name = name
        self.params = PARAMS[name]
        self.out = os.path.join(out_dir, f"{name}.csv")
        self.argv = self._argv(sim_seed)
        self.stderr = ""

    def _argv(self, sim_seed):
        p = self.params
        if self.name == "phase_100x100":
            return ["phase-diagram", "--gamma-points", str(p["gamma_points"]),
                    "--Omega-points", str(p["Omega_points"]), "--output", self.out]
        argv = ["--protocol", p["protocol"], "--lambda", str(p["lam"]),
                "--omega", str(p["omega"]), "--gamma", str(p["gamma"]),
                "--Omega", str(p["Omega"]), "--dt", str(p["dt"]),
                "--steps", str(p["steps"]), "--stride", str(p["stride"]),
                "--output", self.out]
        if self.name == "evolve_lowpass3":
            return ["evolve", "--e0", str(p["e0"])] + argv
        return ["trajectory", "--fock", str(p["fock"]), "--ntraj", str(p["ntraj"]),
                "--seed", str(sim_seed)] + argv

    @property
    def work(self):
        p = self.params
        if self.name == "phase_100x100":
            return p["gamma_points"] * p["Omega_points"]
        if self.name == "evolve_lowpass3":
            return p["steps"]
        return p["ntraj"] * p["steps"]

    def run(self, call):
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            code = call("cli.main", filtercool.cli.main)(self.argv)
        self.stderr = buf.getvalue()
        sys.stderr.write(self.stderr)
        if code != 0:
            raise RuntimeError(f"filtercool exited with code {code}")

    def digest(self):
        return _sha256(self.out)

    def check(self, layers):
        """Returns (ok, message, deviation in standard errors or None)."""
        if self.name == "phase_100x100":
            if layers is not None:
                layers.update(_phase_counts(self.out))
            ok = self.digest() == PHASE_SHA256
            return ok, "" if ok else "phase CSV differs from the seed commit's", None
        if self.name == "evolve_lowpass3":
            return self._check_evolve()
        return self._check_mc()

    def _check_evolve(self):
        """Final energy against the closed form, and the whole energy path
        against the exact affine propagator x* + expm(A t)(x0 - x*)."""
        p = self.params
        header, rows = _read_csv(self.out)
        if len(rows) != p["steps"] // p["stride"] + 1:
            return False, f"evolve wrote {len(rows)} rows", None
        energy = np.array([float(row[header.index("<H>/hw")]) for row in rows])
        closed = analytics.energy_3layer(p["lam"], p["gamma"], p["Omega"], p["omega"]).energy_over_hw
        if abs(energy[-1] - closed) > EVOLVE_RTOL * abs(closed):
            return False, f"final energy {energy[-1]} vs closed form {closed}", None
        system = moment_systems.build_moment_system(self._protocol_params())
        fixed = np.linalg.solve(system.A, -system.c)
        x = np.zeros(system.dim)
        x[system.energy_index] = p["e0"]
        hop = expm(system.A * (p["stride"] * p["dt"]))
        exact = np.empty(len(rows))
        for k in range(len(rows)):
            exact[k] = x[system.energy_index]
            x = fixed + hop @ (x - fixed)
        worst = float(np.max(np.abs(energy - exact) / np.abs(exact)))
        ok = worst <= EVOLVE_RTOL
        return ok, "" if ok else f"energy path off the exact one by {worst:.2e} relative", None

    def _protocol_params(self):
        p = self.params
        return moment_systems.ProtocolParams(p["lam"], p["omega"], p["gamma"], p["Omega"],
                                             moment_systems.ProtocolKind(p["protocol"]))

    def _check_mc(self):
        p = self.params
        if "truncation" in self.stderr:
            return False, "run was truncation limited", None
        header, rows = _read_csv(self.out)
        data = np.array(rows, dtype=float)
        mean = data[:, header.index("mean_energy")]
        stderr = data[:, header.index("stderr_energy")]
        system = moment_systems.build_moment_system(self._protocol_params())
        x0 = np.zeros(system.dim)
        x0[system.energy_index] = 0.5  # ground state with zero filter signals
        exact = moment_systems.evolve(system, x0, p["dt"], p["steps"])[::p["stride"], 0]
        if exact.size != mean.size:
            return False, f"trajectory wrote {mean.size} rows", None
        checkpoints = np.linspace(1, mean.size - 1, 10).astype(int)
        dev = float((np.abs(mean - exact)[checkpoints] / stderr[checkpoints]).max())
        ok = dev < MAX_DEV_SIGMA
        return ok, "" if ok else f"mean energy {dev:.2f} standard errors off", dev


class OuWorkload:
    """The criterion-8 Ornstein-Uhlenbeck model through ``run_ensemble``."""

    def __init__(self, sim_seed, call):
        p = self.params = PARAMS["mc_ou_long"]
        filt = call("filters.build", lowpass_cascade)((p["gamma"],))
        self.model = trajectory.frozen_signal_model(filt, p["lam"])
        self.config = trajectory.TrajectoryConfig(
            dt=p["dt"], n_steps=p["n_steps"], n_traj=p["n_traj"],
            record_stride=p["record_stride"], base_seed=sim_seed)
        self.work = p["n_traj"] * p["n_steps"]
        self.record = None

    def run(self, call):
        self.record = call("trajectory.run_ensemble", trajectory.run_ensemble)(
            self.model, self.config)

    def digest(self):
        rec = self.record
        h = hashlib.sha256()
        for arr in (rec.energy_mean, rec.op_mean, rec.signal_mean, rec.signal_var):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def check(self, layers):
        p, rec = self.params, self.record
        target = p["gamma"] / (8.0 * p["lam"])
        t_end = p["n_steps"] * p["dt"]
        spacing = p["check_spacing_steps"] * p["dt"]
        k = np.round(rec.times / spacing)
        keep = (rec.times >= 0.5 * t_end) & np.isclose(rec.times, k * spacing)
        var = rec.signal_var[0, 0, keep]
        stderr = target * np.sqrt(2.0 / (var.size * rec.n_traj - 1))
        dev = float(abs(var.mean() - target) / stderr)
        ok = var.size >= 2 and dev < MAX_DEV_SIGMA
        return ok, "" if ok else f"stationary variance {dev:.2f} standard errors off", dev


def calibrate():
    """Seconds a fixed loop takes: the host's speed at this moment.

    The loop mixes the work the workloads spend their time in (interpreter
    steps, numpy operations on short vectors, 24x24 complex products) and
    calls nothing in the package, so no change to the package moves it.
    """
    x, m, acc = _CAL_VEC, _CAL_MAT, 0
    t0 = time.perf_counter()
    for i in range(8000):
        x = x * 0.5 + 1.0
        acc += i % 7
        if i % 16 == 0:
            m = m @ _CAL_MAT
    return time.perf_counter() - t0


def _phase_counts(path):
    counts = {"ok": 0, "unstable": 0, "unphysical": 0, "na": 0}
    _, rows = _read_csv(path)
    for row in rows:
        for flag in row[-1].split(";"):
            counts[flag] += 1
    out = {f"phase_diagram.cells_{k}": v for k, v in counts.items()}
    out["phase_diagram.csv_bytes"] = os.path.getsize(path)
    return out


def _record_layers(rec):
    """Counters read from a TrajectoryRecord returned inside the timed run."""
    ch, m, n_rec = rec.signal_mean.shape
    return {
        "trajectory.record_bytes": rec.n_traj * n_rec * (1 + ch + ch * m) * 8,
        "trajectory.max_edge_population": float(rec.max_edge_population),
        "trajectory.truncation_flag": int(rec.truncation_warning),
    }


def _span_layers(recorder, window_start, wall, work):
    totals, roots = recorder.totals(window_start)

    def get(name):  # (calls, total seconds, self seconds)
        return totals.get(name, (0, 0.0, 0.0))

    out = {
        "trajectory.run_ensemble_s": get("trajectory.run_ensemble")[1],
        "trajectory.self_s": get("trajectory.run_ensemble")[2],
        "trajectory.us_per_traj_step": get("trajectory.run_ensemble")[2] / work * 1e6,
        "numerics.noise_calls": get("numerics.noise")[0],
        "numerics.noise_s": get("numerics.noise")[1],
        "numerics.integrate_s": get("numerics.integrate")[1],
        "phase_diagram.sweep_s": get("phase_diagram.sweep")[1],
        "phase_diagram.sweep_self_s": get("phase_diagram.sweep")[2],
        "phase_diagram.export_s": get("phase_diagram.export")[1],
        "phase_diagram.crosscheck_cells": recorder.count_within(
            "moment_systems.steady_state", "phase_diagram.sweep"),
        "cli.main_s": get("cli.main")[1],
        "cli.self_s": get("cli.main")[2],
        "bench.traced_wall_s": wall,
        "bench.span_coverage": roots / wall,
    }
    for name in ("numerics.eig", "numerics.solve", "moment_systems.build",
                 "moment_systems.steady_state", "analytics.energy", "filters.build"):
        out[f"{name}_calls"], out[f"{name}_s"] = get(name)[:2]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PARAMS))
    ap.add_argument("--sim-seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    # Python shows a warning once per call site and process; every timed run
    # must show its own, since the Monte Carlo check reads the truncation
    # warning from stderr.
    warnings.simplefilter("always", RuntimeWarning)

    recorder = Recorder() if args.trace else None

    def call(name, fn):
        return recorder.hook(name, fn) if recorder else fn

    if recorder:
        recorder.install(filtercool)
    if args.workload == "mc_ou_long":
        wl = OuWorkload(args.sim_seed, call)
    else:
        wl = CliWorkload(args.workload, args.out_dir, args.sim_seed)
    t_ready = time.monotonic()

    # Untraced, the timed run repeats on the same inputs until --budget
    # seconds have passed, so one set-up serves many samples.  Traced, it runs
    # once.  ``calibrate`` runs right before and after every timed run.
    walls, cals, digests, failures = [], [calibrate()], [], []
    layers = None
    loop_start = time.perf_counter()
    while not walls or (not recorder and time.perf_counter() - loop_start < args.budget):
        t0 = time.perf_counter()
        wl.run(call)
        wall = time.perf_counter() - t0
        cals.append(calibrate())
        if not walls:  # one run's peak, before a second run allocates beside the first
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder:
            recorder.uninstall()
            layers = _span_layers(recorder, t0, wall, wl.work)
            layers.update(recorder.values)
            for rec in recorder.records:
                layers.update(_record_layers(rec))
        ok, message, dev = wl.check(layers)
        if layers is not None and dev is not None:
            layers["trajectory.check_dev_sigma"] = dev
        if not ok:
            failures.append(message)
        walls.append(wall)
        digests.append(wl.digest())
    print(json.dumps({"t_ready": t_ready, "walls": walls, "cals": cals, "failures": failures,
                      "peak_rss_mb": peak_rss_mb, "work": wl.work, "digests": digests,
                      "layers": layers}))


if __name__ == "__main__":
    main()
