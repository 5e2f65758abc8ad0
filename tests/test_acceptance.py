"""Acceptance suite: one test per release criterion, each printing a
``criterion NN: PASS/FAIL`` line (run with ``-s`` to see them inline).

Criteria 9 and 10 are multi-minute Monte Carlo validations and carry the
``slow`` marker; deselect them with ``-m "not slow"`` for a quick pass.
All stochastic runs use pinned seeds, so the suite is deterministic.
"""

import time

import numpy as np
import pytest

from _reference import characteristic_polynomial
from filtercool.analytics import (
    THREE_LAYER_THRESHOLD,
    TWO_LAYER_THRESHOLD,
    energy_1layer,
    energy_2layer,
    energy_2layer_largeOmega,
    energy_3layer,
    energy_3layer_largeOmega,
    energy_bandpass,
)
from filtercool.filters import KernelSpec, bandpass, impulse_response, kernel_filter, lowpass_cascade
from filtercool.moment_systems import (
    ProtocolKind,
    ProtocolParams,
    build_moment_system,
    evolve,
    steady_state,
)
from filtercool.phase_diagram import (
    ALL_PROTOCOLS,
    CSV_HEADER,
    FLAG_NA,
    FLAG_OK,
    FLAG_UNPHYSICAL,
    FLAG_UNSTABLE,
    GridSpec,
    load_phase_csv,
    write_phase_csv,
)
from filtercool.trajectory import (
    TrajectoryConfig,
    frozen_signal_model,
    measurement_only_model,
    oscillator_cooling_model,
    run_ensemble,
)


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_ground_state_cooling_point():
    worst = max(abs(energy_1layer(lam, 2.0 * lam).energy_over_hw - 0.5)
                for lam in (0.1, 1.0, 10.0))
    _report(1, worst <= 1e-12, f"max |E - 1/2| = {worst:.2e} at gamma = 2 lam")


def test_criterion_02_two_layer_oracle_equivalence():
    rng = np.random.default_rng(2024)
    stable = 0
    excluded = 0
    worst = 0.0
    while stable < 500:
        lam, g, Om, w = rng.uniform(0.1, 10.0, 4)
        p = ProtocolParams(lam, w, g, Om, ProtocolKind.LOWPASS2)
        ss = steady_state(build_moment_system(p))
        if not ss.stable:
            excluded += 1
            continue
        exact = energy_2layer(lam, g, Om, w).energy_over_hw
        worst = max(worst, abs(ss.energy_over_hw - exact) / abs(exact))
        stable += 1
    _report(2, worst <= 1e-9,
            f"500 stable draws, worst rel err {worst:.2e}, {excluded} excluded")


def test_criterion_03_three_layer_and_bandpass_oracle_equivalence():
    rng = np.random.default_rng(3033)
    details = []
    ok = True
    for kind, fn in ((ProtocolKind.LOWPASS3, energy_3layer),
                     (ProtocolKind.BANDPASS, energy_bandpass)):
        stable = 0
        excluded = 0
        worst = 0.0
        for _ in range(500):
            lam, g, Om, w = rng.uniform(0.1, 10.0, 4)
            p = ProtocolParams(lam, w, g, Om, kind)
            ss = steady_state(build_moment_system(p))
            if not ss.stable:
                excluded += 1
                continue
            exact = fn(lam, g, Om, w).energy_over_hw
            worst = max(worst, abs(ss.energy_over_hw - exact) / abs(exact))
            stable += 1
        ok = ok and worst <= 1e-9
        details.append(f"{kind.value}: {stable} stable / {excluded} excluded, "
                       f"worst rel {worst:.2e}")
    _report(3, ok, "; ".join(details))


def test_criterion_04_characteristic_polynomial():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        g, Om, w = rng.uniform(0.1, 10.0, 3)
        sys = build_moment_system(ProtocolParams(1.0, w, g, Om, ProtocolKind.LOWPASS2))
        coeffs = characteristic_polynomial(sys.A)
        expected = np.array([
            1.0,
            4.0 * (Om + g),
            4.0 * Om * g + 5.0 * (Om + g) ** 2 + w * w,
            2.0 * (Om + g) * (4.0 * Om * g + (Om + g) ** 2 + w * w),
            4.0 * Om * g * (Om + g) ** 2,
        ])
        worst = max(worst, (np.abs(coeffs - expected) / np.abs(expected)).max())
    _report(4, worst <= 1e-8, f"100 draws, worst coefficient rel err {worst:.2e}")


def test_criterion_05_large_Omega_expansions_are_first_order():
    lam, w = 1.0, 1.0
    ratios = []
    for g in (1.5, 4.0):
        res2 = [abs(energy_2layer(lam, g, Om, w).energy_over_hw
                    - energy_2layer_largeOmega(lam, g, Om))
                for Om in (1e3, 2e3, 4e3)]
        res3 = [abs(energy_3layer(lam, g, Om, w).energy_over_hw
                    - energy_3layer_largeOmega(lam, g, Om))
                for Om in (1e3, 2e3, 4e3)]
        for res in (res2, res3):
            ratios.extend([res[0] / res[1], res[1] / res[2]])
    _report(5, min(ratios) >= 3.9,
            f"residual reduction per Omega doubling in [{min(ratios):.2f}, "
            f"{max(ratios):.2f}] (need >= 3.9)")


def test_criterion_06_decision_thresholds():
    lam, Om, w = 1.0, 1e4, 1.0
    ratios = np.geomspace(1.0, 10.0, 4001)
    best = np.array([int(np.argmin([
        energy_1layer(lam, r).energy_over_hw,
        energy_2layer(lam, r, Om, w).energy_over_hw,
        energy_3layer(lam, r, Om, w).energy_over_hw,
    ])) for r in ratios])
    sw12 = ratios[np.nonzero(best != 0)[0][0]]
    sw23 = ratios[np.nonzero(best == 2)[0][0]]
    d12 = abs(sw12 / TWO_LAYER_THRESHOLD - 1.0)
    d23 = abs(sw23 / THREE_LAYER_THRESHOLD - 1.0)
    _report(6, d12 < 0.02 and d23 < 0.02,
            f"switches at {sw12:.4f} (2sqrt2 off {d12:.2%}) and {sw23:.4f} "
            f"(4 off {d23:.2%})")


def test_criterion_07_filter_realization_equivalence():
    worst = 0.0
    for g, Om in ((1.0, 2.0), (0.6, 1.1)):
        bp = bandpass(g, Om)
        kf = kernel_filter(KernelSpec((g * g + Om * Om, 2.0 * g), (g, -g * g)))
        for t in np.linspace(0.0, 10.0 / g, 250):
            worst = max(worst, abs(impulse_response(bp, t)[0]
                                   - impulse_response(kf, t)[0]))
    _report(7, worst <= 1e-8, f"max |h1_bp - h1_kernel| = {worst:.2e}")


def test_criterion_08_ou_statistics():
    # the frozen-signal model is d = 1, so it runs on the classical engine:
    # eight exact record intervals of h = 2.5 (filters.exact_transition),
    # whose records carry no dt bias; dt sets only the record spacing.  The
    # late-time variance must match the stationary gamma / (8 lam)
    g, lam = 1.0, 1.0
    model = frozen_signal_model(lowpass_cascade((g,)), lam)
    cfg = TrajectoryConfig(dt=1e-3, n_steps=20000, n_traj=200, base_seed=19,
                           record_stride=2500)
    rec = run_ensemble(model, cfg)
    target = g / (8.0 * lam)
    var = rec.signal_var[0, 0, rec.times >= 9.9]
    estimate = var.mean()
    stderr = target * np.sqrt(2.0 / (var.size * cfg.n_traj - 1))
    dev = abs(estimate - target) / stderr
    _report(8, dev < 3.0,
            f"variance {estimate:.5f} vs gamma/(8 lam) = {target:.5f}, "
            f"{dev:.2f} standard errors")


def test_criterion_09_measurement_heating_slope():
    model = measurement_only_model(15, omega=1.0, lam=1.0)
    cfg = TrajectoryConfig(dt=1e-3, n_steps=600, n_traj=500, base_seed=11,
                           record_stride=10)
    rec = run_ensemble(model, cfg)
    slope = np.polyfit(rec.times, rec.energy_mean, 1)[0]
    ok = abs(slope - 1.0) <= 0.05 and not rec.truncation_warning
    _report(9, ok, f"d<H0>/dt = {slope:.4f} (target 1 within 5%), "
                   f"edge population {rec.max_edge_population:.1e}")


@pytest.mark.slow
def test_criterion_10_monte_carlo_cooling():
    # single-stage plateau at the ground-state point
    p1 = ProtocolParams(1.0, 1.0, 2.0, None, ProtocolKind.LOWPASS1)
    model = oscillator_cooling_model(p1, 28)
    cfg = TrajectoryConfig(dt=1e-3, n_steps=2000, n_traj=500, base_seed=3,
                           record_stride=40)
    rec = run_ensemble(model, cfg)
    plateau = rec.energy_mean[rec.times >= 1.0].mean()
    ok_a = abs(plateau - 0.5) <= 0.05 and not rec.truncation_warning

    # two-stage ensemble against the exact moment path
    p2 = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
    model2 = oscillator_cooling_model(p2, 24)
    cfg2 = TrajectoryConfig(dt=5e-4, n_steps=3000, n_traj=500, base_seed=41,
                            record_stride=60)
    rec2 = run_ensemble(model2, cfg2)
    x0 = np.zeros(4)
    x0[0] = 0.5
    path = evolve(build_moment_system(p2), x0, 5e-4, 3000)[::60, 0]
    checkpoints = np.linspace(1, rec2.times.size - 1, 10).astype(int)
    dev = np.abs(rec2.energy_mean[checkpoints] - path[checkpoints]) \
        / rec2.energy_stderr[checkpoints]
    ok_b = dev.max() < 3.0 and not rec2.truncation_warning

    _report(10, ok_a and ok_b,
            f"plateau {plateau:.4f} (target 0.5 within 10%); two-stage max "
            f"checkpoint deviation {dev.max():.2f} standard errors")


def test_criterion_11_phase_diagram(tmp_path):
    spec = GridSpec.log_spaced()  # 200 x 200, brackets both thresholds
    path = tmp_path / "phase.csv"
    t0 = time.perf_counter()
    write_phase_csv(spec, path)
    elapsed = time.perf_counter() - t0

    gamma, Omega, energies, winner, flags = load_phase_csv(path)
    with open(path) as fh:
        header = fh.readline().strip()
    schema_ok = (gamma.size == 200 * 200
                 and header == ",".join(CSV_HEADER)
                 and set(winner) <= {k.value for k in ALL_PROTOCOLS} | {"none"}
                 and all(set(f) <= {FLAG_OK, FLAG_UNSTABLE, FLAG_UNPHYSICAL,
                                    FLAG_NA} for f in flags))

    # three contiguous low-pass bands along gamma in the fastest-Omega row
    winners = np.array(winner).reshape(spec.gamma_values.size, spec.Omega_values.size)
    top = list(winners[:, -1])
    i12 = next(i for i, w in enumerate(top) if w != "lowpass1")
    i23 = next(i for i, w in enumerate(top) if w == "lowpass3")
    bands_ok = (all(w == "lowpass1" for w in top[:i12])
                and all(w == "lowpass2" for w in top[i12:i23])
                and all(w == "lowpass3" for w in top[i23:]))
    cell = np.log(spec.gamma_values[1] / spec.gamma_values[0])
    d12 = abs(np.log(spec.gamma_values[i12] / TWO_LAYER_THRESHOLD))
    d23 = abs(np.log(spec.gamma_values[i23] / THREE_LAYER_THRESHOLD))
    thresholds_ok = d12 <= 2.0 * cell and d23 <= 2.0 * cell

    # band-pass pocket away from the fast-Omega regime
    bp = winners == "bandpass"
    pocket_Omegas = spec.Omega_values[np.where(bp.any(axis=0))[0]]
    pocket_ok = bp.sum() >= 100 and pocket_Omegas.max() < 10.0

    ok = elapsed < 30.0 and schema_ok and bands_ok and thresholds_ok and pocket_ok
    _report(11, ok,
            f"sweep and CSV {elapsed:.1f}s; switches at gamma = "
            f"{spec.gamma_values[i12]:.3f}, {spec.gamma_values[i23]:.3f} "
            f"(within 2 cells of thresholds); band-pass pocket {bp.sum()} cells")
