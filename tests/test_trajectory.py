import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import sme_ensemble, sme_step
from filtercool import trajectory
from filtercool.filters import FilterModel, bandpass, lowpass_cascade
from filtercool.moment_systems import ProtocolKind, ProtocolParams, build_moment_system, evolve
from filtercool.numerics import NoiseStream
from filtercool.trajectory import (
    QuantumState,
    ShiftedTrapFeedback,
    SystemModel,
    TrajectoryConfig,
    TrajectoryError,
    build_truncated_oscillator,
    frozen_signal_model,
    measurement_only_model,
    oscillator_cooling_model,
    run_ensemble,
)


class TestQuantumState:
    def test_ground_state(self):
        s = QuantumState.ground_state(4)
        assert s.dim == 4 and s.rho[0, 0] == 1.0 and np.count_nonzero(s.rho) == 1

    def test_non_hermitian_rejected(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            QuantumState(rho)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(np.eye(2, dtype=complex))


class TestTruncatedOscillator:
    def test_commutator_away_from_corner(self):
        n = 12
        osc = build_truncated_oscillator(n, 1.0)
        comm = osc.x @ osc.p - osc.p @ osc.x
        dev = comm - 1j * np.eye(n)
        dev[n - 2:, n - 2:] = 0.0  # allowed corner deviation
        assert np.abs(dev).max() < 1e-13

    def test_energy_levels(self):
        n, w = 10, 2.0
        osc = build_truncated_oscillator(n, w)
        levels = np.linalg.eigvalsh(osc.H0)
        for k in range(n - 3):  # low levels are exact despite the cutoff
            assert np.abs(levels - w * (k + 0.5)).min() < 1e-12

    def test_operator_symmetries(self):
        osc = build_truncated_oscillator(7, 1.0)
        assert np.abs(osc.x.imag).max() == 0.0
        assert np.abs(osc.x - osc.x.T).max() < 1e-14
        assert np.abs(osc.p.real).max() == 0.0
        assert np.abs(osc.p + osc.p.T).max() < 1e-14

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_truncated_oscillator(2, 1.0)

    def test_dim_is_read_from_H0(self):
        osc = build_truncated_oscillator(7, 1.0)
        assert osc.dim == 7
        assert "dim" not in {f.name for f in dataclasses.fields(osc)}


class TestShiftedTrapFeedback:
    def test_zero_signal_gives_bare_trap(self):
        osc = build_truncated_oscillator(9, 1.3)
        fb = ShiftedTrapFeedback(osc, 0)
        assert np.abs(fb(np.zeros((2, 1))) - osc.H0).max() < 1e-13

    def test_expansion_identity(self):
        # H(G) = H0 - w(gx x + gp p) + (w/2)(gx^2+gp^2) I
        osc = build_truncated_oscillator(9, 0.8)
        fb = ShiftedTrapFeedback(osc, 1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            G = rng.uniform(-2, 2, (2, 3))
            gx, gp = G[0, 1], G[1, 1]
            expanded = (osc.H0 - osc.omega * (gx * osc.x + gp * osc.p)
                        + 0.5 * osc.omega * (gx**2 + gp**2) * np.eye(9))
            assert np.abs(fb(G) - expanded).max() < 1e-12

    def test_hermitian(self):
        osc = build_truncated_oscillator(6, 1.0)
        fb = ShiftedTrapFeedback(osc, 0)
        H = fb(np.array([[0.7], [-1.2]]))
        assert np.abs(H - H.conj().T).max() < 1e-14

    def test_tap_out_of_range(self):
        osc = build_truncated_oscillator(6, 1.0)
        with pytest.raises(ValueError):
            ShiftedTrapFeedback(osc, 2)(np.zeros((2, 2)))


class TestStep:
    """The density-matrix SME step of the test reference, which the
    state-vector kernel is held to."""

    @staticmethod
    def _steps(model, rho, seed, dt, n_steps):
        """rho after each of n_steps reference steps from rho on the
        draws of NoiseStream(seed, 0)."""
        rho = rho[None]
        G = np.zeros((1, model.n_channels, model.n_signal_components))
        gen = NoiseStream(seed, 0).generator()
        for _ in range(n_steps):
            dW = gen.standard_normal((1, model.n_channels)) * np.sqrt(dt)
            rho, G = sme_step(model, rho, G, dW, dt)
            yield rho[0]

    def test_trace_is_one_after_step(self):
        model = oscillator_cooling_model(
            ProtocolParams(1.0, 1.0, 2.0, None, ProtocolKind.LOWPASS1), 10)
        for rho in self._steps(model, QuantumState.ground_state(10).rho, 0, 1e-3, 20):
            assert abs(np.trace(rho).real - 1.0) < 1e-14
            assert np.abs(rho - rho.conj().T).max() < 1e-14

    def test_unitary_limit_conserves_energy(self):
        # no measurement channels: plain Hamiltonian step, energy exact
        osc = build_truncated_oscillator(8, 1.0)
        model = SystemModel(osc.H0, (), 0.0, None, None)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        e0 = np.trace(rho @ osc.H0).real
        *_, rho = self._steps(model, rho, 0, 1e-3, 50)
        assert abs(np.trace(rho @ osc.H0).real - e0) < 1e-10

    def test_purity_stays_high_and_improves_with_dt(self):
        # the continuous flow preserves purity; the integrator defect is
        # O(dt) and must stay within 5e-3 over 1e3 steps at dt=1e-4
        osc = build_truncated_oscillator(15, 1.0)
        model = SystemModel(osc.H0, (osc.x,), 1.0, None, None)

        def max_defect(dt, n_steps):
            rho = QuantumState.ground_state(15).rho
            return max(1.0 - np.trace(rho @ rho).real
                       for rho in self._steps(model, rho, 1, dt, n_steps))

        coarse = max_defect(1e-4, 1000)
        assert coarse <= 5e-3
        assert max_defect(5e-5, 2000) < coarse


class TestRunEnsemble:
    def test_deterministic_and_chunk_independent(self):
        p = ProtocolParams(1.0, 1.0, 2.0, None, ProtocolKind.LOWPASS1)
        model = oscillator_cooling_model(p, 8)
        recs = []
        for chunk in (3, 64):
            cfg = TrajectoryConfig(dt=1e-3, n_steps=50, n_traj=10, base_seed=12,
                                   record_stride=10, chunk_size=chunk)
            recs.append(run_ensemble(model, cfg))
        a, b = recs
        assert np.array_equal(a.energy_mean, b.energy_mean)
        assert np.array_equal(a.energy_stderr, b.energy_stderr)
        assert np.array_equal(a.signal_mean, b.signal_mean)
        assert np.array_equal(a.op_mean, b.op_mean)

    def test_initial_point_is_ground_state(self):
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, 10)
        cfg = TrajectoryConfig(dt=1e-3, n_steps=10, n_traj=3, base_seed=0,
                               record_stride=10)
        rec = run_ensemble(model, cfg)
        assert rec.energy_mean[0] == pytest.approx(0.5, abs=1e-12)
        assert np.abs(rec.op_mean[:, 0]).max() < 1e-12

    def test_frozen_mean_drives_signal_to_dc_value(self):
        # ensemble mean of the filtered signal relaxes to the stationary
        # mean -M^-1 b a0 (here a0 times the unit DC gain)
        from filtercool.filters import stationary_statistics

        fm = lowpass_cascade((1.2, 0.8))
        a0 = 0.8
        model = frozen_signal_model(fm, lam=1.0, mean_A=a0)
        cfg = TrajectoryConfig(dt=2e-3, n_steps=5000, n_traj=150, base_seed=8,
                               record_stride=500)
        rec = run_ensemble(model, cfg)
        mean, _ = stationary_statistics(fm, 1.0, a0)
        for comp in range(2):
            est = rec.signal_mean[0, comp, -1]
            se = np.sqrt(rec.signal_var[0, comp, -1] / cfg.n_traj)
            assert abs(est - mean[comp]) < 3.0 * se

    def test_ou_variance_quick(self):
        g, lam = 1.0, 1.0
        model = frozen_signal_model(lowpass_cascade((g,)), lam)
        cfg = TrajectoryConfig(dt=2e-3, n_steps=6000, n_traj=150, base_seed=19,
                               record_stride=1500)
        rec = run_ensemble(model, cfg)
        target = g / (8.0 * lam)
        var = rec.signal_var[0, 0, rec.times >= 5.9]
        se = target * np.sqrt(2.0 / (var.size * cfg.n_traj - 1))
        assert abs(var.mean() - target) < 3.0 * se

    def test_heating_slope_quick(self):
        model = measurement_only_model(12, 1.0, 1.0)
        cfg = TrajectoryConfig(dt=1e-3, n_steps=400, n_traj=150, base_seed=71,
                               record_stride=20)
        rec = run_ensemble(model, cfg)
        slope = np.polyfit(rec.times, rec.energy_mean, 1)[0]
        assert abs(slope - 1.0) < 0.15
        assert not rec.truncation_warning

    def test_truncation_guard_flags_small_cutoff(self):
        model = measurement_only_model(5, 1.0, 1.0)
        cfg = TrajectoryConfig(dt=1e-2, n_steps=100, n_traj=10, base_seed=4,
                               record_stride=10)
        with pytest.warns(RuntimeWarning, match="truncation"):
            rec = run_ensemble(model, cfg)
        assert rec.truncation_warning
        assert rec.max_edge_population > 1e-3

    def test_divergent_run_names_trajectory(self):
        p = ProtocolParams(1.0, 1.0, 2.0, None, ProtocolKind.LOWPASS1)
        model = oscillator_cooling_model(p, 6)
        cfg = TrajectoryConfig(dt=50.0, n_steps=400, n_traj=2, base_seed=0,
                               record_stride=400)
        with pytest.raises(TrajectoryError, match="trajectory"):
            run_ensemble(model, cfg)

    def test_generic_feedback_callable(self):
        # a custom rule must reproduce the built-in trap shift exactly
        p = ProtocolParams(1.0, 1.0, 1.5, 3.0, ProtocolKind.LOWPASS2)
        fast = oscillator_cooling_model(p, 7)
        osc = build_truncated_oscillator(7, 1.0)
        trap = ShiftedTrapFeedback(osc, 1)
        slow = SystemModel(fast.H0, fast.measured_ops, p.lam, fast.filter_model,
                           lambda G: trap(G))
        cfg = TrajectoryConfig(dt=1e-3, n_steps=40, n_traj=4, base_seed=6,
                               record_stride=10)
        ra = run_ensemble(fast, cfg)
        rb = run_ensemble(slow, cfg)
        assert np.abs(ra.energy_mean - rb.energy_mean).max() < 1e-12
        assert np.array_equal(ra.signal_mean, rb.signal_mean)

    def test_generic_feedback_on_mixed_start_matches_trap(self):
        # a mixed start is sampled alike under both rules; a custom rule takes
        # the kernel's generic branches, the trap model its own
        rho = np.zeros((10, 10), dtype=complex)
        rho[0, 0], rho[1, 1] = 0.6, 0.4
        p = ProtocolParams(1.0, 1.0, 1.5, 3.0, ProtocolKind.LOWPASS2)
        fast = oscillator_cooling_model(p, 10)
        trap = ShiftedTrapFeedback(build_truncated_oscillator(10, 1.0), 1)
        slow = SystemModel(fast.H0, fast.measured_ops, p.lam, fast.filter_model,
                           lambda G: trap(G))
        cfg = TrajectoryConfig(dt=1e-3, n_steps=40, n_traj=4, base_seed=6,
                               record_stride=10, initial_state=QuantumState(rho))
        ra, rb = run_ensemble(fast, cfg), run_ensemble(slow, cfg)
        for name in ("energy_mean", "energy_stderr", "op_mean", "signal_mean", "signal_var"):
            assert np.abs(getattr(ra, name) - getattr(rb, name)).max() < 1e-12, name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(dt=0.0, n_steps=10, n_traj=1, base_seed=0)
        with pytest.raises(ValueError):
            TrajectoryConfig(dt=1e-3, n_steps=10, n_traj=1, base_seed=0,
                             record_stride=3)


class TestStateVectorPath:
    def test_sse_matches_sme_with_common_noise(self):
        # run_ensemble steps the pure start as a state vector; the reference
        # integrates the density-matrix SME on the same draws
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, 14)
        cfg = TrajectoryConfig(dt=1e-3, n_steps=400, n_traj=40, base_seed=5,
                               record_stride=40)
        rec = run_ensemble(model, cfg)
        energy = _assert_common_noise_match(model, cfg)
        assert np.array_equal(energy.mean(axis=0), rec.energy_mean)

    def test_mixed_initial_state_is_sampled(self):
        # the three trajectories of seed 2 all draw |0>: the t = 0 mean is
        # 0.5 with no spread, where the density matrix gives 0.8
        rho = np.zeros((10, 10), dtype=complex)
        rho[0, 0], rho[1, 1] = 0.7, 0.3
        p = ProtocolParams(1.0, 1.0, 2.0, None, ProtocolKind.LOWPASS1)
        model = oscillator_cooling_model(p, 10)
        cfg = TrajectoryConfig(dt=1e-3, n_steps=20, n_traj=3, base_seed=2,
                               record_stride=10, initial_state=QuantumState(rho))
        rec = run_ensemble(model, cfg)
        assert rec.energy_mean[0] == pytest.approx(0.5, abs=1e-12)
        assert rec.energy_stderr[0] == 0.0
        assert np.isfinite(rec.energy_mean).all()

    def test_trap_path_chunk_independent(self):
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, 24)
        recs = [run_ensemble(model, TrajectoryConfig(
            dt=5e-4, n_steps=30, n_traj=11, base_seed=9, record_stride=10,
            chunk_size=chunk)) for chunk in (1, 5, 64)]
        for rec in recs[1:]:
            assert np.array_equal(rec.energy_mean, recs[0].energy_mean)
            assert np.array_equal(rec.energy_stderr, recs[0].energy_stderr)
            assert np.array_equal(rec.op_mean, recs[0].op_mean)
            assert np.array_equal(rec.signal_var, recs[0].signal_var)

@pytest.mark.parametrize("label", ["psi", "classical", "classical-rule"])
def test_noise_block_size_does_not_change_results(monkeypatch, label):
    # the default block holds all ten record intervals; blocks of 1, 3 and 7
    # engine steps (a classical step is one record interval of 5 steps), in
    # chunks that do not divide n_traj, give the same bits
    p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
    model = {"psi": oscillator_cooling_model(p, 8),
             "classical": frozen_signal_model(lowpass_cascade((1.2, 0.8)), 1.0, mean_A=0.3),
             "classical-rule": _classical_pin_runs()["generic"][0]}[label]
    cfg = TrajectoryConfig(dt=1e-3, n_steps=50, n_traj=4, base_seed=1, record_stride=5)
    span = 1 if label == "psi" else cfg.record_stride
    assert trajectory.NOISE_BLOCK // span > cfg.n_steps // span
    ref = _record_arrays(run_ensemble(model, cfg))
    for steps in (1, 3, 7):
        for chunk in (3, 256):
            with monkeypatch.context() as mp:
                mp.setattr(trajectory, "NOISE_BLOCK", steps * span)
                rec = _record_arrays(run_ensemble(
                    model, dataclasses.replace(cfg, chunk_size=chunk)))
            for name, arr in rec.items():
                assert np.array_equal(arr, ref[name]), (steps, chunk, name)
                assert np.array_equal(np.signbit(arr), np.signbit(ref[name]))


@pytest.mark.parametrize("seed, n_traj, chunk_size, n_steps, block, message", [
    pytest.param(1, 7, 256, 400, None, "trajectory 1 became non-finite at step 324",
                 id="one-chunk"),
    pytest.param(1, 7, 1, 400, None, "trajectory 0 became non-finite at step 325",
                 id="chunks-of-one"),
    # trajectories 0-2 last the 324 steps, so the second chunk fails
    pytest.param(2, 10, 3, 324, None, "trajectory 4 became non-finite at step 324",
                 id="second-chunk-last-step"),
    pytest.param(2, 10, 3, 324, 7, "trajectory 4 became non-finite at step 324",
                 id="second-chunk-short-blocks"),
    # 100-step blocks: the failure lands mid-block, so the block that
    # failed its end-of-block check is replayed step by step
    pytest.param(1, 7, 3, 400, 100, "trajectory 1 became non-finite at step 324",
                 id="mid-block"),
])
def test_state_vector_divergence_names_the_first_trajectory_and_step(
        monkeypatch, seed, n_traj, chunk_size, n_steps, block, message):
    # dt = 2 makes the explicit filter step G <- (1 - 2 dt) G + ... grow by
    # about 3 per step, and the trap shift drives psi with it; the messages
    # were taken while every step was checked as it was taken
    if block is not None:
        monkeypatch.setattr(trajectory, "NOISE_BLOCK", block)
    p = ProtocolParams(1.0, 1.0, 2.0, None, ProtocolKind.LOWPASS1)
    cfg = TrajectoryConfig(dt=2.0, n_steps=n_steps, n_traj=n_traj, base_seed=seed,
                           record_stride=n_steps, chunk_size=chunk_size)
    with pytest.raises(TrajectoryError, match=f"^{message}$"):
        run_ensemble(oscillator_cooling_model(p, 6), cfg)


def test_overflowing_start_raises_trajectory_error_with_warnings_as_errors():
    # the t = 0 record squares the trap shift of 1e300 signals; that overflow
    # is the run's to report, as the step check's TrajectoryError, not as a
    # RuntimeWarning that escapes first
    p = ProtocolParams(1.0, 1.0, 2.0, None, ProtocolKind.LOWPASS1)
    cfg = TrajectoryConfig(dt=1e-3, n_steps=10, n_traj=2, base_seed=0, record_stride=5,
                           initial_signals=np.full((2, 1), 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrajectoryError, match="^trajectory 0 became non-finite at step 2$"):
            run_ensemble(oscillator_cooling_model(p, 6), cfg)


class TestMixedStart:
    """A mixed start is sampled as pure states: one uniform draw per
    trajectory, the first of its stream, picks an eigenvector of rho0.  The
    ensemble means are rho0's; the standard errors are the sampled
    estimator's."""

    def test_means_match_evolve_and_the_density_matrix_reference(self):
        # 0.7|0><0| + 0.3|1><1| has <x> = <p> = 0 and <x^2> = <p^2> = 0.8, so
        # the moment system starts at energy 0.8; the reference steps rho0 on
        # streams n_traj .. n_traj + 99 of the same seed, independent of the
        # sampled run's
        d, n_sme = 14, 100
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0], rho[1, 1] = 0.7, 0.3
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, d)
        cfg = TrajectoryConfig(dt=1e-3, n_steps=300, n_traj=400, base_seed=0,
                               record_stride=30, initial_state=QuantumState(rho))
        rec = run_ensemble(model, cfg)
        assert not rec.truncation_warning
        path = evolve(build_moment_system(p), np.array([0.8, 0.0, 0.0, 0.0]),
                      cfg.dt, cfg.n_steps)[::cfg.record_stride, 0]
        assert (np.abs(rec.energy_mean - path)[1:] <= 4.0 * rec.energy_stderr[1:]).all()

        xi = np.stack([NoiseStream(cfg.base_seed, cfg.n_traj + i).generator().standard_normal(
            (cfg.n_steps, 2)) for i in range(n_sme)])
        sme, _ = sme_ensemble(model, rho, cfg.dt, xi, cfg.record_stride)
        se = np.hypot(rec.energy_stderr, sme.std(axis=0, ddof=1) / np.sqrt(n_sme))
        assert (np.abs(rec.energy_mean - sme.mean(axis=0))[1:] <= 4.0 * se[1:]).all()

    def test_each_trajectory_starts_in_its_drawn_component(self):
        # eigenvalues, ascending: -1e-13 on |2> (clipped to 0, never drawn),
        # 0 on |3>..|7>, 0.3 + 1e-13 on |1> and 0.7 on |0>; a draw u below
        # 0.3 + 1e-13 picks |1>, any other |0>.  A basis state's energy is
        # the diagonal entry of H0, to the bit.
        rho = np.diag([0.7, 0.3 + 1e-13, -1e-13, 0, 0, 0, 0, 0]).astype(complex)
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, 8)
        drawn = []
        for seed in range(40):
            rec = run_ensemble(model, TrajectoryConfig(
                dt=1e-3, n_steps=1, n_traj=1, base_seed=seed,
                initial_state=QuantumState(rho)))
            u = NoiseStream(seed, 0).generator().random()
            drawn.append(1 if u < 0.3 + 1e-13 else 0)
            assert rec.energy_mean[0] == model.H0[drawn[-1], drawn[-1]].real, seed
        assert 0 < sum(drawn) < 40

    def test_truncation_check_reads_the_sampled_states(self):
        # half the weight on the top basis state: the trajectories that draw
        # it start with edge population 1, those that draw |0> with 0
        rho = np.diag([0.5, 0.0, 0.0, 0.0, 0.5]).astype(complex)
        cfg = TrajectoryConfig(dt=1e-3, n_steps=10, n_traj=8, base_seed=0,
                               record_stride=10, initial_state=QuantumState(rho))
        with pytest.warns(RuntimeWarning, match="truncation"):
            rec = run_ensemble(measurement_only_model(5, 1.0, 1.0), cfg)
        assert rec.truncation_warning and rec.max_edge_population == 1.0

    @pytest.mark.slow
    def test_standard_errors_cover_the_exact_mean(self):
        # 200 independent runs of 50 trajectories from 0.5|0><0| + 0.3|1><1|
        # + 0.2|2><2| (energy 1.2): the share whose t = 0.2 mean lies within 2
        # of its standard errors of the exact moment path must lie inside the
        # central 99.9% of Binomial(200, 0.954)
        from scipy.stats import binom

        d, runs = 16, 200
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0], rho[1, 1], rho[2, 2] = 0.5, 0.3, 0.2
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, d)
        exact = evolve(build_moment_system(p), np.array([1.2, 0.0, 0.0, 0.0]), 1e-3, 200)[-1, 0]
        hits = 0
        for seed in range(runs):
            rec = run_ensemble(model, TrajectoryConfig(
                dt=1e-3, n_steps=200, n_traj=50, base_seed=seed, record_stride=200,
                initial_state=QuantumState(rho)))
            assert not rec.truncation_warning
            hits += abs(rec.energy_mean[-1] - exact) <= 2.0 * rec.energy_stderr[-1]
        low, high = binom.interval(0.999, runs, 0.954)
        assert low <= hits <= high, hits


def _draws(cfg, ch):
    """The standard-normal draws run_ensemble reads for a pure start,
    shape (n_traj, n_steps, ch)."""
    return np.stack([NoiseStream(cfg.base_seed, i).generator().standard_normal(
        (cfg.n_steps, ch)) for i in range(cfg.n_traj)])


def _sse_states(model, cfg):
    """The recorded states of a pure-start run on the state-vector engine:
    yields (engine, psi, G, moments) at each record step.  The engine steps
    all trajectories as one batch, ``advance`` on its ``_moments``, with
    each trajectory's draws taken up front."""
    engine = trajectory._Engine(model, cfg.dt, cfg.record_stride)
    psi0, cdf, G0 = trajectory._initial_state(model, cfg)
    assert cdf is None, "a mixed start draws its component first"
    n = cfg.n_traj
    xi = _draws(cfg, engine.n_ch)
    state = np.repeat(psi0, n, axis=0)
    G = np.broadcast_to(G0, (n,) + G0.shape).copy()
    for s in range(cfg.n_steps + 1):
        if s:
            state, G = engine.advance(state, G, xi[:, s - 1] * np.sqrt(cfg.dt), cfg.dt,
                                      engine._moments(state, G))
        if s % cfg.record_stride == 0:
            yield engine, state, G, engine._moments(state, G)


def _sse_paths(model, cfg):
    """Every trajectory's records of a pure-start run from
    :func:`_sse_states`: energies (n, n_rec), <A_k> (n, n_rec, ch) and
    signals (n, n_rec, ch, m)."""
    energy, opmeans, signals = [], [], []
    for engine, _, G, mom in _sse_states(model, cfg):
        energy.append(engine.energies(G, mom))
        opmeans.append(mom[1][:, 1:1 + engine.n_ch])
        signals.append(G)
    return tuple(np.stack(rows, axis=1) for rows in (energy, opmeans, signals))


def _classical_paths(model, cfg):
    """The records of :func:`_sse_paths` for a d = 1 run.  The classical
    engine steps all trajectories as one batch from record to record with
    the exact transition it is built with, on each trajectory's draws taken
    up front, one trajectory at a time: (n_rec - 1, ch, m) normals made into
    increments in one ``_block_noise``, and G <- G Phi^T + increment.  The
    moments are the operators' single entries, and a generic rule's energy
    is its H(G)[0, 0]."""
    engine = trajectory._ClassicalEngine(model, cfg.dt, cfg.record_stride)
    _, _, G0 = trajectory._initial_state(model, cfg)
    n, ch, m = cfg.n_traj, engine.n_ch, engine.m
    n_rec = cfg.n_steps // cfg.record_stride + 1
    xi = np.stack([NoiseStream(cfg.base_seed, i).generator().standard_normal(
        (n_rec - 1, ch, m)) for i in range(n)])
    state = np.tile([B[0, 0].real for B in (model.H0, *model.measured_ops)], (n, 1))
    G = np.broadcast_to(G0, (n,) + G0.shape).copy()
    inc = engine._block_noise(xi, state)
    energy = np.empty((n, n_rec))
    opmeans = np.empty((n, n_rec, ch))
    signals = np.empty((n, n_rec, ch, m))
    for k in range(n_rec):
        if k:
            G = G @ engine.Phi_T + inc[:, k - 1]
        energy[:, k] = state[:, 0] if model.feedback is None else [
            model.feedback(Gi)[0, 0].real for Gi in G]
        opmeans[:, k] = state[:, 1:]
        signals[:, k] = G
    return energy, opmeans, signals


def _assert_common_noise_match(model, cfg):
    """The SSE and the reference SME on each trajectory's own draws, from the
    same pure start: energies and <A_k> equal at t = 0 and, after it, the
    mean of the per-trajectory differences within 4 of its standard errors.
    The pairing removes the spread the two paths share.
    Returns the SSE energies."""
    energy, ops, _ = _sse_paths(model, cfg)
    psi0 = trajectory._initial_state(model, cfg)[0][0]
    sme = sme_ensemble(model, np.outer(psi0, psi0.conj()), cfg.dt,
                       _draws(cfg, model.n_channels), cfg.record_stride)
    for sse_k, sme_k in zip((energy, ops), sme):
        diff = sme_k - sse_k
        assert np.abs(diff[:, 0]).max() < 1e-12
        mean = diff[:, 1:].mean(axis=0)
        se = diff[:, 1:].std(axis=0, ddof=1) / np.sqrt(cfg.n_traj)
        assert (np.abs(mean) <= 4.0 * se).all(), mean / se
    return energy


class TestStepKernel:
    """Each branch of the state-vector kernel: batch-size independence, and
    agreement with the reference density-matrix SME on common noise."""

    @staticmethod
    def _model(kind, d, rng):
        # dense operators: the sparse x, p and diagonal H0 of the oscillator
        # make many products exact, which would hide a batch dependence
        def hermitian():
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return (A + A.conj().T) / (2.0 * np.sqrt(d))

        osc = build_truncated_oscillator(d, 1.0)
        filt = lowpass_cascade((2.0, 2.0))
        trap = ShiftedTrapFeedback(osc, 1)
        if kind == "free":
            return SystemModel(hermitian(), (hermitian(), hermitian()), 1.0, filt)
        if kind == "trap":
            return SystemModel(hermitian(), (osc.x, osc.p), 1.0, filt, trap)
        return SystemModel(hermitian(), (hermitian(), hermitian()), 1.0, filt,
                           lambda G: trap(G))

    @pytest.mark.parametrize("kind", ["trap", "free", "generic"])
    def test_step_psi_does_not_depend_on_batch_size(self, kind):
        d, n, dt = 24, 64, 1e-2
        rng = np.random.default_rng(17)
        engine = trajectory._Engine(self._model(kind, d, rng), dt, 1)
        psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        G = rng.normal(0.0, 0.5, (n, 2, 2))
        xi = rng.standard_normal((n, 2))

        def step(psi, G, xi):
            return engine.advance(psi, G, xi * np.sqrt(dt), dt, engine._moments(psi, G))

        whole = step(psi, G, xi)
        for size in (1, 3, 5):
            for lo in range(0, n, size):
                rows = slice(lo, lo + size)
                part = step(psi[rows], G[rows], xi[rows])
                for got, want in zip(part, whole):
                    assert np.array_equal(got, want[rows]), (size, lo)

    def test_zero_channel_model_conserves_energy(self):
        # no channel and no noise: the SSE step keeps <H0> of a superposition
        # symmetric about its mean while the populations move
        osc = build_truncated_oscillator(10, 1.0)
        model = SystemModel(osc.H0, (), 0.0)
        psi0 = np.zeros(10, dtype=complex)
        psi0[[1, 2, 3]] = 0.5, np.exp(0.7j) / np.sqrt(2.0), 0.5
        cfg = TrajectoryConfig(dt=1e-3, n_steps=300, n_traj=3, base_seed=0,
                               record_stride=30,
                               initial_state=QuantumState(np.outer(psi0, psi0.conj())))
        rec = run_ensemble(model, cfg)
        energy, _ = sme_ensemble(model, np.outer(psi0, psi0.conj()), cfg.dt,
                                 np.zeros((3, 300, 0)), cfg.record_stride)
        assert np.ptp(rec.energy_mean) < 1e-10
        assert np.abs(rec.energy_mean - 2.5).max() < 1e-10
        assert np.abs(energy.mean(axis=0) - rec.energy_mean).max() < 1e-10
        assert rec.op_mean.shape == (0, 11) and not rec.energy_stderr.any()

    def test_one_channel_free_model_matches_sme(self):
        # from the ground state a wrong weight on S (-lam dt for -lam dt / 2)
        # shows only once x is squeezed; at 200 trajectories over t = 0.4
        # that kernel reads 6.4 paired SEs here (3.4-10 over seeds 0-9) and
        # the right one at most 2.8
        osc = build_truncated_oscillator(12, 1.0)
        model = SystemModel(osc.H0, (osc.x,), 1.0)
        cfg = TrajectoryConfig(dt=5e-4, n_steps=800, n_traj=200, base_seed=3,
                               record_stride=80)
        _assert_common_noise_match(model, cfg)

    def test_cooling_protocols_step_with_four_blocks(self):
        # [H0, x, p, S]: x and p are the measured pair, S = x^2 + p^2
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, 12)
        blocks = trajectory._Engine(model, 5e-4, 1).blocks
        assert [B.shape for B in blocks] == [(12, 12)] * 4
        x, p = model.measured_ops
        assert np.array_equal(blocks[3], x @ x + p @ p)

    def test_trap_on_rotated_quadratures_matches_sme(self):
        # the measured pair is not (x, p), so x and p get blocks of their own
        osc = build_truncated_oscillator(12, 1.0)
        u = (osc.x + osc.p) / np.sqrt(2.0)
        v = (osc.p - osc.x) / np.sqrt(2.0)
        model = SystemModel(osc.H0, (u, v), 1.0, lowpass_cascade((2.0, 2.0)),
                            ShiftedTrapFeedback(osc, 1))
        assert len(trajectory._Engine(model, 5e-4, 1).blocks) == 6
        cfg = TrajectoryConfig(dt=5e-4, n_steps=400, n_traj=30, base_seed=4,
                               record_stride=80)
        _assert_common_noise_match(model, cfg)


def _record_digest(rec):
    """sha256 of a record's float arrays, in field order."""
    h = hashlib.sha256()
    for name in ("times", "energy_mean", "energy_stderr", "op_mean", "op_stderr",
                 "signal_mean", "signal_var"):
        h.update(np.ascontiguousarray(getattr(rec, name), dtype=float).tobytes())
    return h.hexdigest()


class TestSparseStack:
    """The state-vector path applies the blocks stacked as one CSR array, Wt."""

    def test_cooling_model_stores_140_entries(self):
        # diagonal H0 and S (24 each), tridiagonal x and p (46 each): the
        # per-step work is 140 complex multiply-adds per trajectory, not 2304
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        Wt = trajectory._Engine(oscillator_cooling_model(p, 24), 5e-4, 1).Wt
        assert Wt.shape == (4 * 24, 24)
        assert Wt.nnz == 140

    @pytest.mark.parametrize("kind", ["trap", "free", "generic"])
    def test_csr_products_match_dense_blocks(self, kind):
        # each entry is a d-term complex dot product; either way of forming
        # it is within (d + 2) eps of sum |W| |psi|, so they differ by at
        # most twice that
        d, n = 24, 16
        rng = np.random.default_rng(23)
        engine = trajectory._Engine(TestStepKernel._model(kind, d, rng), 1e-3, 1)
        psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        prod, _, _ = engine._moments(psi, np.zeros((n, 2, 2)))
        W = np.concatenate(engine.blocks).T
        dense = (psi @ W).reshape(n, -1, d)
        bound = (np.abs(psi) @ np.abs(W)).reshape(n, -1, d)
        assert prod.shape == dense.shape and prod.flags.c_contiguous
        tol = 2.0 * (d + 2) * np.finfo(float).eps
        assert (np.abs(prod - dense) <= tol * bound).all()

    def test_rotated_pair_stack_has_six_blocks(self):
        # [H0, u, v, S, x, p]: the measured pair is not (x, p)
        osc = build_truncated_oscillator(12, 1.0)
        u = (osc.x + osc.p) / np.sqrt(2.0)
        v = (osc.p - osc.x) / np.sqrt(2.0)
        model = SystemModel(osc.H0, (u, v), 1.0, lowpass_cascade((2.0, 2.0)),
                            ShiftedTrapFeedback(osc, 1))
        assert trajectory._Engine(model, 1e-3, 1).Wt.shape == (6 * 12, 12)

    def test_all_zero_stack_record_is_pinned(self):
        # mean_A = 0 makes H0, A and S zero, so the stack stores nothing and
        # psi never moves; the record is the filter's alone, to the bit.  The
        # digest was taken when the d = 1 engine began to step exactly from
        # record to record
        model = frozen_signal_model(lowpass_cascade((1.0,)), 1.0)
        assert trajectory._Engine(model, 1e-3, 10).Wt.nnz == 0
        rec = run_ensemble(model, TrajectoryConfig(
            dt=1e-3, n_steps=300, n_traj=9, base_seed=5, record_stride=10,
            chunk_size=4))
        assert _record_digest(rec) == (
            "90950a8df12ca904b4552a5b8f5dffe049197d6113be7994acb99fe781f0bf05")

    def test_density_matrix_record_is_pinned(self):
        # a mixed start, each trajectory's component drawn ahead of its noise
        # over chunks of three; the digest was taken when sampling replaced
        # the density-matrix engine
        rho = np.zeros((10, 10), dtype=complex)
        rho[0, 0], rho[1, 1] = 0.7, 0.3
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        rec = run_ensemble(oscillator_cooling_model(p, 10), TrajectoryConfig(
            dt=1e-3, n_steps=40, n_traj=7, base_seed=3, record_stride=10,
            initial_state=QuantumState(rho), chunk_size=3))
        assert _record_digest(rec) == (
            "17533412472d851548c8c0aca126a6416b6fe081ad4a7e44aaa609d6bc6f20c7")

    def test_state_vector_record_is_pinned(self):
        # the bench's lowpass2 run at d = 24 (dt 5e-4, stride 20) on the
        # state-vector path, over two noise blocks and with a chunk size that
        # does not divide n_traj; the digest was taken before the step built
        # its coefficient rows per step and the loop went block by block
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        rec = run_ensemble(oscillator_cooling_model(p, 24), TrajectoryConfig(
            dt=5e-4, n_steps=1100, n_traj=5, base_seed=7, record_stride=20,
            chunk_size=2))
        assert 1100 > trajectory.NOISE_BLOCK and not rec.truncation_warning
        assert _record_digest(rec) == (
            "83fa0861448a9eeb12c103bb621ae064be8db54e9590fb5ba7a6cfcb613e17d3")

    @pytest.mark.parametrize("d, edge, flagged", [
        pytest.param(8, "0x1.d50baa2a8f8adp-6", True, id="above-limit"),
        pytest.param(12, "0x1.eb57c9a11f95bp-14", False, id="below-limit"),
    ])
    def test_edge_population_is_pinned(self, monkeypatch, d, edge, flagged):
        # the truncation check's maximum, which the record digest leaves out:
        # it peaks at step 32, mid-block for 7-step noise blocks, and is the
        # same over chunkings and blocks and equal to the largest top-two
        # population of the reference's recorded states
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, d)
        cfg = TrajectoryConfig(dt=1e-2, n_steps=60, n_traj=11, base_seed=5,
                               record_stride=4)
        runs = [dataclasses.replace(cfg, chunk_size=chunk) for chunk in (1, 5, 64)]
        recs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore" if flagged else "error")
            recs += [run_ensemble(model, run) for run in runs]
            with monkeypatch.context() as mp:
                mp.setattr(trajectory, "NOISE_BLOCK", 7)
                recs.append(run_ensemble(model, cfg))
        for rec in recs:
            assert rec.max_edge_population.hex() == edge
            assert rec.truncation_warning is flagged
        tops = [(psi[:, -2:].real**2 + psi[:, -2:].imag**2).sum(axis=1).max()
                for _, psi, _, _ in _sse_states(model, cfg)]
        assert max(tops) == float.fromhex(edge)


def _generic_models():
    """A generic rule that recentres the trap as ShiftedTrapFeedback does,
    on the state-vector engine from a pure (lowpass2, d = 7) and a sampled
    mixed start (d = 10), and on the classical (d = 1) engine, each with its
    config.  Every model counts its rule's calls in ``calls``."""
    calls = []
    p = ProtocolParams(1.0, 1.0, 1.5, 3.0, ProtocolKind.LOWPASS2)
    cfg = TrajectoryConfig(dt=1e-3, n_steps=40, n_traj=4, base_seed=6,
                           record_stride=10)
    runs = {}
    for label, d in (("psi", 7), ("rho", 10)):
        fast = oscillator_cooling_model(p, d)
        trap = ShiftedTrapFeedback(build_truncated_oscillator(d, 1.0), 1)

        def rule(G, trap=trap):
            calls.append(1)
            return trap(G)

        model = SystemModel(fast.H0, fast.measured_ops, p.lam, fast.filter_model, rule)
        runs[label] = (model, cfg)
    rho = np.zeros((10, 10), dtype=complex)
    rho[0, 0], rho[1, 1] = 0.6, 0.4
    runs["rho"] = (runs["rho"][0],
                   dataclasses.replace(cfg, initial_state=QuantumState(rho)))

    def single_entry(G):
        calls.append(1)
        return np.array([[0.5 + G[0, 0]**2 - 0.25 * G[0, 1]]])

    runs["classical"] = (SystemModel(np.array([[0.5]]), (np.array([[0.2]]),), 1.0,
                                     lowpass_cascade((1.0, 1.5)), single_entry), cfg)
    return runs, calls


class TestGenericRule:
    """A generic feedback rule: its records are pinned, and it is
    evaluated once per state."""

    @pytest.mark.parametrize("label, digest", [
        ("psi", "7431b8c47d432dc2f612fcf6cc46f344d0b0db15ba92f2a986dc7370546079c7"),
        ("rho", "4a2b97393b487a833e21aae56e48ccc22d6ca141ba42dc610d3d05fdcff0bcf8"),
    ])
    def test_record_is_pinned(self, label, digest):
        # psi taken before the engine evaluated the rule once per state, rho
        # when sampling replaced the density-matrix engine
        runs, _ = _generic_models()
        assert _record_digest(run_ensemble(*runs[label])) == digest

    @pytest.mark.parametrize("label", ["psi", "rho", "classical"])
    @pytest.mark.parametrize("stride", [1, 10])
    def test_rule_runs_once_per_state(self, label, stride):
        # each trajectory's states serve the record and the next step from
        # one evaluation: n_steps + 1 states on the state-vector engine, 164
        # calls for 4 x 40 at any stride; the classical engine steps from
        # record to record, so only the n_steps / stride + 1 recorded states
        # exist
        runs, calls = _generic_models()
        model, cfg = runs[label]
        run_ensemble(model, dataclasses.replace(cfg, record_stride=stride))
        states = cfg.n_steps // stride if label == "classical" else cfg.n_steps
        assert len(calls) == cfg.n_traj * (states + 1)


def test_finite_signals_whose_sum_overflows_pass():
    # the per-step check, which a generic rule runs at every step, sums the
    # whole batch; a sum that overflows from finite rows must fall back to
    # the row check, not fail the run.  Two trajectories of two components
    # near 8e307 overflow that sum but not a component's ensemble sum
    model = SystemModel(np.zeros((1, 1)), (np.zeros((1, 1)),), 1.0,
                        lowpass_cascade((1.0, 1.0)), lambda G: np.zeros((1, 1)))
    cfg = TrajectoryConfig(dt=1e-3, n_steps=20, n_traj=2, base_seed=0,
                           record_stride=10, initial_signals=np.full((1, 2), 8e307))
    rec = run_ensemble(model, cfg)
    assert not rec.energy_mean.any() and np.isfinite(rec.signal_mean).all()
    assert not rec.signal_var.any()


class TestConfigInputs:
    def _config(self, **kw):
        args = dict(dt=1e-3, n_steps=10, n_traj=2, base_seed=0)
        args.update(kw)
        return TrajectoryConfig(**args)

    @pytest.mark.parametrize("dt", [np.inf, np.nan])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt"):
            self._config(dt=dt)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_initial_signals_rejected(self, bad):
        signals = np.zeros((2, 2))
        signals[1, 0] = bad
        with pytest.raises(ValueError, match="initial signals"):
            self._config(initial_signals=signals)

    @pytest.mark.parametrize("name", ["n_steps", "n_traj", "record_stride",
                                      "chunk_size", "base_seed"])
    def test_non_integer_count_or_seed_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            self._config(**{name: 10.0 if name == "n_steps" else 2.0})

    @pytest.mark.parametrize("name", ["n_steps", "n_traj", "record_stride",
                                      "chunk_size"])
    def test_count_below_one_names_the_field(self, name):
        with pytest.raises(ValueError) as info:
            self._config(**{name: 0})
        assert str(info.value) == f"{name} must be at least 1, got 0"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_one_key_word_rejected(self, seed):
        # NoiseStream keys Philox with the seed mod 2**64, so -1 and 2**64
        # would run the streams of 2**64 - 1 and 0
        with pytest.raises(ValueError) as info:
            self._config(base_seed=seed)
        assert str(info.value) == f"base_seed must be in [0, 2**64), got {seed}"

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_either_end_of_the_key_word_accepted(self, seed):
        assert self._config(base_seed=seed).base_seed == seed

    def test_stride_that_does_not_divide_names_both(self):
        with pytest.raises(ValueError, match="record_stride must divide n_steps, "
                                             "got 3 and 10"):
            self._config(record_stride=3)

    @pytest.mark.parametrize("name", ["n_steps", "n_traj", "record_stride",
                                      "chunk_size", "base_seed"])
    def test_boolean_count_or_seed_rejected(self, name):
        # a bool is an int to Python; as a count or seed it is a mistake
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
            self._config(**{name: True})

    def test_numpy_integer_counts_accepted(self):
        cfg = self._config(n_steps=np.int64(10), chunk_size=np.int32(3))
        assert cfg.n_steps == 10 and cfg.chunk_size == 3


def _full_record_reference(model, cfg):
    """Ensemble statistics from every trajectory's full record.

    Keeps the (n_traj, n_rec, ...) arrays of :func:`_sse_paths`, or of
    :func:`_classical_paths` for a d = 1 model, and reduces them with
    numpy's two-pass mean/std/var, the reference that run_ensemble's
    streamed statistics are held to.
    """
    paths = _classical_paths if model.dim == 1 else _sse_paths
    energy, opmeans, signals = paths(model, cfg)
    n, (ch, m) = cfg.n_traj, signals.shape[2:]
    n_rec = energy.shape[1]

    def stderr(arr):
        if n < 2:
            return np.zeros(arr.shape[1:])
        return arr.std(axis=0, ddof=1) / np.sqrt(n)

    return dict(
        energy_mean=energy.mean(axis=0),
        energy_stderr=stderr(energy),
        op_mean=opmeans.mean(axis=0).T,
        op_stderr=stderr(opmeans).T,
        signal_mean=np.moveaxis(signals.mean(axis=0), 0, -1),
        signal_var=(np.moveaxis(signals.var(axis=0, ddof=1), 0, -1)
                    if n > 1 else np.zeros((ch, m, n_rec))),
    )


def _record_arrays(rec):
    return {f.name: np.asarray(getattr(rec, f.name))
            for f in dataclasses.fields(rec)}


class TestStreamedStatistics:
    """run_ensemble reduces its statistics while it runs; these tests hold
    it to the full-record reduction and to chunk and window invariance."""

    def _models(self):
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        lowpass2 = oscillator_cooling_model(p, 10)
        ou = frozen_signal_model(lowpass_cascade((1.0,)), 1.0, mean_A=0.3)
        # lowpass2 fits one noise block; the OU run's 300 record intervals
        # span three blocks of 146, and its -0.0 start makes the mean at
        # t = 0 a signed zero.  The d = 1 models run on the classical engine,
        # which takes a block of record intervals per call; the reference
        # takes all of a trajectory's intervals at once.
        cascades = [frozen_signal_model(lowpass_cascade(gammas), 1.0, mean_A=0.3)
                    for gammas in ((1.2, 0.8), (1.0, 2.0, 3.0))]
        return [(lowpass2, dict(dt=1e-3, n_steps=60, record_stride=5)),
                (ou, dict(dt=1e-3, n_steps=2100, record_stride=7,
                          initial_signals=np.full((1, 1), -0.0)))] + [
                (cascade, dict(dt=1e-3, n_steps=1100, record_stride=11))
                for cascade in cascades]

    @pytest.mark.parametrize("n_traj", [1, 2, 9])
    def test_matches_full_record_reference(self, n_traj):
        for model, kw in self._models():
            cfg = TrajectoryConfig(n_traj=n_traj, base_seed=4, chunk_size=4, **kw)
            rec = run_ensemble(model, cfg)
            ref = _full_record_reference(model, cfg)
            for name in ("energy", "op", "signal"):
                mean, want = getattr(rec, f"{name}_mean"), ref[f"{name}_mean"]
                assert np.array_equal(mean, want)
                assert np.array_equal(np.signbit(mean), np.signbit(want))
            for name, got, want in (
                    ("energy", rec.energy_stderr**2 * n_traj,
                     ref["energy_stderr"]**2 * n_traj),
                    ("op", rec.op_stderr**2 * n_traj, ref["op_stderr"]**2 * n_traj),
                    ("signal", rec.signal_var, ref["signal_var"])):
                scale = want + ref[f"{name}_mean"]**2
                assert (np.abs(got - want) <= 1e-12 * scale).all(), name
            if n_traj == 1:
                assert not rec.energy_stderr.any() and not rec.op_stderr.any()
                assert not rec.signal_var.any()
            else:
                assert rec.signal_var[..., -1].all()

    def test_variance_of_large_offset_keeps_its_digits(self):
        # signals near 1e6 with a spread near 0.1: sums of x and x^2 would
        # cancel about 13 digits, deviations from trajectory 0 cancel none
        model = frozen_signal_model(lowpass_cascade((1.0,)), 1.0)
        cfg = TrajectoryConfig(dt=1e-3, n_steps=60, n_traj=9, base_seed=2,
                               record_stride=6, chunk_size=4,
                               initial_signals=np.full((1, 1), 1e6))
        got = run_ensemble(model, cfg).signal_var
        want = _full_record_reference(model, cfg)["signal_var"]
        assert want[..., 1:].min() > 1e-3
        assert np.abs(got - want).max() <= 1e-9 * want.max()

    def test_chunk_and_window_invariance(self, monkeypatch):
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, 8)
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0], rho[1, 1] = 0.7, 0.3
        starts = {"psi": None, "rho": QuantumState(rho)}
        for label, state in starts.items():
            def run(chunk):
                return _record_arrays(run_ensemble(model, TrajectoryConfig(
                    dt=1e-3, n_steps=42, n_traj=7, base_seed=3, record_stride=3,
                    initial_state=state, chunk_size=chunk)))

            default_block = run(256)
            with monkeypatch.context() as mp:
                # records at every third step straddle 7-step noise blocks
                mp.setattr(trajectory, "NOISE_BLOCK", 7)
                recs = [run(chunk) for chunk in (1, 3, 64)]
            for rec in recs + [default_block]:
                for name, arr in rec.items():
                    assert np.array_equal(arr, recs[0][name]), (label, name)
                    assert np.array_equal(np.signbit(arr), np.signbit(recs[0][name]))

    def test_memory_does_not_grow_with_ensemble_size(self):
        # 2001 records of 3 columns.  A full record would be 12 MB at 256
        # trajectories and 49 MB at 1024; the run holds a 256 x 1025 x 3
        # window (6.3 MB), the 256 x 1024 noise block (2.1 MB) and the
        # per-slot sums (0.1 MB).
        model = frozen_signal_model(lowpass_cascade((1.0,)), 1.0)

        def peak_mb(n_traj):
            cfg = TrajectoryConfig(dt=1e-3, n_steps=2000, n_traj=n_traj,
                                   base_seed=0, chunk_size=256)
            tracemalloc.start()
            try:
                run_ensemble(model, cfg)
                return tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()

        small, large = peak_mb(256), peak_mb(1024)
        assert large < 1.1 * small
        assert large < 10.0


@st.composite
def _windowed_records(draw):
    """Records of shape (n_traj, n_rec, q) with signed zeros among them, a
    chunk size, the window cuts of the record slots and how many slots the
    window buffer has beyond the widest window."""
    n_traj, n_rec, q = (draw(st.integers(1, hi)) for hi in (12, 6, 3))
    entry = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e16, -1e16])
    values = draw(st.lists(entry, min_size=n_traj * n_rec * q, max_size=n_traj * n_rec * q))
    cuts = draw(st.sets(st.integers(1, n_rec - 1))) if n_rec > 1 else set()
    return (np.reshape(values, (n_traj, n_rec, q)), draw(st.integers(1, n_traj)),
            sorted(cuts), draw(st.integers(0, 2)))


# one slot and one column: the window reduces over its trajectory axis alone
_ONE_SLOT = np.array([1.0, 1e16, -1e16, 1.0, -0.0, 3.0, 0.5, -2.0, 1.0, 7.0]).reshape(10, 1, 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_windowed_records())
@example(case=(_ONE_SLOT, 10, [], 0))
@example(case=(_ONE_SLOT, 10, [], 1))
@example(case=(-_ONE_SLOT * 0.0, 4, [], 1))
def test_accumulate_adds_rows_in_trajectory_order(case):
    # the window's sums equal row-by-row sums from +0.0 in trajectory order
    # to the bit, whatever the chunks and windows
    values, chunk, cuts, spare = case
    n_traj, n_rec, q = values.shape
    windows = list(zip([0] + cuts, cuts + [n_rec]))
    acc, ref = np.zeros((3, n_rec, q)), np.empty((n_rec, q))
    win_buf = np.empty((chunk, max(hi - lo for lo, hi in windows) + spare, q))
    for start in range(0, n_traj, chunk):
        rows = values[start:start + chunk]
        win = win_buf[:len(rows)]
        for lo, hi in windows:
            win[:, :hi - lo] = rows[:, lo:hi]
            trajectory._accumulate(acc, ref, win, lo, hi, start == 0)
    want = np.zeros((3, n_rec, q))
    for row in values:
        want[0] += row
    for row in values - values[0]:
        want[1] += row
        want[2] += row * row
    assert np.array_equal(acc.view(np.uint64), want.view(np.uint64))


class TestSystemModelInputs:
    """Non-finite operators or strengths are bad input (ValueError), not a
    numerical failure found steps into a run."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_H0_rejected(self, bad):
        H0 = np.zeros((2, 2), dtype=complex)
        H0[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            SystemModel(H0, (), 0.0)

    def test_non_finite_operator_rejected(self):
        A = np.eye(3, dtype=complex)
        A[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SystemModel(np.zeros((3, 3)), (np.eye(3), A), 1.0)

    def test_nan_lam_without_channels_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            SystemModel(np.zeros((2, 2)), (), np.nan)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_non_finite_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            frozen_signal_model(lowpass_cascade((1.0,)), lam)

    def test_trap_oscillator_of_another_dimension_rejected(self):
        osc = build_truncated_oscillator(6, 1.0)
        one = np.ones((1, 1))
        model = SystemModel(one, (one, one), 1.0, lowpass_cascade((1.0,)),
                            ShiftedTrapFeedback(osc, 0))
        with pytest.raises(ValueError, match="dimension"):
            run_ensemble(model, TrajectoryConfig(dt=1e-3, n_steps=2, n_traj=1,
                                                 base_seed=0))


def _classical_pin_runs():
    """Runs of the classical (d = 1) engine whose records are pinned: the
    (1.2, 0.8) cascade under a record of mean 0.3, a band-pass filter on two
    channels of other means and a generic rule.  Each ends on a short noise
    block (250 record intervals in blocks of 102, 400 in blocks of 341),
    in chunks that do not divide ``n_traj``."""
    def rule(G):
        return np.array([[0.5 + G[0, 0]**2 - 0.25 * G[0, 1]]])

    cascade = frozen_signal_model(lowpass_cascade((1.2, 0.8)), 1.0, mean_A=0.3)
    two_channels = SystemModel(np.array([[0.25]]), (np.array([[0.3]]), np.array([[-0.1]])),
                               0.7, bandpass(1.5, 2.0))
    generic = SystemModel(np.array([[0.5]]), (np.array([[0.2]]),), 1.0,
                          lowpass_cascade((1.0, 1.5)), rule)
    every_ten = dict(dt=1e-3, n_steps=2500, record_stride=10)
    return {
        "cascade": (cascade, TrajectoryConfig(n_traj=11, base_seed=8, chunk_size=4,
                                              **every_ten)),
        "bandpass": (two_channels, TrajectoryConfig(
            dt=2e-3, n_steps=1200, n_traj=7, base_seed=9, record_stride=3, chunk_size=5)),
        "generic": (generic, TrajectoryConfig(n_traj=5, base_seed=10, chunk_size=2,
                                              **every_ten)),
    }


class TestClassicalEngine:
    """A one-dimensional model runs on the classical engine: constant
    moments and the filter recursion, no quantum state kernel."""

    def test_one_dimensional_model_routes_to_classical_engine(self, monkeypatch):
        engines = []

        class Spy(trajectory._ClassicalEngine):
            def __init__(self, *args):
                super().__init__(*args)
                engines.append(self)

        def no_state_kernel(*args):
            raise AssertionError("the state-vector kernel ran")

        monkeypatch.setattr(trajectory, "_ClassicalEngine", Spy)
        monkeypatch.setattr(trajectory._Engine, "advance", no_state_kernel)
        model = frozen_signal_model(lowpass_cascade((1.0, 2.0)), 1.0, mean_A=0.3)
        run_ensemble(model, TrajectoryConfig(dt=1e-3, n_steps=20, n_traj=3,
                                             base_seed=0, record_stride=5))
        assert len(engines) == 1
        assert "Wt" not in vars(engines[0])

    def test_record_does_not_depend_on_chunking_or_noise_block(self, monkeypatch):
        for gammas in ((1.2, 0.8), (1.0, 2.0, 3.0)):
            model = frozen_signal_model(lowpass_cascade(gammas), 1.0, mean_A=0.3)

            def run(chunk):
                return _record_arrays(run_ensemble(model, TrajectoryConfig(
                    dt=1e-3, n_steps=60, n_traj=9, base_seed=2, record_stride=3,
                    chunk_size=chunk)))

            recs = [run(chunk) for chunk in (1, 4, 256)]
            with monkeypatch.context() as mp:
                mp.setattr(trajectory, "NOISE_BLOCK", 7)
                recs.append(run(4))
            for rec in recs[1:]:
                for name, arr in rec.items():
                    assert np.array_equal(arr, recs[0][name]), (gammas, name)
                    assert np.array_equal(np.signbit(arr), np.signbit(recs[0][name]))

    @pytest.mark.parametrize("label, digest", [
        ("cascade", "c974b5c920ef1a63a8c47e67b62a296c48903734da6cbfa77676949fa7709d4c"),
        ("bandpass", "637d78a71a58a56ce5c875400a7ea40711f428276d223239626c428059c215a5"),
        ("generic", "7bc335261681401147e2584f877a4b24b865af6320859a8fde7ee8042a52d4f8"),
    ])
    def test_record_is_pinned(self, label, digest):
        # the digests were taken before the engine wrote a block's records
        # straight into the record window
        model, cfg = _classical_pin_runs()[label]
        assert _record_digest(run_ensemble(model, cfg)) == digest

    def test_constant_moments_are_exact(self):
        # every trajectory records the operators' single entries to the
        # bit: the spread is exactly zero, and the mean of five equal values
        # is the value
        model = SystemModel(np.array([[0.37]]), (np.array([[0.8]]),), 1.0,
                            lowpass_cascade((1.0,)))
        rec = run_ensemble(model, TrajectoryConfig(
            dt=1e-3, n_steps=30, n_traj=5, base_seed=1, record_stride=10,
            chunk_size=2))
        assert (rec.op_mean == 0.8).all() and (rec.energy_mean == 0.37).all()
        assert not rec.op_stderr.any() and not rec.energy_stderr.any()
        assert rec.signal_var[..., -1].all()

    def test_generic_feedback_energy_is_the_single_entry(self):
        def fb(G):
            return np.array([[0.5 + G[0, 0]**2 - 0.25 * G[0, 1]]])

        model = SystemModel(np.array([[0.5]]), (np.array([[0.2]]),), 1.0,
                            lowpass_cascade((1.0, 1.5)), fb)
        cfg = TrajectoryConfig(dt=1e-3, n_steps=40, n_traj=1, base_seed=3,
                               record_stride=4)
        rec = run_ensemble(model, cfg)
        want = [fb(rec.signal_mean[..., t])[0, 0] for t in range(len(rec.times))]
        assert np.array_equal(rec.energy_mean, want)
        # the reference steps every trajectory through the same transition
        # and reduces the full record with numpy, so it agrees to rounding
        for n_traj in (1, 4):
            cfg = dataclasses.replace(cfg, n_traj=n_traj)
            rec, ref = run_ensemble(model, cfg), _full_record_reference(model, cfg)
            eps = np.finfo(float).eps
            assert np.abs(rec.energy_mean - ref["energy_mean"]).max() <= (
                4 * eps * np.abs(ref["energy_mean"]).max())
            assert np.abs(rec.signal_mean - ref["signal_mean"]).max() <= (
                4 * eps * np.abs(ref["signal_mean"]).max())

    def test_divergent_filter_names_trajectory_and_step(self):
        # an exact step of a stable filter never diverges, so the filter
        # dG = 2 G dt + z dt is unstable in continuous time.  Over one
        # record interval of h = 400 its exact map e^{2h} overflows, so the
        # first interval is non-finite and is named by its record step
        model = frozen_signal_model(FilterModel([[2.0]], [1.0]), 1.0)
        cfg = TrajectoryConfig(dt=1.0, n_steps=400, n_traj=2, base_seed=0,
                               record_stride=400)
        with pytest.raises(TrajectoryError,
                           match="^trajectory 0 became non-finite at step 400$"):
            run_ensemble(model, cfg)

    @pytest.mark.parametrize("n_traj, chunk_size, block, message", [
        pytest.param(2, 256, None, "trajectory 1 became non-finite at step 356",
                     id="one-chunk"),
        pytest.param(7, 3, None, "trajectory 1 became non-finite at step 356",
                     id="chunks-of-three"),
        # 100-step blocks hold 50 record intervals: the failure lands
        # mid-block, so the block that failed its end-of-block check is
        # replayed interval by interval
        pytest.param(7, 3, 100, "trajectory 1 became non-finite at step 356",
                     id="mid-block"),
    ])
    def test_divergence_names_the_first_trajectory_and_step(
            self, monkeypatch, n_traj, chunk_size, block, message):
        # the unstable filter above, stepped exactly over record intervals
        # of two steps: its signals grow as e^{2t} and overflow near
        # t = 355.  A step is named by its record step k * stride; the
        # messages were taken with one-interval blocks, so every interval
        # was checked as it was taken
        if block is not None:
            monkeypatch.setattr(trajectory, "NOISE_BLOCK", block)
        model = frozen_signal_model(FilterModel([[2.0]], [1.0]), 1.0)
        cfg = TrajectoryConfig(dt=1.0, n_steps=400, n_traj=n_traj, base_seed=0,
                               record_stride=2, chunk_size=chunk_size)
        with pytest.raises(TrajectoryError, match=f"^{message}$"):
            run_ensemble(model, cfg)

    def test_overflowing_statistics_name_the_first_record(self):
        # the unstable filter's signals stay finite (below 1e260 at t = 300)
        # but their squared deviations overflow from t = 179 on; a variance
        # that is NaN from finite records is the run's to report, as a
        # TrajectoryError, not as a RuntimeWarning or a silent NaN
        model = frozen_signal_model(FilterModel([[2.0]], [1.0]), 1.0)
        cfg = TrajectoryConfig(dt=1.0, n_steps=300, n_traj=2, base_seed=0,
                               record_stride=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrajectoryError, match=(
                    r"^ensemble statistics became non-finite at record 179 \(t = 179\)$")):
                run_ensemble(model, cfg)

    def test_records_depend_on_dt_only_through_the_record_interval(self):
        # a step is one record interval h = stride * dt, taken exactly on
        # m normals per channel, so runs with the same h and record count
        # are the same run
        model = frozen_signal_model(lowpass_cascade((1.2, 0.8)), 1.0, mean_A=0.3)
        recs = [_record_arrays(run_ensemble(model, TrajectoryConfig(
            dt=dt, n_steps=stride * 30, n_traj=5, base_seed=4, record_stride=stride)))
            for dt, stride in ((1.0, 1), (0.5, 2), (0.25, 4))]
        for rec in recs[1:]:
            for name, arr in rec.items():
                assert np.array_equal(arr, recs[0][name]), name

    def test_standard_errors_cover_the_exact_transient(self):
        # 200 runs of 50 trajectories of the (1.2, 0.8) cascade from
        # G0 = (1, -0.5) under a record of mean 0.3.  At t = 1 the exact mean
        # is mu + e^{M t}(G0 - mu) and the exact covariance X - Phi X Phi^T,
        # with (mu, X) the stationary statistics and Phi = e^{M t}.  Per
        # component, the share of runs whose mean lies within 2 of its
        # standard errors of the exact one must lie inside the central 99.9%
        # of Binomial(200, 0.954); the runs' mean variance must lie within 4
        # of its standard errors of the exact one
        from scipy.linalg import expm

        from filtercool.filters import stationary_statistics

        fm, runs, n_traj = lowpass_cascade((1.2, 0.8)), 200, 50
        model = frozen_signal_model(fm, 1.0, mean_A=0.3)
        G0 = np.array([[1.0, -0.5]])
        mu, X = stationary_statistics(fm, 1.0, 0.3)
        phi = expm(fm.M * 1.0)
        mean = mu + phi @ (G0[0] - mu)
        var = np.diag(X - phi @ X @ phi.T)
        hits, variances = np.zeros(2, dtype=int), []
        for seed in range(runs):
            rec = run_ensemble(model, TrajectoryConfig(
                dt=0.05, n_steps=20, n_traj=n_traj, base_seed=seed, record_stride=10,
                initial_signals=G0))
            assert rec.times[-1] == 1.0
            se = np.sqrt(rec.signal_var[0, :, -1] / n_traj)
            hits += np.abs(rec.signal_mean[0, :, -1] - mean) <= 2.0 * se
            variances.append(rec.signal_var[0, :, -1])
        low, high = _binomial_interval(0.999, runs, 0.954)
        assert ((low <= hits) & (hits <= high)).all(), hits
        variances = np.array(variances)
        se = variances.std(axis=0, ddof=1) / np.sqrt(runs)
        assert (np.abs(variances.mean(axis=0) - var) <= 4.0 * se).all()

    def test_peak_memory_of_a_block(self):
        # 256 trajectories x 2000 steps at stride 10: 200 record intervals
        # in blocks of 102, so the 256 x 102 noise block (0.21 MB), the
        # 256 x 103 x 3 record window (0.63 MB), the 256 generators
        # (0.16 MB) and the per-slot sums; the peak is 1.23 MB.  The block
        # is stepped into the window; a copy of the window would break the
        # bound, about 1.2 times the peak
        model = frozen_signal_model(lowpass_cascade((1.0,)), 1.0)
        cfg = TrajectoryConfig(dt=1e-3, n_steps=2000, n_traj=256, base_seed=0,
                               record_stride=10)
        tracemalloc.start()
        try:
            run_ensemble(model, cfg)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb <= 1.5


def _binomial_interval(coverage, n, p):
    """The central interval of Binomial(n, p) as ``scipy.stats.binom.interval``
    gives it, without the half-second import of ``scipy.stats``."""
    cdf = np.cumsum([math.comb(n, k) * p**k * (1.0 - p)**(n - k) for k in range(n + 1)])
    tail = 0.5 * (1.0 - coverage)
    return int(np.searchsorted(cdf, tail)), int(np.searchsorted(cdf, 1.0 - tail))


def _trap_model(ops, filter_model, tap=0):
    osc = build_truncated_oscillator(4, 1.0)
    return SystemModel(osc.H0, tuple(getattr(osc, o) for o in ops), 1.0, filter_model,
                       ShiftedTrapFeedback(osc, tap))


def _run(**start):
    cfg = TrajectoryConfig(dt=1e-3, n_steps=1, n_traj=1, base_seed=0, **start)
    return run_ensemble(_trap_model("xp", lowpass_cascade((1.0,))), cfg)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: trajectory._Engine(_trap_model("x", lowpass_cascade((1.0,))), 1e-3, 1),
                 r"trap-shift feedback needs the \(x, p\) channel pair", id="one-channel"),
    pytest.param(lambda: trajectory._Engine(_trap_model("xp", None), 1e-3, 1),
                 "trap-shift feedback needs a filter model", id="no-filter"),
    pytest.param(lambda: trajectory._Engine(
        _trap_model("xp", lowpass_cascade((1.0,)), tap=1), 1e-3, 1),
                 "tap index 1 out of range for 1-component filter", id="tap-out-of-range"),
    pytest.param(lambda: _run(initial_state=QuantumState.ground_state(3)),
                 "initial state dimension does not match the model", id="start-dimension"),
    pytest.param(lambda: _run(initial_signals=np.zeros((2, 2))),
                 r"initial signals must have shape \(2, 1\), got \(2, 2\)",
                 id="start-signal-shape"),
    pytest.param(lambda: QuantumState(np.zeros((2, 3))),
                 r"density matrix must be square, got \(2, 3\)", id="state-not-square"),
    pytest.param(lambda: QuantumState(np.diag([np.nan, 1.0])),
                 "density matrix has non-finite entries", id="state-non-finite"),
    pytest.param(lambda: QuantumState(np.diag([1.0 + 1e-11, -1e-11])),
                 "density matrix is not positive semidefinite", id="state-not-positive"),
    pytest.param(lambda: SystemModel(np.zeros((2, 3)), (), 0.0),
                 "H0 must be square", id="H0-not-square"),
    pytest.param(lambda: SystemModel(np.zeros((2, 2)), (np.eye(3),), 1.0),
                 "all operators must share the Hilbert dimension", id="operator-dimension"),
    pytest.param(lambda: SystemModel(np.zeros((2, 2)), (np.triu(np.ones((2, 2))),), 1.0),
                 "operators must be Hermitian", id="operator-not-hermitian"),
    pytest.param(lambda: build_truncated_oscillator(4, 0.0),
                 "omega must be positive and finite, got 0.0", id="oscillator-omega"),
    pytest.param(lambda: build_truncated_oscillator(4, np.inf),
                 "omega must be positive and finite, got inf", id="oscillator-omega-inf"),
    pytest.param(lambda: build_truncated_oscillator(4, np.nan),
                 "omega must be positive and finite, got nan", id="oscillator-omega-nan"),
    pytest.param(lambda: _trap_model("xp", None, tap=-1),
                 "tap index must be nonnegative", id="negative-tap"),
    pytest.param(lambda: _trap_model("xp", None).feedback(np.zeros((3, 1))),
                 r"expected signals with one row per \(x, p\) channel",
                 id="feedback-signal-rows"),
])
def test_input_check_names_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
