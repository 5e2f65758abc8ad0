import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from filtercool import trajectory
from filtercool.filters import lowpass_cascade
from filtercool.moment_systems import ProtocolKind, ProtocolParams
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
    step,
)


class TestQuantumState:
    def test_ground_state(self):
        s = QuantumState.ground_state(4)
        assert s.dim == 4 and s.purity() == pytest.approx(1.0)
        assert s.populations()[0] == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            QuantumState(rho)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(np.eye(2, dtype=complex))

    def test_ground_state_of_oscillator(self):
        osc = build_truncated_oscillator(8, 1.0)
        s = QuantumState.ground_state_of(osc.H0)
        assert s.expectation(osc.H0) == pytest.approx(0.5, abs=1e-12)


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
    def test_trace_is_one_after_step(self):
        model = oscillator_cooling_model(
            ProtocolParams(1.0, 1.0, 2.0, None, ProtocolKind.LOWPASS1), 10)
        state = QuantumState.ground_state(10)
        signals = np.zeros((2, 1))
        gen = NoiseStream(0, 0).generator()
        for _ in range(20):
            state, signals = step(state, signals, model, 1e-3, gen)
            assert abs(np.trace(state.rho).real - 1.0) < 1e-14
            assert np.abs(state.rho - state.rho.conj().T).max() < 1e-14

    def test_unitary_limit_conserves_energy(self):
        # no measurement channels: plain Hamiltonian step, energy exact
        osc = build_truncated_oscillator(8, 1.0)
        model = SystemModel(osc.H0, (), 0.0, None, None)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        state = QuantumState(np.outer(v, v.conj()))
        e0 = state.expectation(osc.H0)
        for _ in range(50):
            state, _ = step(state, np.zeros((0, 0)), model, 1e-3,
                            np.zeros(0))
        assert abs(state.expectation(osc.H0) - e0) < 1e-10

    def test_purity_stays_high_and_improves_with_dt(self):
        # the continuous flow preserves purity; the integrator defect is
        # O(dt) and must stay within 5e-3 over 1e3 steps at dt=1e-4
        osc = build_truncated_oscillator(15, 1.0)
        model = SystemModel(osc.H0, (osc.x,), 1.0, None, None)

        def max_defect(dt, n_steps):
            state = QuantumState.ground_state(15)
            signals = np.zeros((1, 0))
            gen = NoiseStream(1, 0).generator()
            worst = 0.0
            for _ in range(n_steps):
                state, signals = step(state, signals, model, dt, gen)
                worst = max(worst, 1.0 - state.purity())
            return worst

        coarse = max_defect(1e-4, 1000)
        assert coarse <= 5e-3
        assert max_defect(5e-5, 2000) < coarse

    def test_noise_array_matches_generator(self):
        model = oscillator_cooling_model(
            ProtocolParams(1.0, 1.0, 1.0, 2.0, ProtocolKind.LOWPASS2), 8)
        xi = NoiseStream(3, 0).normal(2)
        s0 = QuantumState.ground_state(8)
        sig0 = np.zeros((2, 2))
        s1, g1 = step(s0, sig0, model, 1e-3, xi)
        s2, g2 = step(s0, sig0, model, 1e-3, NoiseStream(3, 0).generator())
        assert np.array_equal(s1.rho, s2.rho) and np.array_equal(g1, g2)

    def test_bad_signal_shape_rejected(self):
        model = oscillator_cooling_model(
            ProtocolParams(1.0, 1.0, 2.0, None, ProtocolKind.LOWPASS1), 6)
        with pytest.raises(ValueError):
            step(QuantumState.ground_state(6), np.zeros((2, 3)), model, 1e-3,
                 np.zeros(2))


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

    def test_generic_feedback_on_density_matrix_matches_trap(self):
        # a mixed start runs the density-matrix engine; a custom rule takes its
        # generic commutator and energy branches, the trap model its own
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
        # run_ensemble steps the pure start as a state vector; a loop of
        # step() integrates the density-matrix SME on the same draws
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, 14)
        dt, n_steps, n_traj, stride, seed = 1e-3, 400, 40, 40, 5
        cfg = TrajectoryConfig(dt=dt, n_steps=n_steps, n_traj=n_traj,
                               base_seed=seed, record_stride=stride)
        rec = run_ensemble(model, cfg)
        sme = np.empty((n_traj, rec.times.size))
        for i in range(n_traj):
            gen = NoiseStream(seed, i).generator()
            state = QuantumState.ground_state_of(model.H0)
            signals = np.zeros((2, 2))
            sme[i, 0] = state.expectation(model.feedback(signals))
            for s in range(1, n_steps + 1):
                state, signals = step(state, signals, model, dt, gen)
                if s % stride == 0:
                    sme[i, s // stride] = state.expectation(model.feedback(signals))
        dev = np.abs(sme.mean(axis=0) - rec.energy_mean)
        assert dev[0] < 1e-12
        assert (dev[1:] <= 0.5 * rec.energy_stderr[1:]).all()

    def test_mixed_initial_state_runs_density_matrix_path(self):
        rho = np.zeros((10, 10), dtype=complex)
        rho[0, 0], rho[1, 1] = 0.7, 0.3
        p = ProtocolParams(1.0, 1.0, 2.0, None, ProtocolKind.LOWPASS1)
        model = oscillator_cooling_model(p, 10)
        cfg = TrajectoryConfig(dt=1e-3, n_steps=20, n_traj=3, base_seed=2,
                               record_stride=10, initial_state=QuantumState(rho))
        rec = run_ensemble(model, cfg)
        assert rec.energy_mean[0] == pytest.approx(0.8, abs=1e-12)
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

    def test_noise_block_size_does_not_change_results(self, monkeypatch):
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, 8)
        cfg = TrajectoryConfig(dt=1e-3, n_steps=50, n_traj=4, base_seed=1,
                               record_stride=5)
        ref = run_ensemble(model, cfg)
        monkeypatch.setattr(trajectory, "NOISE_BLOCK", 7)
        rec = run_ensemble(model, cfg)
        assert np.array_equal(rec.energy_mean, ref.energy_mean)
        assert np.array_equal(rec.op_mean, ref.op_mean)
        assert np.array_equal(rec.signal_mean, ref.signal_mean)
        assert np.array_equal(rec.signal_var, ref.signal_var)


def _sme_loop(model, cfg, psi0):
    """Energies and <A_k>, shape (n_traj, n_rec[, ch]), of density-matrix
    step() trajectories driven by run_ensemble's noise streams."""
    stride, n_rec = cfg.record_stride, cfg.n_steps // cfg.record_stride + 1
    energy = np.empty((cfg.n_traj, n_rec))
    ops = np.empty((cfg.n_traj, n_rec, model.n_channels))
    for i in range(cfg.n_traj):
        gen = NoiseStream(cfg.base_seed, i).generator()
        state = QuantumState(np.outer(psi0, psi0.conj()))
        signals = np.zeros((model.n_channels, model.n_signal_components))
        for s in range(cfg.n_steps + 1):
            if s:
                state, signals = step(state, signals, model, cfg.dt, gen)
            if s % stride == 0:
                H = model.feedback(signals) if model.feedback else model.H0
                energy[i, s // stride] = state.expectation(H)
                ops[i, s // stride] = [state.expectation(A) for A in model.measured_ops]
    return energy, ops


def _assert_common_noise_match(rec, energy, ops):
    """Ensemble means equal at t = 0 and within 0.5 standard errors after.

    The two integrators differ by O(sqrt(dt)) per path, which is a sizeable
    share of the early spread, so the first record should be 80 steps in."""
    pairs = [(rec.energy_mean, rec.energy_stderr, energy)]
    pairs += [(rec.op_mean[k], rec.op_stderr[k], ops[..., k])
              for k in range(ops.shape[-1])]
    for mean, stderr, sme in pairs:
        dev = np.abs(sme.mean(axis=0) - mean)
        assert dev[0] < 1e-12
        assert (dev[1:] <= 0.5 * stderr[1:]).all(), dev / stderr


class TestStepKernel:
    """Each branch of the state-vector kernel: batch-size independence, and
    agreement with the density-matrix step() on common noise."""

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
        engine = trajectory._Engine(self._model(kind, d, rng))
        psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        G = rng.normal(0.0, 0.5, (n, 2, 2))
        xi = rng.standard_normal((n, 2))
        whole = engine.step(psi, G, xi, dt)
        for size in (1, 3, 5):
            for lo in range(0, n, size):
                rows = slice(lo, lo + size)
                part = engine.step(psi[rows], G[rows], xi[rows], dt)
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
        energy, _ = _sme_loop(model, cfg, psi0)
        assert np.ptp(rec.energy_mean) < 1e-10
        assert np.abs(rec.energy_mean - 2.5).max() < 1e-10
        assert np.abs(energy.mean(axis=0) - rec.energy_mean).max() < 1e-10
        assert rec.op_mean.shape == (0, 11) and not rec.energy_stderr.any()

    def test_one_channel_free_model_matches_sme(self):
        osc = build_truncated_oscillator(12, 1.0)
        model = SystemModel(osc.H0, (osc.x,), 1.0)
        cfg = TrajectoryConfig(dt=5e-4, n_steps=400, n_traj=30, base_seed=3,
                               record_stride=80)
        rec = run_ensemble(model, cfg)
        psi0 = trajectory._initial_state(model, cfg)[0]
        _assert_common_noise_match(rec, *_sme_loop(model, cfg, psi0))

    def test_cooling_protocols_step_with_four_blocks(self):
        # [H0, x, p, S]: x and p are the measured pair, S = x^2 + p^2
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, 12)
        blocks = trajectory._Engine(model).blocks
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
        assert len(trajectory._Engine(model).blocks) == 6
        cfg = TrajectoryConfig(dt=5e-4, n_steps=400, n_traj=30, base_seed=4,
                               record_stride=80)
        rec = run_ensemble(model, cfg)
        psi0 = trajectory._initial_state(model, cfg)[0]
        _assert_common_noise_match(rec, *_sme_loop(model, cfg, psi0))


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
        Wt = trajectory._Engine(oscillator_cooling_model(p, 24)).Wt
        assert Wt.shape == (4 * 24, 24)
        assert Wt.nnz == 140

    @pytest.mark.parametrize("kind", ["trap", "free", "generic"])
    def test_csr_products_match_dense_blocks(self, kind):
        # each entry is a d-term complex dot product; either way of forming
        # it is within (d + 2) eps of sum |W| |psi|, so they differ by at
        # most twice that
        d, n = 24, 16
        rng = np.random.default_rng(23)
        engine = trajectory._Engine(TestStepKernel._model(kind, d, rng))
        psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        prod, _ = engine._moments(psi)
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
        assert trajectory._Engine(model).Wt.shape == (6 * 12, 12)

    def test_all_zero_stack_record_is_pinned(self):
        # mean_A = 0 makes H0, A and S zero, so the stack stores nothing and
        # psi never moves; the record (digest taken before the stack was
        # sparse) is the filter's alone, to the bit
        model = frozen_signal_model(lowpass_cascade((1.0,)), 1.0)
        assert trajectory._Engine(model).Wt.nnz == 0
        rec = run_ensemble(model, TrajectoryConfig(
            dt=1e-3, n_steps=300, n_traj=9, base_seed=5, record_stride=10,
            chunk_size=4))
        assert _record_digest(rec) == (
            "537e99342bd1cffae8c9f89c97a503e946135a22b92c20e676005934fecfb19f")

    def test_density_matrix_record_is_pinned(self):
        # a mixed start runs the SME path, which the sparse stack leaves
        # alone: the digest was taken before the stack was sparse
        rho = np.zeros((10, 10), dtype=complex)
        rho[0, 0], rho[1, 1] = 0.7, 0.3
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        rec = run_ensemble(oscillator_cooling_model(p, 10), TrajectoryConfig(
            dt=1e-3, n_steps=40, n_traj=7, base_seed=3, record_stride=10,
            initial_state=QuantumState(rho), chunk_size=3))
        assert _record_digest(rec) == (
            "ede2fab36bb60e278221ba71b1c8c79b094964d780716878dcf99280b3c71adf")

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

    def test_density_matrix_paths_do_not_build_the_stack(self, monkeypatch):
        # step() builds an engine per call, and the SME reference loops call
        # it about 1e4 times; neither it nor a mixed-start run needs Wt
        engines = []

        class Spy(trajectory._Engine):
            def __init__(self, model):
                super().__init__(model)
                engines.append(self)

        monkeypatch.setattr(trajectory, "_Engine", Spy)
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        model = oscillator_cooling_model(p, 8)
        step(QuantumState.ground_state(8), np.zeros((2, 2)), model, 1e-3,
             np.zeros(2))
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0], rho[1, 1] = 0.7, 0.3
        run_ensemble(model, TrajectoryConfig(
            dt=1e-3, n_steps=10, n_traj=2, base_seed=0, record_stride=5,
            initial_state=QuantumState(rho)))
        assert len(engines) == 2
        assert not any("Wt" in vars(e) for e in engines)
        run_ensemble(model, TrajectoryConfig(
            dt=1e-3, n_steps=10, n_traj=2, base_seed=0, record_stride=5))
        assert "Wt" in vars(engines[-1])


def test_finite_signals_whose_sum_overflows_pass():
    # the per-step check sums the whole batch; a sum that overflows from
    # finite rows must fall back to the row check, not fail the run
    model = frozen_signal_model(lowpass_cascade((1.0,)), 1.0)
    cfg = TrajectoryConfig(dt=1e-3, n_steps=20, n_traj=3, base_seed=0,
                           record_stride=10, initial_signals=np.full((1, 1), 1e308))
    rec = run_ensemble(model, cfg)
    assert not rec.energy_mean.any() and not rec.signal_var.any()


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

    def test_stride_that_does_not_divide_names_both(self):
        with pytest.raises(ValueError, match="record_stride must divide n_steps, "
                                             "got 3 and 10"):
            self._config(record_stride=3)

    def test_numpy_integer_counts_accepted(self):
        cfg = self._config(n_steps=np.int64(10), chunk_size=np.int32(3))
        assert cfg.n_steps == 10 and cfg.chunk_size == 3


def _full_record_reference(model, cfg):
    """Ensemble statistics from every trajectory's full record.

    Keeps (n_traj, n_rec, ...) arrays and reduces them with numpy's
    two-pass mean/std/var, the reference that run_ensemble's streamed
    statistics are held to.  All trajectories are stepped as one batch,
    with each trajectory's noise drawn up front.
    """
    engine = trajectory._Engine(model)
    state0, G0 = trajectory._initial_state(model, cfg)
    n, ch, m, stride = cfg.n_traj, engine.n_ch, engine.m, cfg.record_stride
    n_rec = cfg.n_steps // stride + 1
    xi = np.stack([NoiseStream(cfg.base_seed, i).generator().standard_normal(
        (cfg.n_steps, ch)) for i in range(n)])
    state = np.broadcast_to(state0, (n,) + state0.shape).copy()
    G = np.broadcast_to(G0, (n,) + G0.shape).copy()
    energy = np.empty((n, n_rec))
    opmeans = np.empty((n, n_rec, ch))
    signals = np.empty((n, n_rec, ch, m))
    for s in range(cfg.n_steps + 1):
        if s:
            state, G = engine.step(state, G, xi[:, s - 1], cfg.dt)
        if s % stride == 0:
            mom = engine._moments(state)
            energy[:, s // stride] = engine.energies(state, G, mom)
            opmeans[:, s // stride] = engine.op_means(mom)
            signals[:, s // stride] = G

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
        # lowpass2 fits one noise block; the OU run spans three, and its
        # -0.0 start makes the mean at t = 0 a signed zero
        return [(lowpass2, dict(dt=1e-3, n_steps=60, record_stride=5)),
                (ou, dict(dt=1e-3, n_steps=2100, record_stride=7,
                          initial_signals=np.full((1, 1), -0.0)))]

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


class TestClassicalEngine:
    """A one-dimensional model runs on the classical engine: constant
    moments and the filter recursion, no quantum state kernel."""

    def test_one_dimensional_model_routes_to_classical_engine(self, monkeypatch):
        engines = []

        class Spy(trajectory._ClassicalEngine):
            def __init__(self, model):
                super().__init__(model)
                engines.append(self)

        def no_state_kernel(*args):
            raise AssertionError("the state-vector kernel ran")

        monkeypatch.setattr(trajectory, "_ClassicalEngine", Spy)
        monkeypatch.setattr(trajectory._Engine, "_advance_psi", no_state_kernel)
        model = frozen_signal_model(lowpass_cascade((1.0, 2.0)), 1.0, mean_A=0.3)
        run_ensemble(model, TrajectoryConfig(dt=1e-3, n_steps=20, n_traj=3,
                                             base_seed=0, record_stride=5))
        assert len(engines) == 1
        assert "Wt" not in vars(engines[0])

    def test_record_does_not_depend_on_chunking_or_noise_block(self, monkeypatch):
        model = frozen_signal_model(lowpass_cascade((1.2, 0.8)), 1.0, mean_A=0.3)

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
                assert np.array_equal(arr, recs[0][name]), name
                assert np.array_equal(np.signbit(arr), np.signbit(recs[0][name]))

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
        # the state-vector path carries the phase of psi through the same
        # steps, so it agrees to rounding
        for n_traj in (1, 4):
            cfg = dataclasses.replace(cfg, n_traj=n_traj)
            rec, ref = run_ensemble(model, cfg), _full_record_reference(model, cfg)
            eps = np.finfo(float).eps
            assert np.abs(rec.energy_mean - ref["energy_mean"]).max() <= (
                4 * eps * np.abs(ref["energy_mean"]).max())
            assert np.abs(rec.signal_mean - ref["signal_mean"]).max() <= (
                4 * eps * np.abs(ref["signal_mean"]).max())

    def test_divergent_filter_names_trajectory_and_step(self):
        # dt = 50 makes the explicit recursion G <- (1 - gamma dt) G + ...
        # grow by about 49 per step, so it overflows within 400 steps
        model = frozen_signal_model(lowpass_cascade((1.0,)), 1.0)
        cfg = TrajectoryConfig(dt=50.0, n_steps=400, n_traj=2, base_seed=0,
                               record_stride=400)
        with pytest.raises(TrajectoryError,
                           match=r"trajectory [01] became non-finite at step \d+"):
            run_ensemble(model, cfg)


def _trap_model(ops, filter_model, tap=0):
    osc = build_truncated_oscillator(4, 1.0)
    return SystemModel(osc.H0, tuple(getattr(osc, o) for o in ops), 1.0, filter_model,
                       ShiftedTrapFeedback(osc, tap))


def _step(model=None, dt=1e-3, noise=(0.0, 0.0)):
    model = model or _trap_model("xp", lowpass_cascade((1.0,)))
    return step(QuantumState.ground_state(4), np.zeros((2, 1)), model, dt, np.array(noise))


def _run(**start):
    cfg = TrajectoryConfig(dt=1e-3, n_steps=1, n_traj=1, base_seed=0, **start)
    return run_ensemble(_trap_model("xp", lowpass_cascade((1.0,))), cfg)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _step(_trap_model("x", lowpass_cascade((1.0,))), noise=(0.0,)),
                 r"trap-shift feedback needs the \(x, p\) channel pair", id="one-channel"),
    pytest.param(lambda: _step(_trap_model("xp", None)),
                 "trap-shift feedback needs a filter model", id="no-filter"),
    pytest.param(lambda: _step(_trap_model("xp", lowpass_cascade((1.0,)), tap=1)),
                 "tap index 1 out of range for 1-component filter", id="tap-out-of-range"),
    pytest.param(lambda: _step(dt=0.0), "dt must be positive", id="step-dt"),
    pytest.param(lambda: _step(noise=(0.0, 0.0, 0.0)),
                 r"need one noise draw per channel, got shape \(3,\)", id="step-noise-shape"),
    pytest.param(lambda: _run(initial_state=QuantumState.ground_state(3)),
                 "initial state dimension does not match the model", id="start-dimension"),
    pytest.param(lambda: _run(initial_signals=np.zeros((2, 2))),
                 r"initial signals must have shape \(2, 1\), got \(2, 2\)",
                 id="start-signal-shape"),
    pytest.param(lambda: QuantumState(np.zeros((2, 3))),
                 r"density matrix must be square, got \(2, 3\)", id="state-not-square"),
    pytest.param(lambda: QuantumState(np.diag([np.nan, 1.0])),
                 "density matrix has non-finite entries", id="state-non-finite"),
    pytest.param(lambda: SystemModel(np.zeros((2, 3)), (), 0.0),
                 "H0 must be square", id="H0-not-square"),
    pytest.param(lambda: SystemModel(np.zeros((2, 2)), (np.eye(3),), 1.0),
                 "all operators must share the Hilbert dimension", id="operator-dimension"),
    pytest.param(lambda: SystemModel(np.zeros((2, 2)), (np.triu(np.ones((2, 2))),), 1.0),
                 "operators must be Hermitian", id="operator-not-hermitian"),
    pytest.param(lambda: build_truncated_oscillator(4, 0.0),
                 "omega must be positive, got 0.0", id="oscillator-omega"),
    pytest.param(lambda: _trap_model("xp", None, tap=-1),
                 "tap index must be nonnegative", id="negative-tap"),
    pytest.param(lambda: _trap_model("xp", None).feedback(np.zeros((3, 1))),
                 r"expected signals with one row per \(x, p\) channel",
                 id="feedback-signal-rows"),
])
def test_input_check_names_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
