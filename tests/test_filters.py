import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from filtercool.filters import (
    FilterModel,
    KernelSpec,
    bandpass,
    impulse_response,
    kernel_filter,
    lowpass_cascade,
    stationary_statistics,
    transfer_function,
)
from filtercool.numerics import NumericalError, SingularMatrixError, UnstableSystemError


class TestLowpassCascade:
    def test_single_stage(self):
        m = lowpass_cascade((1.5,))
        assert np.allclose(m.M, [[-1.5]])
        assert np.allclose(m.b, [1.5])

    def test_two_stage_structure(self):
        m = lowpass_cascade((1.0, 2.0))
        assert np.allclose(m.M, [[-1.0, 0.0], [2.0, -2.0]])
        assert np.allclose(m.b, [1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lowpass_cascade(())

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            lowpass_cascade((1.0, 0.0))


class TestBandpass:
    def test_matrices(self):
        m = bandpass(1.0, 2.0)
        assert np.allclose(m.M, [[-1.0, -2.0], [2.0, -1.0]])
        assert np.allclose(m.b, [1.0, 0.0])

    def test_zero_center_decouples(self):
        m = bandpass(0.8, 0.0)
        lp = lowpass_cascade((0.8,))
        assert np.allclose(m.M[0, 0], lp.M[0, 0]) and m.M[0, 1] == 0.0
        assert m.M[1, 0] == 0.0  # second quadrature fully decoupled

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            bandpass(-1.0, 2.0)


class TestKernelFilter:
    def test_order_one_equals_lowpass(self):
        g = 1.7
        m = kernel_filter(KernelSpec((g,), (g,)))
        lp = lowpass_cascade((g,))
        assert np.allclose(m.M, lp.M) and np.allclose(m.b, lp.b)

    def test_bandpass_kernel_impulse(self):
        # f'' + 2g f' + (g^2+W^2) f = 0 with f(0)=g, f'(0)=-g^2 has the
        # solution g e^{-g t} cos(W t)
        g, W = 1.0, 2.0
        m = kernel_filter(KernelSpec((g * g + W * W, 2 * g), (g, -g * g)))
        for t in (0.0, 0.4, 1.3, 2.9):
            h = impulse_response(m, t)
            assert abs(h[0] - g * np.exp(-g * t) * np.cos(W * t)) < 1e-10

    def test_companion_sparsity(self):
        a = (0.3, 1.1, 2.2)
        m = kernel_filter(KernelSpec(a, (1.0, 0.0, -0.5)))
        expected = np.array([[0, 1, 0], [0, 0, 1], [-0.3, -1.1, -2.2]])
        assert np.array_equal(m.M, expected)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec((), ())


class TestImpulseResponse:
    def test_at_zero_is_b(self):
        m = bandpass(1.2, 0.7)
        assert np.allclose(impulse_response(m, 0.0), m.b)

    def test_single_lowpass(self):
        g = 0.9
        m = lowpass_cascade((g,))
        for t in (0.1, 1.0, 3.0):
            assert abs(impulse_response(m, t)[0] - g * np.exp(-g * t)) < 1e-12

    def test_bandpass_quadratures(self):
        g, W = 1.0, 2.5
        m = bandpass(g, W)
        for t in (0.2, 0.9, 2.4):
            h = impulse_response(m, t)
            assert abs(h[0] - g * np.exp(-g * t) * np.cos(W * t)) < 1e-12
            assert abs(h[1] - g * np.exp(-g * t) * np.sin(W * t)) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            impulse_response(lowpass_cascade((1.0,)), -0.1)

    def test_overflow_raises_like_filter_response(self):
        # h(t) = exp(t) is finite at t = 500 and overflows at t = 1000
        m = kernel_filter(KernelSpec((-1.0,), (1.0,)))
        assert impulse_response(m, 500.0)[0] == pytest.approx(np.exp(500.0), rel=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match=r"^state became non-finite at step 1 \(t = 1000\)$"):
                impulse_response(m, 1000.0)

    def test_cascade_composition_matches_convolution(self):
        # component k response equals the k-fold convolution of the stage
        # kernels, evaluated here by direct quadrature
        gammas = (1.0, 2.3, 3.7)
        m = lowpass_cascade(gammas)

        def f(k, u):
            return gammas[k] * np.exp(-gammas[k] * u)

        def h2(t):
            return quad(lambda s: f(0, s) * f(1, t - s), 0, t, epsabs=1e-12)[0]

        def h3(t):
            return quad(lambda s: h2(s) * f(2, t - s), 0, t, epsabs=1e-12)[0]

        for t in (0.3, 0.9, 2.1):
            h = impulse_response(m, t)
            assert abs(h[1] - h2(t)) < 1e-8
            assert abs(h[2] - h3(t)) < 1e-8

    def test_kernel_component_matches_ode_solution(self):
        # component 1 must solve the kernel ODE with the given derivatives
        spec = KernelSpec((2.0, 0.6), (0.8, -0.3))

        def rhs(_, y):
            return [y[1], -2.0 * y[0] - 0.6 * y[1]]

        sol = solve_ivp(rhs, (0.0, 4.0), [0.8, -0.3], rtol=1e-11, atol=1e-13,
                        dense_output=True)
        m = kernel_filter(spec)
        for t in (0.5, 1.7, 3.9):
            assert abs(impulse_response(m, t)[0] - sol.sol(t)[0]) < 1e-8


class TestTransferFunction:
    def test_lowpass_dc(self):
        assert abs(transfer_function(lowpass_cascade((2.0,)), 0.0)[0] - 1.0) < 1e-12

    def test_lowpass_general(self):
        g = 1.4
        for nu in (0.3, 2.0, 11.0):
            val = transfer_function(lowpass_cascade((g,)), nu)[0]
            assert abs(val - g / (g + 1j * nu)) < 1e-12

    def test_bandpass_dc(self):
        g, W = 1.0, 2.0
        h = transfer_function(bandpass(g, W), 0.0)
        assert abs(h[0] - g * g / (g * g + W * W)) < 1e-12
        assert abs(h[1] - g * W / (g * g + W * W)) < 1e-12

    def test_cascade_dc_gain_is_one(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 4):
            m = lowpass_cascade(rng.uniform(0.2, 5.0, n))
            assert np.abs(transfer_function(m, 0.0) - 1.0).max() < 1e-10

    def test_resonant_frequency_rejected(self):
        undamped = FilterModel(np.array([[0.0, -2.0], [2.0, 0.0]]), np.array([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            transfer_function(undamped, 2.0)


class TestRealizationEquivalence:
    def test_bandpass_vs_kernel_companion(self):
        g, W = 1.0, 2.0
        bp = bandpass(g, W)
        kf = kernel_filter(KernelSpec((g * g + W * W, 2 * g), (g, -g * g)))
        ts = np.linspace(0.0, 10.0 / g, 200)
        diff = max(abs(impulse_response(bp, t)[0] - impulse_response(kf, t)[0])
                   for t in ts)
        assert diff <= 1e-8


class TestStationaryStatistics:
    def test_single_lowpass_variance(self):
        g, lam = 1.0, 1.0
        _, cov = stationary_statistics(lowpass_cascade((g,)), lam)
        assert abs(cov[0, 0] - g / (8.0 * lam)) < 1e-12

    def test_strong_measurement_quenches_diffusion(self):
        _, cov = stationary_statistics(bandpass(1.0, 0.5), 1e12)
        assert np.abs(cov).max() < 1e-10

    def test_mean_tracks_dc_gain(self):
        m = lowpass_cascade((1.0, 3.0))
        mean, _ = stationary_statistics(m, 2.0, mean_A=0.7)
        assert np.abs(mean - 0.7).max() < 1e-12

    @pytest.mark.parametrize("lam, mean_A", [
        (np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf),
    ])
    def test_non_finite_input_rejected(self, lam, mean_A):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                stationary_statistics(lowpass_cascade((1.0, 3.0)), lam, mean_A)

    def test_unstable_drift_rejected(self):
        unstable = FilterModel(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(UnstableSystemError, match="no stationary state"):
            stationary_statistics(unstable, 1.0)

    def test_covariance_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        models = [lowpass_cascade(rng.uniform(0.3, 4.0, 3)),
                  bandpass(0.7, 2.2),
                  kernel_filter(KernelSpec((2.0, 0.9), (0.5, 0.4)))]
        for m in models:
            _, cov = stationary_statistics(m, rng.uniform(0.5, 2.0))
            assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_bandpass_variance_against_simulation(self):
        # Monte Carlo oracle: drive the filter SDE with a frozen zero mean
        # record and compare the late-time ensemble variance of E1
        from filtercool.trajectory import TrajectoryConfig, frozen_signal_model, run_ensemble

        model = frozen_signal_model(bandpass(1.0, 0.5), lam=1.0, mean_A=0.0)
        cfg = TrajectoryConfig(dt=2e-3, n_steps=9000, n_traj=200, base_seed=90,
                               record_stride=1500)  # slices 3/gamma apart
        rec = run_ensemble(model, cfg)
        _, cov = stationary_statistics(bandpass(1.0, 0.5), 1.0)
        late = rec.times >= 8.9
        var = rec.signal_var[0, 0, late]
        n_slices = var.size
        estimate = var.mean()
        stderr = cov[0, 0] * np.sqrt(2.0 / (n_slices * cfg.n_traj - 1))
        assert abs(estimate - cov[0, 0]) < 3.0 * stderr
