import numpy as np
import pytest
from scipy.integrate import solve_ivp

from filtercool.analytics import (
    energy_2layer,
    energy_3layer,
    energy_bandpass,
)
from filtercool.moment_systems import (
    MomentSystem,
    ProtocolKind,
    ProtocolParams,
    build_bandpass_moments,
    build_moment_system,
    build_single_layer,
    build_three_layer,
    build_two_layer,
    characteristic_polynomial,
    evolve,
    steady_state,
)
from filtercool.numerics import SingularMatrixError


def params(kind, lam=1.0, omega=1.0, gamma=1.0, Omega=None):
    return ProtocolParams(lam, omega, gamma, Omega, kind)


def random_params(rng, kind):
    lam, g, Om, w = rng.uniform(0.1, 10.0, 4)
    return ProtocolParams(lam, w, g, Om, kind)


class TestProtocolParams:
    def test_positive_rates_enforced(self):
        with pytest.raises(ValueError):
            ProtocolParams(-1.0, 1.0, 1.0, None, ProtocolKind.LOWPASS1)
        with pytest.raises(ValueError):
            ProtocolParams(1.0, 1.0, 0.0, None, ProtocolKind.LOWPASS1)

    def test_omega2_required_when_needed(self):
        with pytest.raises(ValueError):
            ProtocolParams(1.0, 1.0, 1.0, None, ProtocolKind.LOWPASS2)
        with pytest.raises(ValueError):
            ProtocolParams(1.0, 1.0, 1.0, -2.0, ProtocolKind.BANDPASS)

    def test_effective_gamma(self):
        p = params(ProtocolKind.LOWPASS2, gamma=2.0, Omega=2.0)
        assert p.effective_gamma == pytest.approx(1.0)

    def test_single_stage_effective_gamma_is_its_bandwidth(self):
        # an Omega given to the single stage does not enter its bandwidth
        assert params(ProtocolKind.LOWPASS1, gamma=2.0, Omega=3.0).effective_gamma == 2.0

    def test_bandpass_has_no_effective_gamma(self):
        with pytest.raises(ValueError):
            params(ProtocolKind.BANDPASS, gamma=2.0, Omega=3.0).effective_gamma

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_two_layer(params(ProtocolKind.LOWPASS1, gamma=1.0))


class TestSingleLayer:
    def test_ground_state_point(self):
        ss = steady_state(build_single_layer(params(ProtocolKind.LOWPASS1, gamma=2.0)))
        assert ss.energy_over_hw == pytest.approx(0.5, abs=1e-14)
        assert ss.stable and ss.physical

    def test_detuned_point(self):
        ss = steady_state(build_single_layer(params(ProtocolKind.LOWPASS1, gamma=1.0)))
        assert ss.energy_over_hw == pytest.approx(0.625, abs=1e-14)

    def test_relaxation_eigenvalue(self):
        sys = build_single_layer(params(ProtocolKind.LOWPASS1, gamma=1.7))
        assert steady_state(sys).eigenvalues[0] == pytest.approx(-3.4)


class TestTwoLayer:
    def test_offset_vector(self):
        sys = build_two_layer(params(ProtocolKind.LOWPASS2, gamma=2.0, Omega=5.0))
        assert np.allclose(sys.c, [1.0, 0.0, 2.0, 0.0])

    def test_drift_rows(self):
        g, Om, w = 2.0, 3.0, 1.5
        sys = build_two_layer(ProtocolParams(1.0, w, g, Om, ProtocolKind.LOWPASS2))
        expected = np.array([
            [0.0, -Om, 0.0, 0.0],
            [2 * g, -(Om + g), -Om, -w],
            [0.0, 2 * g, -2 * (Om + g), 0.0],
            [0.0, w, 0.0, -(Om + g)],
        ])
        assert np.array_equal(sys.A, expected)

    def test_steady_energy(self):
        ss = steady_state(build_two_layer(params(ProtocolKind.LOWPASS2, gamma=2.0, Omega=2.0)))
        assert ss.energy_over_hw == pytest.approx(0.78125, abs=1e-12)
        assert ss.stable

    def test_fast_second_stage_limit(self):
        ss = steady_state(build_two_layer(params(ProtocolKind.LOWPASS2, gamma=2.0, Omega=1e6)))
        assert abs(ss.energy_over_hw - 0.5) < 1e-5

    def test_dimension_matches_scalar_ode_order(self):
        assert build_two_layer(params(ProtocolKind.LOWPASS2, gamma=1.0, Omega=1.0)).dim == 4


class TestThreeLayer:
    def test_fifth_row(self):
        sys = build_three_layer(ProtocolParams(1.0, 3.0, 1.0, 2.0, ProtocolKind.LOWPASS3))
        assert np.array_equal(sys.A[4], [2, -1, 0, 0, -3, 3, -2, 0, 0])

    def test_offset_vector(self):
        sys = build_three_layer(ProtocolParams(2.0, 1.0, 4.0, 1.0, ProtocolKind.LOWPASS3))
        expected = np.zeros(9)
        expected[0] = 2.0
        expected[8] = 4.0
        assert np.allclose(sys.c, expected)

    def test_steady_matches_closed_form(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            p = random_params(rng, ProtocolKind.LOWPASS3)
            ss = steady_state(build_three_layer(p))
            if not ss.stable:
                continue
            exact = energy_3layer(p.lam, p.gamma, p.Omega, p.omega).energy_over_hw
            assert abs(ss.energy_over_hw - exact) <= 1e-9 * abs(exact)
            checked += 1

    def test_fast_late_stages_limit(self):
        ss = steady_state(build_three_layer(params(ProtocolKind.LOWPASS3, gamma=2.0, Omega=1e6)))
        assert abs(ss.energy_over_hw - 0.5) < 1e-5


class TestBandpassMoments:
    def test_offset_vector(self):
        sys = build_bandpass_moments(params(ProtocolKind.BANDPASS, gamma=2.0, Omega=1.0))
        # energy pump lam + gamma^2/(4 lam); direct tap noise +-gamma^2/(2 lam)
        expected = np.zeros(9)
        expected[0] = 2.0
        expected[4] = -2.0
        expected[8] = 2.0
        assert np.allclose(sys.c, expected)

    def test_steady_energy_cross_checked(self):
        ss = steady_state(build_bandpass_moments(params(ProtocolKind.BANDPASS, gamma=1.0, Omega=0.5)))
        assert ss.energy_over_hw == pytest.approx(0.765625, abs=1e-12)
        assert ss.stable and ss.physical

    def test_steady_matches_closed_form(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 100:
            p = random_params(rng, ProtocolKind.BANDPASS)
            ss = steady_state(build_bandpass_moments(p))
            if not ss.stable:
                continue
            exact = energy_bandpass(p.lam, p.gamma, p.Omega, p.omega).energy_over_hw
            assert abs(ss.energy_over_hw - exact) <= 1e-9 * abs(exact)
            checked += 1

    def test_runaway_point_flagged(self):
        ss = steady_state(build_bandpass_moments(params(ProtocolKind.BANDPASS, gamma=1.0, Omega=2.0)))
        assert not ss.stable  # heats indefinitely
        assert not ss.physical and ss.energy_over_hw < 0.5


class TestSteadyState:
    def test_singular_system_rejected(self):
        sys = MomentSystem(np.zeros((1, 1)), np.ones(1), ("x",))
        with pytest.raises(SingularMatrixError):
            steady_state(sys)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(31)
        kinds = list(ProtocolKind)
        for _ in range(40):
            p = random_params(rng, kinds[rng.integers(4)])
            sys = build_moment_system(p)
            ss = steady_state(sys)
            res = np.linalg.norm(sys.A @ ss.values + sys.c)
            assert res <= 1e-10 * np.linalg.norm(sys.c)


class TestEvolve:
    def test_single_layer_decay(self):
        p = params(ProtocolKind.LOWPASS1, gamma=1.0)
        sys = build_single_layer(p)
        uinf = steady_state(sys).energy_over_hw
        dt, n = 1e-3, 2000
        path = evolve(sys, np.array([2.0 * uinf]), dt, n)
        t = np.arange(n + 1) * dt
        exact = uinf * (1.0 + np.exp(-2.0 * p.gamma * t))
        assert np.abs(path[:, 0] - exact).max() <= 1e-6

    def test_fixed_point_is_constant(self):
        sys = build_two_layer(params(ProtocolKind.LOWPASS2, gamma=2.0, Omega=2.0))
        x_inf = steady_state(sys).values
        path = evolve(sys, x_inf, 1e-2, 100)
        assert np.abs(path - x_inf).max() < 1e-12

    def test_two_layer_matches_scalar_fourth_order_ode(self):
        # reduce-to-scalar oracle: the energy component also satisfies a
        # fourth-order scalar ODE with known coefficients
        lam, w, g, Om = 1.0, 1.0, 2.0, 2.0
        sys = build_two_layer(ProtocolParams(lam, w, g, Om, ProtocolKind.LOWPASS2))
        uinf = energy_2layer(lam, g, Om, w).energy_over_hw
        a3 = 4.0 * (Om + g)
        a2 = 4.0 * Om * g + 5.0 * (Om + g) ** 2 + w * w
        a1 = 2.0 * (Om + g) * (4.0 * Om * g + (Om + g) ** 2 + w * w)
        a0 = 4.0 * Om * g * (Om + g) ** 2

        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        d1 = sys.A @ x0 + sys.c
        d2 = sys.A @ d1
        d3 = sys.A @ d2
        y0 = [x0[0], d1[0], d2[0], d3[0]]

        def rhs(_, y):
            return [y[1], y[2], y[3],
                    -a3 * y[3] - a2 * y[2] - a1 * y[1] - a0 * (y[0] - uinf)]

        sol = solve_ivp(rhs, (0.0, 2.0), y0, rtol=1e-11, atol=1e-12,
                        dense_output=True)
        dt, n = 1e-3, 2000
        path = evolve(sys, x0, dt, n)
        for k in (200, 700, 1400, 2000):
            assert abs(path[k, 0] - sol.sol(k * dt)[0]) < 1e-8


class TestCharacteristicPolynomial:
    def test_diagonal(self):
        coeffs = characteristic_polynomial(np.diag([-1.0, -2.0]))
        assert np.allclose(coeffs, [1.0, 3.0, 2.0])

    def test_two_layer_coefficients(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g, Om, w = rng.uniform(0.2, 5.0, 3)
            sys = build_two_layer(ProtocolParams(1.0, w, g, Om, ProtocolKind.LOWPASS2))
            coeffs = characteristic_polynomial(sys.A)
            expected = np.array([
                1.0,
                4.0 * (Om + g),
                4.0 * Om * g + 5.0 * (Om + g) ** 2 + w * w,
                2.0 * (Om + g) * (4.0 * Om * g + (Om + g) ** 2 + w * w),
                4.0 * Om * g * (Om + g) ** 2,
            ])
            assert np.abs(coeffs - expected).max() <= 1e-8 * np.abs(expected).max()

    def test_similarity_invariance(self):
        rng = np.random.default_rng(77)
        A = rng.uniform(-1, 1, (5, 5))
        P = np.eye(5)[rng.permutation(5)]
        ca = characteristic_polynomial(A)
        cp = characteristic_polynomial(P @ A @ P.T)
        assert np.abs(ca - cp).max() < 1e-8


class TestLimitConsistency:
    @pytest.mark.parametrize("ratio", [0.5, 2.0, 4.0, 8.0])
    def test_fast_late_stages_reduce_to_single(self, ratio):
        lam = 1.0
        single = steady_state(build_single_layer(
            ProtocolParams(lam, 1.0, ratio, None, ProtocolKind.LOWPASS1))).energy_over_hw
        two = steady_state(build_two_layer(
            ProtocolParams(lam, 1.0, ratio, 1e6, ProtocolKind.LOWPASS2))).energy_over_hw
        three = steady_state(build_three_layer(
            ProtocolParams(lam, 1.0, ratio, 1e6, ProtocolKind.LOWPASS3))).energy_over_hw
        assert abs(two - single) < 1e-4
        assert abs(three - single) < 1e-4
