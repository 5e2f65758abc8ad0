import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_lyapunov

from _reference import characteristic_polynomial, integrate_affine
from filtercool.analytics import (
    NOT_APPLICABLE,
    energy_1layer,
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
    evolve,
    filter_drift,
    steady_state,
)
from filtercool.numerics import NumericalError, SingularMatrixError
from filtercool.trajectory import oscillator_cooling_model


def params(kind, lam=1.0, omega=1.0, gamma=1.0, Omega=None):
    return ProtocolParams(lam, omega, gamma, Omega, kind)


def random_params(rng, kind):
    lam, g, Om, w = rng.uniform(0.1, 10.0, 4)
    return ProtocolParams(lam, w, g, None if kind is ProtocolKind.LOWPASS1 else Om, kind)


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

    def test_single_stage_rejects_Omega(self):
        with pytest.raises(ValueError, match="lowpass1 has a single bandwidth; "
                                             "Omega does not apply"):
            params(ProtocolKind.LOWPASS1, gamma=2.0, Omega=3.0)

    def test_kind_name_rejected(self):
        # a name is refused, not converted: filter_model() and the builders
        # would fail on it late
        with pytest.raises(ValueError, match="^kind must be a ProtocolKind, "
                                             "got 'lowpass2'$"):
            ProtocolParams(1.0, 1.0, 2.0, 2.0, "lowpass2")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_two_layer(params(ProtocolKind.LOWPASS1, gamma=1.0))


_TABLE_POINTS = [(0.7, 3.0), (5.0, 0.3)]


def _table_filter(kind, g, Om):
    """The protocol's (M, b), typed out."""
    if kind is ProtocolKind.LOWPASS1:
        return [[-g]], [g]
    if kind is ProtocolKind.LOWPASS2:
        return [[-g, 0], [Om, -Om]], [g, 0]
    if kind is ProtocolKind.LOWPASS3:
        return [[-g, 0, 0], [Om, -Om, 0], [0, Om, -Om]], [g, 0, 0]
    return [[-g, -Om], [Om, -g]], [g, 0]


class TestProtocolTable:
    @pytest.mark.parametrize("g, Om", _TABLE_POINTS)
    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_filter_and_model(self, kind, g, Om):
        p = ProtocolParams(1.0, 1.3, g, None if kind is ProtocolKind.LOWPASS1 else Om, kind)
        M, b = _table_filter(kind, g, Om)
        fm = p.filter_model()
        np.testing.assert_array_equal(fm.M, M)
        np.testing.assert_array_equal(fm.b, b)
        model = oscillator_cooling_model(p, 5)
        np.testing.assert_array_equal(model.filter_model.M, M)
        np.testing.assert_array_equal(model.filter_model.b, b)
        assert model.feedback.tap_index == kind.tap

    def test_taps(self):
        assert [k.tap for k in ProtocolKind] == [0, 1, 2, 0]

    @pytest.mark.parametrize("g, Om", _TABLE_POINTS)
    def test_drift(self, g, Om):
        w = 1.3
        np.testing.assert_array_equal(
            filter_drift(ProtocolParams(1.0, w, g, Om, ProtocolKind.LOWPASS2)),
            [[-g, -1j * w], [Om, -Om - 1j * w]])
        np.testing.assert_array_equal(
            filter_drift(ProtocolParams(1.0, w, g, Om, ProtocolKind.BANDPASS)),
            [[-g, -Om, g], [Om, -g, 0], [1j * w, 0, -1j * w]])


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


@pytest.mark.parametrize("labels", [(), ("x", "y")], ids=["none", "two"])
def test_moment_system_needs_one_label_per_component(labels):
    with pytest.raises(ValueError, match="^need one label per component$"):
        MomentSystem(np.zeros((1, 1)), np.ones(1), labels)


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


EVOLVE_CASES = [
    params(ProtocolKind.LOWPASS1, gamma=2.0),
    params(ProtocolKind.LOWPASS2, gamma=2.0, Omega=2.0),
    params(ProtocolKind.LOWPASS3, gamma=5.0, Omega=20.0),
    params(ProtocolKind.BANDPASS, gamma=3.0, Omega=1.0),
]


class TestExactEvolve:
    @pytest.mark.parametrize("p", EVOLVE_CASES, ids=lambda p: p.kind.value)
    def test_matches_rk4_reference(self, p):
        sys = build_moment_system(p)
        x0 = np.zeros(sys.dim)
        x0[sys.energy_index] = 2.0
        exact = evolve(sys, x0, 1e-3, 4000)
        rk4 = integrate_affine(sys.A, sys.c, x0, 1e-3, 4000)
        np.testing.assert_allclose(exact, rk4, rtol=1e-8, atol=1e-8 * np.abs(rk4).max())

    @pytest.mark.parametrize("p", EVOLVE_CASES, ids=lambda p: p.kind.value)
    def test_stride_invariance(self, p):
        # the CLI steps at its output stride and relies on this
        sys = build_moment_system(p)
        x0 = np.zeros(sys.dim)
        x0[sys.energy_index] = 2.0
        dt, n, stride = 1e-3, 4000, 40
        fine = evolve(sys, x0, dt, n)[::stride]
        coarse = evolve(sys, x0, stride * dt, n // stride)
        np.testing.assert_allclose(coarse, fine, rtol=1e-12, atol=1e-12 * np.abs(fine).max())


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


def _derived_energy(p):
    """Steady energy derived from the protocol's (M, b, tap) alone.

    With u = -M^-1 b and K = filter_drift(p), the state y obeys
    dy = K y dt + v dW_c with E|dW_c|^2 = 2 dt.  When K is m x m (the
    reduced form, y = G - alpha u) v = b / (2 sqrt(lam)) - sqrt(lam) u and
    e = e_tap; when it is (m+1) x (m+1) (the full form, y = (G, alpha))
    v = (b / (2 sqrt(lam)), sqrt(lam)) and e = e_alpha - e_tap.  The energy
    is 1/2 + Re(e^dagger X e) / 2 with K X + X K^dagger + 2 v v^dagger = 0.
    """
    fm = p.filter_model()
    m, root = fm.n, np.sqrt(p.lam)
    u = -np.linalg.solve(fm.M, fm.b)
    K = filter_drift(p)
    if K.shape[0] == m:
        v = fm.b / (2.0 * root) - root * u
        e = np.eye(m)[p.kind.tap]
    else:
        v = np.append(fm.b / (2.0 * root), root)
        e = np.eye(m + 1)[m] - np.eye(m + 1)[p.kind.tap]
    X = solve_continuous_lyapunov(K, -2.0 * np.outer(v, v.conj()))
    return 0.5 + 0.5 * (e.conj() @ X @ e).real, K


_CLOSED_FORMS = {
    ProtocolKind.LOWPASS1: lambda lam, g, Om, w: energy_1layer(lam, g),
    ProtocolKind.LOWPASS2: energy_2layer,
    ProtocolKind.LOWPASS3: energy_3layer,
    ProtocolKind.BANDPASS: energy_bandpass,
}


class TestEnergyFromFilter:
    """Every protocol's energy follows from its filter (M, b) and tap alone;
    this checks the sweep's drift K together with the noise vector."""

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_closed_forms_and_moment_systems_match_derivation(self, kind):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            lam, w, g, Om = rng.uniform(0.2, 5.0, 4)
            p = ProtocolParams(lam, w, g, None if kind is ProtocolKind.LOWPASS1 else Om, kind)
            derived, K = _derived_energy(p)
            closed = _CLOSED_FORMS[kind](lam, g, Om, w)
            if np.linalg.eigvals(K).real.max() >= 0 or closed.note == NOT_APPLICABLE:
                continue
            assert closed.energy_over_hw == pytest.approx(derived, rel=1e-9)
            solved = steady_state(build_moment_system(p)).energy_over_hw
            assert solved == pytest.approx(derived, rel=1e-9)
            checked += 1
        assert checked >= 100


@pytest.mark.parametrize("p", [
    ProtocolParams(1.0, 1.0, 1e200, None, ProtocolKind.LOWPASS1),
    ProtocolParams(1.0, 1.0, 1e200, 1.0, ProtocolKind.LOWPASS2),
    ProtocolParams(1e-310, 1.0, 1.0, 2.0, ProtocolKind.BANDPASS),
])
def test_overflowing_system_is_a_numerical_failure(p):
    # an infinite entry of A or c is named, not passed on as a formal value
    message = f"{p.kind.value} moment system overflows at gamma={p.gamma}, Omega={p.Omega}"
    with pytest.raises(NumericalError, match=re.escape(message)):
        build_moment_system(p)


def test_ill_conditioned_three_stage_cell_matches_closed_form():
    # cond(A) ~ 4.5e7, but the energy's Skeel condition is about 7: the
    # refined solve recovers it to rounding (a plain LU solve is off by 2e-9)
    g, Om = 33598182.86283788, 7.847599703514611
    system = build_moment_system(ProtocolParams(1.0, 1.0, g, Om, ProtocolKind.LOWPASS3))
    assert np.linalg.cond(system.A) > 1e7
    exact = energy_3layer(1.0, g, Om, 1.0).energy_over_hw
    assert exact == pytest.approx(0.6502766702598803, rel=1e-15)
    assert steady_state(system).energy_over_hw == pytest.approx(exact, rel=1e-14)
