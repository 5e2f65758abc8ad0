import re
import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.linalg import expm

from _reference import integrate_affine
from filtercool.filters import bandpass, lowpass_cascade, stationary_statistics
from filtercool.moment_systems import (
    ProtocolKind,
    ProtocolParams,
    build_moment_system,
    build_two_layer,
)
from filtercool.numerics import (
    NoiseStream,
    NumericalError,
    SingularMatrixError,
    _cayley_matrix,
    eigenvalues,
    hurwitz_test,
    propagate_affine,
    require_count,
    require_positive,
    solve_linear,
)
from filtercool.phase_diagram import GridSpec
from filtercool.trajectory import (
    SystemModel,
    TrajectoryConfig,
    build_truncated_oscillator,
    frozen_signal_model,
)


def exp_step(A, t):
    """exp(A t), column by column, from one exact step of propagate_affine."""
    A = np.asarray(A, dtype=float)
    return np.array([propagate_affine(A, np.zeros(len(A)), e, t, 1)[-1]
                     for e in np.eye(len(A))]).T


class TestExponentialStep:
    """propagate_affine's one-step map is the matrix exponential."""

    def test_zero_matrix(self):
        assert np.allclose(exp_step(np.zeros((2, 2)), 7.0), np.eye(2), atol=1e-14)

    def test_scalar(self):
        assert abs(exp_step(np.array([[-1.0]]), 1.0)[0, 0] - np.exp(-1.0)) < 1e-13

    def test_damped_rotation_block(self):
        # exp of [[-g,-W],[W,-g]] has the closed form e^{-gt} R(Wt)
        g, W, t = 1.0, 2.0, 0.5
        A = np.array([[-g, -W], [W, -g]])
        c, s = np.cos(W * t), np.sin(W * t)
        expected = np.exp(-g * t) * np.array([[c, -s], [s, c]])
        assert np.abs(exp_step(A, t) - expected).max() < 1e-13

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            propagate_affine(np.zeros((2, 3)), np.zeros(2), np.zeros(2), 1.0, 1)

    def test_semigroup_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.uniform(-1, 1, (4, 4)) - 3.0 * np.eye(4)
            s, t = rng.uniform(0.1, 2.0, 2)
            lhs = exp_step(A, s + t)
            rhs = exp_step(A, s) @ exp_step(A, t)
            assert np.abs(lhs - rhs).max() < 1e-10


class TestSolveLinear:
    def test_identity(self):
        y = np.array([3.0, -1.0, 2.0])
        assert np.allclose(solve_linear(np.eye(3), y), y)

    def test_diagonal(self):
        assert np.allclose(solve_linear(np.diag([2.0, 4.0]), [2.0, 4.0]), [1.0, 1.0])

    def test_two_layer_steady_component(self):
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        sys = build_two_layer(p)
        x = solve_linear(sys.A, -sys.c)
        assert abs(x[0] - 0.78125) < 1e-12

    def test_residual_bound_random_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 10))
            # orthogonal x diagonal x orthogonal keeps the condition number small
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            A = q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2
            y = rng.standard_normal(n)
            x = solve_linear(A, y)
            bound = 1e-10 * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(y))
            assert np.linalg.norm(A @ x - y) <= bound

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), [1.0, 2.0])

    def test_ill_conditioned_rejected(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.diag([1.0, 1e-14]), [1.0, 1.0])

    @pytest.mark.parametrize("n", [1, 3])
    def test_right_hand_side_length_must_match(self, n):
        with pytest.raises(ValueError, match=f"^right-hand side length {n} does not match "
                                             "matrix size 2$"):
            solve_linear(np.eye(2), np.ones(n))


class TestEigenvalues:
    def test_diagonal(self):
        w = sorted(eigenvalues(np.diag([-1.0, -2.0])).real)
        assert np.allclose(w, [-2.0, -1.0])

    def test_bandpass_pair(self):
        M = np.array([[-1.0, -2.0], [2.0, -1.0]])
        w = eigenvalues(M)
        assert np.allclose(sorted(w.imag), [-2.0, 2.0])
        assert np.allclose(w.real, [-1.0, -1.0])

    def test_lower_triangular_cascade(self):
        gammas = [1.0, 2.5, 0.7]
        M = np.diag([-g for g in gammas])
        for k in range(1, 3):
            M[k, k - 1] = gammas[k]
        w = sorted(eigenvalues(M).real)
        assert np.allclose(w, sorted(-g for g in gammas))

    def test_residual_with_recomputed_eigenvectors(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(-1, 1, (6, 6))
        ours = np.sort_complex(eigenvalues(A))
        w, v = np.linalg.eig(A)
        assert np.allclose(np.sort_complex(w), ours, atol=1e-10)
        scale = np.linalg.norm(A)
        for k in range(6):
            assert np.linalg.norm(A @ v[:, k] - w[k] * v[:, k]) <= 1e-9 * scale

    def test_permutation_similarity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            A = rng.uniform(-1, 1, (5, 5))
            perm = rng.permutation(5)
            P = np.eye(5)[perm]
            wa = np.sort_complex(eigenvalues(A))
            wp = np.sort_complex(eigenvalues(P @ A @ P.T))
            assert np.abs(wa - wp).max() < 1e-8


class TestHurwitzTest:
    def test_cayley_map_is_built_once_and_shared_read_only(self):
        cayley = _cayley_matrix(3)
        assert _cayley_matrix(3) is cayley
        assert not cayley.flags.writeable
        # (1 - z)^3 is the first column, (1 + z)^3 the last
        np.testing.assert_array_equal(cayley[:, 0], [1, -3, 3, -1])
        np.testing.assert_array_equal(cayley[:, 3], [1, 3, 3, 1])

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_certified_decisions_match_eigenvalues(self, m):
        rng = np.random.default_rng(m)
        b = (rng.standard_normal((4000, m, m)) + 1j * rng.standard_normal((4000, m, m))) / m
        stable, margin = hurwitz_test(b)
        direct = np.linalg.eigvals(b).real.max(axis=-1) < 0
        certified = margin > 0
        assert certified.mean() > 0.99
        assert np.array_equal(stable[certified], direct[certified])
        assert 0 < direct.sum() < direct.size  # both outcomes occur

    def test_known_spectra(self):
        stable, margin = hurwitz_test(np.array([
            np.diag([-1.0 + 2j, -0.5 - 3j]),   # complex, not conjugate
            np.diag([-1.0, 0.25 + 1j]),
            [[0.0, 1.0], [-1.0, -1e-3]],       # lightly damped rotation
            [[-2.0, 100.0], [0.0, -3.0]],      # far from normal
        ], dtype=complex))
        assert stable.tolist() == [True, False, True, True]
        assert (margin > 0).all()
        # the rotation's roots -5e-4 +- i map to |z| = 1 - 2 * 5e-4 / |1 -+ i|^2,
        # and the first reflection coefficient is their product
        assert margin[2] == pytest.approx(1e-3, rel=1e-3)

    @pytest.mark.parametrize("b", [
        np.diag([0.0, -1.0]),        # a root on the imaginary axis
        np.diag([1e-3j, -1.0]),
        np.diag([1.0, -1.0]),        # s = 1, where the Cayley map has its pole
    ])
    def test_boundary_roots_never_certified(self, b):
        _, margin = hurwitz_test(b.astype(complex))
        assert not margin > 0

    def test_stacked_leading_axes(self):
        b = np.zeros((2, 3, 2, 2), dtype=complex)
        b[..., 0, 0], b[..., 1, 1] = -1.0, -2.0
        b[1, 2, 1, 1] = 0.5
        stable, margin = hurwitz_test(b)
        assert stable.shape == margin.shape == (2, 3)
        assert stable.sum() == 5 and not stable[1, 2]


class TestIntegrateAffine:
    def test_constant_path(self):
        path = integrate_affine(np.zeros((2, 2)), np.zeros(2), [1.0, -2.0], 0.1, 50)
        assert np.allclose(path, np.tile([1.0, -2.0], (51, 1)))

    def test_scalar_relaxation(self):
        # dU/dt = -2g (U - Uinf), closed form known
        g, Uinf, U0, dt = 1.0, 0.75, 2.0, 1e-3
        A = np.array([[-2.0 * g]])
        c = np.array([2.0 * g * Uinf])
        path = integrate_affine(A, c, [U0], dt, 1000)
        t = np.arange(1001) * dt
        exact = Uinf + (U0 - Uinf) * np.exp(-2.0 * g * t)
        assert np.abs(path[:, 0] - exact).max() < 1e-8

    def test_fourth_order_convergence(self):
        p = ProtocolParams(1.0, 1.0, 2.0, 2.0, ProtocolKind.LOWPASS2)
        sys = build_two_layer(p)
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        xinf = np.linalg.solve(sys.A, -sys.c)
        T = 1.0

        def endpoint_error(dt):
            n = int(round(T / dt))
            exact = xinf + expm(sys.A * T) @ (x0 - xinf)
            return np.linalg.norm(integrate_affine(sys.A, sys.c, x0, dt, n)[-1] - exact)

        assert endpoint_error(0.02) / endpoint_error(0.01) >= 12.0

    def test_overflow_reports_step(self):
        with pytest.raises(NumericalError, match="step"):
            integrate_affine(np.array([[100.0]]), np.zeros(1), [1.0], 1.0, 500)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            integrate_affine(np.zeros((1, 1)), np.zeros(1), [1.0], 0.0, 5)


def step_loop(a, c, x0, dt, n_steps):
    """x <- phi @ x + d, one new vector per step, from the propagator's map
    (the same ``expm`` call on the augmented matrix)."""
    dim = len(x0)
    augmented = np.zeros((dim + 1, dim + 1))
    augmented[:dim, :dim] = a
    augmented[:dim, dim] = c
    hop = expm(augmented * dt)
    phi, d = hop[:dim, :dim], hop[:dim, dim]
    x = np.asarray(x0, dtype=float)
    rows = [x]
    for _ in range(n_steps):
        x = phi @ x + d
        rows.append(x)
    return np.array(rows)


def assert_same_bits(x, y):
    """Equal as bit patterns, so -0.0 and 0.0 differ."""
    assert x.shape == y.shape
    np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))


class TestPropagateAffine:
    def test_exact_scalar_relaxation(self):
        g, Uinf, U0, dt = 1.0, 0.75, 2.0, 1e-3
        path = propagate_affine([[-2.0 * g]], [2.0 * g * Uinf], [U0], dt, 1000)
        t = np.arange(1001) * dt
        exact = Uinf + (U0 - Uinf) * np.exp(-2.0 * g * t)
        np.testing.assert_allclose(path[:, 0], exact, rtol=1e-13)

    def test_singular_drift(self):
        # A = 0 has no fixed point; the augmented exponential still steps it
        path = propagate_affine(np.zeros((2, 2)), np.ones(2), [1.0, -2.0], 0.1, 50)
        t = np.arange(51) * 0.1
        np.testing.assert_allclose(path, np.array([1.0, -2.0]) + t[:, None],
                                   rtol=1e-13, atol=1e-14)

    def test_overflow_reports_step_and_time(self):
        # e^(50 k) first exceeds the float range at k = 15
        with pytest.raises(NumericalError, match=r"step 15 \(t = 7\.5\)"):
            propagate_affine(np.array([[100.0]]), np.zeros(1), [1.0], 0.5, 500)

    @pytest.mark.parametrize("a, n_steps, step", [
        pytest.param(11.1, 500, 64, id="at-a-power-of-two"),
        pytest.param(7.1, 500, 100, id="between-powers-of-two"),
        pytest.param(7.1, 100, 100, id="at-the-last-step"),
    ])
    def test_overflow_names_the_first_non_finite_step(self, a, n_steps, step):
        # e^(a k) first exceeds the float range at k = ceil(709.78 / a)
        with pytest.raises(NumericalError) as exc:
            propagate_affine([[a]], [0.0], [1.0], 1.0, n_steps)
        assert str(exc.value) == f"state became non-finite at step {step} (t = {step})"

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_moment_path_matches_the_step_loop_bit_for_bit(self, kind):
        # the settings of the benchmark's evolve run, stepped at its stride
        Omega = None if kind is ProtocolKind.LOWPASS1 else 20.0
        sys = build_moment_system(ProtocolParams(1.0, 1.0, 5.0, Omega, kind))
        x0 = np.zeros(sys.dim)
        x0[sys.energy_index] = 2.0
        path = propagate_affine(sys.A, sys.c, x0, 0.04, 2000)
        assert_same_bits(path, step_loop(sys.A, sys.c, x0, 0.04, 2000))
        if kind is ProtocolKind.LOWPASS3:
            assert_same_bits(path[-1], path[-2])  # the path reaches a fixed point

    def test_impulse_decaying_to_exact_zeros_matches_the_step_loop(self):
        model = lowpass_cascade((2.0, 3.0))
        path = propagate_affine(model.M, np.zeros(2), model.b, 1.0, 1000)
        assert not path[-1].any()
        assert_same_bits(path, step_loop(model.M, np.zeros(2), model.b, 1.0, 1000))

    def test_negative_zero_start_matches_the_step_loop(self):
        # -0.0 == 0.0, but the rows must still hold the loop's bits
        a, c, x0 = [[-1.0, 0.5], [0.0, -2.0]], [0.0, 0.0], [-0.0, -0.0]
        path = propagate_affine(a, c, x0, 0.5, 100)
        assert np.signbit(path[0]).all()
        assert_same_bits(path, step_loop(a, c, x0, 0.5, 100))

    def test_path_that_never_repeats_matches_the_step_loop(self):
        path = propagate_affine([[0.0]], [1.0], [0.0], 1.0, 5000)
        np.testing.assert_array_equal(path[:, 0], np.arange(5001.0))
        assert_same_bits(path, step_loop([[0.0]], [1.0], [0.0], 1.0, 5000))

    @pytest.mark.parametrize("dt, n_steps, message", [
        pytest.param(0.1, -1, "n_steps must be at least 0, got -1", id="n_steps-negative"),
        pytest.param(0.1, 2.5, "n_steps must be an integer, got 2.5", id="n_steps-float"),
        pytest.param(0.1, True, "n_steps must be an integer, got True", id="n_steps-bool"),
        pytest.param(True, 5, "dt must be a number, got True", id="dt-bool"),
        pytest.param(0.0, 5, "dt must be positive and finite, got 0.0", id="dt-zero"),
        pytest.param(np.inf, 5, "dt must be positive and finite, got inf", id="dt-inf"),
        pytest.param(np.nan, 5, "dt must be positive and finite, got nan", id="dt-nan"),
    ])
    def test_bad_step_is_refused_naming_the_field(self, dt, n_steps, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            propagate_affine([[-1.0]], [0.0], [1.0], dt, n_steps)

    @pytest.mark.parametrize("args", [
        (np.zeros((1, 1)), np.zeros(1), [1.0], 0.0, 5),
        (np.zeros((1, 1)), np.zeros(1), [1.0], -0.1, 5),
        (np.zeros((2, 2)), np.zeros(1), [1.0, 0.0], 0.1, 5),
        (np.zeros((2, 2)), np.zeros(2), [1.0], 0.1, 5),
        (np.zeros((2, 3)), np.zeros(2), [1.0, 0.0], 0.1, 5),
        (np.full((1, 1), np.nan), np.zeros(1), [1.0], 0.1, 5),
        (np.zeros((1, 1)), np.full(1, np.inf), [1.0], 0.1, 5),
    ])
    def test_bad_input(self, args):
        with pytest.raises(ValueError):
            propagate_affine(*args)


class TestNoiseStream:
    def test_determinism(self):
        a = NoiseStream(123456789, 7).generator().standard_normal(100)
        b = NoiseStream(123456789, 7).generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = NoiseStream(5, 0).generator().standard_normal(64)
        b = NoiseStream(5, 1).generator().standard_normal(64)
        assert not np.allclose(a, b)

    def test_generator_restarts(self):
        stream = NoiseStream(11, 2)
        g = stream.generator()
        first = g.standard_normal(10)
        assert np.array_equal(first, stream.generator().standard_normal(10))

    def test_negative_seed_allowed(self):
        assert NoiseStream(-3, 0).generator().standard_normal(4).shape == (4,)

    @pytest.mark.parametrize("base_seed, index", [
        (0, 0), (12345, 255), (-3, 7), (2**64 - 1, 2**63)])
    def test_draws_are_those_of_philox_keyed_by_seed_and_index(self, base_seed, index):
        # the stream is Philox keyed by the two 64-bit words of
        # (base_seed, index), however the generator is built
        key = np.array([base_seed % 2**64, index % 2**64], dtype=np.uint64)
        want, got = Generator(Philox(key=key)), NoiseStream(base_seed, index).generator()
        assert got.random() == want.random()
        assert np.array_equal(got.standard_normal(9), want.standard_normal(9))


@pytest.mark.parametrize("call, field", [
    pytest.param(lambda: ProtocolParams(True, True, 2.0), "lam", id="ProtocolParams-lam"),
    pytest.param(lambda: ProtocolParams(1.0, 1.0, 2.0, True, ProtocolKind.BANDPASS),
                 "Omega", id="ProtocolParams-Omega"),
    pytest.param(lambda: TrajectoryConfig(dt=True, n_steps=2, n_traj=1, base_seed=0),
                 "dt", id="TrajectoryConfig-dt"),
    pytest.param(lambda: GridSpec([1.0], [1.0], lam=True), "lam", id="GridSpec-lam"),
    pytest.param(lambda: GridSpec([1.0], [1.0], omega=np.True_), "omega",
                 id="GridSpec-omega"),
    pytest.param(lambda: lowpass_cascade((2.0, True)), r"gammas\[1\]", id="lowpass_cascade"),
    pytest.param(lambda: bandpass(True, 2.0), "gamma", id="bandpass-gamma"),
    pytest.param(lambda: bandpass(1.0, True), "Omega", id="bandpass-Omega"),
    pytest.param(lambda: frozen_signal_model(lowpass_cascade((1.0,)), lam=True), "lam",
                 id="frozen_signal_model-lam"),
    pytest.param(lambda: frozen_signal_model(lowpass_cascade((1.0,)), 1.0, mean_A=True),
                 "mean_A", id="frozen_signal_model-mean_A"),
    pytest.param(lambda: SystemModel(np.zeros((2, 2)), (), True), "lam", id="SystemModel-lam"),
    pytest.param(lambda: build_truncated_oscillator(4, True), "omega", id="oscillator-omega"),
    pytest.param(lambda: stationary_statistics(lowpass_cascade((1.0,)), True), "lam",
                 id="stationary_statistics-lam"),
])
def test_bool_rate_is_refused_naming_the_field(call, field):
    # True is the int 1 to Python; as a rate or a mean it is a mistake
    with pytest.raises(ValueError, match=f"^{field} must be a number, got (np.)?True_?$"):
        call()


@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("call, field", [
    pytest.param(lambda v: ProtocolParams(v, 1.0, 2.0), "lam", id="ProtocolParams-lam"),
    pytest.param(lambda v: ProtocolParams(1.0, v, 2.0), "omega", id="ProtocolParams-omega"),
    pytest.param(lambda v: ProtocolParams(1.0, 1.0, v), "gamma", id="ProtocolParams-gamma"),
    pytest.param(lambda v: ProtocolParams(1.0, 1.0, 2.0, v, ProtocolKind.BANDPASS),
                 "Omega", id="ProtocolParams-Omega"),
    pytest.param(lambda v: TrajectoryConfig(dt=v, n_steps=2, n_traj=1, base_seed=0),
                 "dt", id="TrajectoryConfig-dt"),
    pytest.param(lambda v: GridSpec([1.0], [1.0], lam=v), "lam", id="GridSpec-lam"),
    pytest.param(lambda v: GridSpec([1.0], [1.0], omega=v), "omega", id="GridSpec-omega"),
    pytest.param(lambda v: GridSpec.log_spaced((1.0, v), (1.0, 2.0), 3, 3),
                 r"gamma_range\[1\]", id="log_spaced-gamma"),
    pytest.param(lambda v: GridSpec.log_spaced((1.0, 2.0), (v, 2.0), 3, 3),
                 r"Omega_range\[0\]", id="log_spaced-Omega"),
    pytest.param(lambda v: lowpass_cascade((2.0, v)), r"gammas\[1\]", id="lowpass_cascade"),
    pytest.param(lambda v: bandpass(v, 2.0), "gamma", id="bandpass-gamma"),
    pytest.param(lambda v: stationary_statistics(lowpass_cascade((1.0,)), v), "lam",
                 id="stationary_statistics-lam"),
    pytest.param(lambda v: build_truncated_oscillator(4, v), "omega", id="oscillator-omega"),
    pytest.param(lambda v: propagate_affine([[-1.0]], [0.0], [1.0], v, 5), "dt",
                 id="propagate_affine-dt"),
])
def test_rate_must_be_positive_and_finite(call, field, value):
    # one check and one message at every boundary; nothing is built from
    # the bad value first, so no numpy warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=f"^{field} must be positive and finite, got {value}$"):
            call(value)


@pytest.mark.parametrize("value", [None, "1.0", 1j, np.array([1.0, 2.0])])
def test_require_positive_refuses_what_is_not_a_real_number(value):
    with pytest.raises(ValueError, match="^rate must be positive and finite, got "):
        require_positive(value, "rate")


def test_require_positive_returns_the_value():
    for value in (1, 2.5, np.float32(0.5), np.int64(3)):
        assert require_positive(value, "rate") is value


@pytest.mark.parametrize("value", [True, np.True_, 2.5, "3", None, "below"])
@pytest.mark.parametrize("call, field, minimum", [
    pytest.param(lambda v: GridSpec.log_spaced(n_gamma=v, n_Omega=3), "n_gamma", 1,
                 id="log_spaced-n_gamma"),
    pytest.param(lambda v: GridSpec.log_spaced(n_gamma=3, n_Omega=v), "n_Omega", 1,
                 id="log_spaced-n_Omega"),
])
def test_count_is_refused_naming_the_field(call, field, minimum, value):
    # the check that propagate_affine and TrajectoryConfig make of their
    # counts (tested with them); a bool is an int to Python
    if value == "below":
        value, message = minimum - 1, f"{field} must be at least {minimum}, got {minimum - 1}"
    else:
        message = f"{field} must be an integer, got {value!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


def test_require_count_returns_the_value():
    for value, minimum in ((0, 0), (3, 1), (np.int64(7), 1), (np.int32(-5), None), (-5, None)):
        assert require_count(value, "count", minimum) is value
