import numpy as np
import pytest

from _reference import integrate_affine
from filtercool.moment_systems import ProtocolKind, ProtocolParams, build_two_layer
from filtercool.numerics import (
    NoiseStream,
    NumericalError,
    SingularMatrixError,
    eigenvalues,
    hurwitz_test,
    mat_exp,
    propagate_affine,
    solve_linear,
)


class TestMatExp:
    def test_zero_matrix(self):
        assert np.allclose(mat_exp(np.zeros((2, 2)), 7.0), np.eye(2), atol=1e-14)

    def test_scalar(self):
        assert abs(mat_exp(np.array([[-1.0]]), 1.0)[0, 0] - np.exp(-1.0)) < 1e-13

    def test_damped_rotation_block(self):
        # exp of [[-g,-W],[W,-g]] has the closed form e^{-gt} R(Wt)
        g, W, t = 1.0, 2.0, 0.5
        A = np.array([[-g, -W], [W, -g]])
        c, s = np.cos(W * t), np.sin(W * t)
        expected = np.exp(-g * t) * np.array([[c, -s], [s, c]])
        assert np.abs(mat_exp(A, t) - expected).max() < 1e-13

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)), 1.0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.uniform(-1, 1, (4, 4)) - 3.0 * np.eye(4)
            s, t = rng.uniform(0.1, 2.0, 2)
            lhs = mat_exp(A, s + t)
            rhs = mat_exp(A, s) @ mat_exp(A, t)
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
            exact = xinf + mat_exp(sys.A, T) @ (x0 - xinf)
            return np.linalg.norm(integrate_affine(sys.A, sys.c, x0, dt, n)[-1] - exact)

        assert endpoint_error(0.02) / endpoint_error(0.01) >= 12.0

    def test_overflow_reports_step(self):
        with pytest.raises(NumericalError, match="step"):
            integrate_affine(np.array([[100.0]]), np.zeros(1), [1.0], 1.0, 500)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            integrate_affine(np.zeros((1, 1)), np.zeros(1), [1.0], 0.0, 5)


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

    @pytest.mark.parametrize("args", [
        (np.zeros((1, 1)), np.zeros(1), [1.0], 0.0, 5),
        (np.zeros((1, 1)), np.zeros(1), [1.0], -0.1, 5),
        (np.zeros((2, 2)), np.zeros(1), [1.0, 0.0], 0.1, 5),
        (np.zeros((2, 2)), np.zeros(2), [1.0], 0.1, 5),
        (np.zeros((2, 3)), np.zeros(2), [1.0, 0.0], 0.1, 5),
    ])
    def test_bad_input(self, args):
        with pytest.raises(ValueError):
            propagate_affine(*args)


class TestNoiseStream:
    def test_determinism(self):
        a = NoiseStream(123456789, 7).normal(100)
        b = NoiseStream(123456789, 7).normal(100)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = NoiseStream(5, 0).normal(64)
        b = NoiseStream(5, 1).normal(64)
        assert not np.allclose(a, b)

    def test_generator_restarts(self):
        stream = NoiseStream(11, 2)
        g = stream.generator()
        first = g.standard_normal(10)
        assert np.array_equal(first, stream.generator().standard_normal(10))

    def test_negative_seed_allowed(self):
        assert NoiseStream(-3, 0).normal(4).shape == (4,)
