"""Tests for the min-norm subproblem: closed form, active-set solver, oracles."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mograd import (
    ConvergenceError,
    InputError,
    UnsupportedSizeError,
    brute_force_min_norm,
    kkt_residual,
    min_norm_element,
    min_norm_two,
    solve_direction,
    subproblem,
)
from mograd.suite import SCALAR_PROBLEMS


class TestMinNormTwo:
    def test_collinear_shorter_gradient_wins(self):
        sol = min_norm_two(np.array([2.0, 0.0]), np.array([1.0, 0.0]))
        assert_allclose(sol.weights, [0.0, 1.0])
        assert_allclose(sol.gradient, [1.0, 0.0])
        assert sol.omega == pytest.approx(1.0)

    def test_identical_rows(self):
        g = np.array([3.0, -4.0])
        sol = min_norm_two(g, g)
        assert_allclose(sol.gradient, g)
        assert sol.omega == pytest.approx(25.0)

    def test_orthonormal_pair(self):
        sol = min_norm_two(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert_allclose(sol.weights, [0.5, 0.5])
        assert sol.omega == pytest.approx(0.5)

    def test_opposite_gradients_cancel(self):
        sol = min_norm_two(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert sol.omega == pytest.approx(0.0, abs=1e-15)
        assert_allclose(sol.gradient, [0.0, 0.0])

    def test_closed_form_residual_is_tiny(self, rng):
        for _ in range(200):
            g1, g2 = rng.normal(size=4), rng.normal(size=4)
            sol = min_norm_two(g1, g2)
            assert kkt_residual(np.array([g1, g2]), sol.weights) <= 1e-12

    def test_agrees_with_iterative_solver(self, rng):
        for _ in range(1000):
            g1, g2 = rng.normal(size=(2, 5))
            a = min_norm_two(g1, g2)
            b = min_norm_element(np.vstack([g1, g2]), tol=1e-12)
            assert abs(a.omega - b.omega) <= 1e-10 * (1.0 + a.omega)


def _omega_agrees(omega, weights, G):
    """``omega`` is within 1e-12 max_j ||g_j||^2 of ||G^T weights||^2.

    Both sides are taken in units of max|G|^2, so that the reference does
    not overflow: its rounding residue can, where the rows cancel at a
    large scale.  An inf ``omega`` agrees if the reference, within the
    bound, overflows too.  The bound also allows n * 2**-1074, the spacing
    of subnormal squares, which any computed omega carries.
    """
    top = float(np.abs(G).max())
    if top == 0.0:
        return omega == 0.0
    rows = G / top
    g = rows.T @ weights
    ref = float(g @ g)
    bound = 1e-12 * float((rows * rows).sum(axis=1).max())
    bound += G.shape[1] * 2.0**-1074 / top / top
    if math.isinf(omega):
        return math.isinf((ref + bound) * top * top)
    return abs(omega / top / top - ref) <= bound


class TestMinNormTwoAtExtremeScales:
    """The closed form at row scales 1e-300 to 1e300, opposite pairs included."""

    def test_nearly_opposite_rows_past_the_overflow_of_their_difference(self):
        G = np.array([[1e154, 5.0], [-1e154, 5.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_direction(G)
        assert sol.weights.tolist() == [0.5, 0.5]
        assert sol.gradient.tolist() == [0.0, 5.0]
        assert sol.omega == 25.0

    def test_weights_do_not_depend_on_a_power_of_two_scale(self):
        # Scaling by 2**k is exact, and so is dividing by max|G| after it.
        G = np.array([[1.0, 0.375], [-0.5, 0.75]])
        want = solve_direction(G).weights
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (-1000, -540, -300, 300, 540, 1000):
                assert solve_direction(2.0**k * G).weights.tobytes() == want.tobytes(), k

    def test_omega_matches_active_set_at_any_scale(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @st.composite
        def pairs(draw):
            n = draw(st.integers(1, 4))
            unit = hnp.arrays(float, n, elements=st.floats(-1.0, 1.0))
            u, v = draw(unit), draw(unit)
            e1 = draw(st.integers(-300, 300))
            g1 = u * 10.0**e1
            if draw(st.booleans()):
                # Nearly opposite: g2 = -g1 plus a part no larger than g1's scale.
                return np.array([g1, -g1 + v * 10.0 ** draw(st.integers(-300, e1))])
            return np.array([g1, v * 10.0 ** draw(st.integers(-300, 300))])

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
        @hypothesis.given(G=pairs())
        @hypothesis.example(G=np.array([[1e154, 5.0], [-1e154, 5.0]]))
        @hypothesis.example(G=np.array([[1e160, 5.0], [-1e160, 5.0]]))
        @hypothesis.example(G=1e200 * np.eye(2))
        @hypothesis.example(G=np.array([[1e-300, 1e-310], [-1e-300, 1e-310]]))
        def check(G):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                sol = solve_direction(G)
            with np.errstate(over="ignore"):  # the reference's own omega may overflow
                ref = min_norm_element(G, tol=1e-14)
            assert _omega_agrees(sol.omega, ref.weights, G), (sol.omega, ref.weights)

        check()


class TestMinNormElement:
    def test_symmetric_orthonormal(self):
        sol = min_norm_element(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert_allclose(sol.weights, [0.5, 0.5], atol=1e-9)
        assert_allclose(sol.gradient, [0.5, 0.5], atol=1e-9)
        assert sol.omega == pytest.approx(0.5, abs=1e-12)

    def test_opposite_rows_are_critical(self):
        sol = min_norm_element(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert sol.omega == pytest.approx(0.0, abs=1e-12)

    def test_redundant_third_row(self):
        # The row (1,1) lies outside the segment between the basis rows,
        # so the min-norm point is unchanged by it.
        G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sol = min_norm_element(G)
        assert_allclose(sol.gradient, [0.5, 0.5], atol=1e-8)
        assert sol.omega == pytest.approx(0.5, abs=1e-10)
        assert sol.weights[2] == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("m", [2, 3])
    def test_large_cancelling_rows_do_not_warn(self, m):
        # The exact minimizer is 0 at weights [0.5, 0.5(, 0)].  The weights'
        # rounding leaves a residue of about 1e-16 max|G| in g, so omega may
        # overflow to inf, as on the m = 2 closed form's out-of-range route;
        # it is not pinned here.
        G = np.array([[5e169, 0, 0, 1e170], [-5e169, 0, 0, -1e170], [1e170, 0, 0, 1e170]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = min_norm_element(G[:m])
        assert sol.weights.min() >= 0.0
        assert sol.weights.sum() == pytest.approx(1.0)
        assert_allclose(sol.weights, [0.5, 0.5, 0.0][:m], atol=1e-12)

    def test_zero_matrix_degenerate(self):
        G = np.zeros((3, 4))
        sol = min_norm_element(G)
        assert_allclose(sol.weights, [1 / 3] * 3)
        assert sol.omega == 0.0
        assert kkt_residual(G, sol.weights) == 0.0

    def test_single_row(self):
        g = np.array([1.0, 2.0, 2.0])
        sol = min_norm_element(g[None, :])
        assert_allclose(sol.weights, [1.0])
        assert sol.omega == pytest.approx(9.0)

    def test_kkt_conditions_hold_at_solution(self, rng):
        tol = 1e-10
        for m in (2, 3, 5):
            for _ in range(50):
                G = rng.normal(size=(m, 4))
                sol = min_norm_element(G, tol=tol)
                sq = sol.omega
                inner = G @ sol.gradient
                assert np.all(inner >= sq - tol * (1.0 + sq))
                active = sol.weights > tol
                assert np.all(np.abs(inner[active] - sq) <= tol * (1.0 + sq))

    def test_matches_brute_force_m3(self, rng):
        for _ in range(50):
            G = rng.normal(size=(3, 3))
            a = min_norm_element(G)
            b = brute_force_min_norm(G, grid_step=1e-3)
            assert abs(a.omega - b.omega) <= 1e-4 * (1.0 + b.omega)

    def test_scaling(self, rng):
        for _ in range(20):
            G = rng.normal(size=(3, 4))
            c = float(rng.uniform(0.1, 10.0))
            a = min_norm_element(G, tol=1e-12)
            b = min_norm_element(c * G, tol=1e-12)
            assert b.omega == pytest.approx(c**2 * a.omega, rel=1e-7, abs=1e-10)
            assert_allclose(b.gradient, c * a.gradient, rtol=1e-6, atol=1e-8)

    def test_descent_property(self, rng):
        # Every objective strictly decreases along the negated gradient.
        tol = 1e-10
        for _ in range(100):
            G = rng.normal(size=(3, 5))
            sol = min_norm_element(G, tol=tol)
            if sol.omega > tol:
                directional = G @ (-sol.gradient)
                assert directional.max() <= -(1.0 - 1e-6) * sol.omega

    def test_weights_on_simplex_and_gradient_consistent(self, rng):
        for _ in range(100):
            G = rng.normal(size=(4, 2))
            sol = min_norm_element(G)
            assert sol.weights.min() >= -1e-14
            assert abs(sol.weights.sum() - 1.0) <= 1e-12
            # gradient and omega are recomputed from the returned weights.
            assert np.array_equal(sol.gradient, G.T @ sol.weights)
            assert sol.omega == float(sol.gradient @ sol.gradient)

    def test_iterations_count_active_set_steps(self):
        # From the shortest row (0, -1): add (2, 1), add (-2, -2), then drop
        # (0, -1), because the triangle's affine minimizer (the origin) lies
        # outside the triangle.  The answer is on the edge of the other two.
        G = np.array([[0.0, -1.0], [2.0, 1.0], [-2.0, -2.0]])
        sol = min_norm_element(G)
        assert sol.iterations == 3
        assert_allclose(sol.weights, [0.0, 0.56, 0.44], atol=1e-14)
        assert sol.omega == pytest.approx(0.16, rel=1e-13)
        # A vertex that is already optimal takes no step.
        assert min_norm_element(np.array([[1.0, 0.0], [2.0, 1.0], [1.0, -3.0]])).iterations == 0

    def test_cycling_guard_raises_with_feasible_iterate(self, monkeypatch):
        monkeypatch.setattr(subproblem, "_STEPS_PER_ROW", 0)
        with pytest.raises(ConvergenceError) as info:
            min_norm_element(np.eye(3))
        best = info.value.best
        assert_allclose(best.weights, [1.0, 0.0, 0.0])
        assert best.omega == 1.0

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            min_norm_element(np.ones((2, 2)), tol=0.0)
        with pytest.raises(InputError):
            min_norm_element(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(InputError, match=r"has shape \(3,\), expected \(None, None\)"):
            min_norm_element(np.ones(3))
        with pytest.raises(InputError, match=r"g2 has shape \(3,\), expected \(2,\)"):
            min_norm_two(np.ones(2), np.ones(3))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 0), (0, 0)])
    def test_empty_jacobian_rejected(self, shape):
        for solve in (min_norm_element, solve_direction):
            with pytest.raises(InputError, match="empty"):
                solve(np.zeros(shape))


def _gram_scale(G):
    """Largest entry of G G^T: the scale of every inner product in the KKT conditions."""
    return float(np.einsum("ij,ij->i", G, G).max())


def _assert_kkt(G, sol, rel):
    """The min-norm optimality conditions, relative to the Gram scale of G."""
    scale = _gram_scale(G)
    assert sol.weights.min() >= 0.0
    assert abs(sol.weights.sum() - 1.0) <= 1e-12
    inner = G @ sol.gradient
    assert inner.min() >= sol.omega - rel * scale
    assert np.abs(inner[sol.weights > 0.0] - sol.omega).max() <= rel * scale


def _nnls_omega(nnls, G):
    """omega of the min-norm element by least-distance programming.

    min ||E u - e_last|| over u >= 0 with E = [G^T; 1^T]: u / sum(u) are the
    min-norm simplex weights.  G is scaled to unit largest entry so that the
    row of ones keeps its weight.
    """
    m, n = G.shape
    scale = float(np.abs(G).max())
    if scale == 0.0:
        return 0.0
    E = np.vstack([G.T / scale, np.ones(m)])
    f = np.zeros(n + 1)
    f[-1] = 1.0
    u, _ = nnls(E, f, maxiter=100 * (m + n + 1))
    g = G.T @ (u / u.sum())
    return float(g @ g)


FAMILIES = ("gaussian", "duplicate rows", "zero rows", "rank deficient", "near collinear")


def _family_jacobian(family, m, n, seed, eps, log_scale):
    rng = np.random.default_rng(seed)
    if family == "rank deficient":
        n = min(n, m - 1)
    G = rng.standard_normal((m, n))
    if family == "duplicate rows":
        G[m // 2 :] = G[rng.integers(0, m // 2, size=m - m // 2)]
    elif family == "zero rows":
        G[rng.choice(m, size=max(1, m // 3), replace=False)] = 0.0
    elif family == "near collinear":
        # Rows within eps of a line through the origin, mostly on one side.
        G = np.outer(1.0 + rng.standard_normal(m), rng.standard_normal(n)) + eps * G
    return G * 10.0**log_scale


def _for_drawn_jacobians(check, examples=300):
    """Run ``check(G)`` on hypothesis-drawn Jacobians: m in [3, 20], every family."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    jacobians = st.builds(
        _family_jacobian,
        st.sampled_from(FAMILIES),
        st.integers(3, 20),
        st.integers(1, 20),
        st.integers(0, 2**32 - 1),
        st.sampled_from((1e-4, 1e-6, 1e-8)),
        st.floats(-8.0, 8.0),
    )
    settings = hypothesis.settings(
        max_examples=examples, deadline=None, derandomize=True, database=None
    )
    settings(hypothesis.given(jacobians)(check))()


class TestMinNormProperties:
    """The active-set solver on degenerate and badly scaled Jacobians."""

    def test_omega_matches_nnls_and_brute_force(self):
        nnls = pytest.importorskip("scipy.optimize").nnls

        def check(G):
            sol = min_norm_element(G)
            scale = _gram_scale(G)
            assert abs(sol.omega - _nnls_omega(nnls, G)) <= 1e-9 * scale
            if G.shape[0] <= 4:
                # An exact minimizer is never beaten by a grid point.
                grid = brute_force_min_norm(G, grid_step=0.02).omega
                assert sol.omega <= grid + 1e-12 * scale

        _for_drawn_jacobians(check)

    def test_kkt_conditions_relative_to_gram_scale(self):
        _for_drawn_jacobians(lambda G: _assert_kkt(G, min_norm_element(G), 1e-9))


def _stacked_jacobian(names, x):
    return np.vstack([SCALAR_PROBLEMS[name].gradient(x) for name in names])


class TestStackedCatalogInstances:
    """m = 3 Jacobians of stacked catalog functions, as the many-objective runs build them."""

    def test_ill_conditioned_at_standard_start(self):
        names = ("ARWHEAD", "VARDIM", "BROWNAL")
        x = np.mean([SCALAR_PROBLEMS[name].standard_start for name in names], axis=0)
        G = _stacked_jacobian(names, x)
        eig = np.linalg.eigvalsh(G @ G.T)
        assert eig.max() / eig.min() > 1e9
        sol = min_norm_element(G)
        assert sol.iterations <= 3
        _assert_kkt(G, sol, 1e-12)

    def test_rank_deficient_critical_point(self):
        # The descent driver's first iterate from the averaged standard
        # start: three gradients in R^2 whose hull holds the origin.
        names = ("ZANGWIL2", "ROSENBR", "CUBE")
        G = _stacked_jacobian(names, np.array([1.735866580837344, 3.506963584145711]))
        assert np.linalg.matrix_rank(G) == 2
        sol = min_norm_element(G)
        assert sol.iterations <= 3
        assert sol.weights.min() > 0.0
        assert sol.omega <= 1e-15 * _gram_scale(G)
        _assert_kkt(G, sol, 1e-12)


class TestKktResidual:
    def test_exact_solution_residual(self, rng):
        for _ in range(100):
            g1, g2 = rng.normal(size=(2, 3))
            sol = min_norm_two(g1, g2)
            assert kkt_residual(np.vstack([g1, g2]), sol.weights) <= 1e-12

    def test_vertex_on_orthonormal_rows(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert kkt_residual(G, np.array([1.0, 0.0])) > 0.4

    def test_identical_rows_any_weights(self):
        G = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert kkt_residual(G, np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-15)

    def test_finite_where_the_squared_norm_overflows(self):
        G = 1e200 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kkt_residual(G, np.array([0.5, 0.5])) == 0.0
            assert kkt_residual(G, np.array([1.0, 0.0])) == 1.0
            opposite = np.array([[1e200], [-1e200]])
            assert kkt_residual(opposite, np.array([0.5, 0.5])) == 0.0

    def test_scaled_route_continues_the_plain_one(self, rng):
        # Past max|G| = 1e150 the normalization 1 + ||g||^2 is ||g||^2 to
        # rounding, so the residual no longer depends on the scale of G.
        for _ in range(50):
            G = rng.normal(size=(2, 3))
            lam = rng.dirichlet(np.ones(2))
            plain = kkt_residual(1e150 * G, lam)
            scaled = kkt_residual(1e200 * G, lam)
            assert scaled == pytest.approx(plain, rel=1e-12, abs=1e-300)

    def test_off_simplex_rejected(self):
        G = np.eye(2)
        with pytest.raises(InputError, match="unit simplex"):
            kkt_residual(G, np.array([0.6, 0.6]))
        for weights in ([np.nan, np.nan], [np.nan, 1.0]):
            with pytest.raises(InputError, match="weights contains non-finite entries"):
                kkt_residual(G, np.array(weights))
        with pytest.raises(InputError, match=r"weights has shape \(3,\), expected \(2,\)"):
            kkt_residual(G, np.array([0.2, 0.3, 0.5]))


class TestBruteForce:
    def test_orthonormal_pair_near_optimum(self):
        sol = brute_force_min_norm(np.eye(2), grid_step=1e-3)
        assert abs(sol.omega - 0.5) <= 1e-5

    def test_single_row(self):
        g = np.array([2.0, 1.0])
        sol = brute_force_min_norm(g[None, :], grid_step=0.1)
        assert_allclose(sol.weights, [1.0])
        assert sol.omega == pytest.approx(5.0)

    def test_rejects_large_m(self):
        with pytest.raises(UnsupportedSizeError):
            brute_force_min_norm(np.ones((5, 2)), grid_step=0.1)

    def test_rejects_bad_step(self):
        with pytest.raises(InputError):
            brute_force_min_norm(np.eye(2), grid_step=0.5)
        with pytest.raises(InputError, match="grid_step must be > 0 and finite"):
            brute_force_min_norm(np.eye(2), grid_step="0.05")

    def test_m4_coarse_grid(self, rng):
        G = rng.normal(size=(4, 3))
        a = brute_force_min_norm(G, grid_step=0.05)
        b = min_norm_element(G, tol=1e-12)
        assert a.omega >= b.omega - 1e-12
        assert abs(a.omega - b.omega) <= 0.05 * float(np.abs(G).max()) ** 2

    def test_three_objective_spec_point(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sol = brute_force_min_norm(G, grid_step=1e-3)
        assert abs(sol.omega - 0.5) <= 1e-5

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_grid_entries_are_exact_counts(self, m):
        # Each row is m counts k / K summing to K, once each, in lexicographic order.
        from mograd.subproblem import _simplex_grid

        for K in (1, 7, 10, 50):
            grid = _simplex_grid(m, K)
            counts = np.round(grid * K)
            assert np.array_equal(grid, counts / K)
            assert (counts.sum(axis=1) == K).all()
            assert len(grid) == math.comb(K + m - 1, m - 1)
            rows = [tuple(row) for row in counts]
            assert rows == sorted(set(rows))

    def test_scoring_matches_einsum_formula(self, rng):
        from mograd.subproblem import _simplex_grid

        def einsum_point(G, grid):
            values = np.einsum("ij,jk,ik->i", grid, G @ G.T, grid)
            lam = grid[int(np.argmin(values))]
            return lam / lam.sum(), values

        # Generic Jacobians have one best grid point: both scorings pick it.
        for m, step in [(2, 1e-3), (3, 1e-3), (3, 1e-2), (4, 2e-2)]:
            grid = _simplex_grid(m, int(np.ceil(1.0 / step)))
            for _ in range(15):
                n = int(rng.integers(1, 6))
                G = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-4.0, 4.0)
                expected, _ = einsum_point(G, grid)
                got = brute_force_min_norm(G, grid_step=step).weights
                assert np.array_equal(got, expected)
        # Degenerate ones tie along whole faces; rounding breaks the tie, so
        # the point may differ but its value is the einsum minimum.
        g = rng.normal(size=3)
        for m in (2, 3, 4):
            grid = _simplex_grid(m, 50)
            for G in (
                np.zeros((m, 3)),
                np.tile(g, (m, 1)),
                np.vstack([g * k for k in range(1, m + 1)]),
                np.vstack([g, -g] + [g] * (m - 2)),
                np.ones((m, 1)),
            ):
                _, values = einsum_point(G, grid)
                lam = brute_force_min_norm(G, grid_step=0.02).weights
                value = lam @ (G @ G.T) @ lam
                assert value - values.min() <= 1e-14 * max(values.max(), 1.0)


class TestSolveDirection:
    def test_dispatch_matches_both_routes(self, rng):
        G2 = rng.normal(size=(2, 3))
        assert solve_direction(G2).omega == min_norm_two(G2[0], G2[1]).omega
        G3 = rng.normal(size=(3, 3))
        a = solve_direction(G3)
        b = min_norm_element(G3)
        assert abs(a.omega - b.omega) <= 1e-12 * (1.0 + a.omega)

    def test_two_rows_match_min_norm_two_bit_for_bit(self, rng):
        cases = [rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-8, 8) for n in (1, 2, 10)]
        for _ in range(200):
            cases.append(rng.normal(size=(2, 10)) * np.exp(rng.uniform(-20, 20, size=(2, 10))))
        g = rng.normal(size=5)
        cases += [np.array([g, g]), np.array([g, 2.0 * g]), np.array([g, -g]), np.zeros((2, 5))]
        for G in cases:
            a = solve_direction(G)
            b = min_norm_two(G[0], G[1])
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.gradient.tobytes() == b.gradient.tobytes()
            assert np.float64(a.omega).tobytes() == np.float64(b.omega).tobytes()
            assert a.iterations == b.iterations == 0

    def test_two_rows_checked_once(self, monkeypatch):
        calls = []
        check = subproblem._check_matrix

        def counting(G):
            calls.append(np.shape(G))
            return check(G)

        monkeypatch.setattr(subproblem, "_check_matrix", counting)
        G = np.array([[1.0, 2.0], [3.0, -1.0]])
        solve_direction(G)
        # In range, the scale test that picks the route is the only check.
        assert calls == []
        with pytest.raises(InputError):
            solve_direction(np.array([[1.0, np.inf], [0.0, 1.0]]))
        assert calls == [(2, 2)]
        calls.clear()
        solve_direction(1e200 * G)
        assert calls == [(2, 2)]

    def test_three_rows_checked_once(self, monkeypatch):
        calls = []
        solves = []
        check = subproblem._check_matrix
        wolfe = subproblem.min_norm_element

        def counting(G):
            calls.append(np.shape(G))
            return check(G)

        def counted_solve(G, tol):
            solves.append(tol)
            return wolfe(G, tol=tol)

        monkeypatch.setattr(subproblem, "_check_matrix", counting)
        # The tracer counts min_norm_element through the module global.
        monkeypatch.setattr(subproblem, "min_norm_element", counted_solve)
        G = np.array([[1.0, 2.0], [3.0, -1.0], [-2.0, 0.5]])
        solve_direction(G, tol=1e-12)
        assert calls == [(3, 2)]
        assert solves == [1e-12]
        with pytest.raises(InputError):
            solve_direction(np.array([[1.0, np.inf], [0.0, 1.0], [2.0, 2.0]]))


def _closed_form_reference(G):
    # The m = 2 route as first written: `@` products, then _finish's clamp
    # and renormalization.
    g1, g2 = G
    diff = g1 - g2
    denom = float(diff @ diff)
    if denom == 0.0:
        lam1 = 1.0
    else:
        lam1 = min(1.0, max(0.0, float(g2 @ (g2 - g1)) / denom))
    lam = np.maximum(np.array([lam1, 1.0 - lam1]), 0.0)
    lam = lam / lam.sum()
    g = G.T @ lam
    return lam, g, float(g @ g)


class TestClosedFormBits:
    """The m = 2 closed form skips _finish; its records must not move."""

    def test_matches_the_finish_formula(self, rng):
        cases = []
        for n in (2, 10):
            for _ in range(1000):
                # Row scales drawn apart, 1e-150 .. 1e150, so that one row
                # can dwarf the other and lam1 reaches both ends.
                scales = 10.0 ** rng.uniform(-150, 150, size=(2, 1))
                cases.append(rng.normal(size=(2, n)) * scales)
            g = rng.normal(size=n) * 10.0 ** rng.uniform(-150, 150)
            cases += [np.array([g, g]), np.array([g, -g]), np.array([g, 3.0 * g])]
            cases += [np.array([g, np.zeros(n)]), np.zeros((2, n))]
        for G in cases:
            sol = solve_direction(G)
            lam, g, omega = _closed_form_reference(G)
            assert sol.weights.tobytes() == lam.tobytes()
            assert sol.gradient.tobytes() == g.tobytes()
            assert np.float64(sol.omega).tobytes() == np.float64(omega).tobytes()

    @pytest.mark.parametrize(
        "lam1",
        [0.0, 5e-324, 1e-300, np.nextafter(0.5, 0.0), 0.5, np.nextafter(1.0, 0.0), 1.0],
    )
    def test_weights_already_on_the_simplex(self, lam1):
        lam = np.array([lam1, 1.0 - lam1])
        assert lam.sum() == 1.0
        assert (lam / lam.sum()).tobytes() == lam.tobytes()
        assert np.maximum(lam, 0.0).tobytes() == lam.tobytes()

    def test_weights_already_on_the_simplex_drawn(self, rng):
        draws = np.concatenate(
            [rng.random(100_000), 10.0 ** rng.uniform(-320, 0, size=100_000)]
        )
        lam = np.stack([draws, 1.0 - draws], axis=1)
        assert (lam.sum(axis=1) == 1.0).all()
        assert (draws + (1.0 - draws) == 1.0).all()
