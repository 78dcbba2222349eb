"""Tests for the problem abstraction, counters, and the noise wrapper."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mograd import (
    EvaluationOverflowError,
    InputError,
    MultiObjectiveProblem,
    NoiseSpec,
    RunStatus,
    make_regularized,
    quadratic_pair,
    run_adagrad,
    run_descent,
    wrap_noisy,
)
from mograd.problems import _finite
from mograd.suite import SCALAR_PROBLEMS


@pytest.fixture
def reg_rosenbrock():
    return make_regularized(SCALAR_PROBLEMS["ROSENBR"])


class TestEvaluate:
    def test_regularized_rosenbrock_at_minimizer(self, reg_rosenbrock):
        assert_allclose(reg_rosenbrock.evaluate([1.0, 1.0]), [0.0, 2.0])

    def test_regularized_rosenbrock_at_origin(self, reg_rosenbrock):
        assert_allclose(reg_rosenbrock.evaluate([0.0, 0.0]), [1.0, 0.0])

    def test_counter_increments(self, reg_rosenbrock):
        assert reg_rosenbrock.counters.objective_evals == 0
        reg_rosenbrock.evaluate([0.0, 0.0])
        reg_rosenbrock.evaluate([1.0, 1.0])
        assert reg_rosenbrock.counters.objective_evals == 2
        assert reg_rosenbrock.counters.gradient_evals == 0

    def test_dimension_mismatch(self, reg_rosenbrock):
        with pytest.raises(InputError):
            reg_rosenbrock.evaluate([1.0, 2.0, 3.0])

    def test_nonfinite_point_rejected(self, reg_rosenbrock):
        with pytest.raises(InputError):
            reg_rosenbrock.evaluate([np.nan, 0.0])

    def test_overflow_carries_index(self):
        def objectives(x):
            return np.array([x[0], np.exp(x[0])])

        def jac(x):
            return np.array([[1.0], [np.exp(x[0])]])

        p = MultiObjectiveProblem("EXPY", 1, 2, (0.0,), objectives, jac)
        with pytest.raises(EvaluationOverflowError) as err:
            p.evaluate([1e4])
        assert err.value.index == 1

    def test_determinism(self, reg_rosenbrock):
        x = np.array([0.3, -0.7])
        a = reg_rosenbrock.evaluate(x)
        b = reg_rosenbrock.evaluate(x)
        assert np.array_equal(a, b)


class TestJacobian:
    def test_quadratic_pair_rows(self):
        p = quadratic_pair(a=(1.0, 0.0), b=(-1.0, 0.0))
        G = p.jacobian([1.0, 0.0])
        assert_allclose(G[0], [0.0, 0.0])
        assert_allclose(G[1], [2.0, 0.0])  # a - b

    def test_regularizer_gradient(self, reg_rosenbrock):
        G = reg_rosenbrock.jacobian([1.0, 2.0])
        assert_allclose(G[1], [2.0, 4.0])

    def test_counter(self, reg_rosenbrock):
        reg_rosenbrock.jacobian([0.0, 0.0])
        assert reg_rosenbrock.counters.gradient_evals == 1
        assert reg_rosenbrock.counters.objective_evals == 0

    def test_overflow_carries_entry(self):
        def objectives(x):
            return np.array([x[0]])

        def jac(x):
            return np.array([[np.exp(x[0])]])

        p = MultiObjectiveProblem("EXPG", 1, 1, (0.0,), objectives, jac)
        with pytest.raises(EvaluationOverflowError) as err:
            p.jacobian([1e4])
        assert err.value.index == (0, 0)


class TestOverflowIndex:
    @pytest.mark.parametrize(
        "values, index",
        [
            ([1.0, np.inf, np.nan, -np.inf], 1),
            ([np.nan, 2.0, np.inf], 0),
            ([1.0, 2.0, -np.inf], 2),
        ],
    )
    def test_evaluate_names_first_nonfinite_objective(self, values, index):
        y = np.array(values)
        p = MultiObjectiveProblem(
            "BAD", 1, y.size, (0.0,), lambda x: y, lambda x: np.zeros((y.size, 1))
        )
        with pytest.raises(EvaluationOverflowError) as err:
            p.evaluate([0.5])
        assert err.value.index == index
        assert f"objective {index} " in str(err.value)
        assert np.array_equal(err.value.x, [0.5])

    @pytest.mark.parametrize(
        "rows, index",
        [
            ([[1.0, 2.0, 3.0], [4.0, np.nan, np.inf]], (1, 1)),
            ([[1.0, np.inf, 0.0], [np.nan, 1.0, 0.0]], (0, 1)),
            ([[np.nan, 1.0, 0.0], [1.0, 1.0, 0.0]], (0, 0)),
            ([[0.0, 0.0, 0.0], [0.0, 0.0, -np.inf]], (1, 2)),
        ],
    )
    def test_jacobian_names_first_nonfinite_entry_row_major(self, rows, index):
        G = np.array(rows)
        p = MultiObjectiveProblem("BAD", 3, 2, np.zeros(3), lambda x: np.zeros(2), lambda x: G)
        with pytest.raises(EvaluationOverflowError) as err:
            p.jacobian(np.ones(3))
        assert err.value.index == index
        assert f"entry {index} " in str(err.value)
        assert np.array_equal(err.value.x, np.ones(3))


class TestFinite:
    # [1e200, 1.0] squares past the float range, so its dot product is inf
    # and the entrywise fallback decides.
    @pytest.mark.parametrize("base", [[1.0, 2.0], [1e200, 1.0]])
    def test_finite_entries(self, base):
        a = np.array(base)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                assert _finite(a)
                assert _finite(np.array([a, -a]))

    @pytest.mark.parametrize("base", [[1.0, 2.0], [1e200, 1.0]])
    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_any_nonfinite_entry(self, base, position, bad):
        a = np.array(base)
        a[position] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                assert not _finite(a)
                assert not _finite(np.array([np.ones(2), a]))

    def test_public_oracles_accept_an_overflowing_square(self):
        # The output test of a public call runs inside the call's errstate.
        p = MultiObjectiveProblem(
            "BIG",
            2,
            2,
            (0.0, 0.0),
            lambda x: np.array([1e200, 1.0]),
            lambda x: np.array([[1e200, 1.0], [0.0, -1e200]]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.evaluate([0.0, 0.0]).tolist() == [1e200, 1.0]
            assert p.jacobian([0.0, 0.0]).tolist() == [[1e200, 1.0], [0.0, -1e200]]


class TestPhi:
    def test_max_of_values(self, reg_rosenbrock):
        assert reg_rosenbrock.phi([1.0, 1.0]) == pytest.approx(2.0)

    def test_counts_one_objective_eval(self, reg_rosenbrock):
        reg_rosenbrock.phi([0.5, 0.5])
        assert reg_rosenbrock.counters.objective_evals == 1

    def test_tie(self):
        p = quadratic_pair()
        # Midpoint of the segment: both objectives equal.
        assert p.phi([0.0, 0.0]) == pytest.approx(0.5)


class TestNoiseWrapper:
    def test_rho_zero_bit_identical(self, reg_rosenbrock):
        noisy = wrap_noisy(reg_rosenbrock, NoiseSpec(rho=0.0, seed=3))
        x = np.array([0.4, 0.2])
        assert np.array_equal(noisy.evaluate(x), reg_rosenbrock.evaluate(x))
        assert np.array_equal(noisy.jacobian(x), reg_rosenbrock.jacobian(x))

    def test_same_seed_same_stream(self):
        x = np.array([0.4, 0.2])
        outs = []
        for _ in range(2):
            base = make_regularized(SCALAR_PROBLEMS["ROSENBR"])
            noisy = wrap_noisy(base, NoiseSpec(rho=0.05, seed=11))
            outs.append((noisy.evaluate(x), noisy.jacobian(x), noisy.evaluate(x)))
        for a, b in zip(outs[0], outs[1]):
            assert np.array_equal(a, b)

    def test_redraw_at_same_point(self, reg_rosenbrock):
        noisy = wrap_noisy(reg_rosenbrock, NoiseSpec(rho=0.05, seed=1))
        x = np.array([0.4, 0.2])
        assert not np.array_equal(noisy.evaluate(x), noisy.evaluate(x))

    def test_counters_delegate(self, reg_rosenbrock):
        noisy = wrap_noisy(reg_rosenbrock, NoiseSpec(rho=0.05, seed=1))
        noisy.evaluate([0.0, 0.0])
        noisy.jacobian([0.0, 0.0])
        assert reg_rosenbrock.counters.objective_evals == 1
        assert reg_rosenbrock.counters.gradient_evals == 1
        assert noisy.counters is reg_rosenbrock.counters

    def test_exposes_the_driver_surface_only(self, reg_rosenbrock):
        noisy = wrap_noisy(reg_rosenbrock, NoiseSpec(rho=0.05, seed=1))
        assert not isinstance(noisy, MultiObjectiveProblem)
        assert (noisy.name, noisy.n, noisy.m) == (
            reg_rosenbrock.name, reg_rosenbrock.n, reg_rosenbrock.m
        )
        assert noisy.standard_start is reg_rosenbrock.standard_start
        assert noisy.noise_rho == 0.05
        # The base's exact phi would hide the noise.
        assert not hasattr(noisy, "phi")

    def test_negative_rho_rejected(self):
        with pytest.raises(InputError):
            NoiseSpec(rho=-0.1)

    def test_noise_law_statistics(self):
        # Mean of a*(1 + rho*xi) over many draws stays within 4 standard
        # errors of a.
        v = 3.0

        def objectives(x):
            return np.array([v])

        def jac(x):
            return np.array([[0.0]])

        base = MultiObjectiveProblem("CONST", 1, 1, (0.0,), objectives, jac)
        rho = 0.05
        noisy = wrap_noisy(base, NoiseSpec(rho=rho, seed=7))
        reps = 100_000
        vals = np.array([noisy.evaluate([0.0])[0] for _ in range(reps)])
        assert abs(vals.mean() - v) <= 4.0 * rho * abs(v) / np.sqrt(reps)
        # Spread matches the law as well.
        assert np.isclose(vals.std(), rho * abs(v), rtol=0.05)

    def _huge(self):
        # Finite outputs that a factor 1 + 0.5*xi above 1.06 takes past
        # the largest double; NoiseSpec(0.5, 0) draws xi = 0.126 first.
        return MultiObjectiveProblem(
            "HUGE",
            1,
            2,
            (0.0,),
            lambda x: np.array([1.7e308, 1.0]),
            lambda x: np.array([[1.7e308], [1.0]]),
        )

    @pytest.mark.parametrize("oracle, index", [("evaluate", 0), ("jacobian", (0, 0))])
    def test_noise_overflow_is_typed(self, oracle, index):
        noisy = wrap_noisy(self._huge(), NoiseSpec(0.5, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationOverflowError) as err:
                getattr(noisy, oracle)([0.25])
        assert err.value.index == index
        assert np.array_equal(err.value.x, [0.25])

    @pytest.mark.parametrize("run", [run_adagrad, run_descent])
    def test_noise_overflow_fails_the_run(self, run):
        noisy = wrap_noisy(self._huge(), NoiseSpec(0.5, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run(noisy)
        assert rec.status == RunStatus.FAILED
        assert "gradient entry (0, 0) is non-finite" in rec.failure_reason

    @pytest.mark.parametrize("run", [run_adagrad, run_descent])
    def test_noise_overflow_mid_run_fails_the_run(self, run):
        # Gradients of 1 for three Jacobian calls, then of 1.7e308, which
        # the fourth call's draws under NoiseSpec(0.5, 4) take past the
        # largest double in the second row, with either driver.
        calls = []

        def jacobian(x):
            calls.append(x)
            return np.full((2, 1), 1.7e308 if len(calls) > 3 else 1.0)

        grows = MultiObjectiveProblem(
            "GROWS", 1, 2, (0.0,), lambda x: np.array([x[0], x[0]]), jacobian
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run(wrap_noisy(grows, NoiseSpec(0.5, 4)))
        assert rec.status == RunStatus.FAILED
        assert rec.gradient_evals == 4
        assert "gradient entry (1, 0) is non-finite" in rec.failure_reason
