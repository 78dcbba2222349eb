"""Tests for the problem abstraction, counters, and the noise wrapper."""

import contextlib
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mograd import (
    AdagradConfig,
    DescentConfig,
    EvaluationOverflowError,
    InputError,
    MultiObjectiveProblem,
    NoiseSpec,
    RunStatus,
    get_problem,
    make_regularized,
    quadratic_pair,
    run_adagrad,
    run_descent,
    wrap_noisy,
)
from mograd.problems import _NOISE_BUFFER, _finite, run_scope
from mograd.suite import SCALAR_PROBLEMS


@pytest.fixture
def reg_rosenbrock():
    return make_regularized(SCALAR_PROBLEMS["ROSENBR"])


def _evaluate(problem):
    return problem.evaluate([0.0, 0.0])


def _jacobian(problem):
    return problem.jacobian([0.0, 0.0])


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
        with pytest.raises(InputError, match=r"standard_start has shape \(3,\), expected \(2,\)"):
            MultiObjectiveProblem("BAD", 2, 2, [1.0, 2.0, 3.0], None, None)
        for n, m, size in ((2.7, 2, "n"), ("2", 2, "n"), (0, 2, "n"), (2, True, "m"), (2, 0, "m")):
            with pytest.raises(InputError, match=f"BAD: {size} must be an int >= 1"):
                MultiObjectiveProblem("BAD", n, m, [1.0, 2.0], None, None)

    @pytest.mark.parametrize(
        "values, rows, call, expected",
        [
            (np.zeros(3), np.eye(2), _evaluate, r"objectives .* \(2,\)"),
            ("ab", np.eye(2), _evaluate, r"objectives .* \(2,\)"),
            (np.zeros(2), np.zeros((2, 3)), _jacobian, r"jacobian .* \(2, 2\)"),
            (np.zeros(2), "ab", _jacobian, r"jacobian .* \(2, 2\)"),
            (np.zeros(2), np.zeros(5), run_adagrad, r"jacobian .* \(2, 2\)"),
            (np.zeros(2), "ab", run_adagrad, r"jacobian .* \(2, 2\)"),
            # The Jacobian is well formed: the first line search's evaluate fails.
            (np.zeros(3), np.eye(2), run_descent, r"objectives .* \(2,\)"),
            # Complex values, whose conversion would drop the imaginary part.
            (np.array([1 + 2j, 3.0]), np.eye(2), _evaluate, r"objectives .* \(2,\): complex"),
            (np.zeros(2), np.eye(2) + 1j, _jacobian, r"jacobian .* \(2, 2\): complex"),
            (np.zeros(2), np.eye(2) + 1j, run_adagrad, r"jacobian .* \(2, 2\): complex"),
        ],
    )
    def test_malformed_oracle_output_rejected(self, values, rows, call, expected):
        p = MultiObjectiveProblem("ODD", 2, 2, [1.0, 1.0], lambda x: values, lambda x: rows)
        with pytest.raises(InputError, match=f"ODD: {expected}"):
            call(p)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            (lambda X: np.zeros((len(X), 3)), r"\(8, 2\)"),
            (lambda X: np.zeros((len(X), 2)) + 1j, r"\(8, 2\): complex"),
        ],
    )
    def test_malformed_row_oracle_output_rejected(self, rows, expected):
        # The first line search tests its first block of 8 candidates.
        p = MultiObjectiveProblem(
            "ODD", 2, 2, [1.0, 1.0], lambda x: x.copy(), lambda x: np.eye(2), rows
        )
        with pytest.raises(InputError, match=f"ODD: rows output is not floats of shape {expected}"):
            run_descent(p)

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

    @pytest.mark.parametrize("spec", [0.05, {"rho": 0.05, "seed": 0}, None, (0.05, 0)])
    def test_spec_must_be_a_noise_spec(self, reg_rosenbrock, spec):
        with pytest.raises(InputError, match="NoiseSpec"):
            wrap_noisy(reg_rosenbrock, spec)

    def test_negative_rho_rejected(self):
        with pytest.raises(InputError):
            NoiseSpec(rho=-0.1)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.05", None])
    def test_non_number_rho_rejected(self, bad):
        with pytest.raises(InputError, match="noise level"):
            NoiseSpec(rho=bad)

    def test_int_rho_beyond_float_range_rejected(self):
        with pytest.raises(InputError, match="noise level"):
            NoiseSpec(rho=10**400)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "0", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InputError, match="seed must be an int >= 0"):
            NoiseSpec(0.05, seed=seed)

    @pytest.mark.parametrize(
        "run, config", [(run_adagrad, AdagradConfig), (run_descent, DescentConfig)]
    )
    def test_rho_zero_run_equals_base_run(self, run, config):
        cfg = config(gradient_budget=500)
        base = run(get_problem("ROSENBR-CUBE"), config=cfg)
        noisy = run(wrap_noisy(get_problem("ROSENBR-CUBE"), NoiseSpec(0.0, 3)), config=cfg)
        fields = ("status", "gradient_evals", "objective_evals", "iterations", "failure_reason")
        assert [getattr(noisy, f) for f in fields] == [getattr(base, f) for f in fields]
        assert noisy.final_x.tobytes() == base.final_x.tobytes()
        assert noisy.trajectory.omega.tobytes() == base.trajectory.omega.tobytes()
        assert noisy.trajectory.scale.tobytes() == base.trajectory.scale.tobytes()

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


def _stream_base(n, m=3):
    """Values of either sign, but x[0] == 1e3 makes one inf and x[0] == -1e3 all 1.7e308."""

    def output(x, shape):
        if x[0] == -1e3:
            return np.full(shape, 1.7e308)
        y = np.cos(np.arange(np.prod(shape)) + x.sum()).reshape(shape)
        if x[0] == 1e3:
            y.flat[-1] = np.inf
        return y

    return MultiObjectiveProblem(
        "STREAM", n, m, np.zeros(n), lambda x: output(x, (m,)), lambda x: output(x, (m, n))
    )


class TestNoiseStream:
    """A wrap replays ``values * (1 + rho * xi)``, xi drawn call by call from the seed."""

    @pytest.mark.parametrize("n", [1, 2, 10, 2000])
    @pytest.mark.parametrize("rho", [0.05, 2])
    def test_replays_a_fresh_generator_call_by_call(self, n, rho):
        seed = 17
        base = _stream_base(n)
        noisy = wrap_noisy(base, NoiseSpec(rho, seed))
        reference = np.random.default_rng(seed)
        picker = np.random.default_rng(n)
        outcomes = {"drawn": 0, "base overflow": 0, "noise overflow": 0}
        # Enough calls for two refills or more, at least two of each overflow.
        for call in range(4 * _NOISE_BUFFER // (base.m * n) + 100):
            oracle = ("evaluate", "jacobian")[int(picker.integers(2))]
            x = picker.normal(size=n)
            x[0] = {13: 1e3, 7: -1e3}.get(call % 50, x[0])
            in_run = bool(picker.integers(2))
            try:
                values = getattr(base, oracle)(x)
            except EvaluationOverflowError:
                # A non-finite base value raises before any draw.
                expected = None
            else:
                with np.errstate(over="ignore"):
                    expected = values * (1.0 + rho * reference.standard_normal(values.shape))
                outcomes["drawn"] += values.size
            with run_scope() if in_run else contextlib.nullcontext():
                if expected is not None and np.isfinite(expected).all():
                    out = getattr(noisy, oracle)(x)
                    assert out.tobytes() == expected.tobytes()
                    continue
                with pytest.raises(EvaluationOverflowError):
                    getattr(noisy, oracle)(x)
            outcomes["base overflow" if expected is None else "noise overflow"] += 1
        assert outcomes["drawn"] > 2 * _NOISE_BUFFER
        assert outcomes["base overflow"] > 0 and outcomes["noise overflow"] > 0
