"""Tests for the Armijo line-search solver."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import segment_distance
from contract import ConfigContract, RunContract
from mograd import (
    CATALOG,
    DescentConfig,
    EvaluationOverflowError,
    InputError,
    LineSearchError,
    MultiObjectiveProblem,
    NoiseSpec,
    RunStatus,
    armijo_backtrack,
    as_problem,
    generate_dataset,
    get_problem,
    quadratic_pair,
    random_start,
    run_descent,
    solve_direction,
    wrap_noisy,
)
from mograd.descent import MIN_STEP
from mograd.problems import run_scope


def _bowl():
    def objectives(x):
        v = 0.5 * float(x @ x)
        return np.array([v, v])

    def jac(x):
        return np.stack([x, x])

    return MultiObjectiveProblem("BOWL", 2, 2, (1.0, 0.0), objectives, jac)


def _array_rule_search(p, x, g_s, grads, beta):
    """The line search with the m-vector test (candidate <= fx - t * margin).all().

    A margin with a non-finite entry is taken again in units of max|grads|.
    """
    with np.errstate(all="ignore"):
        margin = beta * grads.dot(g_s)
        if not np.isfinite(margin).all():
            top = np.abs(grads).max()
            margin = beta * (grads / top).dot(g_s) * top
        fx = p.evaluate(x)
        t, used = 1.0, 1
        while t >= MIN_STEP:
            used += 1
            point = x - t * g_s
            if (p.evaluate(point) <= fx - t * margin).all():
                return t, used, point
            t *= 0.5
    raise LineSearchError("no step accepted")


class TestArmijo:
    def test_full_step_accepted_on_bowl(self):
        p = _bowl()
        x = np.array([1.0, 0.0])
        grads = p.jacobian(x)
        g_s = x.copy()
        t, used, _ = armijo_backtrack(p, x, g_s, grads, beta=0.1)
        assert t == 1.0
        # One reference evaluation plus one accepted candidate.
        assert used == 2

    def test_halving_count_matches_cost(self):
        # Steep valley: full steps overshoot, so halving must engage.
        def objectives(x):
            return np.array([100.0 * x[0] ** 2, 100.0 * x[0] ** 2])

        def jac(x):
            return np.array([[200.0 * x[0]], [200.0 * x[0]]])

        p = MultiObjectiveProblem("STEEP", 1, 2, (1.0,), objectives, jac)
        x = np.array([1.0])
        grads = p.jacobian(x)
        g_s = np.array([200.0])
        before = p.counters.objective_evals
        t, used, _ = armijo_backtrack(p, x, g_s, grads, beta=0.1)
        # Reference eval, one eval per rejected step, one for the accepted step.
        assert used == 2 + round(-math.log2(t))
        assert p.counters.objective_evals - before == used

    def test_largest_accepted_step(self):
        # The returned t is the first (largest) power of two that passes.
        p = get_problem("ROSENBR-L2")
        x = np.asarray(p.standard_start, dtype=float)
        grads = p.jacobian(x)
        sol = solve_direction(grads)
        t, _, _ = armijo_backtrack(p, x, sol.gradient, grads, beta=0.1)
        fx = p.evaluate(x)
        slopes = grads @ sol.gradient

        def accepted(step):
            return bool(
                np.all(p.evaluate(x - step * sol.gradient) <= fx - 0.1 * step * slopes)
            )

        assert accepted(t)
        if t < 1.0:
            assert not accepted(2.0 * t)

    def test_ascent_direction_stalls(self):
        p = _bowl()
        x = np.array([1.0, 0.0])
        grads = p.jacobian(x)
        with pytest.raises(LineSearchError):
            armijo_backtrack(p, x, -x, grads, beta=0.1)

    def test_zero_direction_rejected(self):
        p = _bowl()
        x = np.array([1.0, 0.0])
        with pytest.raises(InputError):
            armijo_backtrack(p, x, np.zeros(2), p.jacobian(x), beta=0.1)

    def test_overflowing_first_candidate_raises_typed(self):
        # f(x) is finite, but the first candidate x - g_s leaves the range.
        p = MultiObjectiveProblem(
            "LIN", 1, 2, [0.0],
            lambda x: np.array([x[0], -x[0]]),
            lambda x: np.array([[1.0], [-1.0]]),
        )
        x, g_s = np.array([-1e308]), np.array([1e308])
        with np.errstate(all="ignore"):
            with pytest.raises(EvaluationOverflowError) as info:
                armijo_backtrack(p, x, g_s, p.jacobian(x), beta=0.1)
        assert info.value.index is None
        assert np.array_equal(info.value.x, x)
        assert p.counters.objective_evals == 1

    def test_public_overflowing_first_candidate_raises_without_warning(self):
        p = MultiObjectiveProblem(
            "LIN", 1, 2, [0.0],
            lambda x: np.array([x[0], -x[0]]),
            lambda x: np.array([[1.0], [-1.0]]),
        )
        x, g_s = np.array([-1e308]), np.array([1e308])
        grads = p.jacobian(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationOverflowError):
                armijo_backtrack(p, x, g_s, grads, beta=0.1)

    def test_public_overflowing_margin_raises_without_warning(self):
        # grads . g_s overflows to inf, so no candidate meets the margin.
        p = MultiObjectiveProblem(
            "LIN", 1, 2, [0.0],
            lambda x: np.array([x[0], -x[0]]),
            lambda x: np.array([[1.0], [-1.0]]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LineSearchError):
                armijo_backtrack(p, np.zeros(1), np.array([1e10]), np.full((2, 1), 1e300), 0.1)
        assert p.counters.objective_evals == 52

    @pytest.mark.parametrize(
        "grads, beta, message",
        [
            (np.zeros((2, 3)), 0.1, "grads have shape"),
            (np.full((2, 2), np.nan), 0.1, "grads contain non-finite entries"),
            (None, 5.0, "beta must be in"),
            (None, math.nan, "beta must be in"),
            (None, -1.0, "beta must be in"),
        ],
    )
    def test_public_call_checks_grads_and_beta(self, grads, beta, message):
        # Refused before the reference evaluation: searched, a NaN margin
        # stalls after 52 evaluations and a beta <= 0 accepts an increase.
        p = get_problem("MOP1")
        x = random_start(p, 0)
        G = p.jacobian(x)
        g_s = solve_direction(G).gradient
        with pytest.raises(InputError, match=message):
            armijo_backtrack(p, x, g_s, G if grads is None else grads, beta)
        assert p.counters.objective_evals == 0

    def test_public_cancelling_margin_is_not_read_as_minus_inf(self):
        # grads . g_s is [-inf, 2e10] in floats, but the first slope is 0:
        # f_1 rises from 0 at every candidate, so none may be accepted.
        G = np.array([[1e300, -1e300], [1.0, 1.0]])
        p = MultiObjectiveProblem(
            "CANCEL", 2, 2, [0.0, 0.0],
            lambda x: np.array([1e200 * np.abs(x).sum(), x.sum()]),
            lambda x: G,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LineSearchError):
                armijo_backtrack(p, np.zeros(2), np.array([1e10, 1e10]), G, 0.1)
        assert p.counters.objective_evals == 52

    def test_hoisted_margin_is_bit_identical(self):
        # armijo_backtrack tests t * (beta * slopes) in place of
        # beta * t * slopes.  Scaling by a power of two is exact while every
        # product stays normal; a subnormal one may round apart.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        tiny = np.finfo(float).tiny

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
        @hypothesis.given(
            k=st.integers(0, 50),
            beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            s=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False),
        )
        def check(k, beta, s):
            t = 2.0**-k
            hypothesis.assume(min(beta * t, abs(beta * s), abs(t * (beta * s))) >= tiny)
            assert (beta * t * s).hex() == (t * (beta * s)).hex()

        check()

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_matches_textbook_loop(self, name):
        # At the standard start, or at a random one where that start is
        # already Pareto critical and there is no step to search.
        def textbook(p, x, g_s, grads, beta):
            fx = p.evaluate(x)
            slopes = grads @ g_s
            t, used = 1.0, 1
            while True:
                used += 1
                if np.all(p.evaluate(x - t * g_s) <= fx - beta * t * slopes):
                    return t, used, x - t * g_s
                t *= 0.5
                assert t >= MIN_STEP  # no catalog start stalls

        def outcome(search):
            p = get_problem(name)
            x = p.standard_start.copy()
            g_s = solve_direction(p.jacobian(x)).gradient
            if not g_s.any():
                x = random_start(p, 0)
            grads = p.jacobian(x)
            g_s = solve_direction(grads).gradient
            t, used, point = search(p, x, g_s, grads, 0.1)
            assert used == p.counters.objective_evals
            assert point.tobytes() == (x - t * g_s).tobytes()
            return t, used

        assert outcome(armijo_backtrack) == outcome(textbook)

    def test_scalar_rule_is_the_array_rule(self):
        # armijo_backtrack tests each objective in Python floats.  At every
        # t = 2^-k it reaches, its decision must be the array test's, so both
        # searches end alike: ties at the threshold, -0.0, a margin of +inf
        # or -inf from an overflowing grads . g_s, subnormal products, and a
        # NaN margin.  It searches in a run, where grads are not checked.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e300, -1e300])
        value = st.one_of(edges, st.floats(allow_nan=False, allow_infinity=False))
        slope = st.one_of(edges, st.floats())

        @st.composite
        def searches(draw):
            m = draw(st.integers(1, 5))
            fx = draw(st.lists(value, min_size=m, max_size=m))
            grads = np.array(draw(st.lists(slope, min_size=2 * m, max_size=2 * m)))
            s = draw(st.sampled_from([1.0, 1e10, 2.0**-60]))
            beta = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
            # Some objectives sit exactly on their threshold at t = 2^-k.
            t = 2.0 ** -draw(st.integers(0, 50))
            with np.errstate(all="ignore"):
                ties = np.array(fx) - t * (beta * grads.reshape(m, 2).dot([s, s]))
            candidate = [
                c if draw(st.booleans()) and math.isfinite(c) else draw(value) for c in ties
            ]
            return fx, grads.reshape(m, 2).tolist(), s, beta, candidate

        # (fx, grads, s, beta, candidate); the second objective accepts at t = 2^-34.
        inf_margin = ([0.0, 0.0], [[1e300, 1e300], [1.0, 1.0]], 1e10, 0.5, [-1.0, -1.0])
        nan_margin = ([0.0, 0.0], [[math.nan, 0.0], [1.0, 1.0]], 1e10, 0.5, [-1.0, -1.0])

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(case=searches())
        @hypothesis.example(case=([1.0], [[1.0, 1.0]], 1.0, 0.5, [0.0]))  # a tie at t = 1
        @hypothesis.example(case=([1.0], [[1.0, 1.0]], 1.0, 0.5, [-0.0]))
        @hypothesis.example(case=([-0.0], [[0.0, -0.0]], 1.0, 0.5, [0.0]))
        @hypothesis.example(case=inf_margin)
        @hypothesis.example(case=nan_margin)
        @hypothesis.example(case=([0.0], [[-1e300, -1e300]], 1e10, 0.5, [1e300]))  # -inf
        @hypothesis.example(case=([0.0], [[1e-300, 0.0]], 2.0**-60, 0.5, [-5e-324]))  # subnormal
        def check(case):
            fx, grads, s, beta, candidate = map(np.array, case)
            g_s = np.array([s, s])
            p = MultiObjectiveProblem(
                "RULE", 2, len(fx), [0.0, 0.0], lambda x: candidate if x.any() else fx, None
            )

            def outcome(search):
                try:
                    t, used, point = search(p, np.zeros(2), g_s, grads, beta)
                except LineSearchError:
                    return "stalled"
                return t, used, point.tobytes()

            def in_run(*args):
                with run_scope():
                    return armijo_backtrack(*args)

            assert outcome(in_run) == outcome(_array_rule_search)

        check()

    @pytest.mark.parametrize("oracle", ["noisy", "multitask"])
    def test_matches_array_rule_on_wrapped_oracles(self, oracle):
        # Oracles the catalog comparison does not reach.  Each side builds a
        # fresh noisy wrap, so both draw the same noise stream; the multitask
        # direction is stretched so that the line search backtracks.
        def outcome(search):
            if oracle == "noisy":
                p, stretch = wrap_noisy(get_problem("ROSENBR-CUBE"), NoiseSpec(0.05, 3)), 1.0
            else:
                p, stretch = as_problem(generate_dataset("quadrants", N=200, seed=0)), 100.0
            x = p.standard_start.copy()
            grads = p.jacobian(x)
            g_s = stretch * solve_direction(grads).gradient
            t, used, point = search(p, x, g_s, grads, 0.1)
            assert t < 1.0
            return t, used, point.tobytes(), p.counters

        assert outcome(armijo_backtrack) == outcome(_array_rule_search)


class TestConfig(ConfigContract):
    config = DescentConfig
    echo_keys = {
        "beta",
        "criticality_tol",
        "gradient_budget",
        "subproblem_tol",
    }

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1])
    def test_beta_range(self, bad):
        with pytest.raises(InputError):
            DescentConfig(beta=bad)

    def test_defaults(self):
        cfg = DescentConfig()
        assert cfg.beta == 0.1


class TestRun(RunContract):
    run = staticmethod(run_descent)
    config = DescentConfig
    overflow_in_step = True

    def critical_scale(self, record):
        return np.nan

    def test_converges_to_pareto_segment(self):
        p = quadratic_pair(a=(1.0, 0.0), b=(-1.0, 0.0))
        rec = run_descent(p, x0=np.array([0.0, 1.0]))
        assert rec.status == RunStatus.CRITICAL
        assert math.sqrt(rec.trajectory.omega[-1]) <= 1e-6
        assert segment_distance(rec.final_x, (1, 0), (-1, 0)) <= 1e-3

    def test_critical_start_skips_line_search(self):
        p = quadratic_pair()
        rec = run_descent(p, x0=np.array([-0.25, 0.0]))
        assert rec.status == RunStatus.CRITICAL
        assert rec.gradient_evals == 1
        assert rec.objective_evals == 0
        assert np.isnan(rec.trajectory.scale[-1])

    def test_armijo_holds_along_trajectory(self):
        p = quadratic_pair()
        cfg = DescentConfig(thin=1)
        rec = run_descent(p, x0=np.array([1.3, 0.7]), config=cfg)
        oracle = quadratic_pair()
        t = rec.trajectory
        beta = rec.config["beta"]
        for k in range(len(t) - 1):
            x_k = t.x[k]
            grads = oracle.jacobian(x_k)
            sol = solve_direction(grads)
            step = t.scale[k]
            assert math.isfinite(step)
            assert_allclose(t.x[k + 1], x_k - step * sol.gradient, atol=1e-12)
            lhs = oracle.evaluate(t.x[k + 1])
            rhs = oracle.evaluate(x_k) - beta * step * (grads @ sol.gradient)
            assert np.all(lhs <= rhs + 1e-12)

    def test_objectives_monotone_nonincreasing(self):
        p = get_problem("CUBE-L2")
        cfg = DescentConfig(gradient_budget=200, thin=1)
        rec = run_descent(p, config=cfg)
        oracle = get_problem("CUBE-L2")
        t = rec.trajectory
        values = np.stack([oracle.evaluate(t.x[k]) for k in sorted(t.x)])
        assert np.all(np.diff(values, axis=0) <= 1e-12)

    def test_counters_match_trajectory_tallies(self):
        p = quadratic_pair()
        rec = run_descent(p, x0=np.array([0.4, 1.1]))
        t = rec.trajectory
        assert rec.gradient_evals == t.gradient_evals[-1]
        assert rec.objective_evals == t.objective_evals[-1]
        assert np.all(np.diff(t.gradient_evals) == 1)
        # Each accepted iteration costs at least two objective evaluations
        # (the reference point plus at least one candidate).
        accepted = np.isfinite(t.scale)
        if accepted[0]:
            assert t.objective_evals[0] >= 2
        assert np.all(np.diff(t.objective_evals)[accepted[1:]] >= 2)

    def test_budget_exhaustion(self):
        p = get_problem("VARDIM-L2")
        cfg = DescentConfig(gradient_budget=3, criticality_tol=1e-300)
        rec = run_descent(p, config=cfg)
        assert rec.status == RunStatus.BUDGET_EXHAUSTED
        assert rec.gradient_evals == 3

    def test_failed_on_stall(self):
        # Nonsmooth kink at the origin: Armijo cannot make progress from it.
        def objectives(x):
            return np.array([abs(x[0]), abs(x[0])])

        def jac(x):
            s = 1.0 if x[0] >= 0 else -1.0
            return np.array([[s], [s]])

        p = MultiObjectiveProblem("KINK", 1, 2, (0.0,), objectives, jac)
        rec = run_descent(p)
        assert rec.status == RunStatus.FAILED
        assert "step" in rec.failure_reason.lower()

    def test_exact_quadratic_takes_newton_like_step(self):
        p = quadratic_pair()
        rec = run_descent(p, x0=np.array([0.0, 1.0]))
        # t=1 lands exactly on the Pareto segment for this geometry.
        assert rec.trajectory.scale[0] == 1.0
        assert rec.objective_evals == 2
