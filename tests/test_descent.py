"""Tests for the Armijo line-search solver."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import segment_distance
from contract import ConfigContract, RunContract
from mograd import (
    CATALOG,
    DescentConfig,
    InputError,
    LineSearchError,
    MultiObjectiveProblem,
    RunStatus,
    armijo_backtrack,
    get_problem,
    quadratic_pair,
    random_start,
    run_descent,
    solve_direction,
)
from mograd.descent import MIN_STEP


def _bowl():
    def objectives(x):
        v = 0.5 * float(x @ x)
        return np.array([v, v])

    def jac(x):
        return np.stack([x, x])

    return MultiObjectiveProblem("BOWL", 2, 2, (1.0, 0.0), objectives, jac)


class TestArmijo:
    def test_full_step_accepted_on_bowl(self):
        p = _bowl()
        x = np.array([1.0, 0.0])
        grads = p.jacobian(x)
        g_s = x.copy()
        t, used = armijo_backtrack(p, x, g_s, grads, beta=0.1)
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
        t, used = armijo_backtrack(p, x, g_s, grads, beta=0.1)
        # Reference eval, one eval per rejected step, one for the accepted step.
        assert used == 2 + round(-math.log2(t))
        assert p.counters.objective_evals - before == used

    def test_largest_accepted_step(self):
        # The returned t is the first (largest) power of two that passes.
        p = get_problem("ROSENBR-L2")
        x = np.asarray(p.standard_start, dtype=float)
        grads = p.jacobian(x)
        sol = solve_direction(grads)
        t, _ = armijo_backtrack(p, x, sol.gradient, grads, beta=0.1)
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
                    return t, used
                t *= 0.5
                assert t >= MIN_STEP  # no catalog start stalls

        def outcome(search):
            p = get_problem(name)
            x = p.standard_start.copy()
            g_s = solve_direction(p.jacobian(x)).gradient
            if not g_s.any():
                x = random_start(p, 0)
            grads = p.jacobian(x)
            t, used = search(p, x, solve_direction(grads).gradient, grads, 0.1)
            assert used == p.counters.objective_evals
            return t, used

        assert outcome(armijo_backtrack) == outcome(textbook)


class TestConfig(ConfigContract):
    config = DescentConfig
    echo_keys = {
        "beta",
        "criticality_tol",
        "gradient_budget",
        "min_step",
        "subproblem_tol",
    }

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1])
    def test_beta_range(self, bad):
        with pytest.raises(InputError):
            DescentConfig(beta=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_min_step_positive(self, bad):
        with pytest.raises(InputError, match="min_step must be > 0"):
            DescentConfig(min_step=bad)

    def test_defaults(self):
        cfg = DescentConfig()
        assert cfg.beta == 0.1
        assert cfg.min_step == 2.0**-50


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
