"""Tests for the adaptive-weight solver."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import segment_distance
from contract import ConfigContract, RunContract
from mograd import (
    AdagradConfig,
    InputError,
    MultiObjectiveProblem,
    RunStatus,
    adagrad_step,
    quadratic_pair,
    run_adagrad,
)


class TestStep:
    def test_unit_weight_example(self):
        g = np.array([math.sqrt(0.99), 0.0])
        x, w = adagrad_step(np.zeros(2), math.sqrt(0.01), g)
        assert w == pytest.approx(1.0)
        assert_allclose(x, -g)

    def test_zero_direction_keeps_point_and_weight(self):
        x0, w0 = np.array([2.0, 3.0]), math.sqrt(0.5)
        x, w = adagrad_step(x0, w0, np.zeros(2))
        assert w == w0
        assert_allclose(x, x0)

    def test_constant_field_recurrence(self):
        c = np.array([0.3, -0.4])
        varsigma = 0.01
        x, w = np.zeros(2), math.sqrt(varsigma)
        for k in range(100):
            x, w = adagrad_step(x, w, c)
            expected_w = math.sqrt(varsigma + (k + 1) * float(c @ c))
            assert w == pytest.approx(expected_w, rel=1e-12)

    def test_weight_invariant(self):
        x, w = np.zeros(1), math.sqrt(0.25)
        rng = np.random.default_rng(0)
        squares = 0.0
        for _ in range(50):
            g = rng.normal(size=1)
            squares += float(g @ g)
            x, w = adagrad_step(x, w, g)
            assert w == pytest.approx(math.sqrt(0.25 + squares), rel=1e-12)

    def test_nonfinite_direction_rejected(self):
        with pytest.raises(InputError):
            adagrad_step(np.zeros(1), 0.1, np.array([np.inf]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_entry_rejected_at_any_scale(self, bad):
        x, w = np.zeros(2), 0.1
        with pytest.raises(InputError):
            adagrad_step(x, w, np.array([bad, 1.0]))
        # The square of the finite entry overflows first, without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError):
                adagrad_step(x, w, np.array([1e200, bad]))

    def test_matches_the_first_formula(self, rng):
        # As first written: an entrywise finite test, then `g_s @ g_s`.
        def reference(x, w, g_s):
            w = math.sqrt(w * w + float(g_s @ g_s))
            return x - g_s / w, w

        for _ in range(4000):
            n = rng.choice([2, 10])
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
            w = math.sqrt(rng.uniform(1e-4, 0.99)) * 10.0 ** rng.uniform(0, 5)
            g = rng.normal(size=n) * 10.0 ** rng.uniform(-150, 150)
            x_next, w_next = adagrad_step(x, w, g)
            x_ref, w_ref = reference(x, w, g)
            assert x_next.tobytes() == x_ref.tobytes()
            assert np.float64(w_next).tobytes() == np.float64(w_ref).tobytes()

    def test_overflowing_square_steps_nowhere_without_warning(self):
        # A finite g_s whose square overflows: w is inf, as through `@`.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, w = adagrad_step(np.ones(2), 0.1, np.array([1e200, 1.0]))
        assert w == math.inf
        assert x.tolist() == [1.0, 1.0]


class TestConfig(ConfigContract):
    config = AdagradConfig
    echo_keys = {"varsigma", "criticality_tol", "gradient_budget", "subproblem_tol"}

    def test_defaults(self):
        cfg = AdagradConfig()
        assert cfg.varsigma == 0.01
        assert cfg.gradient_budget == 100_000

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_varsigma_range(self, bad):
        with pytest.raises(InputError):
            AdagradConfig(varsigma=bad)


class TestRun(RunContract):
    run = staticmethod(run_adagrad)
    config = AdagradConfig
    overflow_in_step = False

    def critical_scale(self, record):
        # The weight the step would have used: sqrt(varsigma + omega_0).
        return math.sqrt(record.config["varsigma"] + record.trajectory.omega[0])

    def test_converges_to_pareto_segment(self):
        p = quadratic_pair(a=(1.0, 0.0), b=(-1.0, 0.0))
        rec = run_adagrad(p, x0=np.array([0.0, 1.0]))
        assert rec.status == RunStatus.CRITICAL
        assert math.sqrt(rec.trajectory.omega[-1]) <= 1e-6
        assert segment_distance(rec.final_x, (1, 0), (-1, 0)) <= 1e-3

    def test_objective_function_free(self):
        p = quadratic_pair()
        rec = run_adagrad(p, x0=np.array([3.0, -2.0]))
        assert rec.objective_evals == 0
        assert p.counters.objective_evals == 0

    def test_weight_recurrence_across_run(self):
        p = quadratic_pair()
        cfg = AdagradConfig(gradient_budget=200, criticality_tol=1e-300)
        rec = run_adagrad(p, x0=np.array([2.0, 2.0]), config=cfg)
        varsigma = rec.config["varsigma"]
        cum = np.cumsum(rec.trajectory.omega)
        w = rec.trajectory.scale
        assert np.all(np.abs(w**2 - (varsigma + cum)) <= 1e-10 * w**2)

    def test_step_norm_bound(self):
        p = quadratic_pair()
        cfg = AdagradConfig(gradient_budget=100, criticality_tol=1e-300, thin=1)
        rec = run_adagrad(p, x0=np.array([1.5, -0.5]), config=cfg)
        t = rec.trajectory
        ks = sorted(t.x)
        for k0, k1 in zip(ks, ks[1:]):
            if k1 - k0 == 1 and k0 < len(t):
                step = np.linalg.norm(t.x[k1] - t.x[k0])
                assert step <= math.sqrt(t.omega[k0]) / math.sqrt(0.01) + 1e-12

    def test_descent_inequality_on_quadratic_pair(self):
        # Phi decreases by at least omega/w - 0.5*||s||^2 per step (L_max=1).
        p = quadratic_pair(a=(1.0, 0.0), b=(-1.0, 0.0))
        cfg = AdagradConfig(gradient_budget=500, criticality_tol=1e-300, thin=1)
        rec = run_adagrad(p, x0=np.array([1.2, 0.8]), config=cfg)
        oracle = quadratic_pair(a=(1.0, 0.0), b=(-1.0, 0.0))
        t = rec.trajectory
        for k in range(len(t) - 1):
            phi_k = oracle.phi(t.x[k])
            phi_next = oracle.phi(t.x[k + 1])
            w = t.scale[k]
            omega = t.omega[k]
            step_sq = omega / w**2
            assert phi_next <= phi_k - omega / w + 0.5 * step_sq + 1e-9

    def test_failed_on_overflow(self):
        def objectives(x):
            return np.array([np.exp(x[0]), x[0] ** 2])

        def jac(x):
            return np.array([[np.exp(x[0])], [2 * x[0]]])

        p = MultiObjectiveProblem("BLOWUP", 1, 2, (800.0,), objectives, jac)
        rec = run_adagrad(p, config=AdagradConfig(gradient_budget=10))
        assert rec.status == RunStatus.FAILED
        assert rec.failure_reason is not None

    def test_trajectory_counters_match_iterations(self):
        p = quadratic_pair()
        rec = run_adagrad(p, x0=np.array([0.3, 0.9]))
        t = rec.trajectory
        assert np.array_equal(t.gradient_evals, np.arange(1, len(t) + 1))
        assert np.all(t.objective_evals == 0)
