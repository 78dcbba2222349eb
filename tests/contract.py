"""Checks both drivers share: config fields and the one solver loop.

``tests/test_adagrad.py`` and ``tests/test_descent.py`` subclass these
classes and set the driver, its config class and what differs between
the two step rules, so each check runs once per driver.
"""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mograd import InputError, MultiObjectiveProblem, RunStatus, quadratic_pair


class ConfigContract:
    """The fields every solver config declares through one base."""

    config = None  # the config class
    echo_keys = None  # its echo() keys: every field but thin

    def test_shared_defaults(self):
        cfg = self.config()
        assert cfg.criticality_tol == 1e-6
        assert cfg.gradient_budget == 100_000
        assert cfg.subproblem_tol == 1e-10
        assert cfg.thin == 1

    def test_tol_positive(self):
        with pytest.raises(InputError, match="criticality_tol must be > 0"):
            self.config(criticality_tol=0.0)

    # An int compares below inf however large, but is not finite as a float.
    @pytest.mark.parametrize(
        "bad", [np.inf, np.nan, pytest.param(10**400, id="int_beyond_float")]
    )
    def test_tol_finite(self, bad):
        with pytest.raises(InputError, match="criticality_tol must be > 0 and finite"):
            self.config(criticality_tol=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_budget_at_least_one(self, bad):
        with pytest.raises(InputError, match="gradient_budget must be >= 1"):
            self.config(gradient_budget=bad)

    @pytest.mark.parametrize("bad", [0.0, -1e-10, np.nan, np.inf, None])
    def test_subproblem_tol_positive_finite(self, bad):
        with pytest.raises(InputError):
            self.config(subproblem_tol=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_thin_at_least_one(self, bad):
        with pytest.raises(InputError, match="thin must be >= 1"):
            self.config(thin=bad)

    @pytest.mark.parametrize(
        "kind, bad",
        [
            ("an int", 2.5),
            ("an int", True),
            ("an int", "10"),
            ("a real number", "1e-6"),
            ("a real number", True),
            ("a real number", None),
        ],
    )
    def test_mistyped_field_named(self, kind, bad):
        ints = {"gradient_budget", "thin"}
        names = ints if kind == "an int" else self.echo_keys - ints
        for name in sorted(names):
            with pytest.raises(InputError, match=re.escape(f"{name} must be {kind}")):
                self.config(**{name: bad})

    def test_type_checked_before_range(self):
        with pytest.raises(InputError, match="gradient_budget must be an int"):
            self.config(criticality_tol=-1.0, gradient_budget=2.5)

    def test_numpy_scalars_accepted(self):
        cfg = self.config(
            criticality_tol=np.float32(1e-6), gradient_budget=np.int64(5), thin=np.int64(2)
        )
        assert cfg.gradient_budget == 5

    def test_echo_keys(self):
        cfg = self.config()
        assert set(cfg.echo()) == self.echo_keys
        assert cfg.echo() == {k: getattr(cfg, k) for k in self.echo_keys}


def _ramp():
    # Parallel linear objectives: omega is constant, so the budget binds.
    def objectives(x):
        s = x[0] + x[1]
        return np.array([s, 2.0 * s])

    def jac(x):
        return np.array([[1.0, 1.0], [2.0, 2.0]])

    return MultiObjectiveProblem("RAMP", 2, 2, (0.0, 0.0), objectives, jac)


def _runaway():
    # Decreasing linear objectives whose oracles overflow once x passes
    # about 709.78: exp(x) * 0.0 is 0.0 until exp overflows, then nan.
    def objectives(x):
        return np.array([-x[0], -2.0 * x[0]]) + np.exp(x[0]) * 0.0

    def jac(x):
        return np.array([[-1.0], [-2.0]]) + np.exp(x[0]) * 0.0

    return MultiObjectiveProblem("RUNAWAY", 1, 2, (705.0,), objectives, jac)


def _bigg():
    # Finite gradients whose combined gradient's squared norm overflows.
    c = 1e200 * np.eye(2)
    return MultiObjectiveProblem("BIGG", 2, 2, [1, 1], lambda x: c @ x, lambda x: c)


def _big_opposite():
    # f = (c x0 + x1^2 / 2, -c x0 + x1^2 / 2): the gradient rows nearly cancel
    # at a scale where ||g1 - g2||^2 overflows.  The min-norm weights are
    # [0.5, 0.5], so the combined gradient is (0, x1).
    c = 1e154

    def objectives(x):
        return np.array([c * x[0], -c * x[0]]) + 0.5 * x[1] ** 2

    def jac(x):
        return np.array([[c, x[1]], [-c, x[1]]])

    return MultiObjectiveProblem("BIGOPP", 2, 2, (0.0, 5.0), objectives, jac)


class RunContract:
    """What the solver loop guarantees whichever step rule it runs."""

    run = None  # the driver, as a staticmethod
    config = None  # its config class
    overflow_in_step = None  # whether the step rule calls the oracle

    def critical_scale(self, record):
        """The scale recorded on an iteration that takes no step."""
        raise NotImplementedError

    def test_critical_start_takes_no_step(self):
        p = quadratic_pair()
        x0 = np.array([0.5, 0.0])  # on the segment
        rec = self.run(p, x0=x0)
        assert rec.status == RunStatus.CRITICAL
        assert rec.iterations == 1
        assert np.array_equal(rec.final_x, x0)
        assert rec.gradient_evals == 1
        assert rec.objective_evals == 0
        assert list(rec.trajectory.x) == [0]
        assert_allclose(rec.trajectory.scale, [self.critical_scale(rec)])
        assert rec.config == self.config().echo()

    def test_budget_exhaustion_exact(self):
        p = quadratic_pair()
        cfg = self.config(criticality_tol=1e-300, gradient_budget=57)
        rec = self.run(p, x0=np.array([0.0, 1.0]), config=cfg)
        assert rec.status in (RunStatus.BUDGET_EXHAUSTED, RunStatus.CRITICAL)
        assert rec.gradient_evals <= 57
        if rec.status == RunStatus.BUDGET_EXHAUSTED:
            assert rec.gradient_evals == 57

    def test_thinning_keeps_first_and_last(self):
        cfg = self.config(gradient_budget=100, thin=7)
        rec = self.run(_ramp(), config=cfg)
        assert rec.status == RunStatus.BUDGET_EXHAUSTED
        assert rec.gradient_evals == 100
        assert rec.iterations == 100
        assert np.array_equal(rec.trajectory.gradient_evals, np.arange(1, 101))
        ks = sorted(rec.trajectory.x)
        assert ks[0] == 0
        assert ks[-1] == 100  # final post-step point
        assert all(k % 7 == 0 for k in ks[:-1])
        assert np.array_equal(rec.trajectory.x[100], rec.final_x)
        assert_allclose(rec.trajectory.omega, 2.0)

    def test_overflow_mid_run_fails(self):
        rec = self.run(_runaway(), config=self.config(gradient_budget=100))
        assert rec.status == RunStatus.FAILED
        assert "is non-finite" in rec.failure_reason
        assert rec.iterations > 1
        assert np.isfinite(rec.final_x).all()
        last = max(rec.trajectory.x)
        assert np.array_equal(rec.trajectory.x[last], rec.final_x)
        if self.overflow_in_step:
            # The line search overflowed: its iterate keeps a NaN-scale row.
            assert rec.gradient_evals == rec.iterations
            assert np.isnan(rec.trajectory.scale[-1])
            assert last == rec.iterations - 1
        else:
            # The Jacobian overflowed at the new iterate: no row for it.
            assert rec.gradient_evals == rec.iterations + 1
            assert np.isfinite(rec.trajectory.scale).all()
            assert last == rec.iterations

    def test_omega_overflow_fails_at_once(self):
        rec = self.run(_bigg(), config=self.config(gradient_budget=500))
        assert rec.status == RunStatus.FAILED
        assert rec.gradient_evals == 1
        assert rec.objective_evals == 0
        assert rec.iterations == 0
        assert "omega is non-finite" in rec.failure_reason
        assert np.array_equal(rec.final_x, [1.0, 1.0])

    def test_nearly_opposite_huge_gradients_end_critical(self):
        rec = self.run(_big_opposite(), config=self.config(gradient_budget=10_000))
        assert rec.status == RunStatus.CRITICAL
        assert rec.final_x[0] == 0.0
        assert abs(rec.final_x[1]) <= rec.config["criticality_tol"]
        assert rec.trajectory.omega[0] == 25.0
