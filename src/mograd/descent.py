"""Multi-objective steepest descent with Armijo backtracking.

The baseline solver: same common descent direction as the adaptive
method, but the step length comes from a halving line search that must
decrease every objective by the Armijo margin simultaneously.  It
therefore consumes objective evaluations, which the budget accounting
charges at 1/n each.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .problems import (
    ConvergenceError,
    EvaluationOverflowError,
    InputError,
    LineSearchError,
)
from .records import RunRecord, RunStatus, _TrajectoryBuilder
from .subproblem import _check_tol, solve_direction

MIN_STEP = 2.0**-50


@dataclass(frozen=True)
class DescentConfig:
    """Parameters of the line-search solver; beta is the Armijo margin."""

    beta: float = 0.1
    criticality_tol: float = 1e-6
    gradient_budget: int = 100_000
    min_step: float = MIN_STEP
    subproblem_tol: float = 1e-10
    thin: int = 1

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise InputError(f"beta must be in (0, 1), got {self.beta}")
        if not self.criticality_tol > 0:
            raise InputError(
                f"criticality_tol must be > 0, got {self.criticality_tol}"
            )
        if self.gradient_budget < 1:
            raise InputError(
                f"gradient_budget must be >= 1, got {self.gradient_budget}"
            )
        if not self.min_step > 0:
            raise InputError(f"min_step must be > 0, got {self.min_step}")
        _check_tol(self.subproblem_tol, "subproblem_tol")
        if not self.thin >= 1:
            raise InputError(f"thin must be >= 1, got {self.thin}")

    def echo(self):
        return {
            "beta": self.beta,
            "criticality_tol": self.criticality_tol,
            "gradient_budget": self.gradient_budget,
            "min_step": self.min_step,
            "subproblem_tol": self.subproblem_tol,
        }


def armijo_backtrack(problem, x, g_s, grads, beta, min_step=MIN_STEP):
    """Halve t from 1 until every objective meets the Armijo decrease.

    Returns ``(t, objective_evals_used)``.  The reference values f(x) cost
    one objective evaluation and each tested t costs one more (a single
    m-vector oracle call per candidate).  Raises
    :class:`LineSearchError` once t would fall below ``min_step``.
    """
    g_s = np.asarray(g_s, dtype=float)
    if not np.isfinite(g_s).all() or not g_s.any():
        raise InputError("line search requires a finite nonzero direction")
    slopes = np.asarray(grads, dtype=float) @ g_s
    fx = problem.evaluate(x)
    used = 1
    t = 1.0
    while True:
        candidate = problem.evaluate(x - t * g_s)
        used += 1
        if (candidate <= fx - beta * t * slopes).all():
            return t, used
        t *= 0.5
        if t < min_step:
            raise LineSearchError(
                f"backtracking fell below min_step={min_step:.3e}"
            )


def run_descent(problem, x0=None, config=None, *, seed=None):
    """Run the line-search solver; same termination semantics as Adagrad.

    The trajectory's scale column holds the accepted step alpha_k, NaN on
    the terminal iteration where no step is taken.
    """
    config = config or DescentConfig()
    x = problem.standard_start if x0 is None else np.asarray(x0, dtype=float)
    x = x.copy()
    traj = _TrajectoryBuilder(config.thin)
    status = RunStatus.BUDGET_EXHAUSTED
    reason = None
    k = 0

    start = time.perf_counter()
    while problem.counters.gradient_evals < config.gradient_budget:
        try:
            G = problem.jacobian(x)
            sol = solve_direction(G, tol=config.subproblem_tol)
        except (EvaluationOverflowError, ConvergenceError) as exc:
            status = RunStatus.FAILED
            reason = str(exc)
            break
        if math.sqrt(sol.omega) <= config.criticality_tol:
            traj.append(k, x, sol.omega, math.nan, problem.counters)
            status = RunStatus.CRITICAL
            break
        try:
            t, _ = armijo_backtrack(
                problem, x, sol.gradient, G, config.beta, config.min_step
            )
        except (LineSearchError, EvaluationOverflowError) as exc:
            traj.append(k, x, sol.omega, math.nan, problem.counters)
            status = RunStatus.FAILED
            reason = str(exc)
            break
        traj.append(k, x, sol.omega, t, problem.counters)
        x = x - t * sol.gradient
        k += 1
    wall = time.perf_counter() - start

    return RunRecord(
        problem=problem.name,
        solver="descent",
        config=config.echo(),
        seed=seed,
        noise_rho=problem.noise_rho,
        n=problem.n,
        status=status,
        final_x=np.array(x),
        trajectory=traj.build(final_k=k, final_x=x),
        gradient_evals=problem.counters.gradient_evals,
        objective_evals=problem.counters.objective_evals,
        wall_time=wall,
        failure_reason=reason,
    )
