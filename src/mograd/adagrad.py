"""Objective-function-free multi-objective Adagrad.

Each iteration solves the min-norm subproblem at the current point,
accumulates the squared norm of the combined gradient into a scalar
weight w_k = sqrt(varsigma + sum of past ||g||^2), and steps along
-g / w_k.  No objective value is ever evaluated: criticality is read off
the subproblem, and the adaptive weight replaces the line search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .problems import ConvergenceError, EvaluationOverflowError, InputError
from .records import RunRecord, RunStatus, _TrajectoryBuilder
from .subproblem import _check_tol, solve_direction


@dataclass(frozen=True)
class AdagradConfig:
    """Parameters of the adaptive-weight solver.

    varsigma seeds the weight accumulator (w before any step is
    sqrt(varsigma)); the run stops once the combined gradient norm drops
    to criticality_tol, the gradient budget is exhausted, or an
    evaluation fails.
    """

    varsigma: float = 1e-2
    criticality_tol: float = 1e-6
    gradient_budget: int = 100_000
    subproblem_tol: float = 1e-10
    thin: int = 1

    def __post_init__(self):
        if not 0.0 < self.varsigma < 1.0:
            raise InputError(f"varsigma must be in (0, 1), got {self.varsigma}")
        if not self.criticality_tol > 0:
            raise InputError(
                f"criticality_tol must be > 0, got {self.criticality_tol}"
            )
        if self.gradient_budget < 1:
            raise InputError(
                f"gradient_budget must be >= 1, got {self.gradient_budget}"
            )
        _check_tol(self.subproblem_tol, "subproblem_tol")
        if not self.thin >= 1:
            raise InputError(f"thin must be >= 1, got {self.thin}")

    def echo(self):
        return {
            "varsigma": self.varsigma,
            "criticality_tol": self.criticality_tol,
            "gradient_budget": self.gradient_budget,
            "subproblem_tol": self.subproblem_tol,
        }


@dataclass
class IterateState:
    """One point of the Adagrad recursion: w == sqrt(varsigma + sum_sq)."""

    k: int
    x: np.ndarray
    w: float
    sum_sq: float = 0.0


def initial_state(x0, varsigma):
    return IterateState(k=0, x=np.asarray(x0, dtype=float), w=math.sqrt(varsigma))


def adagrad_step(state, g_s):
    """Advance the recursion by one step; pure, no oracle calls.

    The weight is updated before the move, so the step taken at iteration
    k is -g_s / w_k with w_k already including ||g_s||^2.
    """
    g_s = np.asarray(g_s, dtype=float)
    if not np.isfinite(g_s).all():
        raise InputError("g_s contains non-finite entries")
    sq = float(g_s @ g_s)
    w = math.sqrt(state.w * state.w + sq)
    return IterateState(
        k=state.k + 1, x=state.x - g_s / w, w=w, sum_sq=state.sum_sq + sq
    )


def run_adagrad(problem, x0=None, config=None, *, seed=None):
    """Run the solver until criticality, budget exhaustion, or failure.

    The returned record carries omega and the weight w per iteration,
    thinned iterates, and counter snapshots; the problem's objective
    counter is untouched by construction.
    """
    config = config or AdagradConfig()
    x0 = problem.standard_start if x0 is None else np.asarray(x0, dtype=float)
    state = initial_state(x0.copy(), config.varsigma)
    traj = _TrajectoryBuilder(config.thin)
    status = RunStatus.BUDGET_EXHAUSTED
    reason = None

    start = time.perf_counter()
    while problem.counters.gradient_evals < config.gradient_budget:
        try:
            G = problem.jacobian(state.x)
            sol = solve_direction(G, tol=config.subproblem_tol)
        except (EvaluationOverflowError, ConvergenceError) as exc:
            status = RunStatus.FAILED
            reason = str(exc)
            break
        nxt = adagrad_step(state, sol.gradient)
        traj.append(state.k, state.x, sol.omega, nxt.w, problem.counters)
        if math.sqrt(sol.omega) <= config.criticality_tol:
            status = RunStatus.CRITICAL
            break
        state = nxt
    wall = time.perf_counter() - start

    return RunRecord(
        problem=problem.name,
        solver="adagrad",
        config=config.echo(),
        seed=seed,
        noise_rho=problem.noise_rho,
        n=problem.n,
        status=status,
        final_x=np.array(state.x),
        trajectory=traj.build(final_k=state.k, final_x=state.x),
        gradient_evals=problem.counters.gradient_evals,
        objective_evals=problem.counters.objective_evals,
        wall_time=wall,
        failure_reason=reason,
    )
