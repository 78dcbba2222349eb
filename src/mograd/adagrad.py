"""Objective-function-free multi-objective Adagrad, and the solver loop.

Each iteration solves the min-norm subproblem at the current point,
accumulates the squared norm of the combined gradient into a scalar
weight w_k = sqrt(varsigma + sum of past ||g||^2), and steps along
-g / w_k.  No objective value is ever evaluated: criticality is read off
the subproblem, and the adaptive weight replaces the line search.
Both drivers run :func:`_drive`; descent only swaps in its step rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .problems import (
    ConvergenceError,
    EvaluationOverflowError,
    InputError,
    LineSearchError,
    _finite,
)
from .records import RunRecord, RunStatus, _TrajectoryBuilder
from .subproblem import _check_tol, solve_direction


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by both drivers.

    The run stops once the combined gradient norm drops to
    criticality_tol, the gradient budget is exhausted, or an evaluation
    fails; the trajectory keeps every thin-th iterate.
    """

    criticality_tol: float = 1e-6
    gradient_budget: int = 100_000
    subproblem_tol: float = 1e-10
    thin: int = 1

    def __post_init__(self):
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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "thin"}


@dataclass(frozen=True)
class AdagradConfig(SolverConfig):
    """Parameters of the adaptive-weight solver.

    varsigma seeds the weight accumulator (w before any step is
    sqrt(varsigma)).
    """

    varsigma: float = 1e-2

    def __post_init__(self):
        if not 0.0 < self.varsigma < 1.0:
            raise InputError(f"varsigma must be in (0, 1), got {self.varsigma}")
        super().__post_init__()


@dataclass
class IterateState:
    """One point of the Adagrad recursion: w_k^2 = varsigma + sum of ||g||^2."""

    k: int
    x: np.ndarray
    w: float


def initial_state(x0, varsigma):
    return IterateState(k=0, x=np.asarray(x0, dtype=float), w=math.sqrt(varsigma))


def adagrad_step(state, g_s):
    """Advance the recursion by one step; pure, no oracle calls.

    The weight is updated before the move, so the step taken at iteration
    k is -g_s / w_k with w_k already including ||g_s||^2.  A non-finite
    entry raises :class:`InputError`; a square that overflows warns, as any
    numpy overflow does outside ``np.errstate``, and is then taken as inf.
    """
    g_s = np.asarray(g_s, dtype=float)
    sq = float(g_s.dot(g_s))
    # The square is finite unless an entry is non-finite or it overflows.
    if not math.isfinite(sq) and not np.isfinite(g_s).all():
        raise InputError("g_s contains non-finite entries")
    w = math.sqrt(state.w * state.w + sq)
    return IterateState(k=state.k + 1, x=state.x - g_s / w, w=w)


def _drive(problem, x0, config, seed, solver, step):
    """The solver loop; ``step(x, G, sol, critical) -> (scale, next_x)``.

    A failed oracle call or subproblem, or an omega that overflows, ends
    the run Failed with no row; a failed step, or one that leaves a
    non-finite point, ends it Failed with a NaN-scale row.

    ``x0`` is checked once, raising :class:`InputError`; for the rest of
    the run the oracles skip their per-call point check and the loop runs
    under one ``np.errstate``.  Every point the run makes is tested here
    (and each line search tests its first candidate), which the per-call
    check would only repeat: a finite omega bounds ``|g|`` below about
    1.3e154, far under half an ulp at the top of the float range, so a
    step of at most ``|g|`` from a finite point stays finite.
    """
    base = problem
    while hasattr(base, "_base"):  # the problem under its noise wrappers
        base = base._base
    x = base._check_x(np.array(problem.standard_start if x0 is None else x0, dtype=float))
    traj = _TrajectoryBuilder(config.thin)
    status = RunStatus.BUDGET_EXHAUSTED
    reason = None
    k = 0

    base._in_run = True
    start = time.perf_counter()
    try:
        with np.errstate(all="ignore"):
            while problem.counters.gradient_evals < config.gradient_budget:
                try:
                    G = problem.jacobian(x)
                    sol = solve_direction(G, tol=config.subproblem_tol)
                    if not math.isfinite(sol.omega):
                        raise EvaluationOverflowError(
                            f"{problem.name}: omega is non-finite at x={x}", None, x
                        )
                except (EvaluationOverflowError, ConvergenceError) as exc:
                    status, reason = RunStatus.FAILED, str(exc)
                    break
                critical = math.sqrt(sol.omega) <= config.criticality_tol
                try:
                    scale, next_x = step(x, G, sol, critical)
                    if not _finite(next_x):
                        raise EvaluationOverflowError(
                            f"{problem.name}: step from x={x} is non-finite", None, x
                        )
                except (LineSearchError, EvaluationOverflowError) as exc:
                    traj.append(k, x, sol.omega, math.nan, problem.counters)
                    status, reason = RunStatus.FAILED, str(exc)
                    break
                traj.append(k, x, sol.omega, scale, problem.counters)
                if critical:
                    status = RunStatus.CRITICAL
                    break
                x = next_x
                k += 1
    finally:
        base._in_run = False
    wall = time.perf_counter() - start

    return RunRecord(
        problem=problem.name,
        solver=solver,
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


def run_adagrad(problem, x0=None, config=None, *, seed=None):
    """Run the solver until criticality, budget exhaustion, or failure.

    The returned record carries omega and the weight w per iteration,
    thinned iterates, and counter snapshots; the problem's objective
    counter is untouched by construction.
    """
    config = config or AdagradConfig()
    state = None

    def step(x, G, sol, critical):
        # The loop only ever moves to the point returned here, so after
        # the first call state.x is x.
        nonlocal state
        state = adagrad_step(state or initial_state(x, config.varsigma), sol.gradient)
        return state.w, state.x

    return _drive(problem, x0, config, seed, "adagrad", step)
