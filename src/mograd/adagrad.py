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
    _check_positive,
    _check_x,
    _in_run,
    _is_int,
    _is_number,
    run_scope,
)
from .records import RunRecord, RunStatus, _TrajectoryBuilder
from .subproblem import DEFAULT_TOL, solve_direction


# The test a config field's value passes, by the field's annotation.
_FIELD_TYPES = {"int": (_is_int, "an int"), "float": (_is_number, "a real number")}


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by both drivers.

    The run stops once the combined gradient norm drops to
    criticality_tol, the gradient budget is exhausted, or an evaluation
    fails; the trajectory keeps every thin-th iterate.  A field whose value
    is not of its annotated type (an int, not a bool; a real number) raises
    :class:`InputError` naming it, before any range check.
    """

    criticality_tol: float = 1e-6
    gradient_budget: int = 100_000
    subproblem_tol: float = DEFAULT_TOL
    thin: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            is_type, kind = _FIELD_TYPES[f.type]
            if not is_type(value):
                raise InputError(f"{f.name} must be {kind}, got {value!r}")
        self._check_ranges()

    def _check_ranges(self):
        _check_positive(self.criticality_tol, "criticality_tol")
        if self.gradient_budget < 1:
            raise InputError(
                f"gradient_budget must be >= 1, got {self.gradient_budget}"
            )
        _check_positive(self.subproblem_tol, "subproblem_tol")
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

    def _check_ranges(self):
        if not 0.0 < self.varsigma < 1.0:
            raise InputError(f"varsigma must be in (0, 1), got {self.varsigma}")
        super()._check_ranges()


def adagrad_step(x, w, g_s):
    """Advance the recursion by one step; pure, no oracle calls.

    Returns ``(x - g_s / w_next, w_next)`` with
    ``w_next = sqrt(w^2 + ||g_s||^2)``: the weight is updated before the
    move.  A non-finite entry raises :class:`InputError`; a square that
    overflows is taken as inf, without a warning.
    """
    if not _in_run():
        with run_scope():
            return adagrad_step(x, w, g_s)
    g_s = np.asarray(g_s, dtype=float)
    sq = float(g_s.dot(g_s))
    # The square is finite unless an entry is non-finite or it overflows.
    if not math.isfinite(sq) and not np.isfinite(g_s).all():
        raise InputError("g_s contains non-finite entries")
    w = math.sqrt(w * w + sq)
    return x - g_s / w, w


def _drive(problem, x0, config, seed, solver, step):
    """The solver loop; ``step(x, G, sol, critical) -> (scale, next_x)``.

    A failed oracle call or subproblem, or an omega that overflows, ends
    the run Failed with no row; a failed step ends it Failed with a
    NaN-scale row.

    ``x0`` is checked once, raising :class:`InputError`, and the loop runs
    in one :func:`~mograd.problems.run_scope`, whose oracle calls skip their
    per-call point check.  No point a run makes needs one: a finite omega
    bounds ``|g|`` below about 1.34e154, far under half an ulp at the top
    of the float range, and each step moves less than that, so every
    iterate from a finite ``x0`` is finite.  An Adagrad step is ``g / w``
    with ``w >= |g|``, so it moves each entry by at most about 1; an Armijo
    step is ``t * g`` with ``t <= 1``.
    """
    x = _check_x(problem, np.array(problem.standard_start if x0 is None else x0, dtype=float))
    traj = _TrajectoryBuilder(config.thin)
    status = RunStatus.BUDGET_EXHAUSTED
    reason = None
    k = 0

    start = time.perf_counter()
    with run_scope():
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
    w = math.sqrt(config.varsigma)

    def step(x, G, sol, critical):
        # The module name, looked up per call: perfbench/spans.py patches it.
        nonlocal w
        x, w = adagrad_step(x, w, sol.gradient)
        return w, x

    return _drive(problem, x0, config, seed, "adagrad", step)
