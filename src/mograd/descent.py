"""The Armijo step rule: multi-objective steepest descent with backtracking.

The baseline solver runs the adaptive method's loop (:mod:`mograd.adagrad`)
with the same common descent direction, but the step length comes from a
halving line search that must decrease every objective by the Armijo
margin simultaneously.  It therefore consumes objective evaluations,
which the budget accounting charges at 1/n each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adagrad import SolverConfig, _drive
from .problems import EvaluationOverflowError, InputError, LineSearchError

# Not called here: perfbench/spans.py patches descent.solve_direction.
from .subproblem import solve_direction  # noqa: F401

MIN_STEP = 2.0**-50


@dataclass(frozen=True)
class DescentConfig(SolverConfig):
    """Parameters of the line-search solver; beta is the Armijo margin."""

    beta: float = 0.1
    min_step: float = MIN_STEP

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise InputError(f"beta must be in (0, 1), got {self.beta}")
        if not self.min_step > 0:
            raise InputError(f"min_step must be > 0, got {self.min_step}")
        super().__post_init__()


def armijo_backtrack(problem, x, g_s, grads, beta, min_step=MIN_STEP):
    """Halve t from 1 until every objective meets the Armijo decrease.

    Returns ``(t, objective_evals_used)``.  The reference values f(x) cost
    one objective evaluation and each tested t costs one more (a single
    m-vector oracle call per candidate).  Raises
    :class:`LineSearchError` once t would fall below ``min_step``, and
    :class:`EvaluationOverflowError` if the first candidate ``x - g_s`` is
    non-finite; every later candidate lies between ``x`` and that point.
    """
    g_s = np.asarray(g_s, dtype=float)
    if not np.isfinite(g_s).all() or not g_s.any():
        raise InputError("line search requires a finite nonzero direction")
    # t is a power of two, so t * (beta * slopes) is beta * t * slopes bit
    # for bit unless a product is subnormal.
    margin = beta * np.asarray(grads, dtype=float).dot(g_s)
    fx = problem.evaluate(x)
    point = x - g_s
    if not np.isfinite(point).all():
        raise EvaluationOverflowError(
            f"{problem.name}: line search point is non-finite from x={x}", None, x
        )
    used = 1
    t = 1.0
    while True:
        candidate = problem.evaluate(point)
        used += 1
        if (candidate <= fx - t * margin).all():
            return t, used
        t *= 0.5
        if t < min_step:
            raise LineSearchError(
                f"backtracking fell below min_step={min_step:.3e}"
            )
        point = x - t * g_s


def run_descent(problem, x0=None, config=None, *, seed=None):
    """Run the line-search solver; same termination semantics as Adagrad.

    The trajectory's scale column holds the accepted step alpha_k, NaN on
    the terminal iteration where no step is taken.
    """
    config = config or DescentConfig()

    def step(x, G, sol, critical):
        if critical:
            return math.nan, x
        t, _ = armijo_backtrack(
            problem, x, sol.gradient, G, config.beta, config.min_step
        )
        return t, x - t * sol.gradient

    return _drive(problem, x0, config, seed, "descent", step)
