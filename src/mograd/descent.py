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
from .problems import _check_array, _check_x, _finite, _public

# Not called here: perfbench/spans.py patches descent.solve_direction.
from .subproblem import solve_direction  # noqa: F401

MIN_STEP = 2.0**-50

# The steps t = 1, 1/2, ..., MIN_STEP as Python floats, which the
# per-candidate loop walks, and the two blocks a row oracle tests them in:
# 1 to 2**-7, then the rest.  ARWHEAD-VARDIM and BROWNAL-VARDIM descent
# (budget 2 000) took 0.46 s so, 0.51 s with one block of every step and
# 0.83 s with blocks doubling from one row (2-core Xeon).
_STEPS = np.ldexp(1.0, -np.arange(int(-math.log2(MIN_STEP)) + 1)).tolist()
_BLOCKS = (np.array(_STEPS[:8]), np.array(_STEPS[8:]))


@dataclass(frozen=True)
class DescentConfig(SolverConfig):
    """Parameters of the line-search solver; beta is the Armijo margin."""

    beta: float = 0.1

    def _check_ranges(self):
        if not 0.0 < self.beta < 1.0:
            raise InputError(f"beta must be in (0, 1), got {self.beta}")
        super()._check_ranges()


def _search_args(problem, x, g_s, grads, beta):
    """The arguments of a public :func:`armijo_backtrack` call, checked in that order."""
    x = _check_x(problem, x)
    g_s = _check_array(g_s, (problem.n,), "g_s")
    if not g_s.any():
        raise InputError("g_s is zero: a line search needs a nonzero direction")
    grads = _check_array(grads, (problem.m, problem.n), "grads")
    DescentConfig(beta=beta)  # the one beta check
    return problem, x, g_s, grads, beta


@_public(_search_args)
def armijo_backtrack(problem, x, g_s, grads, beta):
    """Halve t from 1 until every objective meets the Armijo decrease.

    Returns ``(t, objective_evals_used, point)``, where ``point`` is the
    accepted candidate ``x - t * g_s``.  The reference values f(x) cost
    one objective evaluation and each tested t costs one more (a single
    m-vector oracle call per candidate).  Raises
    :class:`LineSearchError` once t would fall below ``MIN_STEP``, and
    :class:`EvaluationOverflowError` if the first candidate ``x - g_s`` is
    non-finite; every later candidate lies between ``x`` and that point.
    A public call checks ``x``, ``g_s`` (a finite nonzero direction of
    shape (n,)), ``grads`` (finite, of shape (m, n)) and ``beta`` (as
    :class:`DescentConfig` does), raising :class:`InputError` before any
    evaluation, and runs in a ``run_scope`` of its own.  A margin
    ``beta * grads . g_s`` with a non-finite entry is taken again in units
    of max|grads|, so that a slope the float range holds (one whose
    products cancel, say) is not read as -inf.

    A candidate is accepted when ``c <= f - t * mg`` holds for every
    objective, in Python floats: the IEEE double operations of the array
    test ``(candidate <= fx - t * margin).all()`` in the same order, with
    no fused multiply-add, so each decision is the array test's bit for
    bit, NaN and inf included.

    A problem with a row oracle (``MultiObjectiveProblem(..., rows=...)``)
    has its candidates tested a block at a time instead, each block in one
    call (``MultiObjectiveProblem._armijo_rows``), by that array test: t = 1
    to 2**-7, then 2**-8 to ``MIN_STEP``.  Only the rows up to the first
    that passes are counted, checked and stored in the run memo, so ``t``,
    ``used``, the point, the counters and any error are the per-candidate
    loop's.  Every other problem, a noisy or duck-typed one included, runs
    that loop.
    """
    # In a run, the driver searches only along a finite direction with
    # omega above tol^2, so g_s is finite and nonzero, and grads is finite.
    # t is a power of two, so t * (beta * slopes) is beta * t * slopes bit
    # for bit unless a product is subnormal.
    margin = beta * grads.dot(g_s)
    if not _finite(margin):
        top = float(np.abs(grads).max())
        margin = beta * (grads / top).dot(g_s) * top
    fx = problem.evaluate(x)
    first = x - g_s
    if not _finite(first):
        raise EvaluationOverflowError(
            f"{problem.name}: line search point is non-finite from x={x}", None, x
        )
    used = 1
    if getattr(problem, "_rows", None) is not None:
        for ts in _BLOCKS:
            i, point = problem._armijo_rows(x, g_s, ts, fx, margin)
            if point is not None:
                return float(ts[i]), used + i + 1, point
            used += len(ts)
    else:
        fx, margin = fx.tolist(), margin.tolist()
        # One objective at a time in Python floats (see above): for the
        # small m of a line search, a third of the cost of four numpy calls.
        for t in _STEPS:
            point = x - t * g_s if t < 1.0 else first
            candidate = problem.evaluate(point).tolist()
            used += 1
            if all(c <= f - t * mg for c, f, mg in zip(candidate, fx, margin)):
                return t, used, point
    raise LineSearchError(f"backtracking fell below min_step={MIN_STEP:.3e}")


def run_descent(problem, x0=None, config=None, *, seed=None):
    """Run the line-search solver; same termination semantics as Adagrad.

    The trajectory's scale column holds the accepted step alpha_k, NaN on
    the terminal iteration where no step is taken.
    """
    config = config or DescentConfig()

    def step(x, G, sol, critical):
        if critical:
            return math.nan, x
        # The accepted candidate itself is the next iterate, so the next
        # line search's f(x) is the run scope's stored value.
        t, _, point = armijo_backtrack(problem, x, sol.gradient, G, config.beta)
        return t, point

    return _drive(problem, x0, config, seed, "descent", step)
