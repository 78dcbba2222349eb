"""Smooth unconstrained multi-objective problems and evaluation bookkeeping.

A problem bundles an objective oracle f: R^n -> R^m with its Jacobian
(one gradient row per objective) and counts every oracle call, so that
solvers can be compared on evaluation budgets rather than wall time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """Malformed caller input: wrong dimension, non-finite point, bad option."""


class EvaluationOverflowError(ArithmeticError):
    """An oracle returned a non-finite value.

    Attributes record where it happened: ``index`` is the offending objective
    index (or ``(objective, variable)`` pair for a Jacobian entry, None for
    omega) and ``x`` is the evaluation point.
    """

    def __init__(self, message, index, x):
        super().__init__(message)
        self.index = index
        self.x = np.asarray(x)


class ConvergenceError(RuntimeError):
    """An iterative routine hit its iteration cap; carries the best iterate."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


class LineSearchError(RuntimeError):
    """Backtracking reached the minimum step size without acceptance."""


def _finite(a):
    """True if every entry of the array ``a`` is finite.

    The self dot product is finite exactly when every entry is, unless it
    overflows; only then are the entries tested one by one.  The overflow
    warns, so call this under ``np.errstate``.
    """
    flat = a.ravel()
    return math.isfinite(flat.dot(flat)) or bool(np.isfinite(a).all())


def _overflow(name, values, x):
    """EvaluationOverflowError naming the first non-finite entry of ``values``.

    ``values`` is an objective vector or a Jacobian; the error's index is the
    objective index or the ``(objective, variable)`` pair, in row-major order.
    """
    flat = int(np.flatnonzero(~np.isfinite(values))[0])
    if values.ndim == 1:
        return EvaluationOverflowError(
            f"{name}: objective {flat} is non-finite at x={x}", flat, x
        )
    j, i = divmod(flat, values.shape[1])
    return EvaluationOverflowError(
        f"{name}: gradient entry ({j}, {i}) is non-finite at x={x}", (j, i), x
    )


@dataclass
class EvalCounters:
    """Cumulative oracle call counts, monotone over the problem's life."""

    objective_evals: int = 0
    gradient_evals: int = 0


class MultiObjectiveProblem:
    """A smooth map f: R^n -> R^m with analytic Jacobian and call counters.

    Parameters
    ----------
    name : str
        Catalog identifier.
    n, m : int
        Number of variables and of objectives.
    standard_start : array_like, shape (n,)
        Conventional starting point.
    objectives : callable
        Maps an (n,) array to an (m,) array of objective values.
    jacobian : callable
        Maps an (n,) array to an (m, n) array whose row j is grad f_j.
    """

    def __init__(self, name, n, m, standard_start, objectives, jacobian):
        self.name = str(name)
        self.n = int(n)
        self.m = int(m)
        self.standard_start = np.asarray(standard_start, dtype=float).copy()
        if self.standard_start.shape != (self.n,):
            raise InputError(
                f"{name}: standard_start has shape {self.standard_start.shape}, "
                f"expected ({self.n},)"
            )
        self._objectives = objectives
        self._jacobian = jacobian
        self.counters = EvalCounters()

    # Noise level of the oracle; plain problems are exact.
    noise_rho = 0.0
    # Set by a solver run for its duration; see evaluate().
    _in_run = False

    def _check_x(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InputError(
                f"{self.name}: point has shape {x.shape}, expected ({self.n},)"
            )
        if not np.isfinite(x).all():
            raise InputError(f"{self.name}: point contains non-finite entries")
        return x

    def evaluate(self, x):
        """Objective vector f(x), counted as one objective evaluation.

        A public call checks ``x`` and raises :class:`InputError` for a
        wrong shape or a non-finite entry.  Inside a solver run the point
        is not checked again: the run checked ``x0`` once and checks each
        point it makes (see :func:`mograd.adagrad._drive`).
        """
        if self._in_run:
            y = np.asarray(self._objectives(x), dtype=float).reshape(self.m)
            self.counters.objective_evals += 1
            finite = _finite(y)
        else:
            x = self._check_x(x)
            with np.errstate(all="ignore"):
                y = np.asarray(self._objectives(x), dtype=float).reshape(self.m)
                self.counters.objective_evals += 1
                finite = _finite(y)
        if not finite:
            raise _overflow(self.name, y, x)
        return y

    def jacobian(self, x):
        """Gradient rows, shape (m, n), counted as one gradient evaluation.

        ``x`` is checked as in :meth:`evaluate`.
        """
        if self._in_run:
            G = np.asarray(self._jacobian(x), dtype=float).reshape(self.m, self.n)
            self.counters.gradient_evals += 1
            finite = _finite(G)
        else:
            x = self._check_x(x)
            with np.errstate(all="ignore"):
                G = np.asarray(self._jacobian(x), dtype=float).reshape(self.m, self.n)
                self.counters.gradient_evals += 1
                finite = _finite(G)
        if not finite:
            raise _overflow(self.name, G, x)
        return G

    def phi(self, x):
        """Worst objective max_j f_j(x); costs one objective evaluation."""
        return float(self.evaluate(x).max())

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r}, n={self.n}, m={self.m})"


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative Gaussian noise: each oracle output a becomes a*(1+rho*xi).

    xi ~ N(0, 1) is drawn fresh for every output entry on every call from a
    generator seeded with ``seed``, so a wrapped problem replays exactly under
    an identical call sequence.
    """

    rho: float
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho >= 0):
            raise InputError(f"noise level must be finite and >= 0, got {self.rho}")


class NoisyProblem:
    """Relative-noise view of a base problem; counters live on the base.

    Only what the drivers read is exposed: no ``phi``, which would give the
    base's exact values.
    """

    def __init__(self, base, spec):
        self._base = base
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)
        self.name = base.name
        self.n = base.n
        self.m = base.m
        self.standard_start = base.standard_start
        self.noise_rho = spec.rho
        self.counters = base.counters

    @property
    def _in_run(self):
        # Set on the innermost base by the run; see MultiObjectiveProblem.
        return self._base._in_run

    def evaluate(self, x):
        y = self._base.evaluate(x)
        if self.spec.rho == 0.0:
            return y
        return self._corrupt(y, x)

    def jacobian(self, x):
        G = self._base.jacobian(x)
        if self.spec.rho == 0.0:
            return G
        return self._corrupt(G, x)

    def _corrupt(self, values, x):
        """``values * (1 + rho*xi)``, which must stay finite like the base's.

        One draw per entry, row-major, in call order, so the stream layout is
        reproducible.  A finite value can still overflow here; that is an
        :class:`EvaluationOverflowError`, as in the base oracle.  Inside a
        run the run's ``np.errstate`` covers the overflow.
        """
        xi = self._rng.standard_normal(values.shape)
        if self._in_run:
            noisy = values * (1.0 + self.spec.rho * xi)
            finite = _finite(noisy)
        else:
            with np.errstate(over="ignore"):
                noisy = values * (1.0 + self.spec.rho * xi)
                finite = _finite(noisy)
        if not finite:
            raise _overflow(self.name, noisy, np.asarray(x, dtype=float))
        return noisy


def wrap_noisy(problem, spec):
    """Wrap ``problem`` so every oracle output is corrupted per ``spec``.

    With ``spec.rho == 0`` outputs are bit-identical to the base problem.
    Evaluation counters delegate to the wrapped problem.
    """
    return NoisyProblem(problem, spec)
