"""Smooth unconstrained multi-objective problems and evaluation bookkeeping.

A problem bundles an objective oracle f: R^n -> R^m with its Jacobian
(one gradient row per objective) and counts every oracle call, so that
solvers can be compared on evaluation budgets rather than wall time.
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
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


def _is_int(value):
    """True for an int or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value):
    """True for a real number: an int as in :func:`_is_int`, or a float."""
    return _is_int(value) or isinstance(value, (float, np.floating))


def _is_finite_number(value):
    """True for a number as in :func:`_is_number` that is finite as a float.

    A Python int beyond the float range is not: it compares below
    ``math.inf``, but converting it raises ``OverflowError``.
    """
    if not _is_number(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_seed(seed):
    """Raise :class:`InputError` unless ``seed`` is an int >= 0 (not a bool)."""
    if not (_is_int(seed) and seed >= 0):
        raise InputError(f"seed must be an int >= 0, got {seed!r}")


def _check_positive(value, name):
    """Raise :class:`InputError` unless ``value`` is a finite number > 0."""
    if not (_is_finite_number(value) and value > 0):
        raise InputError(f"{name} must be > 0 and finite, got {value!r}")


def _finite(a):
    """True if every entry of the array ``a`` is finite.

    The self dot product is finite exactly when every entry is, unless it
    overflows; only then are the entries tested one by one.  The overflow
    warns, so call this under ``np.errstate``.
    """
    flat = a.ravel()
    return math.isfinite(flat.dot(flat)) or bool(np.isfinite(a).all())


def _as_floats(value):
    """``value`` as a float64 array: the one conversion of every array checked here.

    A float64 array passes through as it is.  A value numpy cannot convert
    raises numpy's TypeError, ValueError or OverflowError, and a complex
    one a TypeError, since its conversion would drop the imaginary part.
    """
    a = np.asarray(value)
    if a.dtype.char != "d":
        if a.dtype.kind == "c":
            raise TypeError("complex values")
        a = a.astype(float)
    return a


def _floats(name, oracle, out, shape):
    """The oracle output ``out`` as a float array of ``shape``.

    An output that does not convert to floats of that shape (any entries
    of the right number pass, as ``reshape`` takes them) is an
    :class:`InputError` naming the problem, the oracle and the shape.  So
    is a complex one (:func:`_as_floats`).
    """
    try:
        return _as_floats(out).reshape(shape)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(
            f"{name}: {oracle} output is not floats of shape {shape}: {exc}"
        ) from None


def _check_array(value, shape, what):
    """``value`` as finite float64 of exactly ``shape``: the one rule for an input array.

    A ``None`` in ``shape`` leaves that length free.  Anything else is an
    :class:`InputError` naming ``what``: it "is not real floats" (complex,
    or not convertible, as :func:`_as_floats` has it), "has shape S,
    expected T", or "contains non-finite entries".
    """
    try:
        a = _as_floats(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} is not real floats: {exc}") from None
    if a.ndim != len(shape) or any(t is not None and t != s for s, t in zip(a.shape, shape)):
        raise InputError(f"{what} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{what} contains non-finite entries")
    return a


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


_RUN = ContextVar("mograd_run", default=None)
_in_run = _RUN.get  # the active run_scope, or None outside any run


class run_scope:
    """The scope of a solver run, in which oracle calls skip their point check.

    One ``np.errstate(all="ignore")`` covers it.  Other threads keep their
    checks, but a public oracle call made inside a run on the run's thread
    (a user oracle that calls another problem) is in the scope.  Scopes nest.

    The scope is also a memo of the values computed at one point, the last
    at which a call in it computed one, keyed by their owner
    (:meth:`value`).  A problem's ``evaluate`` at that same point object
    (``is``, not ``==``) returns its stored value without calling the user
    objective, and still counts; the multitask oracles keep their forward
    pass there, under the split's block.  The memo goes with the scope: a
    public call outside a run has a scope of its own that keeps nothing
    (:class:`_call_scope`).  Within a run, neither a point nor a stored
    value may be changed in place; the drivers never do either.
    """

    __slots__ = ("x", "values", "_token", "_errstate")

    def value(self, owner, x, compute):
        """``owner``'s value at the point ``x``: the stored one, or ``compute(x)``.

        A new point's first value replaces the last point's values once it
        is computed, so their arrays are freed after the new ones exist;
        freed first, they can let the C heap hand back its top and
        page-fault it in again at every multitask gradient.
        """
        if self.x is x and owner in self.values:
            return self.values[owner]
        value = compute(x)
        if self.x is not x:
            self.x, self.values = x, {}
        self.values[owner] = value
        return value

    def __enter__(self):
        self.x = None
        self._token = _RUN.set(self)
        self._errstate = np.errstate(all="ignore")
        self._errstate.__enter__()
        return self

    def __exit__(self, *exc_info):
        self._errstate.__exit__(*exc_info)
        _RUN.reset(self._token)


class _call_scope(run_scope):
    """The scope of one public call: a :class:`run_scope` whose memo keeps nothing.

    No public call asks twice for a value at one point object, and a kept
    value would outlive its use: a public quadrants ``loss_gradients``
    would hold its forward pass past its residual, above the peak at
    which the C heap is handed back and page-faulted in again each call.
    """

    __slots__ = ()

    def value(self, owner, x, compute):
        return compute(x)


def _check_x(problem, x):
    """``x`` checked as a point of ``problem`` (:func:`_check_array`)."""
    return _check_array(x, (problem.n,), f"{problem.name}: point")


def _public(check):
    """Decorate a function that a solver run also calls.

    Outside a run, a call enters a :class:`_call_scope` of its own and
    runs the function on ``check(*args, **kwargs)``, which returns the
    arguments checked or raises :class:`InputError`.  Inside a run the
    function runs on its arguments as they are: the run made them.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def public(*args, **kwargs):
            if _in_run():
                return fn(*args, **kwargs)
            with _call_scope():
                return fn(*check(*args, **kwargs))

        return public

    return decorate


def _oracle(method):
    """:func:`_public` for an oracle method ``method(self, x)``: a public call checks ``x``.

    Written out for that one signature, since an oracle call is the most
    frequent call in a run: its wrapper costs about 0.05 us a call where
    :func:`_public`'s ``*args, **kwargs`` one costs 0.15 us (CPython 3.11, 2-core Xeon).
    """
    @functools.wraps(method)
    def oracle(self, x):
        if _in_run():
            return method(self, x)
        with _call_scope():
            return method(self, _check_x(self, x))

    return oracle


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
    rows : callable, optional
        The row oracle: maps a (k, n) block of points to the (k, m) block
        of their values, whose row i must equal ``objectives(X[i])`` bit
        for bit.  With one, a descent line search tests a block of
        candidates in one call (:meth:`_armijo_rows`).

    An ``n`` or ``m`` that is not an int >= 1 (not a bool) raises
    :class:`InputError`, as does a ``standard_start`` that is not finite
    floats of shape (n,) (:func:`_check_array`), and an oracle output
    that does not convert to floats of the expected shape, or is complex,
    in a public call and inside a run alike.

    A row form is bit for bit its one-point oracle only if it follows
    three rules, which the catalog's row forms keep (:mod:`mograd.suite`:
    ARWHEAD, VARDIM, BROWNAL and the ``||x||^2`` regulariser, so the six
    instances built from two of them have a row oracle):

    * a power the one-point oracle takes of a numpy scalar (libm ``pow``)
      is taken entry by entry with Python's float ``**``, the same
      ``pow``, with its ``OverflowError`` read as inf; numpy's array
      ``**`` rounds differently;
    * a dot product stays one ``dot`` per row: a matrix product, or a
      sum of the products, rounds differently;
    * a ``sum`` or ``prod`` of a point's entries may be taken along the
      rows of a C-contiguous block (``axis=1``), which folds each row as
      the 1-d call does.
    """

    def __init__(self, name, n, m, standard_start, objectives, jacobian, rows=None):
        for size, value in (("n", n), ("m", m)):
            if not (_is_int(value) and value >= 1):
                raise InputError(f"{name}: {size} must be an int >= 1, got {value!r}")
        self.name = str(name)
        self.n = int(n)
        self.m = int(m)
        start = _check_array(standard_start, (self.n,), f"{name}: standard_start")
        self.standard_start = start.copy()
        self._objectives = objectives
        self._jacobian = jacobian
        self._rows = rows
        self.counters = EvalCounters()

    # Noise level of the oracle; plain problems are exact.
    noise_rho = 0.0

    @_oracle
    def evaluate(self, x):
        """Objective vector f(x), counted as one objective evaluation.

        A public call checks ``x`` (:func:`_check_array`): a complex or
        unconvertible value, a wrong shape or a non-finite entry raises
        :class:`InputError`.  Inside a solver run the point is not checked
        again, and a call at the run's last point object returns this
        problem's value stored there (see :class:`run_scope`).
        """
        y = _in_run().value(self, x, self._value)
        self.counters.objective_evals += 1
        if not _finite(y):
            raise _overflow(self.name, y, x)
        return y

    def _value(self, x):
        return _floats(self.name, "objectives", self._objectives(x), (self.m,))

    @_oracle
    def jacobian(self, x):
        """Gradient rows, shape (m, n), counted as one gradient evaluation.

        ``x`` is checked as in :meth:`evaluate`.
        """
        G = _floats(self.name, "jacobian", self._jacobian(x), (self.m, self.n))
        self.counters.gradient_evals += 1
        if not _finite(G):
            raise _overflow(self.name, G, x)
        return G

    def _armijo_rows(self, x, g_s, ts, fx, margin):
        """The first candidate ``x - t * g_s``, t in ``ts``, that passes the Armijo test.

        One row-oracle call gives the values of the whole block.  A row
        passes when ``Y[i] <= fx - t * margin`` in every objective, the
        array test of :func:`~mograd.descent.armijo_backtrack`.  Returns
        ``(i, point)`` for the first row i that passes, or ``(None, None)``.
        Only the rows up to that one (every row, if none passes) are
        counted, checked and stored, as that many :meth:`evaluate` calls
        would: each counts once, the first non-finite one raises its
        :class:`EvaluationOverflowError`, and the accepted point's row
        becomes the run memo's value there.  Called inside a run only.
        """
        points = x - ts[:, None] * g_s
        Y = _floats(self.name, "rows", self._rows(points), (len(ts), self.m))
        passed = (Y <= fx - ts[:, None] * margin).all(axis=1)
        i = int(passed.argmax()) if passed.any() else len(ts) - 1
        counted = Y[: i + 1]
        if not _finite(counted):
            i = int(np.isfinite(counted).all(axis=1).argmin())
            self.counters.objective_evals += i + 1
            raise _overflow(self.name, Y[i], points[i])
        self.counters.objective_evals += i + 1
        if not passed[i]:
            return None, None
        point = points[i]
        _in_run().value(self, point, lambda _: Y[i])
        return i, point

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
    an identical call sequence.  A bad field raises :class:`InputError`.
    """

    rho: float
    seed: int = 0

    def __post_init__(self):
        if not (_is_finite_number(self.rho) and self.rho >= 0):
            raise InputError(
                f"noise level must be a finite number >= 0, got {self.rho!r}"
            )
        _check_seed(self.seed)


class NoisyProblem:
    """Relative-noise view of a base problem; counters live on the base.

    Only what the drivers read is exposed: no ``phi``, which would give the
    base's exact values.
    """

    def __init__(self, base, spec):
        self._base = base
        self._rng = np.random.default_rng(spec.seed)
        self.name = base.name
        self.n = base.n
        self.m = base.m
        self.standard_start = base.standard_start
        self.noise_rho = spec.rho
        self.counters = base.counters

    @_oracle
    def evaluate(self, x):
        return self._corrupt(self._base.evaluate(x), x)

    @_oracle
    def jacobian(self, x):
        return self._corrupt(self._base.jacobian(x), x)

    def _corrupt(self, values, x):
        """``values * (1 + rho*xi)``, which must stay finite like the base's.

        One draw per entry, row-major, in call order, so the stream layout is
        reproducible.  A finite value can still overflow here; that is an
        :class:`EvaluationOverflowError`, as in the base oracle.  Always
        called in a run scope, whose ``np.errstate`` covers the overflow.
        """
        xi = self._rng.standard_normal(values.shape)
        noisy = values * (1.0 + self.noise_rho * xi)
        if not _finite(noisy):
            raise _overflow(self.name, noisy, x)
        return noisy


def wrap_noisy(problem, spec):
    """Wrap ``problem`` so every oracle output is corrupted per ``spec``.

    With ``spec.rho == 0`` outputs are bit-identical to the base problem's,
    by arithmetic: each factor ``1 + 0*xi`` is exactly 1 (the noise is still
    drawn).  Evaluation counters delegate to the wrapped problem.
    """
    return NoisyProblem(problem, spec)
