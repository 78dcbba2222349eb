"""Experiment instances: scalar test functions and bi-objective constructions.

Three instance families are provided.

* Regularized: a classical scalar test function paired with the squared
  l2 norm as a second objective.
* Paired: two scalar test functions of equal dimension, started from the
  average of their standard starts.
* Benchmarks: five bi-objective problems from the literature, each with
  a box for random starts.

Scalar functions are hardcoded from their published formulations
(Rosenbrock, Cube, Wayburn-Seader 1, Zangwill's quadratic, and the
ARWHEAD / VARDIM / BROWNAL family in dimension 10).  Sources for the
benchmark formulations are recorded in the docstrings below and in the
README, since several variants circulate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .problems import InputError, MultiObjectiveProblem, _check_seed


@dataclass(frozen=True)
class ScalarProblem:
    """A single smooth objective with value and gradient oracles.

    ``rows``, if given, maps a (k, n) block of points to the k values,
    each ``value`` of its row bit for bit (see
    :class:`~mograd.problems.MultiObjectiveProblem` for the rules).
    """

    name: str
    n: int
    standard_start: tuple
    value: callable
    gradient: callable
    rows: callable = None


def _powers(values, p):
    """``v ** p`` of each float in ``values``, as a numpy scalar's ``**`` gives it.

    Both are libm ``pow``; an array's ``**`` is not.  Where the power
    overflows, Python raises and numpy returns inf, so it is inf here:
    ``p`` is even.
    """
    out = []
    for v in values:
        try:
            out.append(v**p)
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def _rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def _rosenbrock_grad(x):
    r = x[1] - x[0] ** 2
    return np.array([-400.0 * x[0] * r - 2.0 * (1.0 - x[0]), 200.0 * r])


def _cube(x):
    return (x[0] - 1.0) ** 2 + 100.0 * (x[1] - x[0] ** 3) ** 2


def _cube_grad(x):
    r = x[1] - x[0] ** 3
    return np.array([2.0 * (x[0] - 1.0) - 600.0 * x[0] ** 2 * r, 200.0 * r])


def _waysea1(x):
    # Wayburn and Seader problem 1.
    r1 = x[0] ** 6 + x[1] ** 4 - 17.0
    r2 = 2.0 * x[0] + x[1] - 4.0
    return r1**2 + r2**2


def _waysea1_grad(x):
    r1 = x[0] ** 6 + x[1] ** 4 - 17.0
    r2 = 2.0 * x[0] + x[1] - 4.0
    return np.array(
        [12.0 * x[0] ** 5 * r1 + 4.0 * r2, 8.0 * x[1] ** 3 * r1 + 2.0 * r2]
    )


def _zangwil2(x):
    # Zangwill's 2-variable quadratic; minimum -18.2 at (4, 9).
    return (
        16.0 * x[0] ** 2
        + 16.0 * x[1] ** 2
        - 8.0 * x[0] * x[1]
        - 56.0 * x[0]
        - 256.0 * x[1]
        + 991.0
    ) / 15.0


def _zangwil2_grad(x):
    return np.array(
        [
            (32.0 * x[0] - 8.0 * x[1] - 56.0) / 15.0,
            (32.0 * x[1] - 8.0 * x[0] - 256.0) / 15.0,
        ]
    )


def _arwhead(x):
    head = x[:-1] ** 2 + x[-1] ** 2
    return float((head**2 - 4.0 * x[:-1] + 3.0).sum())


def _arwhead_rows(X):
    head = X[:, :-1] ** 2 + _powers(X[:, -1].tolist(), 2)[:, None]
    return (head**2 - 4.0 * X[:, :-1] + 3.0).sum(axis=1)


def _arwhead_grad(x):
    head = x[:-1] ** 2 + x[-1] ** 2
    g = np.empty_like(x)
    g[:-1] = 4.0 * x[:-1] * head - 4.0
    g[-1] = 4.0 * x[-1] * head.sum()
    return g


@functools.cache
def _index(n):
    """The float index 1, ..., n (read-only, shared by every call)."""
    idx = np.arange(1, n + 1, dtype=float)
    idx.flags.writeable = False
    return idx


@functools.cache
def _diagonal(n):
    """Boolean (n, n) identity mask (read-only, shared by every call)."""
    mask = np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _vardim(x):
    n = x.size
    # A numpy scalar (as prod in BROWNAL): its powers overflow to inf, not raise.
    lin = _index(n).dot(x) - n * (n + 1) / 2.0
    return float(((x - 1.0) ** 2).sum()) + lin**2 + lin**4


def _vardim_rows(X):
    n = X.shape[1]
    idx = _index(n)
    lin = [float(idx.dot(x)) - n * (n + 1) / 2.0 for x in X]
    return ((X - 1.0) ** 2).sum(axis=1) + _powers(lin, 2) + _powers(lin, 4)


def _vardim_grad(x):
    n = x.size
    idx = _index(n)
    lin = idx.dot(x) - n * (n + 1) / 2.0
    return 2.0 * (x - 1.0) + (2.0 * lin + 4.0 * lin**3) * idx


def _brownal(x):
    n = x.size
    lin = x + x.sum() - (n + 1.0)
    prod = x.prod()
    return float((lin[:-1] ** 2).sum()) + (prod - 1.0) ** 2


def _brownal_rows(X):
    n = X.shape[1]
    lin = X + X.sum(axis=1)[:, None] - (n + 1.0)
    prod = X.prod(axis=1)
    return (lin[:, :-1] ** 2).sum(axis=1) + _powers((prod - 1.0).tolist(), 2)


def _brownal_grad(x):
    n = x.size
    lin = x + x.sum() - (n + 1.0)
    head = lin[:-1].sum()
    g = 2.0 * (head + lin)
    g[-1] = 2.0 * head
    prod = x.prod()
    # d(prod)/dx_k is the product of the other entries.  Column k of the
    # masked matrix is x with 1.0 in place of x_k, and prod(axis=0) folds
    # each column left to right, so every partial is the same left fold as
    # np.prod(np.delete(x, k)), times an exact 1.0: bit for bit equal, and
    # exact at zero entries.  Prefix and suffix products would be O(n) but
    # reassociate the product, which moves the last bits and, through the
    # line search, the evaluation counts.
    partials = np.where(_diagonal(n), 1.0, x[:, None]).prod(axis=0)
    return g + 2.0 * (prod - 1.0) * partials


SCALAR_PROBLEMS = {
    "ROSENBR": ScalarProblem("ROSENBR", 2, (-1.2, 1.0), _rosenbrock, _rosenbrock_grad),
    "CUBE": ScalarProblem("CUBE", 2, (-1.2, 1.0), _cube, _cube_grad),
    "WAYSEA1": ScalarProblem("WAYSEA1", 2, (1.5, 1.5), _waysea1, _waysea1_grad),
    "ZANGWIL2": ScalarProblem("ZANGWIL2", 2, (3.0, 8.0), _zangwil2, _zangwil2_grad),
    "ARWHEAD": ScalarProblem(
        "ARWHEAD", 10, (1.0,) * 10, _arwhead, _arwhead_grad, rows=_arwhead_rows
    ),
    "VARDIM": ScalarProblem(
        "VARDIM", 10, tuple(1.0 - i / 10.0 for i in range(1, 11)), _vardim, _vardim_grad,
        rows=_vardim_rows,
    ),
    "BROWNAL": ScalarProblem(
        "BROWNAL", 10, (0.5,) * 10, _brownal, _brownal_grad, rows=_brownal_rows
    ),
}

# Paired instances reported in the experiments; both members share n.
PAIR_NAMES = [
    ("BROWNAL", "ARWHEAD"),
    ("BROWNAL", "VARDIM"),
    ("ARWHEAD", "VARDIM"),
    ("ZANGWIL2", "ROSENBR"),
    ("ZANGWIL2", "CUBE"),
    ("ZANGWIL2", "WAYSEA1"),
    ("ROSENBR", "WAYSEA1"),
    ("ROSENBR", "CUBE"),
    ("WAYSEA1", "CUBE"),
]


def _pair(name, n, start, f1, g1, f2, g2, rows1=None, rows2=None):
    """The problem (f1, f2) in n variables, with gradient rows (g1, g2).

    It has a row oracle when both parts have one, ``rows1`` and ``rows2``.
    """

    def objectives(x):
        return np.array([f1(x), f2(x)])

    def jac(x):
        return np.array([g1(x), g2(x)])

    rows = None
    if rows1 is not None and rows2 is not None:
        def rows(X):
            return np.stack((rows1(X), rows2(X)), axis=1)

    return MultiObjectiveProblem(name, n, 2, start, objectives, jac, rows)


def _l2_rows(X):
    # One dot a row, as the one-point form takes it.
    return np.array([float(x.dot(x)) for x in X])


def make_regularized(p):
    """Bi-objective instance f_1 = p, f_2 = ||x||^2, started at p's start."""
    return _pair(
        f"{p.name}-L2", p.n, p.standard_start, p.value, p.gradient,
        lambda x: float(x.dot(x)), lambda x: 2.0 * x, p.rows, _l2_rows,
    )


def make_pair(p1, p2):
    """Bi-objective instance (p1, p2), started at the average of the starts."""
    if p1.n != p2.n:
        raise InputError(
            f"cannot pair {p1.name} (n={p1.n}) with {p2.name} (n={p2.n})"
        )
    start = (np.asarray(p1.standard_start) + np.asarray(p2.standard_start)) / 2.0
    return _pair(
        f"{p1.name}-{p2.name}", p1.n, start, p1.value, p1.gradient, p2.value, p2.gradient,
        p1.rows, p2.rows,
    )


def quadratic_pair(a=(1.0, 0.0), b=(-1.0, 0.0)):
    """The two half-quadratics f_j = 0.5*||x - c_j||^2 with centers a and b.

    The Pareto set is the segment [a, b]; every gradient is x - c_j, so
    L_max = 1, and the minimum of max(f_1, f_2) sits at the midpoint with
    value ||a - b||^2 / 8.  Used throughout the tests because every
    quantity of the convergence theory is known exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    problem = _pair(
        "QUADPAIR", a.size, (a + b) / 2.0,
        lambda x: 0.5 * ((x - a) @ (x - a)), lambda x: x - a,
        lambda x: 0.5 * ((x - b) @ (x - b)), lambda x: x - b,
    )
    problem.l_max = 1.0
    problem.phi_low = float((a - b) @ (a - b)) / 8.0
    problem.segment = (a, b)
    return problem


def _gauss_bump(x, c):
    d = x - c
    return np.exp(-float(d.dot(d)))


# Benchmark formulations (all n=2, m=2, minimization form).  Lovison 3 and
# Lovison 4 follow the singular-continuation test set (two quadratic bowls;
# problem 4 adds two Gaussian bumps to the first objective, which splits
# the Pareto set).  MOP1 is the classical parabolic pair in two variables
# with unit Hessians.  T1 and T2 are heterogeneous pairs in the style of
# the trust-region literature: a quartic valley against a quadratic, and
# two shifted quadratic bowls.


def _lovison3(x):
    return np.array([x[0] ** 2 + x[1] ** 2, (x[0] - 6.0) ** 2 + (x[1] + 0.3) ** 2])


def _lovison3_jac(x):
    return np.array(
        [[2.0 * x[0], 2.0 * x[1]], [2.0 * (x[0] - 6.0), 2.0 * (x[1] + 0.3)]]
    )


def _lovison4(x):
    bumps = 4.0 * (
        _gauss_bump(x, np.array([-2.0, 0.0])) + _gauss_bump(x, np.array([2.0, 0.0]))
    )
    return np.array(
        [
            x[0] ** 2 + x[1] ** 2 + bumps,
            (x[0] - 6.0) ** 2 + (x[1] + 0.5) ** 2,
        ]
    )


def _lovison4_jac(x):
    c1, c2 = np.array([-2.0, 0.0]), np.array([2.0, 0.0])
    db = -8.0 * (_gauss_bump(x, c1) * (x - c1) + _gauss_bump(x, c2) * (x - c2))
    return np.array(
        [
            [2.0 * x[0] + db[0], 2.0 * x[1] + db[1]],
            [2.0 * (x[0] - 6.0), 2.0 * (x[1] + 0.5)],
        ]
    )


def _mop1(x):
    return 0.5 * np.array([x.dot(x), (x[0] - 2.0) ** 2 + (x[1] - 2.0) ** 2])


def _mop1_jac(x):
    return np.array([x, x - np.array([2.0, 2.0])])


def _t1(x):
    return np.array(
        [(x[0] - 2.0) ** 4 + (x[0] - 2.0 * x[1]) ** 2, 0.5 * float(x.dot(x))]
    )


def _t1_jac(x):
    r = x[0] - 2.0 * x[1]
    return np.array([[4.0 * (x[0] - 2.0) ** 3 + 2.0 * r, -4.0 * r], x])


def _t2(x):
    return 0.5 * np.array(
        [(x[0] - 1.0) ** 2 + x[1] ** 2, (x[0] + 1.0) ** 2 + x[1] ** 2]
    )


def _t2_jac(x):
    return np.array([[x[0] - 1.0, x[1]], [x[0] + 1.0, x[1]]])


# name -> (objectives, jacobian)
_BENCHMARKS = {
    "Lovison3": (_lovison3, _lovison3_jac),
    "Lovison4": (_lovison4, _lovison4_jac),
    "MOP1": (_mop1, _mop1_jac),
    "T1": (_t1, _t1_jac),
    "T2": (_t2, _t2_jac),
}

# Box for uniform random starts; the sources give no canonical boxes, so
# all benchmarks share the default square.
START_BOX = (-2.0, 2.0)


def random_start(problem, seed):
    """Uniform start in the box ``START_BOX``^n, which every benchmark shares."""
    _check_seed(seed)
    lo, hi = START_BOX
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=problem.n)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    n: int
    m: int
    origin: str  # benchmark | regularized | paired
    build: callable = field(repr=False, compare=False)  # () -> a fresh problem


def _entry(origin, build):
    """The catalog entry of ``build``, named and sized by the problem it builds."""
    p = build()
    return CatalogEntry(p.name, p.n, p.m, origin, build)


def _catalog():
    entries = [
        _entry(
            "benchmark",
            functools.partial(MultiObjectiveProblem, name, 2, 2, (0.0, 0.0), *oracles),
        )
        for name, oracles in _BENCHMARKS.items()
    ]
    entries += [
        _entry("regularized", functools.partial(make_regularized, p))
        for p in SCALAR_PROBLEMS.values()
    ]
    pairs = [(SCALAR_PROBLEMS[a], SCALAR_PROBLEMS[b]) for a, b in PAIR_NAMES]
    entries += [_entry("paired", functools.partial(make_pair, *pair)) for pair in pairs]
    return {e.name: e for e in entries}


CATALOG = _catalog()


def get_problem(name):
    """Construct any catalog instance (benchmark, regularized, or paired)."""
    if name not in CATALOG:
        raise KeyError(
            f"unknown problem {name!r}; see list_problems() for valid names"
        )
    return CATALOG[name].build()


def list_problems():
    """Alphabetical (name, n, m, origin) rows for every catalog instance."""
    return [
        (e.name, e.n, e.m, e.origin)
        for e in sorted(CATALOG.values(), key=lambda e: e.name)
    ]
