"""Minimum-norm element of the convex hull of gradient rows.

Given a Jacobian G with rows g_1, ..., g_m, the common-descent-direction
subproblem is

    min_{lam in simplex} || G^T lam ||^2,

whose minimizer gives the combined gradient g = G^T lam.  Its squared norm
omega is the criticality measure: omega == 0 exactly at Pareto critical
points, and -g is a direction along which every objective instantaneously
decreases whenever omega > 0.

Three routes are provided: a closed form for two objectives
(:func:`min_norm_two`), Wolfe's active-set min-norm-point method for any m
(:func:`min_norm_element`), which is exact and ends in finitely many
steps, and an exhaustive grid search used as a test oracle
(:func:`brute_force_min_norm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import ConvergenceError, InputError, _check_array, _check_positive


class UnsupportedSizeError(InputError):
    """Instance is larger than the routine is designed to handle."""


# The default tolerance of the min-norm stopping test, and of the solvers' configs.
DEFAULT_TOL = 1e-10

# Active-set steps per objective after which min_norm_element takes itself
# to be cycling.  Exact arithmetic never reaches it; rounding can, when tol
# asks for more precision than the Gram matrix carries.
_STEPS_PER_ROW = 10


@dataclass
class SubproblemSolution:
    """Solution of the min-norm subproblem for one Jacobian.

    Attributes
    ----------
    weights : ndarray, shape (m,)
        Simplex weights of the minimizing convex combination.
    gradient : ndarray, shape (n,)
        The combined gradient G^T weights; its negation is the common
        descent direction.
    omega : float
        Squared norm of ``gradient``; zero iff the point is Pareto critical.
    iterations : int
        Active-set steps of :func:`min_norm_element`, rows added and rows
        dropped alike (0 for closed forms).
    """

    weights: np.ndarray
    gradient: np.ndarray
    omega: float
    iterations: int


def _check_matrix(G):
    """``G`` checked as a 2-d gradient matrix (:func:`_check_array`), not empty."""
    G = _check_array(G, (None, None), "gradient matrix")
    if G.size == 0:
        raise InputError(f"gradient matrix is empty, got shape {G.shape}")
    return G


# Where max|G| of an (m, n) G lies in (_TINY, sqrt(_HUGE / 4n)), each squared
# norm and inner product the closed form or the residual takes of G's rows,
# of their difference or of a convex combination is a normal float: each is
# at most 4 n max|G|^2, and the squares of G's entries do not underflow.
_TINY = 2.0**-500
_HUGE = float(np.finfo(float).max)


def _solution(G, lam, iterations):
    """The solution with weights ``lam`` for ``G``: g = G^T lam and omega = ||g||^2."""
    g = G.T.dot(lam)
    return SubproblemSolution(lam, g, float(g.dot(g)), iterations)


def _finish(G, lam, iterations):
    """Clamp stray negatives and renormalize; omega may overflow to inf, unwarned."""
    lam = np.maximum(lam, 0.0)
    with np.errstate(over="ignore"):
        return _solution(G, lam / lam.sum(), iterations)


def kkt_residual(G, weights):
    """Optimality residual of ``weights`` for the min-norm subproblem.

    With g = G^T weights, an exact minimizer satisfies g_j . g >= ||g||^2
    for every row and equality on the support.  The residual adds the worst
    violation of the first condition to the weighted violations of the
    second, normalized by (1 + ||g||^2); it is zero exactly at a minimizer.
    A G whose products could overflow is divided by max|G| first, and the
    normalization by max|G|^2 with it, so the residual stays finite.
    """
    G = _check_matrix(G)
    lam = _check_array(weights, (G.shape[0],), "weights")
    if not (lam.min() >= -1e-9 and abs(lam.sum() - 1.0) <= 1e-9):
        raise InputError("weights must lie on the unit simplex")
    top = float(np.abs(G).max())
    unit = 1.0
    if not 4.0 * G.shape[1] * top * top < _HUGE:
        G, unit = G / top, 1.0 / top / top
    g = G.T @ lam
    sq = float(g @ g)
    inner = G @ g
    worst = max(0.0, float((sq - inner).max()))
    support = float(lam @ np.abs(inner - sq))
    # unit + sq is 0 only if g underflows to 0 in units of max|G|.
    return (worst + support) / (unit + sq) if unit + sq else 0.0


def min_norm_two(g1, g2):
    """Closed-form min-norm element for two gradients.

    The squared norm of lam*g1 + (1-lam)*g2 is a parabola in lam; its
    unconstrained minimizer is clamped to [0, 1].
    """
    g1 = _check_array(g1, (None,), "g1")
    g2 = _check_array(g2, g1.shape, "g2")
    return _min_norm_rows(np.array([g1, g2]))


def _min_norm_rows(G):
    """The closed form of :func:`min_norm_two` on a (2, n) float matrix.

    The scale test that picks the route also checks G.  In range, the
    weights come from G itself.  Out of range, they come from G / max|G|,
    the scale-first rule of ``dnrm2`` (J. L. Blue, ACM TOMS 4(1), 1978)
    that :func:`min_norm_element` follows, and only omega can overflow, to
    inf and without a warning.
    """
    top = float(abs(G).max(initial=0.0))  # nan if an entry is
    if _TINY < top and 4.0 * G.shape[1] * top * top < _HUGE:
        return _solution(G, _two_weights(G), 0)
    G = _check_matrix(G)
    lam = _two_weights(G / top) if top else np.array([1.0, 0.0])
    with np.errstate(over="ignore"):
        return _solution(G, lam, 0)


def _two_weights(G):
    """The weights [lam1, 1 - lam1] of the min-norm point of G's two rows."""
    g2 = G[1]
    diff = G[0] - g2
    denom = float(diff.dot(diff))
    if denom == 0.0:
        lam1 = 1.0
    else:
        # -(g2 . diff) is g2 . (g2 - g1) bit for bit, since rounding is
        # sign-symmetric; a -0 numerator is a 0 weight, as +0 is.
        lam1 = min(1.0, max(0.0, -float(g2.dot(diff)) / denom))
    # No _finish: lam1 is in [0, 1] and lam1 + (1 - lam1) rounds to exactly
    # 1, so its clamp and renormalization would leave lam as it is.
    return np.array([lam1, 1.0 - lam1])


def _affine_minimizer(M):
    """Weights of the min-norm point of the affine hull of rows with Gram ``M``.

    Stationarity of lam^T M lam with sum(lam) == 1 is the linear system
    [M, 1; 1^T, 0] [lam; nu] = [0; 1].  Least squares also covers affinely
    dependent rows, whose system is singular.
    """
    k = M.shape[0]
    A = np.ones((k + 1, k + 1))
    A[:k, :k] = M
    A[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    return np.linalg.lstsq(A, rhs, rcond=None)[0][:k]


def min_norm_element(G, tol=DEFAULT_TOL):
    """Minimize ||G^T lam||^2 over the unit simplex by Wolfe's method.

    Wolfe's min-norm-point algorithm (P. Wolfe, "Finding the nearest point
    in a polytope", Math. Programming 11, 1976) on the Gram matrix
    M = G G^T, with G first divided by its largest absolute entry so that
    the steps and the stopping test do not depend on the scale of G.  The
    support starts at the shortest row.  A minor step moves lam to the
    min-norm point of the support's affine hull; when that point leaves the
    simplex, lam stops at the boundary and the rows whose weight reached
    zero are dropped.  Once lam is that point, a major step adds the row
    minimizing (M lam)_j.  The method ends
    when every row has (M lam)_j >= lam^T M lam - tol * max_j M_jj, or when
    the minimizing row is already in the support, so that no row misses
    that bound by more than rounding.  In exact arithmetic it ends after
    finitely many steps, at the exact minimizer.  Where the final support
    is two rows and omega from G is out of range, the weights of those rows
    are the m = 2 closed form's on G / max|G|, so that two rows cancelling
    at a large scale give the omega that :func:`solve_direction`'s m = 2
    route gives them, not inf from the rounding of the solve.

    A non-empty 2-d float64 G is checked by the max|G| that scales it,
    and by :func:`_check_matrix` only where that max is not finite; any
    other G is converted and checked by :func:`_check_matrix` first.

    Raises :class:`ConvergenceError` carrying the last iterate (the norm
    never increases along the iterates) if the steps exceed ten per row,
    which only rounding can cause, and :class:`InputError` for bad inputs.
    """
    _check_positive(tol, "tol")
    if type(G) is not np.ndarray or G.dtype.char != "d" or G.ndim != 2 or not G.size:
        G = _check_matrix(G)
    m = G.shape[0]
    scale = float(np.abs(G).max(initial=0.0))
    if not math.isfinite(scale):  # nan or inf if an entry is
        _check_matrix(G)
    if scale == 0.0:
        # All-zero gradients: every convex combination is the zero vector.
        return _finish(G, np.full(m, 1.0 / m), 0)
    Gs = G / scale
    M = Gs @ Gs.T
    slack = tol * float(M.diagonal().max())
    lam = np.zeros(m)
    lam[np.argmin(M.diagonal())] = 1.0
    support = lam > 0.0

    steps = _STEPS_PER_ROW * m
    for k in range(steps):
        s = np.flatnonzero(support)
        mu = _affine_minimizer(M[np.ix_(s, s)])
        if mu.min() >= 0.0:
            lam[s] = mu
            inner = M @ lam
            j = int(np.argmin(inner))
            # A support row misses lam^T M lam only by the solve's rounding.
            if support[j] or inner[j] >= lam @ inner - slack:
                sol = _finish(G, lam, k)
                if not math.isfinite(sol.omega) and len(s) == 2:
                    # Two rows that cancel at a large scale: the rounding of
                    # the solve's weights can put omega out of range.  Take
                    # them from the m = 2 closed form on G / max|G|, as
                    # solve_direction's m = 2 route does.
                    lam[s] = _two_weights(Gs[s])
                    sol = _finish(G, lam, k)
                return sol
            support[j] = True
        else:
            # Move toward mu until the first weight reaches zero; drop it.
            cur = lam[s]
            out = np.flatnonzero(mu < 0.0)
            ratios = cur[out] / (cur[out] - mu[out])
            i = int(np.argmin(ratios))
            lam[s] = np.maximum(cur + ratios[i] * (mu - cur), 0.0)
            lam[s[out[i]]] = 0.0
            support = lam > 0.0
    raise ConvergenceError(
        f"min-norm solver cycled: no optimal support after {steps} active-set "
        f"steps (tol {tol:.1e})",
        _finish(G, lam, steps),
    )


def solve_direction(G, tol=DEFAULT_TOL):
    """Subproblem route used inside the solvers.

    Two objectives take the exact closed form; larger instances run
    Wolfe's active-set method.  Each route checks a float64 G once, as a
    run's ``jacobian`` returns it, by the max|G| it takes anyway, and
    :func:`_check_matrix` where that max is out of range (the closed form)
    or not finite (Wolfe's method).  Any other G is first converted and
    checked by :func:`_check_matrix`.
    """
    if type(G) is not np.ndarray or G.dtype.char != "d":
        G = _check_matrix(G)
    if G.ndim == 2 and G.shape[0] == 2:
        return _min_norm_rows(G)
    return min_norm_element(G, tol=tol)


def _simplex_grid(m, resolution):
    """All weight vectors with entries k/resolution summing to 1, shape (N, m).

    Rows are in lexicographic order of their first m - 1 counts, and every
    entry is an exact count divided by the resolution.
    """
    K = resolution
    counts = np.indices((K + 1,) * (m - 1)).reshape(m - 1, (K + 1) ** (m - 1))
    counts = counts[:, counts.sum(axis=0) <= K]
    return np.vstack([counts, K - counts.sum(axis=0)]).T / K


# Simplex grids by (m, resolution), one weight vector per column: (m, N).
_GRID_CACHE = {}


def brute_force_min_norm(G, grid_step=0.01):
    """Exhaustive simplex-grid minimizer of ||G^T lam||^2, for m <= 4.

    The grid uses resolution ceil(1/grid_step), so spacing never exceeds
    ``grid_step``.  Intended as an independent oracle for the closed-form
    and active-set solvers; cost grows like (1/grid_step)^(m-1).
    """
    G = _check_matrix(G)
    m = G.shape[0]
    if m > 4:
        raise UnsupportedSizeError(
            f"brute force supports at most 4 objectives, got {m}"
        )
    _check_positive(grid_step, "grid_step")
    if grid_step > 0.1:
        raise InputError(f"grid_step must be <= 0.1, got {grid_step!r}")
    K = int(np.ceil(1.0 / grid_step))
    key = (m, K)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = np.ascontiguousarray(_simplex_grid(m, K).T)
    gT = _GRID_CACHE[key]
    M = G @ G.T
    values = ((M @ gT) * gT).sum(axis=0)
    j = int(np.argmin(values))
    return _finish(G, gT[:, j].copy(), gT.shape[1])
