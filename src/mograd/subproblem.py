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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .problems import ConvergenceError, InputError


class UnsupportedSizeError(InputError):
    """Instance is larger than the routine is designed to handle."""


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
    jacobian : ndarray, shape (m, n)
        The matrix G the solution was computed for.
    kkt_residual : float
        Normalized optimality residual of ``weights`` (see
        :func:`kkt_residual`), computed from ``jacobian`` on first access.
    """

    weights: np.ndarray
    gradient: np.ndarray
    omega: float
    iterations: int
    jacobian: np.ndarray = field(repr=False)

    @cached_property
    def kkt_residual(self):
        return kkt_residual(self.jacobian, self.weights)


def _check_matrix(G):
    G = np.asarray(G, dtype=float)
    if G.ndim != 2:
        raise InputError(f"gradient matrix must be 2-d, got shape {G.shape}")
    if G.size == 0:
        raise InputError(f"gradient matrix is empty, got shape {G.shape}")
    if not np.isfinite(G).all():
        raise InputError("gradient matrix contains non-finite entries")
    return G


def _check_tol(tol, name="tol"):
    """Raise :class:`InputError` unless ``tol`` is a finite number > 0."""
    if not (np.isscalar(tol) and np.isfinite(tol) and tol > 0):
        raise InputError(f"{name} must be a positive number, got {tol}")


def _finish(G, lam, iterations):
    """Clamp stray negatives, renormalize, and package a solution."""
    lam = np.maximum(lam, 0.0)
    lam = lam / lam.sum()
    g = G.T.dot(lam)
    return SubproblemSolution(lam, g, float(g.dot(g)), iterations, G)


def kkt_residual(G, weights):
    """Optimality residual of ``weights`` for the min-norm subproblem.

    With g = G^T weights, an exact minimizer satisfies g_j . g >= ||g||^2
    for every row and equality on the support.  The residual adds the worst
    violation of the first condition to the weighted violations of the
    second, normalized by (1 + ||g||^2); it is zero exactly at a minimizer.
    """
    G = _check_matrix(G)
    lam = np.asarray(weights, dtype=float)
    if lam.shape != (G.shape[0],):
        raise InputError(
            f"weights have shape {lam.shape}, expected ({G.shape[0]},)"
        )
    if lam.min() < -1e-9 or abs(lam.sum() - 1.0) > 1e-9:
        raise InputError("weights must lie on the unit simplex")
    g = G.T @ lam
    sq = float(g @ g)
    inner = G @ g
    worst = max(0.0, float((sq - inner).max()))
    support = float(lam @ np.abs(inner - sq))
    return (worst + support) / (1.0 + sq)


def min_norm_two(g1, g2):
    """Closed-form min-norm element for two gradients.

    The squared norm of lam*g1 + (1-lam)*g2 is a parabola in lam; its
    unconstrained minimizer is clamped to [0, 1].
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if g1.shape != g2.shape or g1.ndim != 1:
        raise InputError("min_norm_two expects two vectors of equal length")
    return _min_norm_rows(_check_matrix(np.array([g1, g2])))


def _min_norm_rows(G):
    """The closed form of :func:`min_norm_two` on a checked (2, n) matrix."""
    g1, g2 = G
    diff = g1 - g2
    denom = float(diff.dot(diff))
    if denom == 0.0:
        lam1 = 1.0
    else:
        lam1 = min(1.0, max(0.0, float(g2.dot(g2 - g1)) / denom))
    # No _finish: lam1 is in [0, 1] and lam1 + (1 - lam1) rounds to exactly
    # 1, so its clamp and renormalization would leave lam as it is.
    lam = np.array([lam1, 1.0 - lam1])
    g = G.T.dot(lam)
    return SubproblemSolution(lam, g, float(g.dot(g)), 0, G)


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


def min_norm_element(G, tol=1e-10):
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
    finitely many steps, at the exact minimizer.

    Raises :class:`ConvergenceError` carrying the last iterate (the norm
    never increases along the iterates) if the steps exceed ten per row,
    which only rounding can cause, and :class:`InputError` for bad inputs.
    """
    _check_tol(tol)
    G = _check_matrix(G)
    m = G.shape[0]
    scale = float(np.abs(G).max(initial=0.0))
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
                return _finish(G, lam, k)
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


def solve_direction(G, tol=1e-10):
    """Subproblem route used inside the solvers.

    Two objectives take the exact closed form; larger instances run
    Wolfe's active-set method, which checks G itself.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim == 2 and G.shape[0] == 2:
        return _min_norm_rows(_check_matrix(G))
    return min_norm_element(G, tol=tol)


def _simplex_grid(m, resolution):
    """All weight vectors with entries k/resolution summing to 1, shape (N, m)."""
    K = resolution
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        k = np.arange(K + 1)
        return np.column_stack([k, K - k]) / K
    if m == 3:
        i, j = np.meshgrid(np.arange(K + 1), np.arange(K + 1), indexing="ij")
        keep = i + j <= K
        i, j = i[keep], j[keep]
        return np.column_stack([i, j, K - i - j]) / K
    # m == 4: chunk over the first coordinate to bound memory.
    blocks = []
    for i in range(K + 1):
        inner = _simplex_grid(3, K - i) * ((K - i) / K) if K - i > 0 else np.zeros((1, 3))
        blocks.append(np.column_stack([np.full(len(inner), i / K), inner]))
    return np.vstack(blocks)


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
    if not 0.0 < grid_step <= 0.1:
        raise InputError(f"grid_step must be in (0, 0.1], got {grid_step}")
    K = int(np.ceil(1.0 / grid_step))
    key = (m, K)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = np.ascontiguousarray(_simplex_grid(m, K).T)
    gT = _GRID_CACHE[key]
    M = G @ G.T
    values = ((M @ gT) * gT).sum(axis=0)
    j = int(np.argmin(values))
    return _finish(G, gT[:, j].copy(), gT.shape[1])
