"""The minimum-norm common descent direction, step by step.

Given the gradients of several objectives at a point, the direction that
decreases all of them at once is found by projecting the origin onto the
convex hull of the gradients.  This script walks through the three
solvers of that subproblem (closed form for two gradients, Wolfe's
active-set method for any number, brute-force grid as a referee) and
checks the optimality conditions by hand.
"""

import numpy as np

from mograd import (
    brute_force_min_norm,
    kkt_residual,
    min_norm_element,
    min_norm_two,
    solve_direction,
)

np.set_printoptions(precision=6, suppress=True)

# Two gradients pointing in conflicting directions: neither is a descent
# direction for the other objective, but a convex combination is.
g1 = np.array([1.0, 2.0])
g2 = np.array([2.0, -1.0])

sol = min_norm_two(g1, g2)
print("two-gradient closed form")
print("  weights      ", sol.weights)
print("  g_s          ", sol.gradient)
print("  omega        ", sol.omega)
print("  direction    ", -sol.gradient)

# Both objectives strictly decrease along -g_s: the directional
# derivatives equal -omega for every gradient with positive weight.
for i, g in enumerate((g1, g2)):
    print(f"  slope along -g_s for objective {i + 1}:", float(g @ -sol.gradient))

# The same subproblem through the active-set solver used for m > 2.
G = np.vstack([g1, g2])
active_set = min_norm_element(G, tol=1e-12)
print("\nactive-set solver agrees:")
print("  |omega difference| =", abs(active_set.omega - sol.omega))
print("  kkt residual       =", kkt_residual(G, active_set.weights))
print("  active-set steps   =", active_set.iterations)

# Three gradients: the solution lives on the edge spanned by the first
# two; the third points away from the origin and gets zero weight.
G3 = np.array([[4.0, 1.0], [1.0, 3.0], [3.0, 4.0]])
sol3 = solve_direction(G3)
grid = brute_force_min_norm(G3, grid_step=0.001)
print("\nthree gradients")
print("  weights (solver)", sol3.weights)
print("  weights (grid)  ", grid.weights)
print("  omega  (solver) ", sol3.omega)
print("  omega  (grid)   ", grid.omega)

# A Pareto-critical point: gradients that cancel each other out.  The
# hull contains the origin, omega is zero, and no descent direction
# exists.
G0 = np.array([[1.0, 0.0], [-1.0, 0.0]])
print("\nopposed gradients =>", solve_direction(G0).omega)
