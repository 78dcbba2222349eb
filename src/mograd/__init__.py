"""Gradient methods for smooth unconstrained multi-objective optimization.

The package centers on the minimum-norm common descent direction: the
element of smallest norm in the convex hull of the objective gradients.
Its squared norm is the criticality measure omega, and two solvers drive
it to zero: an objective-function-free adaptive method (``run_adagrad``)
that never evaluates an objective value, and an Armijo backtracking
baseline (``run_descent``).  A problem suite, synthetic multi-task
classification instances, and an experiment harness with a CLI round out
the toolkit.
"""

from .adagrad import AdagradConfig, adagrad_step, run_adagrad
from .descent import DescentConfig, armijo_backtrack, run_descent
from .harness import (
    ConfigError,
    budget_cost,
    export,
    noise_distance_table,
    noise_distances,
    performance_profile,
    profile_from_records,
    rate_check,
    run_cell,
    run_experiment,
    run_multitask,
    theta_constant,
)
from .multitask import (
    Dataset,
    KINDS,
    accuracy,
    as_problem,
    circle_label,
    from_csv,
    generate_dataset,
    loss_gradients,
    losses,
    quadrant_label,
    split_params,
    to_csv,
)
from .problems import (
    ConvergenceError,
    EvaluationOverflowError,
    InputError,
    LineSearchError,
    MultiObjectiveProblem,
    NoiseSpec,
    wrap_noisy,
)
from .records import RunStatus
from .subproblem import (
    UnsupportedSizeError,
    brute_force_min_norm,
    kkt_residual,
    min_norm_element,
    min_norm_two,
    solve_direction,
)
from .suite import (
    CATALOG,
    SCALAR_PROBLEMS,
    get_problem,
    list_problems,
    make_pair,
    make_regularized,
    quadratic_pair,
    random_start,
)

__all__ = [
    "AdagradConfig",
    "CATALOG",
    "ConfigError",
    "ConvergenceError",
    "Dataset",
    "DescentConfig",
    "EvaluationOverflowError",
    "InputError",
    "KINDS",
    "LineSearchError",
    "MultiObjectiveProblem",
    "NoiseSpec",
    "RunStatus",
    "SCALAR_PROBLEMS",
    "UnsupportedSizeError",
    "accuracy",
    "adagrad_step",
    "armijo_backtrack",
    "as_problem",
    "brute_force_min_norm",
    "budget_cost",
    "circle_label",
    "export",
    "from_csv",
    "generate_dataset",
    "get_problem",
    "kkt_residual",
    "list_problems",
    "loss_gradients",
    "losses",
    "make_pair",
    "make_regularized",
    "min_norm_element",
    "min_norm_two",
    "noise_distance_table",
    "noise_distances",
    "performance_profile",
    "profile_from_records",
    "quadrant_label",
    "quadratic_pair",
    "random_start",
    "rate_check",
    "run_adagrad",
    "run_cell",
    "run_descent",
    "run_experiment",
    "run_multitask",
    "solve_direction",
    "split_params",
    "theta_constant",
    "to_csv",
    "wrap_noisy",
]

__version__ = "0.1.0"
