"""Run records: everything one solver run leaves behind."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class RunStatus(str, enum.Enum):
    CRITICAL = "Critical"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    FAILED = "Failed"


@dataclass
class Trajectory:
    """Per-iteration history of a run.

    ``scale`` holds the Adagrad weight w_k or the accepted Armijo step
    alpha_k depending on the solver (NaN where no step was taken, e.g. the
    terminal iteration of a line-search run).  ``gradient_evals`` and
    ``objective_evals`` are the cumulative counter values after each
    iteration.  ``x`` keeps thinned iterates keyed by iteration index;
    the first and the last recorded iterations are always present.
    """

    omega: np.ndarray
    scale: np.ndarray
    gradient_evals: np.ndarray
    objective_evals: np.ndarray
    x: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.omega)


class _TrajectoryBuilder:
    def __init__(self, thin):
        self.thin = thin
        self.omega = []
        self.scale = []
        self.gradient_evals = []
        self.objective_evals = []
        self.x = {}

    def append(self, k, x, omega, scale, counters):
        self.omega.append(omega)
        self.scale.append(scale)
        self.gradient_evals.append(counters.gradient_evals)
        self.objective_evals.append(counters.objective_evals)
        if k % self.thin == 0:
            self.x[k] = np.array(x)

    def build(self, final_k, final_x):
        if final_k not in self.x:
            self.x[final_k] = np.array(final_x)
        return Trajectory(
            np.asarray(self.omega, dtype=float),
            np.asarray(self.scale, dtype=float),
            np.asarray(self.gradient_evals, dtype=int),
            np.asarray(self.objective_evals, dtype=int),
            self.x,
        )


@dataclass
class RunRecord:
    """Outcome of a single solver run on a single problem instance."""

    problem: str
    solver: str
    config: dict
    seed: int | None
    noise_rho: float
    n: int
    status: RunStatus
    final_x: np.ndarray
    trajectory: Trajectory
    gradient_evals: int
    objective_evals: int
    wall_time: float
    failure_reason: str | None = None

    @property
    def iterations(self):
        return len(self.trajectory)

    def summary(self):
        """JSON-ready summary; deterministic for identical runs."""
        return {
            "problem": self.problem,
            "solver": self.solver,
            "config": self.config,
            "seed": self.seed,
            "noise_rho": self.noise_rho,
            "n": self.n,
            "status": self.status.value,
            "final_x": [float(v) for v in self.final_x],
            "iterations": self.iterations,
            "gradient_evals": self.gradient_evals,
            "objective_evals": self.objective_evals,
            "failure_reason": self.failure_reason,
        }
