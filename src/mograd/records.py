"""Run records: everything one solver run leaves behind."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

import numpy as np


class RunStatus(str, enum.Enum):
    CRITICAL = "Critical"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    FAILED = "Failed"


# A trajectory's per-iteration columns, in CSV order: (Trajectory field,
# CSV header, dtype).  The builder, Trajectory and the CSV export follow it.
TRAJECTORY_COLUMNS = (
    ("omega", "omega", float),
    ("scale", "weight_or_step", float),
    ("gradient_evals", "gradient_evals", int),
    ("objective_evals", "objective_evals", int),
)


@dataclass
class Trajectory:
    """Per-iteration history of a run: one array per TRAJECTORY_COLUMNS entry.

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
        self.values = []  # row after row, each in TRAJECTORY_COLUMNS order
        self.x = {}

    def append(self, k, x, omega, scale, counters):
        self.values += (omega, scale, counters.gradient_evals, counters.objective_evals)
        if k % self.thin == 0:
            self.x[k] = np.array(x)

    def build(self, final_k, final_x):
        if final_k not in self.x:
            self.x[final_k] = np.array(final_x)
        step = len(TRAJECTORY_COLUMNS)
        arrays = {
            name: np.array(self.values[i::step], dtype=dtype)
            for i, (name, _, dtype) in enumerate(TRAJECTORY_COLUMNS)
        }
        return Trajectory(**arrays, x=self.x)


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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        del out["trajectory"], out["wall_time"]
        out.update(status=self.status.value, final_x=self.final_x.tolist())
        out["iterations"] = self.iterations
        return out
