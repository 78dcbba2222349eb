"""Experiment orchestration, cost accounting, and file I/O.

The harness owns everything the solvers should not know about: budget
cost in the gradient-evaluation currency (objective calls charged at
1/n), Dolan-More performance profiles on a log10 scale, the running
average bound check for the adaptive solver, noise-robustness distance
tables, declarative experiment configs, and CSV/JSON export.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import multitask
from .adagrad import AdagradConfig, run_adagrad
from .descent import DescentConfig, run_descent
from .problems import InputError, NoiseSpec, wrap_noisy
from .records import RunStatus
from .suite import CATALOG, get_problem, random_start

SOLVERS = ("adagrad", "descent")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field or line."""


def budget_cost(record):
    """Evaluation cost: gradient_evals + objective_evals / n.

    Objective calls are cheap relative to a full Jacobian, so they count
    at one n-th of a gradient evaluation.  Objective-function-free runs
    cost exactly their gradient_evals.
    """
    return record.gradient_evals + record.objective_evals / record.n


@dataclass
class ProfileTable:
    """Performance-profile curves over a log10 ratio grid.

    ``costs`` maps (problem, solver) to a float cost or None for a
    failure; ``ratios`` holds cost / best-cost per cell (inf for
    failures and for problems nobody solved); ``curves`` maps solver ->
    fraction of problems with log10(ratio) <= tau, per tau sample.
    """

    problems: list
    solvers: list
    costs: dict
    ratios: dict
    tau: np.ndarray
    curves: dict


def performance_profile(costs, tau_grid=None):
    """Dolan-More profile of a cost table.

    ``costs`` maps (problem, solver) pairs to a positive cost, or to
    None/inf for a failed run.  Failures never count as solved at any
    tau; the denominator is always the full problem count.
    """
    if not costs:
        raise InputError("empty cost table")
    problems = sorted({p for p, _ in costs})
    solvers = sorted({s for _, s in costs})
    if tau_grid is None:
        tau_grid = np.linspace(0.0, 4.0, 81)
    tau = np.asarray(tau_grid, dtype=float)

    def solved(c):
        return c is not None and math.isfinite(c)

    best = {}
    for p in problems:
        cell = [costs[(p, s)] for s in solvers if solved(costs.get((p, s)))]
        best[p] = min(cell) if cell else None

    ratios = {}
    for p in problems:
        for s in solvers:
            c = costs.get((p, s))
            if solved(c) and best[p] is not None and best[p] > 0:
                ratios[(p, s)] = c / best[p]
            else:
                ratios[(p, s)] = math.inf

    curves = {}
    for s in solvers:
        logr = np.array(
            [
                math.log10(ratios[(p, s)]) if math.isfinite(ratios[(p, s)]) else math.inf
                for p in problems
            ]
        )
        curves[s] = np.array([(logr <= t).mean() for t in tau])
    return ProfileTable(problems, solvers, costs, ratios, tau, curves)


@dataclass
class RateReport:
    """Running-average bound check for an adaptive-weight run."""

    theta: float
    running_avg: np.ndarray
    bound: np.ndarray
    holds: bool


def theta_constant(varsigma, l_max, gamma0):
    """The rate constant max{s, (s/2)e^(2 Gamma0 / L), 2048 L^4 / s}."""
    if l_max <= 0:
        raise InputError(f"l_max must be > 0, got {l_max}")
    if not 0 < varsigma < 1:
        raise InputError(f"varsigma must be in (0, 1), got {varsigma}")
    return max(
        varsigma,
        0.5 * varsigma * math.exp(2.0 * gamma0 / l_max),
        2048.0 * l_max**4 / varsigma,
    )


def rate_check(record, l_max, gamma0):
    """Check avg(omega_0..omega_k) <= theta/(k+1) at every recorded k.

    ``record`` may be a RunRecord or anything with a ``trajectory.omega``
    array and a config echo; theta uses the echo's varsigma.
    """
    return _rate_report(
        record.trajectory.omega, record.config.get("varsigma"), l_max, gamma0
    )


def _rate_report(omega, varsigma, l_max, gamma0):
    """The check of :func:`rate_check` on an omega column."""
    if varsigma is None:
        raise ConfigError("rate check needs varsigma, which only adagrad runs record")
    theta = theta_constant(varsigma, l_max, gamma0)
    omega = np.asarray(omega, dtype=float)
    k = np.arange(1, len(omega) + 1)
    running = np.cumsum(omega) / k
    bound = theta / k
    return RateReport(theta, running, bound, bool(np.all(running <= bound)))


def _solver_config(
    solver, budget, criticality_tol, thin=None,
    varsigma=AdagradConfig.varsigma, beta=DescentConfig.beta,
):
    """``solver``'s config; ``thin=None`` means max(1, budget // 10 000)."""
    if thin is None:
        thin = max(1, budget // 10_000)
    shared = dict(criticality_tol=criticality_tol, gradient_budget=budget, thin=thin)
    if solver == "adagrad":
        return AdagradConfig(varsigma=varsigma, **shared)
    if solver == "descent":
        return DescentConfig(beta=beta, **shared)
    raise ConfigError(f"unknown solver {solver!r}; valid: {SOLVERS}")


def _run_solver(solver, problem, x0, seed, **params):
    """Build ``solver``'s config and run it through this module's runner names."""
    config = _solver_config(solver, **params)
    run = run_adagrad if solver == "adagrad" else run_descent
    return run(problem, x0, config, seed=seed)


def run_cell(
    problem_name,
    solver,
    seed=0,
    rho=0.0,
    budget=100_000,
    criticality_tol=1e-6,
    varsigma=1e-2,
    beta=0.1,
    thin=None,
):
    """Run one experiment cell: problem x solver x seed x noise level.

    Benchmark problems start uniformly in their box (seeded); all other
    instances use their standard start.  The same seed also seeds the
    noise stream when rho != 0; a negative or non-finite rho raises
    :class:`InputError`.
    """
    if problem_name not in CATALOG:
        raise ConfigError(f"unknown problem {problem_name!r}")
    problem = get_problem(problem_name)
    x0 = None
    if CATALOG[problem_name].origin == "benchmark":
        x0 = random_start(problem, seed)
    if rho != 0:
        problem = wrap_noisy(problem, NoiseSpec(rho=rho, seed=seed))
    return _run_solver(
        solver, problem, x0, seed, budget=budget, criticality_tol=criticality_tol,
        varsigma=varsigma, beta=beta, thin=thin,
    )


# The config fields passed unchanged to every run_cell call.
_CELL_PARAMS = ("budget", "criticality_tol", "varsigma", "beta", "thin")

_CONFIG_DEFAULTS = {
    "problems": None,
    "solvers": list(SOLVERS),
    "seeds": [0],
    "noise": [0.0],
    "budget": 100_000,
    "criticality_tol": 1e-6,
    "varsigma": 1e-2,
    "beta": 0.1,
    "thin": None,
}


def load_config(source):
    """Read and validate an experiment config (a dict or a JSON file path)."""
    if isinstance(source, dict):
        cfg = dict(source)
    else:
        try:
            with open(source) as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}:{exc.lineno}: {exc.msg}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from exc
    unknown = set(cfg) - set(_CONFIG_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    merged = {**_CONFIG_DEFAULTS, **cfg}
    if not merged["problems"]:
        raise ConfigError("config field 'problems': at least one name required")
    for name in merged["problems"]:
        if name not in CATALOG:
            raise ConfigError(f"config field 'problems': unknown problem {name!r}")
    budget = merged["budget"]
    if not _is_int(budget) or budget < 1:
        raise ConfigError("config field 'budget': must be an int >= 1")
    for field in ("criticality_tol", "varsigma", "beta"):
        if not _is_number(merged[field]):
            raise ConfigError(f"config field {field!r}: must be a number")
    if merged["thin"] is not None and not _is_int(merged["thin"]):
        raise ConfigError("config field 'thin': must be an int or null")
    for solver in merged["solvers"]:
        if solver not in SOLVERS:
            raise ConfigError(f"config field 'solvers': unknown solver {solver!r}")
        try:
            _solver_config(solver, **{k: merged[k] for k in _CELL_PARAMS})
        except InputError as exc:
            raise ConfigError(f"config for solver {solver!r}: {exc}") from exc
    seeds = merged["seeds"]
    if not isinstance(seeds, list) or not all(_is_int(s) for s in seeds):
        raise ConfigError("config field 'seeds': must be a list of ints")
    noise = merged["noise"]
    if not isinstance(noise, list) or not all(
        _is_number(rho) and math.isfinite(rho) and rho >= 0 for rho in noise
    ):
        raise ConfigError("config field 'noise': must be a list of finite levels >= 0")
    return merged


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, (float, np.floating))


def run_experiment(config):
    """Run every (problem, solver, seed, noise) cell of a config.

    Individual run failures become Failed records, never exceptions.
    Returns the records in deterministic cell order.
    """
    cfg = load_config(config)
    params = {k: cfg[k] for k in _CELL_PARAMS}
    return [
        run_cell(name, solver, seed=seed, rho=rho, **params)
        for name in cfg["problems"]
        for solver in cfg["solvers"]
        for seed in cfg["seeds"]
        for rho in cfg["noise"]
    ]


def profile_from_records(records):
    """Cost table and profile over records; Critical status counts as solved.

    Multi-seed cells are aggregated by averaging costs over the seeds on
    which the solver solved the instance; a solver failing every seed of
    an instance is a failure on it.
    """
    cells = {}
    for r in records:
        cells.setdefault((r.problem, r.solver), []).append(r)
    costs = {}
    for (p, s), rs in cells.items():
        ok = [budget_cost(r) for r in rs if r.status == RunStatus.CRITICAL]
        costs[(p, s)] = float(np.mean(ok)) if ok else None
    return performance_profile(costs)


def noise_distances(records):
    """Distance of each noisy final iterate from its noiseless reference.

    Records are grouped by (problem, solver, seed); the rho=0 record of a
    group is the reference.  Returns rows keyed (problem, solver, rho)
    with distances averaged over seeds.
    """
    refs = {}
    for r in records:
        if r.noise_rho == 0.0:
            refs[(r.problem, r.solver, r.seed)] = r
    sums = {}
    for r in records:
        if r.noise_rho == 0.0:
            continue
        key = (r.problem, r.solver, r.seed)
        if key not in refs:
            raise ConfigError(
                f"missing noiseless reference run for {key[0]}/{key[1]} seed {key[2]}"
            )
        d = float(np.linalg.norm(r.final_x - refs[key].final_x))
        sums.setdefault((r.problem, r.solver, r.noise_rho), []).append(d)
    return {key: float(np.mean(ds)) for key, ds in sums.items()}


def noise_distance_table(
    problem_names, solvers=SOLVERS, noise_levels=(0.05,), seeds=(0,), **cell_kwargs
):
    """Run the noise experiment's cells, rho = 0 first, and reduce them to distances."""
    records = run_experiment(
        {
            "problems": list(problem_names),
            "solvers": list(solvers),
            "seeds": list(seeds),
            "noise": [0.0, *noise_levels],
            **cell_kwargs,
        }
    )
    return noise_distances(records), records


@dataclass
class MultitaskResult:
    record: object
    test_accuracy: dict  # iteration -> (acc1, acc2, min_acc)
    best_min_accuracy: float
    best_iteration: int
    evals_at_best: tuple  # (gradient_evals, objective_evals)
    dataset: multitask.Dataset  # the data the run trained and tested on


def run_multitask(kind, solver, iters=1000, seed=0, N=10_000):
    """Train one multi-task example and track test accuracy per iterate.

    The solver runs for ``iters`` gradient evaluations (one per
    iteration) with its default parameters; accuracy is computed after
    the run from the stored iterates, so it never touches the problem's
    counters.
    """
    dataset = multitask.generate_dataset(kind, N=N, seed=seed)
    problem = multitask.as_problem(dataset)
    record = _run_solver(
        solver, problem, None, seed, budget=iters, criticality_tol=1e-12, thin=1
    )

    accs = {}
    best = (-1.0, -1)
    for k in sorted(record.trajectory.x):
        accs[k] = multitask.accuracy(dataset, "test", record.trajectory.x[k])
        if accs[k][2] > best[0]:
            best = (accs[k][2], k)
    best_min, best_k = best
    upto = min(best_k, len(record.trajectory) - 1)
    evals = (
        int(record.trajectory.gradient_evals[upto]),
        int(record.trajectory.objective_evals[upto]),
    )
    return MultitaskResult(record, accs, best_min, best_k, evals, dataset)


def _stem(problem, solver, seed, noise_rho):
    """File stem of one run's trajectory CSV."""
    return f"{problem}__{solver}__seed{seed}__rho{noise_rho:g}"


def export(records, format, path):
    """Write records as trajectory CSVs or a JSON summary.

    ``format="csv"``: ``path`` is a directory; one trajectory file per
    record (columns k, omega, weight_or_step, gradient_evals,
    objective_evals) plus an index.csv keying file names to cells.
    ``format="json"``: ``path`` is a file; one summary object per record
    including the budget cost and wall time.  Output is byte-stable for
    identical records.
    """
    if format == "csv":
        os.makedirs(path, exist_ok=True)
        index_rows = []
        for r in records:
            stem = _stem(r.problem, r.solver, r.seed, r.noise_rho)
            t = r.trajectory
            lines = ["k,omega,weight_or_step,gradient_evals,objective_evals"]
            for k in range(len(t)):
                lines.append(
                    f"{k},{float(t.omega[k])!r},{float(t.scale[k])!r},"
                    f"{t.gradient_evals[k]},{t.objective_evals[k]}"
                )
            with open(os.path.join(path, stem + ".csv"), "w") as fh:
                fh.write("\n".join(lines) + "\n")
            index_rows.append(
                f"{stem}.csv,{r.problem},{r.solver},{r.seed},"
                f"{r.noise_rho:g},{r.status.value},{budget_cost(r)!r}"
            )
        header = "file,problem,solver,seed,noise_rho,status,cost"
        with open(os.path.join(path, "index.csv"), "w") as fh:
            fh.write("\n".join([header] + index_rows) + "\n")
    elif format == "json":
        payload = {
            "records": [
                {**r.summary(), "cost": budget_cost(r), "wall_time": r.wall_time}
                for r in records
            ]
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise InputError(f"format must be 'csv' or 'json', got {format!r}")


def load_summary(path):
    """Re-parse a JSON summary written by :func:`export`."""
    with open(path) as fh:
        return json.load(fh)


def load_trajectory_csv(path):
    """Read one trajectory CSV back into arrays (dict of columns)."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    data = np.atleast_1d(data)
    return {name: np.asarray(data[name]) for name in data.dtype.names}
