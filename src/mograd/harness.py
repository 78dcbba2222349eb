"""Experiment orchestration, cost accounting, and file I/O.

The harness owns everything the solvers should not know about: budget
cost in the gradient-evaluation currency (objective calls charged at
1/n), Dolan-More performance profiles on a log10 scale, the running
average bound check for the adaptive solver, noise-robustness distance
tables, declarative experiment configs, and every file format but a dataset's.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import multitask
from .adagrad import AdagradConfig, SolverConfig, run_adagrad
from .descent import DescentConfig, run_descent
from .problems import (
    InputError,
    NoiseSpec,
    _check_positive,
    _check_seed,
    _is_finite_number,
    _is_int,
    _is_number,
    wrap_noisy,
)
from .records import TRAJECTORY_COLUMNS, RunStatus
from .suite import CATALOG, random_start

SOLVERS = ("adagrad", "descent")

# The subdirectory of a profile export's trajectory CSVs; a solve or a
# multitask export writes its CSV beside its summary.
PROFILE_RECORDS = "records"


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
    omega_sum: float  # sum of omega, the smallest theta the run satisfies


def theta_constant(varsigma, l_max, gamma0):
    """The rate constant max{s, (s/2)e^(2 Gamma0 / L), 2048 L^4 / s}."""
    _check_positive(l_max, "l_max")
    if not _is_finite_number(gamma0):
        raise InputError(f"gamma0 must be a finite real number, got {gamma0!r}")
    AdagradConfig(varsigma=varsigma)  # the one varsigma check
    exponent = 2.0 * gamma0 / l_max
    try:
        gap_term = 0.5 * varsigma * math.exp(exponent)
    except OverflowError:  # e^exponent is beyond the float range; the term may not be
        half = _inf_on_overflow(lambda: math.exp(exponent / 2))
        gap_term = 0.5 * varsigma * half * half  # a float product overflows to inf
    smooth_term = _inf_on_overflow(lambda: 2048.0 * l_max**4 / varsigma)
    return max(varsigma, gap_term, smooth_term)


def _inf_on_overflow(compute):
    """``compute()``, or inf if its value is beyond the float range."""
    try:
        return compute()
    except OverflowError:
        return math.inf


def rate_check(record, l_max, gamma0):
    """Check avg(omega_0..omega_k) <= theta/(k+1) at every recorded k.

    ``record`` may be a RunRecord or anything with a ``trajectory.omega``
    array and a config echo; theta uses the echo's varsigma.
    """
    return _rate_report(
        record.trajectory.omega, record.config.get("varsigma"), l_max, gamma0
    )


def _rate_report(omega, varsigma, l_max, gamma0):
    """The check of :func:`rate_check` on an omega column.

    The column must hold at least one recorded iteration, and every entry
    must be a finite number >= 0; else a :class:`ConfigError`.
    """
    if varsigma is None:
        raise ConfigError("rate check needs varsigma, which only adagrad runs record")
    theta = theta_constant(varsigma, l_max, gamma0)
    omega = np.asarray(omega, dtype=float)
    if not omega.size:
        raise ConfigError("rate check needs at least one recorded iteration; omega is empty")
    bad = np.flatnonzero(~((omega >= 0) & (omega < math.inf)))
    if bad.size:
        i = int(bad[0])
        raise ConfigError(f"omega must be finite and >= 0, got {float(omega[i])!r} at row {i}")
    k = np.arange(1, len(omega) + 1)
    cumsum = np.cumsum(omega)
    running = cumsum / k
    bound = theta / k
    return RateReport(theta, running, bound, bool(np.all(running <= bound)), float(cumsum[-1]))


def _check_problem(name):
    """Raise :class:`ConfigError` unless ``name`` names a catalog problem."""
    if not (isinstance(name, str) and name in CATALOG):
        raise ConfigError(f"unknown problem {name!r}")


def _solver(solver, budget, criticality_tol, varsigma, beta, thin):
    """``solver``'s runner and config; ``thin=None`` means max(1, budget // 10 000).

    The runner is read from this module's globals per call: perfbench patches them.
    """
    if thin is None:
        # A budget that is not an int gets its InputError from the config.
        thin = max(1, budget // 10_000) if _is_int(budget) else 1
    shared = dict(criticality_tol=criticality_tol, gradient_budget=budget, thin=thin)
    if solver == "adagrad":
        return run_adagrad, AdagradConfig(varsigma=varsigma, **shared)
    if solver == "descent":
        return run_descent, DescentConfig(beta=beta, **shared)
    raise ConfigError(f"unknown solver {solver!r}; valid: {SOLVERS}")


# The cell parameters and their defaults, read from the config classes (thin=None
# derives thin from the budget), solver-specific first: load_config checks in order.
_CELL_DEFAULTS = {
    "varsigma": AdagradConfig.varsigma,
    "beta": DescentConfig.beta,
    "budget": SolverConfig.gradient_budget,
    "criticality_tol": SolverConfig.criticality_tol,
    "thin": None,
}


def run_cell(problem_name, solver, seed=0, rho=0.0, **params):
    """Run one experiment cell: problem x solver x seed x noise level.

    ``params`` are the cell parameters of a config (``budget``,
    ``criticality_tol``, ``varsigma``, ``beta``, ``thin``), with the same
    defaults.  Benchmark problems start uniformly in their box (seeded);
    all other instances use their standard start.  The same seed also
    seeds the noise stream when rho != 0; :class:`NoiseSpec` checks both
    before the problem is built.
    """
    _check_problem(problem_name)
    spec = NoiseSpec(rho=rho, seed=seed)
    entry = CATALOG[problem_name]
    problem = entry.build()
    x0 = None
    if entry.origin == "benchmark":
        x0 = random_start(problem, seed)
    if spec.rho != 0:
        problem = wrap_noisy(problem, spec)
    run, config = _solver(solver, **{**_CELL_DEFAULTS, **params})
    return run(problem, x0, config, seed=seed)


_CONFIG_DEFAULTS = {
    "problems": None,
    "solvers": list(SOLVERS),
    "seeds": [0],
    "noise": [0.0],
    **_CELL_DEFAULTS,
}

# The list fields of a config, each with the check that its every item passes.
_LIST_CHECKS = {
    "problems": _check_problem,
    "solvers": lambda solver: _solver(solver, **_CELL_DEFAULTS),
    "seeds": _check_seed,
    "noise": NoiseSpec,
}


def _check_field(field, value):
    """Check each item of a list field, or a cell parameter in every solver's config."""
    if field in _CELL_DEFAULTS:
        for solver in SOLVERS:
            _solver(solver, **{**_CELL_DEFAULTS, field: value})
        return
    if not (isinstance(value, list) and value):
        raise ConfigError(f"must be a non-empty list, got {value!r}")
    for item in value:
        _LIST_CHECKS[field](item)


def load_config(source):
    """Read and validate an experiment config (a dict or a JSON file path).

    A config that is not a JSON object, a field's error (each field is
    checked by the code that owns it) or a repeated cell (named by its
    trajectory file stem) is a :class:`ConfigError` raised before any cell runs.
    """
    cfg = source
    if isinstance(source, (str, bytes, os.PathLike)):
        cfg = load_summary(source)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {cfg!r}")
    unknown = set(cfg) - set(_CONFIG_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    merged = {**_CONFIG_DEFAULTS, **cfg}
    for field in (*_LIST_CHECKS, *_CELL_DEFAULTS):
        try:
            _check_field(field, merged[field])
        except (ConfigError, InputError) as exc:
            raise ConfigError(f"config field {field!r}: {exc}") from exc
    cells = set()
    for cell in _cells(merged):
        if cell in cells:
            raise ConfigError(f"config repeats the cell {_stem(*cell)}")
        cells.add(cell)
    return merged


def _cells(cfg):
    """The (problem, solver, seed, rho) cells of a config, in run order."""
    return itertools.product(*(cfg[field] for field in _LIST_CHECKS))


def run_experiment(config):
    """Run every (problem, solver, seed, noise) cell of a config.

    Individual run failures become Failed records, never exceptions.
    Returns the records in deterministic cell order.
    """
    cfg = load_config(config)
    params = {k: cfg[k] for k in _CELL_DEFAULTS}
    return [
        run_cell(name, solver, seed=seed, rho=rho, **params)
        for name, solver, seed, rho in _cells(cfg)
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
    cell = {**_CELL_DEFAULTS, "budget": iters, "criticality_tol": 1e-12, "thin": 1}
    run, config = _solver(solver, **cell)
    record = run(multitask.as_problem(dataset), None, config, seed=seed)

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
    return f"{problem}__{solver}__seed{seed}__rho{_rho_text(noise_rho)}"


def _rho_text(rho):
    """``rho`` written with ``:g`` if that reads back as ``rho``, else its repr."""
    text = f"{rho:g}"
    return text if float(text) == rho else repr(float(rho))


def export(records, format, path):
    """Write records as trajectory CSVs or a JSON summary.

    ``format="csv"``: ``path`` is a directory; one trajectory file per
    record (column ``k``, then the headers of ``TRAJECTORY_COLUMNS`` in
    ``records.py``) plus an index.csv keying file names to cells.  Two
    records with one file stem raise :class:`InputError` before any file
    is written.  ``format="json"``: ``path`` is a file; one summary
    object per record including the budget cost and wall time.  Output
    is byte-stable for identical records.
    """
    if format == "csv":
        stems = [_stem(r.problem, r.solver, r.seed, r.noise_rho) for r in records]
        if len(set(stems)) < len(stems):
            shared = next(s for s in stems if stems.count(s) > 1)
            raise InputError(f"two records export to one trajectory file, {shared}.csv")
        os.makedirs(path, exist_ok=True)
        trajectory_header = ["k", *(csv for _, csv, _ in TRAJECTORY_COLUMNS)]
        index_rows = []
        for r, stem in zip(records, stems):
            t = r.trajectory
            columns = [getattr(t, name).tolist() for name, _, _ in TRAJECTORY_COLUMNS]
            rows = zip(range(len(t)), *columns)
            _write_table(os.path.join(path, stem + ".csv"), trajectory_header, rows)
            index_rows.append((f"{stem}.csv", r.problem, r.solver, str(r.seed),
                               _rho_text(r.noise_rho), r.status.value, budget_cost(r)))
        header = ["file", "problem", "solver", "seed", "noise_rho", "status", "cost"]
        _write_table(os.path.join(path, "index.csv"), header, index_rows)
    elif format == "json":
        payload = {
            "records": [
                {**r.summary(), "cost": budget_cost(r), "wall_time": r.wall_time}
                for r in records
            ]
        }
        _write_json(path, payload)
    else:
        raise InputError(f"format must be 'csv' or 'json', got {format!r}")


def _write_table(path, header, rows):
    """Write a CSV, LF-ended: each number by ``repr`` (exact on reading back), text as is.

    Pass numpy values as ``.tolist()``, since numpy 2's ``repr`` names the type.
    """
    lines = (",".join([c if type(c) is str else repr(c) for c in row]) for row in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def _write_json(path, payload):
    """Write ``payload`` as JSON: indent 2, sorted keys, numpy scalars as Python values."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_scalar)
    with open(path, "w") as fh:  # opened once the payload encodes
        fh.write(text + "\n")


def _json_scalar(value):
    """The Python value of a numpy scalar, for ``json``; anything else is an error."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def load_summary(path):
    """Parse a JSON file (a summary or a config); a bad file is a ConfigError naming it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def load_trajectory_csv(path):
    """Read one trajectory CSV back into arrays (dict of columns).

    A file numpy cannot parse (empty, or with a ragged row) is a
    :class:`ConfigError` naming it; a file that cannot be opened is an ``OSError``.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # numpy's "Empty input file"
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
        except (UserWarning, ValueError) as exc:
            reason = " ".join(str(exc).split())  # numpy's message spans lines
            raise ConfigError(f"{path}: not a trajectory CSV: {reason}") from exc
    data = np.atleast_1d(data)
    return {name: np.asarray(data[name]) for name in data.dtype.names}


def _field(path, obj, key):
    """``obj[key]`` of a mapping read from ``path``, or a ConfigError naming both."""
    if not (isinstance(obj, dict) and key in obj):
        raise ConfigError(f"{path}: missing field {key!r}")
    return obj[key]


def _load_omega(path, varsigma):
    """Omega column and varsigma of an exported run.

    A summary names its run's trajectory CSV, beside it or in its
    ``PROFILE_RECORDS`` subdirectory, and carries its varsigma; a bare
    trajectory CSV takes ``varsigma`` as given.  A missing field or
    column, or a summary of another shape, is a :class:`ConfigError`.
    """
    if not path.endswith(".json"):
        return _field(path, load_trajectory_csv(path), "omega"), varsigma
    recs = _field(path, load_summary(path), "records")
    if not (isinstance(recs, list) and len(recs) == 1):
        found = len(recs) if isinstance(recs, list) else repr(recs)
        raise ConfigError(f"{path}: expected exactly one record, found {found}")
    row = recs[0]
    cell = [_field(path, row, key) for key in ("problem", "solver", "seed", "noise_rho")]
    if not _is_number(cell[-1]):
        raise ConfigError(f"{path}: field 'noise_rho' must be a number, got {cell[-1]!r}")
    config = _field(path, row, "config")
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: field 'config' must be an object, got {config!r}")
    here, name = os.path.dirname(path), _stem(*cell) + ".csv"
    csv_path, nested = os.path.join(here, name), os.path.join(here, PROFILE_RECORDS, name)
    if not os.path.exists(csv_path) and os.path.exists(nested):
        csv_path = nested
    omega = _field(csv_path, load_trajectory_csv(csv_path), "omega")
    return omega, config.get("varsigma")
