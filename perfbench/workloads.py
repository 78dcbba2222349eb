"""The benchmark's workloads and the correctness gate each one passes.

A workload is a list of steps, each a call into mograd's public API that
returns the solver runs it made.  One pass runs every step once, in the
order the acceptance fixtures use; the benchmark then repeats steps until
its time is used up.

Inputs come from the workload seed through ``variant = seed % VARIANTS``:
random starts, the dataset and the bowl centres are drawn from the
variant, and variant 0 is exactly what the acceptance fixtures run.  The
noise replica keeps the fixture's seeds (see ``NoiseReplica``).  Bounding
the seed to a finite set is what lets every input the benchmark can make
be checked against a committed reference.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from mograd import adagrad, descent, harness, multitask
from mograd.problems import MultiObjectiveProblem
from mograd.records import RunStatus
from mograd.suite import CATALOG, SCALAR_PROBLEMS

VARIANTS = 16
SOLVERS = ("adagrad", "descent")


@dataclass
class Run:
    """One solver run (or one harness call) a step made, and its verdict."""

    key: str
    record: object = None  # RunRecord, or None for a harness call or a raise
    extra: dict = field(default_factory=dict)
    error: str | None = None  # set when the run raised or failed its check


def run_key(record):
    return f"{record.problem}|{record.solver}|{record.seed}|{record.noise_rho:g}"


def digest(run):
    """Hash of a run's status, counters, final iterate and omega column."""
    h = hashlib.sha256(run.key.encode())
    r = run.record
    if r is not None:
        h.update(
            repr(
                (r.status.value, r.gradient_evals, r.objective_evals, r.iterations)
            ).encode()
        )
        h.update(np.ascontiguousarray(r.final_x, dtype=float).tobytes())
        h.update(np.ascontiguousarray(r.trajectory.omega, dtype=float).tobytes())
    h.update(repr(sorted(run.extra.get("digest", {}).items())).encode())
    return h.hexdigest()


def acceptance_constant(root, name):
    """A literal module constant of the acceptance suite, read without importing it."""
    path = os.path.join(root, "tests", "test_acceptance.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path} defines no {name}")


REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


class Workload:
    """Base: ``setup`` is the set-up, ``steps`` the timed calls, ``check`` the gate.

    The steps construct their own problems through the public API, so that
    construction is timed inside ``wall_s``; ``setup`` holds only the work
    a user does once before a sweep.
    """

    name = ""
    _reference = None

    def __init__(self, seed, root, out_dir):
        self.variant = seed % VARIANTS
        self.root = root
        self.out_dir = out_dir

    def setup(self):
        """Set-up work beyond importing mograd; timed in a fresh interpreter."""

    def steps(self):
        raise NotImplementedError

    def check(self, run):
        """None if ``run`` is correct, else a one-line reason."""
        raise NotImplementedError

    def reference_entry(self, record):
        """What ``reference.json`` pins for a run."""
        return [record.status.value, record.gradient_evals, record.objective_evals]

    def _reference_entry(self, run):
        if self._reference is None:
            self._reference = load_reference()
        return self._reference.get(self.name, {}).get(run.key)

    def _reference_check(self, run):
        if run.record is None:
            return None
        want = self._reference_entry(run)
        if want is None:
            return f"{run.key}: no committed reference"
        got = self.reference_entry(run.record)
        if got != want:
            return f"{run.key}: (status, gradient_evals, objective_evals) {got} != reference {want}"
        return None


class CatalogSweep(Workload):
    """All 21 catalog problems x {adagrad 10k, descent 2k thin=1}, then profile and export."""

    name = "catalog_sweep"
    CELLS = [("adagrad", {"budget": 10_000}), ("descent", {"budget": 2_000, "thin": 1})]

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self._latest = {}
        self._exports = 0

    def steps(self):
        steps = [
            (f"{name}|{solver}", partial(self._cell, name, solver, kwargs))
            for solver, kwargs in self.CELLS
            for name in sorted(CATALOG)
        ]
        return steps + [("profile+export", self._profile_and_export)]

    def _cell(self, name, solver, kwargs):
        record = harness.run_cell(name, solver, seed=self.variant, **kwargs)
        self._latest[(name, solver)] = record
        return [Run(run_key(record), record)]

    def _profile_and_export(self):
        records = [
            self._latest[(name, solver)]
            for solver, _ in self.CELLS
            for name in sorted(CATALOG)
        ]
        table = harness.profile_from_records(records)
        self._exports += 1
        path = os.path.join(self.out_dir, f"export-{os.getpid()}-{self._exports}")
        harness.export(records, "csv", path)
        harness.export(records, "json", os.path.join(path, "summary.json"))
        solved = {s: float(table.curves[s][-1]) for s in table.solvers}
        return [
            Run(
                "harness|profile+export",
                extra={"path": path, "records": records, "digest": solved},
            )
        ]

    def check(self, run):
        if run.record is not None:
            return self._reference_check(run)
        rows = harness.load_summary(os.path.join(run.extra["path"], "summary.json"))["records"]
        want = [
            (r.problem, r.solver, r.status.value, r.gradient_evals, r.objective_evals)
            for r in run.extra["records"]
        ]
        got = [
            (r["problem"], r["solver"], r["status"], r["gradient_evals"], r["objective_evals"])
            for r in rows
        ]
        if got != want:
            return "export: summary.json does not match the exported records"
        with open(os.path.join(run.extra["path"], "index.csv")) as fh:
            if sum(1 for _ in fh) != len(want) + 1:
                return "export: index.csv does not list every record"
        return None


class NoiseReplica(Workload):
    """noise_distance_table over NOISE_ROWS x both solvers x seeds (0, 1) x rho in {0, 0.05}.

    All rows but BROWNAL-VARDIM, whose cells alone would make a pass of
    the solver sweep too long to repeat within a run.

    The cells use the fixture's seeds whatever the workload seed.  A cell's
    seed sets both its start and its noise stream, and with them how long
    the noisy runs last: with seeds (4, 5) a pass took about 1.5 times as
    long as with seeds (2, 3), in each of three sets of runs.  Drawing the
    seeds from the workload seed would make the timing spread across seeds
    a measure of the inputs rather than of the program.
    """

    name = "noise_replica"
    SEEDS = (0, 1)
    # Its 16 cells took about 12 of the fixture's 17 s; its gradient is
    # still timed through the catalog sweep's BROWNAL-VARDIM cells.
    LEFT_OUT = ("BROWNAL-VARDIM",)

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        rows = acceptance_constant(root, "NOISE_ROWS")
        self.rows = [row for row in rows if row not in self.LEFT_OUT]
        self.seeds = self.SEEDS

    def steps(self):
        # One call per (row, solver, seed) rather than one call for the
        # whole table: the same cells in the same order, timed at a finer
        # grain so that the heavy BROWNAL-VARDIM cells repeat within a box.
        return [
            (f"{row}|{solver}|{seed}", partial(self._table, row, solver, seed))
            for row in self.rows
            for solver in SOLVERS
            for seed in self.seeds
        ]

    def _table(self, row, solver, seed):
        distances, records = harness.noise_distance_table(
            [row], solvers=(solver,), noise_levels=(0.05,), seeds=(seed,), budget=10_000
        )
        runs = [Run(run_key(r), r) for r in records]
        runs[0].extra["digest"] = {f"{k[0]}|{k[1]}|{k[2]:g}": v for k, v in distances.items()}
        return runs

    def check(self, run):
        return self._reference_check(run)


class MultitaskTrain(Workload):
    """run_multitask for both kinds x both solvers, 1000 iterations, N = 10 000."""

    name = "multitask_train"

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.reference_evals = acceptance_constant(root, "REFERENCE_EVALS")

    def setup(self):
        # run_multitask draws its dataset again inside the timed section.
        for kind in multitask.KINDS:
            multitask.generate_dataset(kind, N=10_000, seed=self.variant)

    def steps(self):
        return [
            (f"{kind}|{solver}", partial(self._train, kind, solver))
            for kind in multitask.KINDS
            for solver in SOLVERS
        ]

    def _train(self, kind, solver):
        res = harness.run_multitask(kind, solver, iters=1000, seed=self.variant)
        extra = {
            "kind": kind,
            "best_min_accuracy": res.best_min_accuracy,
            "evals_at_best": res.evals_at_best,
            "digest": {"best": res.best_min_accuracy, "at": res.best_iteration},
        }
        return [Run(run_key(res.record), res.record, extra)]

    def check(self, run):
        r, kind = run.record, run.extra["kind"]
        if run.extra["best_min_accuracy"] < 0.98:
            return f"{run.key}: best min test accuracy {run.extra['best_min_accuracy']} < 0.98"
        ratio = run.extra["evals_at_best"][0] / self.reference_evals[(kind, r.solver)]
        if not 0.2 <= ratio <= 5.0:
            return f"{run.key}: evals at best {ratio:.2f}x the acceptance reference"
        if r.solver == "adagrad" and r.objective_evals != 0:
            return f"{run.key}: adagrad made {r.objective_evals} objective evaluations"
        return None


def _stacked(names):
    """m >= 3 instance from scalar catalog functions of equal n."""
    parts = [SCALAR_PROBLEMS[n] for n in names]
    start = np.mean([np.asarray(p.standard_start, dtype=float) for p in parts], axis=0)

    def objectives(x):
        return np.array([p.value(x) for p in parts])

    def jacobian(x):
        return np.vstack([p.gradient(x) for p in parts])

    return MultiObjectiveProblem("-".join(names), parts[0].n, len(parts), start, objectives, jacobian)


def _bowls(m, n, variant):
    """m shifted bowls 0.5*||x - c_j||^2; the Pareto set is the hull of the centres."""
    rng = np.random.default_rng([variant, m, n])
    centres = rng.standard_normal((m, n))
    start = rng.uniform(-2.0, 2.0, size=n)

    def objectives(x):
        d = x - centres
        return 0.5 * np.einsum("ij,ij->i", d, d)

    def jacobian(x):
        return x - centres

    return MultiObjectiveProblem(f"BOWLS-m{m}-n{n}", n, m, start, objectives, jacobian)


class ManyObjectives(Workload):
    """Both drivers on m >= 3 instances: the only traffic on min_norm_element.

    The reference pins each run's status.  A ``Failed`` run is accepted
    only where the reference has the same min-norm stall: same counters and
    the same stall message.  A run that ends otherwise must match the
    reference status, or, where the reference stalls, may end non-``Failed``
    (the stall fixed); either way its final omega is checked by an
    independent solver.
    """

    name = "many_objectives"
    BUDGET = 500
    STALL = "min-norm solver stalled"

    def _factories(self):
        return [
            partial(_stacked, ("ZANGWIL2", "ROSENBR", "CUBE")),
            partial(_stacked, ("ARWHEAD", "VARDIM", "BROWNAL")),
            partial(_bowls, 3, 10, self.variant),
            partial(_bowls, 5, 10, self.variant),
        ]

    def steps(self):
        return [
            (f"{make().name}|{solver}", partial(self._solve, make, solver))
            for make in self._factories()
            for solver in SOLVERS
        ]

    def _solve(self, make, solver):
        problem = make()
        if solver == "adagrad":
            config = adagrad.AdagradConfig(gradient_budget=self.BUDGET, thin=1)
            record = adagrad.run_adagrad(problem, None, config, seed=self.variant)
        else:
            config = descent.DescentConfig(gradient_budget=self.BUDGET, thin=1)
            record = descent.run_descent(problem, None, config, seed=self.variant)
        return [Run(run_key(record), record, {"make": make})]

    def reference_entry(self, record):
        return super().reference_entry(record) + [record.failure_reason]

    def check(self, run):
        r, want = run.record, self._reference_entry(run)
        if want is None:
            return f"{run.key}: no committed reference"
        got = self.reference_entry(r)
        stall = want[0] == RunStatus.FAILED.value and want[3].startswith(self.STALL)
        if r.status == RunStatus.FAILED:
            if got != want:
                return f"{run.key}: Failed with {got}, reference {want}"
            return None
        if r.status.value != want[0] and not stall:
            return f"{run.key}: status {r.status.value}, reference {want[0]}"
        k = len(r.trajectory) - 1
        G = run.extra["make"]().jacobian(r.trajectory.x[k])
        return independent_omega_check(G, float(r.trajectory.omega[k]), run.key)


def independent_omega_check(G, omega, label):
    """Check ``omega`` against brute force (m <= 4) or an NNLS solve (m = 5)."""
    from scipy.optimize import nnls

    from mograd.subproblem import brute_force_min_norm

    m, n = G.shape
    scale = float(np.abs(G @ G.T).max())
    eps = 1e-9 * (1.0 + scale)
    if m <= 4:
        # A coarse grid keeps the checker's memory out of peak_rss_mb.
        h = 1e-2
        grid = brute_force_min_norm(G, grid_step=h).omega
        # Grid minimum overshoots the true one by at most the first- and
        # second-order terms of a step of l1 length m*h.
        gap = (2 * m * h + (m * h) ** 2) * scale
        if not grid - gap - eps <= omega <= grid + eps:
            return f"{label}: omega {omega:.6e} outside brute-force range [{grid - gap:.6e}, {grid:.6e}]"
        return None
    # Least-distance programming: min ||E u - e_last|| over u >= 0 with
    # E = [G^T; 1^T]; u / sum(u) are the min-norm simplex weights.
    E = np.vstack([G.T, np.ones(m)])
    f = np.zeros(n + 1)
    f[-1] = 1.0
    u, _ = nnls(E, f)
    g = G.T @ (u / u.sum())
    ref = float(g @ g)
    if abs(omega - ref) > 1e-7 * (1.0 + scale):
        return f"{label}: omega {omega:.6e} != NNLS omega {ref:.6e}"
    return None


class SolverSweep(Workload):
    """The catalog sweep, the noise replica and the many-objective runs in one box.

    One box for the three keeps a run long enough (60 s) for the repeats
    of each step to span the machine's slow and fast stretches, within the
    time the benchmark may take; see NOTES.md.  Each part keeps its own
    steps, reference table and check.
    """

    name = "solver_sweep"

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.parts = {p.name: p(seed, root, out_dir) for p in REFERENCED.values()}

    def steps(self):
        return [
            (f"{part.name}|{label}", partial(_tagged, part.name, fn))
            for part in self.parts.values()
            for label, fn in part.steps()
        ]

    def check(self, run):
        return self.parts[run.extra["part"]].check(run)


def _tagged(part, fn):
    runs = fn()
    for r in runs:
        r.extra["part"] = part
    return runs


# Parts whose runs reference.json pins.
REFERENCED = {w.name: w for w in (CatalogSweep, NoiseReplica, ManyObjectives)}
WORKLOADS = {w.name: w for w in (SolverSweep, MultitaskTrain)}
