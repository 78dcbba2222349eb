"""Command-line interface for the experiment harness.

Subcommands mirror the harness operations: ``list-problems``, ``solve``,
``profile``, ``multitask``, and ``rate-check``: each parses, calls
:mod:`mograd.harness`, which owns every file format but the dataset's,
and prints.  Exit status is 0, or 2 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness, multitask
from .adagrad import AdagradConfig, SolverConfig
from .harness import ConfigError
from .problems import InputError
from .suite import list_problems


def _export(records, out, csv_dir=""):
    """Trajectory CSVs into ``out/csv_dir``, the summary into ``out/summary.json``."""
    os.makedirs(out, exist_ok=True)
    harness.export(records, "csv", os.path.join(out, csv_dir))
    harness.export(records, "json", os.path.join(out, "summary.json"))


def _cmd_list_problems(args):
    rows = list_problems()
    width = max(len(r[0]) for r in rows)
    print(f"{'name':<{width}}  n   m  origin")
    for name, n, m, origin in rows:
        print(f"{name:<{width}}  {n:<3} {m}  {origin}")
    return 0


def _cmd_solve(args):
    record = harness.run_cell(
        args.problem,
        args.solver,
        seed=args.seed,
        rho=args.noise,
        budget=args.budget,
        criticality_tol=args.tol,
    )
    _export([record], args.out)
    print(
        f"{record.problem} {record.solver}: {record.status.value} "
        f"after {record.iterations} iterations, "
        f"cost {harness.budget_cost(record):g}, "
        f"final omega {record.trajectory.omega[-1] if len(record.trajectory) else float('nan'):.3e}"
    )
    return 0


def _cmd_profile(args):
    records = harness.run_experiment(args.config)
    _export(records, args.out, harness.PROFILE_RECORDS)
    table = harness.profile_from_records(records)
    rows = zip(table.tau.tolist(), *(table.curves[s].tolist() for s in table.solvers))
    harness._write_table(os.path.join(args.out, "profile.csv"), ["tau", *table.solvers], rows)
    solved = {
        s: float(table.curves[s][-1]) for s in table.solvers
    }
    print(f"{len(records)} runs over {len(table.problems)} problems")
    for s, frac in solved.items():
        print(f"  {s}: solve fraction {frac:.3f}")
    return 0


def _cmd_multitask(args):
    result = harness.run_multitask(
        args.example, args.solver, iters=args.iters, seed=args.seed
    )
    _export([result.record], args.out)
    multitask.to_csv(result.dataset, os.path.join(args.out, "dataset.csv"))
    rows = ((k, *result.test_accuracy[k]) for k in sorted(result.test_accuracy))
    header = ["k", "acc1", "acc2", "min_acc"]
    harness._write_table(os.path.join(args.out, "accuracy.csv"), header, rows)
    report = {
        "example": args.example,
        "solver": args.solver,
        "iterations": args.iters,
        "best_min_accuracy": result.best_min_accuracy,
        "best_iteration": result.best_iteration,
        "gradient_evals_at_best": result.evals_at_best[0],
        "objective_evals_at_best": result.evals_at_best[1],
        "wall_time": result.record.wall_time,
    }
    harness._write_json(os.path.join(args.out, "multitask.json"), report)
    print(
        f"{args.example} {args.solver}: best min test accuracy "
        f"{result.best_min_accuracy:.4f} at iteration {result.best_iteration} "
        f"({result.record.wall_time:.2f}s)"
    )
    return 0


def _cmd_rate_check(args):
    omega, varsigma = harness._load_omega(args.record, args.varsigma)
    report = harness._rate_report(omega, varsigma, args.lmax, args.gamma0)
    print(f"theta = {report.theta:g}")
    print(f"max cumulative omega = {report.omega_sum:g}")
    print(f"bound holds at every iteration: {report.holds}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mograd", description="Multi-objective gradient method experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-problems", help="print the problem catalog")
    p.set_defaults(run=_cmd_list_problems)

    p = sub.add_parser("solve", help="run one solver on one problem")
    p.set_defaults(run=_cmd_solve)
    p.add_argument("--problem", required=True)
    p.add_argument("--solver", required=True, choices=harness.SOLVERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--budget", type=int, default=SolverConfig.gradient_budget)
    p.add_argument("--tol", type=float, default=SolverConfig.criticality_tol)
    p.add_argument("--out", required=True)

    p = sub.add_parser("profile", help="run a config and emit performance profiles")
    p.set_defaults(run=_cmd_profile)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("multitask", help="train a two-task example")
    p.set_defaults(run=_cmd_multitask)
    p.add_argument("--example", required=True, choices=multitask.KINDS)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--solver", required=True, choices=harness.SOLVERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rate-check", help="check the running-average bound")
    p.set_defaults(run=_cmd_rate_check)
    p.add_argument("--record", required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--gamma0", type=float, required=True)
    p.add_argument("--varsigma", type=float, default=AdagradConfig.varsigma)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
