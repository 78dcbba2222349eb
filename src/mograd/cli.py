"""Command-line interface for the experiment harness.

Subcommands mirror the harness operations: ``list-problems``, ``solve``,
``profile``, ``multitask``, and ``rate-check``.  All outputs are the CSV
and JSON formats documented in :mod:`mograd.harness`; exit status is 0
on success and 2 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import harness, multitask
from .harness import ConfigError
from .problems import InputError
from .suite import list_problems


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
    os.makedirs(args.out, exist_ok=True)
    harness.export([record], "csv", args.out)
    harness.export([record], "json", os.path.join(args.out, "summary.json"))
    print(
        f"{record.problem} {record.solver}: {record.status.value} "
        f"after {record.iterations} iterations, "
        f"cost {harness.budget_cost(record):g}, "
        f"final omega {record.trajectory.omega[-1] if len(record.trajectory) else float('nan'):.3e}"
    )
    return 0


def _cmd_profile(args):
    records = harness.run_experiment(args.config)
    os.makedirs(args.out, exist_ok=True)
    harness.export(records, "csv", os.path.join(args.out, "records"))
    harness.export(records, "json", os.path.join(args.out, "summary.json"))
    table = harness.profile_from_records(records)
    lines = ["tau," + ",".join(table.solvers)]
    for i, tau in enumerate(table.tau):
        vals = ",".join(f"{float(table.curves[s][i])!r}" for s in table.solvers)
        lines.append(f"{float(tau)!r},{vals}")
    with open(os.path.join(args.out, "profile.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
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
    os.makedirs(args.out, exist_ok=True)
    harness.export([result.record], "csv", args.out)
    harness.export(
        [result.record], "json", os.path.join(args.out, "summary.json")
    )
    multitask.to_csv(result.dataset, os.path.join(args.out, "dataset.csv"))
    lines = ["k,acc1,acc2,min_acc"]
    for k in sorted(result.test_accuracy):
        a1, a2, am = result.test_accuracy[k]
        lines.append(f"{k},{a1!r},{a2!r},{am!r}")
    with open(os.path.join(args.out, "accuracy.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
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
    with open(os.path.join(args.out, "multitask.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"{args.example} {args.solver}: best min test accuracy "
        f"{result.best_min_accuracy:.4f} at iteration {result.best_iteration} "
        f"({result.record.wall_time:.2f}s)"
    )
    return 0


def _load_omega(path, varsigma):
    """Omega column and varsigma of an exported run.

    A summary names its run's trajectory CSV and carries its varsigma; a
    bare trajectory CSV takes ``varsigma`` as given.
    """
    if not path.endswith(".json"):
        return harness.load_trajectory_csv(path)["omega"], varsigma
    recs = harness.load_summary(path)["records"]
    if len(recs) != 1:
        raise ConfigError(
            f"{path}: expected exactly one record, found {len(recs)}"
        )
    row = recs[0]
    stem = harness._stem(row["problem"], row["solver"], row["seed"], row["noise_rho"])
    csv_path = os.path.join(os.path.dirname(path), stem + ".csv")
    omega = harness.load_trajectory_csv(csv_path)["omega"]
    return omega, row["config"].get("varsigma")


def _cmd_rate_check(args):
    omega, varsigma = _load_omega(args.record, args.varsigma)
    report = harness._rate_report(omega, varsigma, args.lmax, args.gamma0)
    worst = float(np.max(report.running_avg * np.arange(1, len(report.running_avg) + 1)))
    print(f"theta = {report.theta:g}")
    print(f"max cumulative omega = {worst:g}")
    print(f"bound holds at every iteration: {report.holds}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mograd", description="Multi-objective gradient method experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-problems", help="print the problem catalog")

    p = sub.add_parser("solve", help="run one solver on one problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--solver", required=True, choices=harness.SOLVERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)

    p = sub.add_parser("profile", help="run a config and emit performance profiles")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("multitask", help="train a two-task example")
    p.add_argument("--example", required=True, choices=multitask.KINDS)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--solver", required=True, choices=harness.SOLVERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rate-check", help="check the running-average bound")
    p.add_argument("--record", required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--gamma0", type=float, required=True)
    p.add_argument("--varsigma", type=float, default=1e-2)

    return parser


_COMMANDS = {
    "list-problems": _cmd_list_problems,
    "solve": _cmd_solve,
    "profile": _cmd_profile,
    "multitask": _cmd_multitask,
    "rate-check": _cmd_rate_check,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InputError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
