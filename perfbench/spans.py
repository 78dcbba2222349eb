"""Spans around calls into mograd's layers, recorded from outside the library.

:func:`instrument` swaps timing wrappers onto the public functions of each
layer for the duration of a ``with`` block and puts the originals back on
exit, so tracing lives in this process only and no library file changes.

A span's self time is its duration minus the time its child spans cover.
Per-iteration calls are far too many to keep one by one, so each is folded
into a per-(parent span, layer) aggregate; coarse calls (a solver run, a
harness call) are kept as individual spans with parent links and the
attributes of the problem they ran on.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span recorder; ``clock`` is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # name -> {"calls", "total_s", "self_s", "max_s", plus probe counters}
        self.totals = {}
        # Kept spans: dicts with id, parent, name, start, end, self_s, attrs.
        self.spans = []
        # (kept parent id, name) -> {"calls", "total_s", "self_s"}
        self.folded = {}
        # Open frames: [child time, id of the nearest kept span or None].
        self._stack = []

    def wrap(self, name, fn, *, keep=False, attrs=None, variant=None, probe=None):
        """Return ``fn`` timed as a span called ``name``.

        ``keep`` records each call as its own span (with ``attrs(args, kwargs)``
        as its attributes); otherwise calls are folded under the nearest kept
        ancestor.  ``variant(args)`` names a sub-family (``name.variant``)
        that is tallied as well.  ``probe(args)`` runs before the call and
        returns ``done(result, exc) -> dict`` of counters to add.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent_kept = stack[-1][1] if stack else None
            span_id = None
            if keep:
                span_id = len(tracer.spans)
                tracer.spans.append(
                    {
                        "id": span_id,
                        "parent": parent_kept,
                        "name": name,
                        "attrs": attrs(args, kwargs) if attrs else {},
                    }
                )
            frame = [0.0, span_id if keep else parent_kept]
            done = probe(args) if probe else None
            stack.append(frame)
            start = tracer.clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                extra = done(result, exc) if done else {}
                keys = [name]
                if variant is not None:
                    keys.append(f"{name}.{variant(args)}")
                for key in keys:
                    tracer._tally(key, duration, own, extra)
                if keep:
                    tracer.spans[span_id].update(
                        start=start, end=end, self_s=own, error=type(exc).__name__ if exc else None
                    )
                else:
                    agg = tracer.folded.setdefault(
                        (parent_kept, name), {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                    )
                    agg["calls"] += 1
                    agg["total_s"] += duration
                    agg["self_s"] += own

        traced.__wrapped__ = fn
        return traced

    def _tally(self, key, duration, own, extra):
        t = self.totals.get(key)
        if t is None:
            t = self.totals[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
        t["calls"] += 1
        t["total_s"] += duration
        t["self_s"] += own
        t["max_s"] = max(t["max_s"], duration)
        for k, v in extra.items():
            t[k] = t.get(k, 0) + v

    def dump(self):
        """Kept spans plus folded aggregates, as one JSON-ready dict."""
        folded = [
            {"parent": parent, "name": name, **agg}
            for (parent, name), agg in self.folded.items()
        ]
        return {"spans": self.spans, "folded": folded, "totals": self.totals}


@contextmanager
def patched(targets):
    """Set ``owner.attr = value`` for each ``(owner, attr, value)``; undo on exit."""
    saved = []
    try:
        for owner, attr, value in targets:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _problem_attrs(args, kwargs):
    p = args[0]
    return {"problem": p.name, "n": p.n, "m": p.m, "seed": kwargs.get("seed")}


def _cell_attrs(args, kwargs):
    return {"problem": args[0], "solver": args[1], **kwargs}


def _n_variant(args):
    return f"n{args[0].n}"


def _armijo_probe(args):
    counters = args[0].counters
    before = counters.objective_evals

    def done(result, exc):
        # One evaluation is the reference f(x); the rest are candidate steps.
        return {
            "candidates": max(counters.objective_evals - before - 1, 0),
            "accepted": int(exc is None),
        }

    return done


def _min_norm_probe(args):
    def done(result, exc):
        if exc is None:
            return {"iterations": result.iterations, "failed": 0}
        best = getattr(exc, "best", None)
        return {"iterations": getattr(best, "iterations", 0), "failed": 1}

    return done


def _tree_bytes(path):
    if os.path.isdir(path):
        return sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(path)
            for f in files
        )
    return os.path.getsize(path) if os.path.exists(path) else 0


def _export_probe(args):
    def done(result, exc):
        return {"bytes": _tree_bytes(args[2]) if exc is None else 0}

    return done


@contextmanager
def instrument(tracer):
    """Wrap every traced layer boundary of mograd for the ``with`` block."""
    from mograd import adagrad, descent, harness, multitask, problems, subproblem

    MOP = problems.MultiObjectiveProblem
    w = tracer.wrap
    run_adagrad = w("adagrad.run_adagrad", adagrad.run_adagrad, keep=True, attrs=_problem_attrs)
    run_descent = w("descent.run_descent", descent.run_descent, keep=True, attrs=_problem_attrs)
    solve = w("subproblem.solve_direction", subproblem.solve_direction)
    original_init = MOP.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        # Catalog and benchmark-built oracles form the suite layer; the
        # multitask oracles are timed through multitask.losses/loss_gradients.
        if getattr(self._objectives, "__module__", None) != multitask.__name__:
            self._objectives = w("suite.objectives", self._objectives)
            self._jacobian = w("suite.jacobian", self._jacobian)

    targets = [
        (MOP, "__init__", init),
        (MOP, "jacobian", w("problems.jacobian", MOP.jacobian, variant=_n_variant)),
        (MOP, "evaluate", w("problems.evaluate", MOP.evaluate)),
        (problems.NoisyProblem, "jacobian", w("problems.noise", problems.NoisyProblem.jacobian)),
        (problems.NoisyProblem, "evaluate", w("problems.noise", problems.NoisyProblem.evaluate)),
        (subproblem, "min_norm_element", w(
            "subproblem.min_norm_element", subproblem.min_norm_element, probe=_min_norm_probe
        )),
        (subproblem, "kkt_residual", w("subproblem.kkt_residual", subproblem.kkt_residual)),
        (adagrad, "solve_direction", solve),
        (descent, "solve_direction", solve),
        (adagrad, "adagrad_step", w("adagrad.adagrad_step", adagrad.adagrad_step)),
        (adagrad, "run_adagrad", run_adagrad),
        (harness, "run_adagrad", run_adagrad),
        (descent, "run_descent", run_descent),
        (harness, "run_descent", run_descent),
        (descent, "armijo_backtrack", w(
            "descent.armijo_backtrack", descent.armijo_backtrack, probe=_armijo_probe
        )),
        (harness, "run_cell", w("harness.run_cell", harness.run_cell, keep=True, attrs=_cell_attrs)),
        (harness, "noise_distance_table", w(
            "harness.noise_distance_table", harness.noise_distance_table, keep=True
        )),
        (harness, "run_multitask", w("harness.run_multitask", harness.run_multitask, keep=True, attrs=_cell_attrs)),
        (harness, "profile_from_records", w(
            "harness.profile_from_records", harness.profile_from_records, keep=True
        )),
        (harness, "export", w("harness.export", harness.export, keep=True, probe=_export_probe)),
        (multitask, "losses", w("multitask.losses", multitask.losses)),
        (multitask, "loss_gradients", w("multitask.loss_gradients", multitask.loss_gradients)),
        (multitask, "accuracy", w("multitask.accuracy", multitask.accuracy)),
        (multitask, "generate_dataset", w(
            "multitask.generate_dataset", multitask.generate_dataset, keep=True
        )),
    ]
    with patched(targets):
        yield tracer


def layer_metrics(totals, runs, names):
    """Values of the per-layer metrics ``names`` from span totals and the pass's runs.

    ``runs`` are the pass's :class:`workloads.Run` outcomes; values for a
    layer the workload never calls are 0.  ``driver.iters_per_s`` and
    ``trace.overhead_frac`` need the untraced runs and are filled in by
    the caller.
    """

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    def per_call_us(name):
        calls = get(name, "calls")
        return get(name, "total_s") / calls * 1e6 if calls else 0.0

    values = {}
    for name in names:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = get(layer, "calls")
        elif field == "self_s":
            values[name] = get(layer, "self_s")
        elif field == "us_per_call":
            values[name] = per_call_us(layer)

    records = [r.record for r in runs if r.record is not None]
    iterations = sum(r.iterations for r in records)
    driver_self = get("adagrad.run_adagrad", "self_s") + get("descent.run_descent", "self_s")
    candidates = get("descent.armijo_backtrack", "candidates")
    accuracies = [r.extra["best_min_accuracy"] for r in runs if "best_min_accuracy" in r.extra]
    values.update(
        {
            "multitask.min_test_acc": min(accuracies) if accuracies else 0.0,
            "subproblem.min_norm_element.iterations": get("subproblem.min_norm_element", "iterations"),
            "subproblem.min_norm_element.failed": get("subproblem.min_norm_element", "failed"),
            "subproblem.min_norm_element.max_ms": get("subproblem.min_norm_element", "max_s") * 1e3,
            "driver.us_per_iter": driver_self / iterations * 1e6 if iterations else 0.0,
            "driver.iters_per_s": 0.0,
            "driver.gradient_evals": sum(r.gradient_evals for r in records),
            "driver.objective_evals": sum(r.objective_evals for r in records),
            "driver.failed_frac": (
                sum(r.status.value == "Failed" for r in records) / len(records)
                if records
                else 0.0
            ),
            "descent.candidates": candidates,
            "descent.accept_ratio": (
                get("descent.armijo_backtrack", "accepted") / candidates if candidates else 0.0
            ),
            "harness.export.bytes": get("harness.export", "bytes"),
            "trace.overhead_frac": 0.0,
        }
    )
    return {name: _plain(values[name]) for name in names}


def _plain(v):
    return int(v) if isinstance(v, (int, np.integer)) else float(v)
