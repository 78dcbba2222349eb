"""Self-tests of the benchmark's own code; run with ``python3 -m pytest perfbench``."""

import json
import os
import re

import numpy as np
import pytest

from types import SimpleNamespace

import run
import spans
import speed
from mograd.records import RunStatus
from workloads import (
    REFERENCED,
    ManyObjectives,
    Run,
    SolverSweep,
    acceptance_constant,
    independent_omega_check,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _fake_clock():
    now = [0.0]

    def advance(dt):
        now[0] += dt

    return (lambda: now[0]), advance


def test_self_time_subtracts_child_spans():
    clock, advance = _fake_clock()
    tracer = spans.Tracer(clock=clock)
    inner = tracer.wrap("inner", lambda: advance(2.0))

    def body():
        advance(1.0)
        inner()
        advance(3.0)
        inner()

    outer = tracer.wrap("outer", body, keep=True, attrs=lambda a, k: {"problem": "P"})
    outer()

    assert tracer.totals["outer"] == {"calls": 1, "total_s": 8.0, "self_s": 4.0, "max_s": 8.0}
    assert tracer.totals["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0, "max_s": 2.0}
    (span,) = tracer.spans
    assert (span["parent"], span["attrs"], span["self_s"]) == (None, {"problem": "P"}, 4.0)
    assert (span["start"], span["end"]) == (0.0, 8.0)
    (folded,) = tracer.dump()["folded"]
    assert folded == {"parent": 0, "name": "inner", "calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_raising_span_is_closed_and_counted():
    clock, advance = _fake_clock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        advance(1.5)
        raise ValueError("x")

    failing = tracer.wrap("boom", boom, probe=lambda args: lambda res, exc: {"failed": int(exc is not None)})

    def body():
        with pytest.raises(ValueError):
            failing()
        advance(0.5)

    tracer.wrap("outer", body)()
    assert tracer.totals["boom"]["failed"] == 1
    assert tracer.totals["outer"]["self_s"] == 0.5
    assert tracer._stack == []


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_are_well_formed():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_layer_metrics_report_every_name():
    names = [name for name, _ in run.LAYER_METRICS]
    assert list(spans.layer_metrics({}, [], names)) == names


class _Steps:
    """A stand-in workload whose single step returns a counter-dependent run."""

    def __init__(self, values):
        self.values = iter(values)

    def steps(self):
        return [("step", lambda: [Run("k", extra={"digest": {"v": next(self.values)}})])]


def test_box_flags_a_repeat_that_differs_from_the_first_run():
    box = run.run_box(_Steps([1, 1, 2] + [2] * 10_000), seconds=0.05)
    assert len(box.durations[0]) >= 3
    assert len(box.scaled[0]) == len(box.durations[0])
    assert box.wall_s == min(box.scaled[0])
    assert box.errors and all("differs" in e for e in box.errors)
    assert box.attempted == len(box.durations[0])


def test_speed_sampler_rescales_each_segment_and_skips_samples():
    r = speed.REFERENCE_S
    sampler = speed.SpeedSampler(work=lambda: None)
    # Three samples; the middle one, at t=10, took twice the reference time.
    sampler.starts = [0.0, 10.0, 20.0]
    sampler.durations = [r, 2 * r, r]
    # [4, 10] and [10 + 2r, 16 + 2r]: 12 s at the median sample time, r.
    assert sampler.scaled(4.0, 16.0 + 2 * r) == pytest.approx(12.0)
    # In a stretch where every sample takes 2r the same interval reads 6 s.
    sampler.durations = [2 * r] * 3
    assert sampler.scaled(4.0, 16.0 + 2 * r) == pytest.approx(6.0)


def test_speed_sampler_restores_the_alarm_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    # Samples slower than the period must neither nest nor outlive the sampler.
    with speed.SpeedSampler(period=0.001, work=lambda: time.sleep(0.002)) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.02:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.starts) >= 3


def _record(status, evals=(10, 20), reason=None):
    return SimpleNamespace(
        status=RunStatus(status), gradient_evals=evals[0], objective_evals=evals[1],
        failure_reason=reason,
    )


def test_many_objectives_accepts_only_the_referenced_stall():
    workload = ManyObjectives(0, run.ROOT, None)
    stall = "min-norm solver stalled at residual 1.000e-03 (tol 1.0e-12)"
    workload._reference = {"many_objectives": {
        "S": ["Failed", 10, 20, stall],
        "B": ["Critical", 10, 20, None],
    }}

    def check(key, record):
        return workload.check(Run(key, record))

    assert check("S", _record("Failed", reason=stall)) is None
    # A stall that ends sooner or differently is not the referenced one.
    assert check("S", _record("Failed", evals=(5, 20), reason=stall))
    assert check("S", _record("Failed", reason=stall.replace("1.000e-03", "2.000e-03")))
    # A run the reference does not expect to fail, or a new cell.
    assert check("B", _record("Failed", reason="line search failed"))
    assert check("B", _record("BudgetExhausted"))
    assert check("X", _record("Critical"))


def test_solver_sweep_routes_each_run_to_its_part():
    sweep = SolverSweep(0, run.ROOT, None)
    labels = [label for label, _ in sweep.steps()]
    assert {label.split("|")[0] for label in labels} == set(REFERENCED)
    assert not any(label.startswith("noise_replica|BROWNAL-VARDIM|") for label in labels)
    stall = "min-norm solver stalled at residual 1.000e-03 (tol 1.0e-12)"
    sweep.parts["many_objectives"]._reference = {"many_objectives": {"S": ["Failed", 10, 20, stall]}}
    tagged = Run("S", _record("Failed", reason=stall), {"part": "many_objectives"})
    assert sweep.check(tagged) is None
    tagged.record.gradient_evals = 5
    assert sweep.check(tagged)


def _patched_namespaces():
    from mograd import adagrad, descent, harness, multitask, problems, subproblem

    owners = (adagrad, descent, harness, multitask, subproblem,
              problems.MultiObjectiveProblem, problems.NoisyProblem)
    return {owner: dict(vars(owner)) for owner in owners}


def _assert_same(before, after):
    for owner, attrs in before.items():
        assert set(attrs) == set(after[owner]), owner
        for key, value in attrs.items():
            assert after[owner][key] is value, (owner, key)


def test_instrument_restores_originals_on_exit_and_on_error():
    from mograd import harness

    before = _patched_namespaces()
    original = harness.run_cell
    with spans.instrument(spans.Tracer()):
        assert harness.run_cell is not original
        assert harness.run_cell.__wrapped__ is original
    _assert_same(before, _patched_namespaces())

    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Tracer()):
            raise RuntimeError("inside")
    _assert_same(before, _patched_namespaces())


def test_independent_omega_check_accepts_true_and_rejects_wrong_omega():
    from mograd import min_norm_element

    rng = np.random.default_rng(5)
    for shape in ((3, 5), (4, 6), (5, 10)):
        G = rng.standard_normal(shape)
        omega = min_norm_element(G, tol=1e-12).omega
        assert independent_omega_check(G, omega, "ok") is None
        assert independent_omega_check(G, omega + 0.1 * (1 + omega), "high") is not None


def test_acceptance_constants_are_read_from_the_suite():
    rows = acceptance_constant(run.ROOT, "NOISE_ROWS")
    assert len(rows) == 8 and "BROWNAL-VARDIM" in rows
    evals = acceptance_constant(run.ROOT, "REFERENCE_EVALS")
    assert set(evals) == {(k, s) for k in ("quadrants", "diagonals") for s in ("adagrad", "descent")}
