"""mograd benchmark: one workload, a closed loop of solver runs, one process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in ``workloads.py``.  The steps of the workload run
round-robin, with no threads and no pool, until ``--seconds`` is used up;
the first pass always completes, and each step reports its fastest
execution, rescaled to a fixed machine speed (``speed.py``).  Every run of
the first pass is then checked for correctness, and every repeated step
must reproduce it exactly.  Set-up is timed last,
in fresh interpreters, and its median is reported as ``setup_s``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs one
traced pass in a separate process (timing wrappers from ``spans.py``),
requires its records to be bit-identical to the untraced pass, and prints
the per-layer metrics.  The last line of standard output is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import mograd  # noqa: E402

import spans  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import WORKLOADS, Run, digest  # noqa: E402


def _spec_metrics(section):
    """(name, unit) of each metric in one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


E2E_METRICS = _spec_metrics("end_to_end")
LAYER_METRICS = _spec_metrics("per_layer")
SETUP_REPEATS = 7
SETUP_PERIOD_S = 0.005  # sampling period of the speed sampler in a set-up probe
SETUP_PROBE = """
import sys, time
src, here, root, name, seed, period = sys.argv[1:7]
sys.path[:0] = [src, here]
import numpy  # loaded first: setup_s is mograd's own import, not numpy's
from speed import SpeedSampler
with SpeedSampler(float(period)) as sampler:
    t0 = time.perf_counter()
    import mograd
    t1 = time.perf_counter()
    from workloads import WORKLOADS
    workload = WORKLOADS[name](int(seed), root, None)
    t2 = time.perf_counter()
    workload.setup()
    t3 = time.perf_counter()
print(sampler.scaled(t0, t1) + sampler.scaled(t2, t3))
"""


def measure_setup(name, seed):
    """Median over fresh interpreters of importing mograd plus the workload's set-up.

    numpy is imported before the clock starts.  Each interpreter runs the
    speed sampler (``speed.py``) and reports its time at the reference speed.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, HERE, ROOT, name, str(seed), str(SETUP_PERIOD_S)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def run_step(label, fn):
    try:
        return fn()
    except Exception as exc:  # a raising step is a failed operation, not a crash
        return [Run(label, error=f"{label}: raised {type(exc).__name__}: {exc}")]


@dataclass
class Box:
    """What a timed box keeps: per-step durations, the first pass, run times."""

    steps: list
    durations: list  # per step, the duration of each execution
    scaled: list  # per step, each duration at the reference speed (speed.py)
    first: list  # per step, the runs of its first execution
    run_times: dict = field(default_factory=dict)  # run key -> scaled RunRecord.wall_time per execution
    peak_rss_mb: float = 0.0  # read when the first pass ends
    attempted: int = 0
    errors: list = field(default_factory=list)

    @property
    def wall_s(self):
        """One pass at the reference speed: the sum over steps of each step's fastest execution."""
        return sum(min(d) for d in self.scaled)

    @property
    def slowest_run_s(self):
        return max(min(t) for t in self.run_times.values())

    @property
    def iterations(self):
        return sum(r.record.iterations for runs in self.first for r in runs if r.record)

    def digests(self):
        return [[digest(r) for r in runs] for runs in self.first]


def run_box(workload, seconds):
    """Run the workload's steps until ``seconds`` is used up.

    The first pass runs every step once, in order, whatever it costs;
    peak RSS is read when it ends, so the figure covers a fixed amount of
    work.  After it, the next step is the least-repeated one whose fastest
    execution still fits, the longest first, until none fits.  Only the
    first execution of a step is kept for the correctness gate, which runs
    after the box so that its time and memory stay out of the figures;
    every repeat must reproduce it bit for bit.  The speed sampler runs
    throughout, and each execution is rescaled to the reference speed once
    the box is over (``speed.py``).
    """
    steps = workload.steps()
    box = Box(steps, [[] for _ in steps], [[] for _ in steps], [None] * len(steps))
    executions = []  # (step, start, end, [(run key, RunRecord.wall_time)])
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        for k in _schedule(box.durations, start, seconds):
            label, fn = steps[k]
            t = time.perf_counter()
            runs = run_step(label, fn)
            end = time.perf_counter()
            box.durations[k].append(end - t)
            executions.append((k, t, end, [(r.key, r.record.wall_time) for r in runs if r.record]))
            _keep(box, k, label, runs)
            if k == len(steps) - 1 and not box.peak_rss_mb:
                box.peak_rss_mb = peak_rss_mb()
    # Scaled once every sample is in, so each interval sees the samples after it.
    for k, t, end, walls in executions:
        box.scaled[k].append(sampler.scaled(t, end))
        for key, wall in walls:
            box.run_times.setdefault(key, []).append(wall * box.scaled[k][-1] / (end - t))
    return box


def _keep(box, k, label, runs):
    box.attempted += len(runs)
    if box.first[k] is None:
        box.first[k] = runs
        return
    want = [digest(r) for r in box.first[k]]
    for j, r in enumerate(runs):
        if r.error:
            box.errors.append(r.error)
        elif j >= len(want) or digest(r) != want[j]:
            box.errors.append(f"{r.key}: repeat of {label} differs from its first run")


def _schedule(durations, start, seconds):
    yield from range(len(durations))
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [k for k, d in enumerate(durations) if min(d) <= left]
        if not fits:
            return
        # Heavy steps first within a round: they dominate wall_s and
        # slowest_run_s, so the last, partial round is theirs.
        yield min(fits, key=lambda k: (len(durations[k]), -min(durations[k])))


def check_first_pass(workload, box):
    """Gate every run of the first pass; returns one reason per failed run."""
    errors = []
    for runs in box.first:
        for r in runs:
            try:
                error = r.error or workload.check(r)
            except Exception as exc:  # a check that cannot run is a failed check
                error = f"{r.key}: check raised {type(exc).__name__}: {exc}"
            if error:
                errors.append(error)
    return errors


# The children's peak survives exec: what a process starts with is its
# launcher's history (a shell's earlier commands), not its own children's.
INHERITED_CHILDREN_KB = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb():
    """Peak RSS of this process plus its largest waited-for child, if any rose above the inherited peak."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children <= INHERITED_CHILDREN_KB:
        children = 0
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children) / 1024.0


def traced_pass(name, seed):
    """One pass of ``name`` under the timing wrappers; runs in its own process."""
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[name](seed, ROOT, OUT)
    tracer = spans.Tracer()
    runs_by_step = []
    with SpeedSampler() as sampler, spans.instrument(tracer):
        start = time.perf_counter()
        for label, fn in workload.steps():
            runs_by_step.append(run_step(label, fn))
        end = time.perf_counter()
    wall = sampler.scaled(start, end)
    runs = [r for out in runs_by_step for r in out]
    _cleanup_exports()
    return {
        "wall_s": wall,
        "digests": [[digest(r) for r in out] for out in runs_by_step],
        "errors": [r.error for r in runs if r.error],
        "metrics": spans.layer_metrics(tracer.totals, runs, [n for n, _ in LAYER_METRICS]),
        "trace": tracer.dump(),
    }


def run_traced(name, seed):
    """``traced_pass`` in a fresh interpreter, waited for; its result comes back through a file."""
    path = os.path.join(OUT, f"traced-{os.getpid()}.json")
    try:
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--traced-pass", path],
            check=True, timeout=170,
        )
        with open(path) as fh:
            return json.load(fh)
    finally:
        if os.path.exists(path):
            os.remove(path)


def _cleanup_exports():
    if os.path.isdir(OUT):
        for entry in os.listdir(OUT):
            if entry.startswith(f"export-{os.getpid()}-"):
                shutil.rmtree(os.path.join(OUT, entry))


def environment(seed, variant):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": seed,
        "variant": variant,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD commit of a git checkout, or None when run from a plain copy."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 is the acceptance fixtures' input")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-pass", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if os.path.dirname(os.path.abspath(mograd.__file__)) != os.path.join(SRC, "mograd"):
        parser.error(f"mograd imported from {mograd.__file__}, not from {SRC}")

    if args.traced_pass:
        traced = traced_pass(args.workload, args.seed)
        with open(args.traced_pass, "w") as fh:
            json.dump(traced, fh)
        return 0

    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ROOT, OUT)
    env = environment(args.seed, workload.variant)
    box = run_box(workload, args.seconds)
    errors = box.errors + check_first_pass(workload, box)
    _cleanup_exports()
    setup_s = measure_setup(args.workload, args.seed)
    values = {
        "setup_s": setup_s,
        "wall_s": box.wall_s,
        "slowest_run_s": box.slowest_run_s,
        "peak_rss_mb": box.peak_rss_mb,
    }
    metrics = E2E_METRICS
    result = {"env": env, "workload": args.workload, "steps": [
        {"step": label, "durations_s": d, "scaled_s": sc}
        for (label, _), d, sc in zip(box.steps, box.durations, box.scaled)
    ]}

    if args.trace:
        traced = run_traced(args.workload, args.seed)
        if traced["digests"] != box.digests():
            errors.append("traced pass records differ from the untraced pass")
        errors += traced["errors"]
        values = traced["metrics"]
        values["driver.iters_per_s"] = box.iterations / box.wall_s
        values["trace.overhead_frac"] = traced["wall_s"] / box.wall_s - 1.0
        metrics = LAYER_METRICS
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"env": env, "workload": args.workload, **traced["trace"]}, fh)

    failed = len(errors)
    result["errors"] = errors
    result["metrics"] = values
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print("env " + json.dumps(env))
    for e in errors[:20]:
        print("FAIL " + e)
    for name, unit in metrics:
        print(f"{name:45s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": box.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics},
    }))
    return 0 if not errors else 1


def _terminate(signum, frame):
    # Unwinds through subprocess.run, which kills and waits for its child.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
