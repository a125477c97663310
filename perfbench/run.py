"""Benchmark of polyherglotz: time to answers of stated accuracy.

Run from the repository root:

    python3 perfbench/run.py --workload invert-closed --seed 0 --seconds 10 --trace 0

The library is imported from ``src/``.  One run sets up, then repeats the
workload's tasks with cold library caches until ``--seconds`` would be
exceeded (at least once), and checks every output against its reference.
The last line of standard output is the result; the line before it holds
the environment and the per-repetition details.

With ``--trace 0`` the result holds the end-to-end metrics (medians over
the repetitions).  With ``--trace 1`` the run makes one untraced and one
traced repetition and reports the per-layer metrics of the traced one.
"""

import os

# One thread: the pure-Python kernels gain nothing from BLAS threads, and
# idle pool threads would only add noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import setup_probe  # noqa: E402
from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("invert-closed", "invert-lebesgue2", "pointwise-checks", "measure-integrals")

#: Fresh interpreters timed per run for setup_s.
SETUP_PROBES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "eval_ms.p50": "ms",
    "eval_ms.p99": "ms",
}


@dataclass
class Execution:
    """One pass over a list of tasks.  Raw times, and times scaled to the
    reference speed (see speed.py)."""

    outputs: list  # (output, error message or None) per task
    wall_s: float
    cpu_s: float
    scaled_wall_s: float
    scaled_cpu_s: float
    latencies_s: list  # scaled, of the single-point tasks (see execute)


@dataclass
class Repetition:
    run: Execution
    construct_s: float
    attempted: int
    failures: list
    cache_info: tuple  # A-integral cache (hits, misses, size) at the end


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import polyherglotz

    backend = polyherglotz.backend_name()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend,
        "POLYHERGLOTZ_BACKEND": os.environ.get("POLYHERGLOTZ_BACKEND"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
        # the baseline is the pure-Python backend; compiled runs differ in kind
        "comparable_with_pure_python_baseline": backend == "python",
    }


def reset_caches() -> None:
    """Put the library's caches in the state a fresh process has them."""
    from tracing import package_modules

    for module in package_modules():
        for name, value in list(vars(module).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif name.endswith("_CACHE") and callable(getattr(value, "clear", None)):
                value.clear()
    gc.collect()


def a_integral_cache_info() -> tuple:
    from polyherglotz import functions

    info = getattr(getattr(functions, "_weighted_a_integral", None), "cache_info", None)
    if info is None:
        return (0, 0, 0)
    info = info()
    return (info.hits, info.misses, info.currsize)


def execute(tasks) -> Execution:
    """Run the tasks under the speed probe.

    A point's latency is its wall time less any time the process did not
    run, that is its CPU time when that is shorter: on a shared machine
    other tenants deschedule the process now and then for milliseconds, and
    a few such points decided a stream's p99.
    """
    outputs, spans = [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    with SpeedProbe() as probe:
        cpu0, spent_cpu0 = cpu_clock(), probe.spent_cpu_s
        for task in tasks:
            probe.between_tasks()
            t, c, spent, spent_cpu = clock(), cpu_clock(), probe.spent_s, probe.spent_cpu_s
            try:
                outputs.append((task.run(), None))
            except Exception as exc:  # a failed task is counted, not fatal
                outputs.append((None, f"raised {type(exc).__name__}: {exc}"))
            spans.append((t, clock(), probe.spent_s - spent,
                          cpu_clock() - c - (probe.spent_cpu_s - spent_cpu)))
        cpu = cpu_clock() - cpu0 - (probe.spent_cpu_s - spent_cpu0)
    wall = scaled_wall = 0.0
    latencies = []
    for task, (start, end, spent, task_cpu) in zip(tasks, spans):
        raw = end - start - spent
        factor = probe.scale_at(start, end)
        wall += raw
        scaled_wall += raw * factor
        if task.point:
            latencies.append(min(raw, task_cpu) * factor)
    return Execution(outputs, wall, cpu, scaled_wall, cpu * scaled_wall / wall, latencies)


def failures(tasks, execution: Execution) -> list:
    """'task: reason' for each task that raised or missed its reference."""
    out = []
    for task, (output, err) in zip(tasks, execution.outputs):
        if err is None:
            try:
                err = task.check(output, task.ref)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            out.append(f"{task.name}: {err}")
    return out


def run_repetition(workload, inputs) -> Repetition:
    """Cold caches, construction (not timed as wall), then the tasks."""
    reset_caches()
    start = time.perf_counter()
    objs = workload.construct()
    construct_s = time.perf_counter() - start
    tasks = workload.tasks(inputs, objs)
    execution = execute(tasks)
    cache_info = a_integral_cache_info()
    return Repetition(execution, construct_s, len(tasks), failures(tasks, execution), cache_info)


def setup_samples(workload_name: str) -> list:
    """Import plus construction, each in a fresh interpreter, one at a time.

    Returns (raw seconds, reference-speed seconds) pairs.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        raw, *kernel = (float(x) for x in done.stdout.split())
        samples.append((raw, raw * setup_probe.scale(kernel)))
    return samples


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_quantile(n: int) -> float:
    """0.99, or the highest quantile with at least ten samples beyond it."""
    return min(0.99, (n - 10) / n) if n > 10 else 0.5


def end_to_end(reps: list, setup: list) -> tuple:
    runs = [r.run for r in reps]
    latencies = sorted(s for r in runs for s in r.latencies_s)
    q = tail_quantile(len(latencies))
    values = {
        "wall_s": statistics.median(r.scaled_wall_s for r in runs),
        "cpu_s": statistics.median(r.scaled_cpu_s for r in runs),
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_ms.p50": 1e3 * percentile(latencies, 0.5),
        "eval_ms.p99": 1e3 * percentile(latencies, q),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    samples = {
        "repetitions": len(reps),
        "setup_probes": len(setup),
        "eval_points": len(latencies),
        "eval_ms.p99_quantile": q,
    }
    return metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0, help="0 reproduces the acceptance gate's inputs")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "polyherglotz" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from tracing import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    inputs = workload.make_inputs(args.seed)
    detail = {"workload": args.workload, "env": env}

    if args.trace:
        untraced = run_repetition(workload, inputs)
        tracer = Tracer().install()
        try:
            traced = run_repetition(workload, inputs)
        finally:
            tracer.uninstall()
        reps = [untraced, traced]
        values = tracer.metrics(
            traced.run.wall_s,
            traced.run.scaled_wall_s - untraced.run.scaled_wall_s,
            traced.cache_info,
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
        detail["slowest_y_step"] = tracer.slowest_y_step()
        detail["not_traced"] = tracer.missing
    else:
        setup = setup_samples(args.workload)
        deadline = time.perf_counter() + args.seconds
        reps = [run_repetition(workload, inputs)]
        while time.perf_counter() + reps[-1].run.wall_s + reps[-1].construct_s <= deadline:
            reps.append(run_repetition(workload, inputs))
        metrics, detail["samples"] = end_to_end(reps, setup)
        detail["setup_s"] = {"raw": [raw for raw, _ in setup], "scaled": [sc for _, sc in setup]}

    attempted = sum(r.attempted for r in reps)
    failed = [f for r in reps for f in r.failures]
    detail["repetitions"] = [
        {"raw_wall_s": r.run.wall_s, "raw_cpu_s": r.run.cpu_s,
         "scale": r.run.scaled_wall_s / r.run.wall_s,
         "construct_s": r.construct_s,
         "a_integral_cache": dict(zip(("hits", "misses", "size"), r.cache_info)),
         "attempted": r.attempted, "failed": len(r.failures)}
        for r in reps
    ]
    detail["failures"] = failed[:20]
    detail["failed_frac"] = {"failed": len(failed), "base": attempted}
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
