"""SHA-256 digests of perfbench workloads' task outputs.

Run from the repository root:

    python3 tools/output_digest.py > digests.txt
    python3 tools/output_digest.py --workload pointwise-checks --seed 0 3

For each workload and seed asked for (by default all four workloads, each
at seeds 0, 3 and 5), runs one repetition of the workload's tasks as
perfbench does (cold library caches, construction, then the tasks in
order) but untimed.  It prints one line per task, the SHA-256 of ``repr``
of its output and the task's name, then that pair's total, one digest over
all its tasks.  A task that raises gives the exception's type and message
in place of an output.  Two checkouts that print the same digests computed
every output bit for bit alike: compare the output of both with ``diff``.

The workloads, their inputs and the cache reset are perfbench's own,
imported from ``perfbench/``; the library is imported from ``src/``.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import WORKLOAD_NAMES, reset_caches  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def task_digests(workload_name: str, seed: int) -> list:
    """(SHA-256 hex digest of repr(output), task name) for each task of one
    repetition."""
    workload = WORKLOADS[workload_name]
    inputs = workload.make_inputs(seed)
    reset_caches()
    tasks = workload.tasks(inputs, workload.construct())
    out = []
    for task in tasks:
        try:
            text = repr(task.run())
        except Exception as exc:
            text = f"raised {type(exc).__name__}: {exc}"
        out.append((hashlib.sha256(text.encode()).hexdigest(), task.name))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    ap.add_argument("--seed", nargs="+", type=int, default=(0, 3, 5))
    args = ap.parse_args(argv)
    for workload in args.workload:
        for seed in args.seed:
            digests = task_digests(workload, seed)
            total = hashlib.sha256()
            for digest, name in digests:
                print(f"{digest}  {workload} seed {seed}: {name}")
                total.update(bytes.fromhex(digest))
            print(f"{total.hexdigest()}  {workload} seed {seed}: all {len(digests)} tasks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
