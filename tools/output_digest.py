"""SHA-256 digests of perfbench workloads' task outputs.

Run from the repository root:

    python3 tools/output_digest.py > digests.txt
    python3 tools/output_digest.py --workload pointwise-checks --seed 0 3
    python3 tools/output_digest.py --against digests.txt

For each workload and seed asked for (by default all four workloads, each
at seeds 0, 3 and 5), runs one repetition of the workload's tasks as
perfbench does (cold library caches, construction, then the tasks in
order) but untimed.  It prints one line per task, the SHA-256 of ``repr``
of its output and the task's name, then that pair's total, one digest over
all its tasks.  A task that raises gives the exception's type and message
in place of an output.  Two checkouts that print the same digests computed
every output bit for bit alike.

``--against FILE`` compares the run with a listing that an earlier run
printed, line by line by task name (a name that repeats within a pair is
matched by its place among its repeats).  Each line of the run, a task
or a pair's total, whose digest differs from FILE's or that FILE lacks is
named on standard error, and the exit status is 1; it is 0 when every
line matches.  Lines of FILE that the run does not ask for are not
compared, so a listing of all four workloads serves a run of one.

The workloads, their inputs and the cache reset are perfbench's own,
imported from ``perfbench/``; the library is imported from ``src/``.
"""

import argparse
import collections
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


def listing(workload: str, seed: int) -> list:
    """The printed lines of one workload and seed: "digest  label" for each
    task, then the total."""
    digests = task_digests(workload, seed)
    total = hashlib.sha256()
    for digest, _ in digests:
        total.update(bytes.fromhex(digest))
    label = f"{workload} seed {seed}"
    return [f"{digest}  {label}: {name}" for digest, name in digests] + [
        f"{total.hexdigest()}  {label}: all {len(digests)} tasks"
    ]


def keyed(lines) -> dict:
    """{(label, k): digest} of listing lines, where k counts the earlier
    lines with the same label."""
    seen = collections.Counter()
    out = {}
    for line in lines:
        digest, label = line.rstrip("\n").split("  ", 1)
        out[label, seen[label]] = digest
        seen[label] += 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    ap.add_argument("--seed", nargs="+", type=int, default=(0, 3, 5))
    ap.add_argument("--against", metavar="FILE", help="a saved listing to compare the run with")
    args = ap.parse_args(argv)
    lines = []
    for workload in args.workload:
        for seed in args.seed:
            pair = listing(workload, seed)
            print(*pair, sep="\n", flush=True)
            lines += pair
    if args.against is None:
        return 0
    with open(args.against) as fh:
        saved = keyed(line for line in fh if line.strip())
    differ = [key for key, digest in keyed(lines).items() if saved.get(key) != digest]
    for key in differ:
        how = "differs from" if key in saved else "is not in"
        print(f"{how} {args.against}: {key[0]}", file=sys.stderr)
    print(f"{len(lines) - len(differ)} of {len(lines)} lines match", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
