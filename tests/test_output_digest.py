"""`tools/output_digest.py` fails a run whose tasks give a wrong answer.

Each task's output goes through the task's own perfbench check; a task
that misses its reference or raises is named on standard error, and the
exit status is 1.  The workload here is cut to its first three tasks.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def raises():
    raise ValueError("no value")


@pytest.mark.parametrize(
    "spoil, reason",
    [
        (lambda task: task, None),
        (lambda task: dataclasses.replace(task, ref=5.0), "> 1e-06"),
        (lambda task: dataclasses.replace(task, run=raises), "raised ValueError: no value"),
    ],
    ids=["right", "wrong answer", "raises"],
)
def test_a_failing_check_names_the_task_and_exits_1(digest, monkeypatch, capsys, spoil, reason):
    workload = digest.WORKLOADS["invert-lebesgue2"]
    tasks = workload.tasks

    def cut(inputs, objs):
        out = tasks(inputs, objs)[:3]
        out[1] = spoil(out[1])
        return out

    monkeypatch.setattr(workload, "tasks", cut)
    status = digest.main(["--workload", "invert-lebesgue2", "--seed", "0"])
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 4  # three tasks and the total
    if reason is None:
        assert status == 0 and "check failed" not in err
    else:
        (line,) = [l for l in err.splitlines() if l.startswith("check failed")]
        assert status == 1 and line.startswith("check failed: invert-lebesgue2 seed 0: lambda2 at")
        assert reason in line
