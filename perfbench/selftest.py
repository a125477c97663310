"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py           # about four minutes
    python3 perfbench/selftest.py --quick   # tests 1 and 2, seconds

1. A perturbed reference is counted as a failed task.
2. The tracer patches every module-level alias of a wrapped function and
   restores it.
3. One traced run per workload confirms the workload design: each layer
   counter is nonzero on the workload meant to exercise it and zero where
   the design predicts zero.
"""

import json
import math
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = run.WORKLOAD_NAMES


def test_perturbed_reference_is_a_failure():
    w = workloads.WORKLOADS["measure-integrals"]
    objs = w.construct()
    growth = [t for t in w.tasks(w.make_inputs(0), objs) if t.name.startswith("check_growth")]
    rep = run.execute(growth)
    assert run.failures(growth, rep) == [], "unperturbed references must pass"
    growth[0].ref += 10 * workloads.INTEGRAL_TOL
    failed = run.failures(growth, rep)
    assert len(failed) == 1 and failed[0].startswith(growth[0].name), failed


def test_every_alias_is_patched():
    from polyherglotz import _purekernels, analysis, functions, measures, quadrature

    aliases = {
        "integrate_line": (quadrature, functions, measures),
        "integrate_rn": (quadrature, measures, analysis),
        "check_growth": (measures, functions),
        "kernel_k": (_purekernels,),
        "n_factor": (_purekernels,),
        "a_line_integral": (_purekernels,),
    }
    originals = {name: getattr(mods[0], name) for name, mods in aliases.items()}
    tracer = Tracer().install()
    try:
        for name, mods in aliases.items():
            patched = {id(getattr(m, name)) for m in mods}
            assert len(patched) == 1 and id(originals[name]) not in patched, name
    finally:
        tracer.uninstall()
    for name, mods in aliases.items():
        assert all(getattr(m, name) is originals[name] for m in mods), name


def traced(workload):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=run.ROOT, timeout=600,
    ).stdout.splitlines()
    detail, result = json.loads(out[-2]), json.loads(out[-1])
    assert result["correct"], detail["failures"]
    assert detail["not_traced"] == [], detail["not_traced"]
    return detail, {k: v["value"] for k, v in result["metrics"].items()}


# (metric, workloads where it must be nonzero, workloads where it must be zero)
DESIGN = [
    ("analysis.alternating_boundary_sum.self_s", ["invert-closed", "invert-lebesgue2"], ["measure-integrals"]),
    ("core.points", WORKLOADS, []),
    ("quadrature.integrand.evals", WORKLOADS, []),
    ("functions.evaluate.self_s", ["invert-closed", "invert-lebesgue2", "pointwise-checks"], ["measure-integrals"]),
    ("functions.a_integral.hits", ["invert-lebesgue2", "pointwise-checks"], ["invert-closed", "measure-integrals"]),
    ("functions.a_integral.misses", ["invert-lebesgue2", "pointwise-checks"], ["invert-closed", "measure-integrals"]),
    ("functions.a_integral.cache_size", ["invert-lebesgue2", "pointwise-checks"], ["invert-closed", "measure-integrals"]),
    ("kernels.a_line_integral.self_s", ["invert-lebesgue2", "pointwise-checks"], ["invert-closed", "measure-integrals"]),
    ("kernels.kernel_k.calls", ["pointwise-checks"], ["invert-closed", "invert-lebesgue2", "measure-integrals"]),
    ("kernels.n_factor.calls", ["measure-integrals"], ["invert-closed", "invert-lebesgue2"]),
    ("measures.integrate.self_s", ["measure-integrals"], ["invert-closed"]),
    ("measures.check_growth.self_s", ["invert-lebesgue2", "pointwise-checks", "measure-integrals"], ["invert-closed"]),
    ("measures.nevanlinna_residual.self_s", ["measure-integrals"], ["invert-closed", "invert-lebesgue2", "pointwise-checks"]),
    ("quadrature.integrate_rn.self_s", WORKLOADS, []),
    ("quadrature.integrate_line.self_s", WORKLOADS, []),
    ("analysis.characterize.calls", ["pointwise-checks"], ["invert-closed", "invert-lebesgue2", "measure-integrals"]),
    ("cli.main.self_s", ["pointwise-checks"], ["invert-closed", "invert-lebesgue2", "measure-integrals"]),
    ("analysis.y_step.max_s", ["invert-closed", "invert-lebesgue2"], ["pointwise-checks", "measure-integrals"]),
]


def test_trace_confirms_design():
    results = {w: traced(w) for w in WORKLOADS}
    values = {w: v for w, (_, v) in results.items()}
    for metric, nonzero, zero in DESIGN:
        for w in nonzero:
            assert values[w][metric] > 0, (metric, w)
        for w in zero:
            assert values[w][metric] == 0, (metric, w, values[w][metric])
    assert values["invert-lebesgue2"]["functions.a_integral.hit_ratio"] >= 0.99
    assert values["pointwise-checks"]["functions.a_integral.hit_ratio"] <= 0.95
    span, y, _ = results["invert-closed"][0]["slowest_y_step"]
    assert span == "analysis.stieltjes_cauchy_type" and math.isclose(y, 2.0**-6), (span, y)
    for w in WORKLOADS:
        assert values[w]["trace.unattributed_frac"] < 0.05, w


if __name__ == "__main__":
    test_perturbed_reference_is_a_failure()
    print("ok: a perturbed reference is counted as a failure")
    test_every_alias_is_patched()
    print("ok: the tracer patches every alias and restores it")
    if "--quick" not in sys.argv:
        test_trace_confirms_design()
        print("ok: the traced runs confirm the workload design")
