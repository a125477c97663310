"""The benchmark's four workloads: their seeded inputs, tasks and references.

A workload is built in three steps, so that each cost lands in the right
metric:

* ``make_inputs(seed)`` draws the seeded point streams and computes their
  reference values.  It is the benchmark's own work and is never timed.
* ``construct()`` builds the library objects the tasks use (functions,
  measures, test functions).  This is the user's set-up cost: it runs the
  growth check of every quadrature-backed function.
* ``tasks(inputs, objs)`` lists the timed tasks.  Each task has a reference
  and a check; the checks run after the timed region.

Every library call goes through ``P.<name>`` or ``cli.main`` at call time,
so the tracer's patched module attributes are the ones that run.

The inversions always use the acceptance gate's test function
phi_cauchy(2).  A seeded phi changes the inversion's quadrature work by far
more than the benchmark's bounds: on a shared 2-vCPU Xeon machine the f2
inversion took 27 s with phi_cauchy(2), 40-53 s with phi_gaussian(2, sigma)
for sigma in [0.8, 1.25] and 115 s with a Cauchy phi shifted by 0.1-0.3.
The seed therefore drives the scattered point streams and the seeds of the
CLI checks, which change the inputs but not the amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import polyherglotz as P
from polyherglotz import cli

PI = math.pi

#: Seed 0 reproduces the acceptance gate's inputs: its random points
#: (tests/test_acceptance.py) and the CLI's default check seed.
GATE_POINT_SEED = 20260826
GATE_CLI_SEED = 1729

#: Points per stream: at least ten samples beyond p99.  The growth-limit
#: stream is longer because its calls are shorter: a stream that lasts well
#: under a second samples a single moment of a shared machine's drifting
#: speed, and its percentiles spread by more than their bound across runs.
#: The five-family stream is longer for the same reason: with 1000 points
#: its p99 spread by 0.09 of its median over ten runs.  The lambda^2 stream
#: is not: its A-integral misses would outweigh the inversion's, and with
#: 3000 points its p99 spread no less.
STREAM_POINTS = 1000
FAMILY_STREAM_POINTS = 2000
LIMIT_STREAM_POINTS = 6000

#: One growth limit in WIDE_EVERY is checked against WIDE_ALTERNATES
#: alternate bases instead of the default three, about 2.3 times the work.
#: The stream's calls are otherwise all alike, so without them its p99
#: would sit where the 1-3% of calls slowed by the machine begin, and move
#: with how many there are.
WIDE_EVERY = 25
WIDE_ALTERNATES = 9

# Tolerances of the acceptance gate (tests/test_acceptance.py).
INVERSION_TOL = 1e-3  # criteria 06 and 07
EVAL_TOL = 1e-6  # criteria 02, 05 and 07
INTEGRAL_TOL = 1e-7  # criterion 07
DIAG_GAP_MIN = 0.5  # criterion 07b
NEVANLINNA_TOL = 1e-8  # criterion 09
MU2_RESIDUAL_MIN = 0.01  # criterion 09
GROWTH_D_TOL = 1e-3  # criterion 08
CATALOGUE_LIMIT_TOL = 1e-6  # criterion 08

#: The five lambda^2 points of criterion 09.
GATE_NEVANLINNA_POINTS = (
    (1j, 1j),
    (0.5 + 1j, 2j),
    (-1 + 0.3j, 1 + 0.2j),
    (2 + 2j, -0.5 + 0.7j),
    (0.1 + 0.9j, 3 + 0.4j),
)

#: The paper's condition matrix: (positivity, symmetry, nondependence).
CONDITION_MATRIX = {
    "f0": ["no", "no", "no"],
    "f1": ["yes", "no", "no"],
    "f2": ["no", "yes", "no"],
    "f3": ["no", "no", "yes"],
    "f4": ["yes", "yes", "no"],
    "f5": ["yes", "no", "yes"],
    "f6": ["no", "yes", "yes"],
    "f7": ["yes", "yes", "yes"],
}


@dataclass
class Task:
    """One timed call into the library and the check of its output.

    ``check(output, ref)`` returns None when the output meets its reference
    and a short reason otherwise.  ``point`` marks single-point evaluations,
    whose latencies make up eval_ms.
    """

    name: str
    run: Callable[[], Any]
    ref: Any
    check: Callable[[Any, Any], str | None]
    point: bool = False


def within(tol: float) -> Callable[[Any, Any], str | None]:
    def check(value, ref):
        err = abs(complex(value) - complex(ref))
        return None if err <= tol else f"|{value} - {ref}| = {err:.3e} > {tol:g}"

    return check


def evaluated_within(tol: float):
    """Check the value of an ``evaluate`` result, a (value, error) pair."""
    inner = within(tol)
    return lambda out, ref: inner(out[0], ref)


def converged_within(tol: float):
    inner = within(tol)

    def check(result, ref):
        if not result.converged:
            return f"did not converge (estimate {result.estimate})"
        return inner(result.estimate, ref)

    return check


# ---------------------------------------------------------------------------
# Seeded inputs


def point_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(GATE_POINT_SEED if seed == 0 else seed)


def cli_seed(seed: int) -> int:
    return GATE_CLI_SEED if seed == 0 else seed


def scattered_point(rng, signs) -> tuple:
    """|Re| <= 5 and 0.1 <= |Im| <= 5, log-uniform, as the gate samples."""
    return tuple(
        complex(rng.uniform(-5, 5), s * math.exp(rng.uniform(math.log(0.1), math.log(5))))
        for s in signs
    )


def random_signs(rng, n: int) -> tuple:
    return tuple(int(s) for s in rng.choice([-1, 1], size=n))


def upper_value(z: tuple, inside: complex, outside: complex) -> complex:
    return inside if all(c.imag > 0 for c in z) else outside


def mu2_nevanlinna_residual(z1: complex, z2: complex) -> complex:
    """Nevanlinna residual of the diagonal measure, by residues.

    With N_1(z, t) = (1/(t+i) - 1/(t - conj z))/2i continued to complex t,
    closing each line integral in the upper half-plane gives
    pi * integral N_-1(z1, t) N_1(z2, t) dt = pi^2 (N_1(z2, z1) - N_1(z2, i)).
    """

    def n1(z, t):
        return (1 / (t + 1j) - 1 / (t - z.conjugate())) / 2j

    return PI * PI * ((n1(z2, z1) - n1(z2, 1j)) + (n1(z1, z2) - n1(z1, 1j)))


def phi_diagonal(x):
    """The diagonal-sensitive test function of criterion 07b."""
    return math.exp(-((x[0] - x[1]) ** 2)) / ((1 + x[0] ** 2) * (1 + x[1] ** 2))


def phi_product(x):
    """The product test function of criterion 07."""
    return 1.0 / ((1.0 + x[0] ** 2) * (1.0 + x[1] ** 2))


# ---------------------------------------------------------------------------
# Workloads


class InvertClosed:
    """Stieltjes inversion of the closed-form catalogue functions f2 and f4.

    The ROADMAP's hot spot: about 4.18M scalar closed-form evaluations, all
    in analysis and quadrature with per-point core overhead and no
    A-integral.  The stream takes the growth limit of the same functions at
    scattered base points, about 40 closed-form evaluations each: a single
    closed-form evaluation takes microseconds, and its latency spread across
    runs on a shared machine by more than any useful bound.  The stream runs
    in three parts, before, between and after the inversions, so that its
    latencies sample the whole run rather than one moment of it.
    """

    name = "invert-closed"

    def make_inputs(self, seed):
        rng = point_rng(seed)
        stream = []
        for k in range(LIMIT_STREAM_POINTS):
            family = "f4" if k % 4 == 3 else "f2"
            alternates = WIDE_ALTERNATES if k % WIDE_EVERY == WIDE_EVERY // 2 else 3
            stream.append((family, 1 + k % 2, scattered_point(rng, (1, 1)), alternates))
        return {"stream": stream}

    def construct(self):
        return {
            "f2": P.catalogue("f2"),
            "f4": P.catalogue("f4"),
            "f4_upper": P.restrict_to_upper(P.catalogue("f4")),
            "phi": P.phi_cauchy(2),
        }

    def tasks(self, inputs, objs):
        phi = objs["phi"]
        limits = [
            Task(f"stoltz_limit({family}, {j}, {z}, base_alternates={a})",
                 lambda f=objs[family], j=j, z=z, a=a: P.stoltz_limit(
                     f, j, P.CutPlanePoint(z), base_alternates=a),
                 0j, check_limit, point=True)
            for family, j, z, a in inputs["stream"]
        ]
        f2_inversion = Task(
            "stieltjes_cauchy_type(f2)",
            lambda: P.stieltjes_cauchy_type(objs["f2"], phi),
            PI * PI / 2,
            converged_within(INVERSION_TOL),
        )
        f4_inversion = Task(
            "stieltjes_classic(f4|upper)",
            lambda: P.stieltjes_classic(objs["f4_upper"], phi),
            5.5 * PI * PI,
            converged_within(INVERSION_TOL),
        )
        third = len(limits) // 3
        return (limits[:third] + [f2_inversion] + limits[third:2 * third]
                + [f4_inversion] + limits[2 * third:])


class InvertLebesgue2:
    """Stieltjes inversion of the quadrature-backed Cauchy transform of lambda^2.

    The same analysis path as invert-closed, through a functions layer that
    hits the A-integral cache almost every time.  The stream evaluates the
    same function at fresh scattered points, which miss the cache; they add
    about 2000 misses to the inversion's 2.3M hits.
    """

    name = "invert-lebesgue2"

    def make_inputs(self, seed):
        rng = point_rng(seed)
        stream = []
        for _ in range(STREAM_POINTS):
            z = scattered_point(rng, random_signs(rng, 2))
            stream.append(("lambda2", z, upper_value(z, 1j, -1j)))
        return {"stream": stream}

    def construct(self):
        return {
            "lambda2": P.CauchyTypeFunction(P.LebesgueScaled(1.0, 2)),
            "phi": P.phi_cauchy(2),
        }

    def tasks(self, inputs, objs):
        inversion = Task(
            "stieltjes_cauchy_type(lambda2)",
            lambda: P.stieltjes_cauchy_type(objs["lambda2"], objs["phi"]),
            PI * PI,
            converged_within(INVERSION_TOL),
        )
        return stream_tasks(inputs["stream"], objs) + [inversion]


HERGLOTZ_LAMBDA2_B02 = (
    "herglotz:{a:0,b:[0,2],mu:{type:lebesgue_scaled,c:1,dimension:2}}"
)


class PointwiseChecks:
    """Scattered single-point evaluations on every component, and CLI checks.

    Every point is new, so each quadrature-backed evaluation misses the
    A-integral cache.  The only workload that reaches kernel_k (the atomic
    and curve measures) and the CLI.
    """

    name = "pointwise-checks"
    FAMILIES = ("lambda2", "lambda3", "mu2", "f4_defining", "f4_nevanlinna")

    def make_inputs(self, seed):
        rng = point_rng(seed)
        f2, f4 = P.catalogue("f2"), P.catalogue("f4")
        stream = []
        for k in range(FAMILY_STREAM_POINTS):
            family = self.FAMILIES[k % len(self.FAMILIES)]
            if family == "lambda2":
                z = scattered_point(rng, random_signs(rng, 2))
                ref = upper_value(z, 1j, -1j)
            elif family == "lambda3":
                z = scattered_point(rng, random_signs(rng, 3))
                ref = upper_value(z, 1j, -1j)
            elif family == "mu2":
                z = scattered_point(rng, random_signs(rng, 2))
                ref = f2(z)
            elif family == "f4_defining":
                z = scattered_point(rng, random_signs(rng, 2))
                ref = f4(z)
            else:  # the Herglotz representation agrees with f4 on C+^2 only
                z = scattered_point(rng, (1, 1))
                ref = f4(z)
            stream.append((family, z, ref))
        return {"stream": stream, "cli_seed": cli_seed(seed)}

    def construct(self):
        return {
            "lambda2": P.CauchyTypeFunction(P.LebesgueScaled(1.0, 2)),
            "lambda3": P.CauchyTypeFunction(P.LebesgueScaled(1.0, 3)),
            "mu2": P.CauchyTypeFunction(P.MU2),
            "f4_defining": P.CauchyTypeFunction(P.F4_DEFINING_MEASURE),
            "f4_nevanlinna": P.HerglotzFunction(
                P.HerglotzTriple(0.0, (0.0, 0.0), P.F4_NEVANLINNA_MEASURE)
            ),
        }

    def tasks(self, inputs, objs):
        seed = ["--seed", str(inputs["cli_seed"])]
        checks = [
            (["check", "characterize", "--fn", "cauchy:lebesgue2"], (0, (0.0, 0.0))),
            (["check", "characterize", "--fn", HERGLOTZ_LAMBDA2_B02], (0, (0.0, 2.0))),
            (["check", "symmetry", "--fn", "cauchy:mu2"], (0, "pass")),
            (["check", "nondep", "--fn", "cauchy:mu2"], (1, "fail")),
            (["reproduce-tables"], (0, CONDITION_MATRIX)),
        ]
        out = stream_tasks(inputs["stream"], objs)
        for argv, ref in checks:
            out.append(
                Task("cli " + " ".join(argv[:2]), lambda a=argv + seed: run_cli(a), ref, check_cli)
            )
        return out


class MeasureIntegrals:
    """Measure integrals, Nevanlinna residuals and growth checks.

    The only load on measures and on iterated integrate_rn with no function
    layer at all.  The stream samples the diagonal measure's residual at
    scattered points of C+^2.
    """

    name = "measure-integrals"

    def make_inputs(self, seed):
        rng = point_rng(seed)
        stream = []
        for _ in range(STREAM_POINTS):
            z = scattered_point(rng, (1, 1))
            stream.append(("mu2_residual", z, mu2_nevanlinna_residual(*z)))
        return {"stream": stream}

    def construct(self):
        return {
            "lambda1": P.LebesgueScaled(1.0, 1),
            "lambda2": P.LebesgueScaled(1.0, 2),
            "lambda3": P.LebesgueScaled(1.0, 3),
        }

    def tasks(self, inputs, objs):
        f4_def, f4_nev = P.F4_DEFINING_MEASURE, P.F4_NEVANLINNA_MEASURE
        integral_value = lambda out, ref: within(INTEGRAL_TOL)(out[0].real, ref)
        out = [
            Task("integrate(f4 defining, phi)", lambda: P.integrate(f4_def, phi_product),
                 5.5 * PI * PI, integral_value),
            Task("integrate(f4 nevanlinna, phi)", lambda: P.integrate(f4_nev, phi_product),
                 5.5 * PI * PI, integral_value),
        ]
        diag = {}

        def diagonal_integral(mu, key):
            diag[key] = P.integrate(mu, phi_diagonal)[0].real
            return diag

        def check_gap(out, ref):
            if len(out) < 2:
                return "the other diagonal-sensitive integral did not run"
            gap = abs(out["defining"] - out["nevanlinna"])
            return None if gap > ref else f"diagonal gap {gap:.6f} <= {ref}"

        out.append(Task("integrate(f4 defining, phi_diag)",
                        lambda: diagonal_integral(f4_def, "defining"), None,
                        lambda o, r: None if math.isfinite(o["defining"]) else "not finite"))
        out.append(Task("integrate(f4 nevanlinna, phi_diag)",
                        lambda: diagonal_integral(f4_nev, "nevanlinna"), DIAG_GAP_MIN, check_gap))
        for z in GATE_NEVANLINNA_POINTS:
            out.append(Task(f"nevanlinna_residual(lambda2, {z})",
                            lambda z=z: P.nevanlinna_residual(objs["lambda2"], P.point(*z)),
                            0j, within(NEVANLINNA_TOL)))
        out.append(Task("nevanlinna_residual(mu2, (2i, 1+i))",
                        lambda: P.nevanlinna_residual(P.MU2, P.point(2j, 1 + 1j)),
                        MU2_RESIDUAL_MIN,
                        lambda v, r: None if abs(v) > r else f"|{v}| <= {r}"))
        growth = [
            ("mu2", P.MU2, PI * PI / 2),
            ("f4 defining", f4_def, 5.5 * PI * PI),
            ("f4 nevanlinna", f4_nev, 5.5 * PI * PI),
            ("lambda1", objs["lambda1"], PI),
            ("lambda2", objs["lambda2"], PI**2),
            ("lambda3", objs["lambda3"], PI**3),
        ]
        for label, mu, ref in growth:
            out.append(Task(f"check_growth({label})", lambda mu=mu: P.check_growth(mu), ref,
                            check_growth_result))
        return out + stream_tasks(inputs["stream"], objs)


def check_limit(result, ref):
    """Criterion 08 on the catalogue: converged, and the limit is 0."""
    if not result.converged:
        return f"did not converge (estimate {result.estimate})"
    return within(CATALOGUE_LIMIT_TOL)(result.estimate, ref)


def check_growth_result(result, ref):
    if not result.finite:
        return "growth integral reported infinite"
    return within(INTEGRAL_TOL)(result.value, ref)


def stream_tasks(stream, objs) -> list:
    """Single-point tasks: evaluate(z) of a function, or a measure's residual."""
    out = []
    for family, z, ref in stream:
        if family == "mu2_residual":
            run = lambda z=z: P.nevanlinna_residual(P.MU2, P.CutPlanePoint(z))
            check = within(EVAL_TOL)
        else:
            run = lambda f=objs[family], z=z: f.evaluate(P.CutPlanePoint(z))
            check = evaluated_within(EVAL_TOL)
        out.append(Task(f"{family} at {z}", run, ref, check, point=True))
    return out


def run_cli(argv):
    """cli.main with its report captured; returns (exit code, parsed report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def check_cli(out, ref):
    code, report = out
    want_code, want = ref
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if isinstance(want, tuple):  # characterize: verdict pass and the growth vector b
        if report["verdict"] != "pass":
            return f"verdict {report['verdict']}"
        d = report["d"]
        if len(d) != len(want) or any(abs(a - b) > GROWTH_D_TOL for a, b in zip(d, want)):
            return f"d = {d}, expected {list(want)}"
        return None
    if isinstance(want, dict):  # reproduce-tables: the condition matrix
        if not report["match"] or report["table2_conditions"] != want:
            return f"condition matrix {report['table2_conditions']}"
        return None
    return None if report["verdict"] == want else f"verdict {report['verdict']}"


WORKLOADS = {
    w.name: w for w in (InvertClosed(), InvertLebesgue2(), PointwiseChecks(), MeasureIntegrals())
}
