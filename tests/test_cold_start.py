"""A fresh interpreter loads scipy only when a quadrature or a Gaussian
density first needs it.

One subprocess runs SCRIPT with ``-W error``.  ``import polyherglotz`` and
every exact path after it (a closed form, a Stoltz limit, the
characterization of f7, lambda^2's Cauchy transform, a Nevanlinna residual,
growth checks, building functions of curve measures, the CLI's eval and
reproduce-tables) must leave scipy unloaded.  The first quadrature then
loads it.  That quadrature asks for a tolerance QUADPACK cannot reach, so
it warns, and ``-W error`` would turn the warning into an exception if
`quadrature.quad`'s filter missed the very first call.  A Gaussian
density's transform, the process's first use of the Faddeeva function,
must give the value this test process computes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyherglotz
from polyherglotz import gaussian_density

SCRIPT = r"""
import contextlib, io, json, sys
import polyherglotz as P
from polyherglotz import cli, measures
from polyherglotz.quadrature import integrate_line

out = sys.argv[1]
loaded, exits = {}, {}

def note(step):
    loaded[step] = "scipy" in sys.modules

note("import polyherglotz")
P.catalogue("f2")(P.point(1j, 2j))
note("closed form")
P.stoltz_limit(P.catalogue("f2"), 1, (1j, 1j))
note("stoltz_limit")
P.characterize(P.catalogue("f7"))
note("characterize f7")
P.CauchyTypeFunction(P.LebesgueScaled(1.0, 2)).evaluate((1j, -2j))
note("lambda2 evaluate")
P.nevanlinna_residual(P.MU2, (2j, 1 + 1j))
note("nevanlinna_residual MU2")
P.check_growth(P.F4_NEVANLINNA_MEASURE)
note("check_growth F4 Nevanlinna")
P.CauchyTypeFunction(P.MU2)
note("CauchyTypeFunction MU2")
P.HerglotzFunction(P.HerglotzTriple(0.0, (0.0, 0.0), P.F4_DEFINING_MEASURE))
note("HerglotzFunction F4 defining")
P.check_growth(P.MU2)
note("check_growth MU2")
with contextlib.redirect_stdout(io.StringIO()):
    exits["eval"] = cli.main(["eval", "--fn", "catalogue:f2", "--point", "4i,4i", "--out", out + "/eval.json"])
    note("cli eval")
    exits["reproduce-tables"] = cli.main(["reproduce-tables", "--out", out + "/tables.json"])
    note("cli reproduce-tables")

unreachable = P.QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
integrate_line(lambda t: 1.0 / (1.0 + t * t), unreachable)
note("first quadrature")
value, _ = integrate_line(lambda t: 1.0 / (1.0 + t * t))

gauss = P.gaussian_density(0.3, 1.2)
first = repr(gauss.pair_integral(0.3 + 0.5j, -1j))
again = repr(gauss.pair_integral(0.3 + 0.5j, -1j))
from scipy.special import wofz
print(json.dumps({
    "loaded": loaded,
    "exits": exits,
    "pi": value,
    "gaussian": [first, again],
    "wofz_rebound": measures._wofz is wofz,
}))
"""

EXACT_STEPS = [
    "import polyherglotz",
    "closed form",
    "stoltz_limit",
    "characterize f7",
    "lambda2 evaluate",
    "nevanlinna_residual MU2",
    "check_growth F4 Nevanlinna",
    "CauchyTypeFunction MU2",
    "HerglotzFunction F4 defining",
    "check_growth MU2",
    "cli eval",
    "cli reproduce-tables",
]


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    src = Path(polyherglotz.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path_factory.mktemp("cold")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT, str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("step", EXACT_STEPS)
def test_exact_paths_leave_scipy_unloaded(cold_run, step):
    assert cold_run["loaded"][step] is False


def test_the_cli_runs_succeed(cold_run):
    assert cold_run["exits"] == {"eval": 0, "reproduce-tables": 0}


def test_the_first_quadrature_loads_scipy_and_integrates(cold_run):
    assert cold_run["loaded"]["first quadrature"] is True
    assert abs(cold_run["pi"] - 3.141592653589793) < 1e-10


def test_a_gaussian_transform_matches_a_warm_process(cold_run):
    warm = repr(gaussian_density(0.3, 1.2).pair_integral(0.3 + 0.5j, -1j))
    assert cold_run["gaussian"] == [warm, warm]
    assert cold_run["wofz_rebound"] is True
