"""Caller input is checked by the rules of `core`, at every public entry.

A point entry takes a `CutPlanePoint` or coordinates: real, near-real, NaN
and infinite coordinates raise `InvalidPointError`, and an entry that fixes
a dimension raises `InvalidArgumentError` for another one.  A kernel's real
vector t must hold one finite float per coordinate, and a declared
dimension (a catalogue-style function's, a test function's) must be an int,
not a bool, in 1..MAX_DIMENSION.  Every other integer parameter (n_factor's
rho, a Stoltz limit's axis and alternate bases, a Richardson order) must
be an int, not a bool, in its own range.  A curve whose slope is too small for
double precision raises `InvalidArgumentError`, never NaN.
"""

import json

import pytest

from polyherglotz import (
    CauchyTypeFunction,
    ClosedFormFunction,
    CurvePushforward,
    HerglotzFunction,
    HerglotzTriple,
    InvalidArgumentError,
    InvalidPointError,
    LebesgueScaled,
    catalogue,
    check_growth,
    evaluate_cauchy,
    full_symmetry_sum,
    gaussian_density,
    kernel_K,
    kernel_K1_closed,
    kernel_symmetry_residual,
    n_factor,
    nevanlinna_residual,
    phi_cauchy,
    phi_gaussian,
    point,
    poisson,
    poisson_alternating_sum,
    reconstruct_from_upper,
    restrict_to_upper,
    richardson_tableau,
    stoltz_limit,
    symmetry_residual,
)
from polyherglotz.analysis import _LinearlyShifted
from polyherglotz.cli import main
from polyherglotz.core import MAX_DIMENSION
from polyherglotz.measures import measure_to_dict, pair_integral

NAN, INF = float("nan"), float("inf")

F2 = catalogue("f2")
LAMBDA2 = CauchyTypeFunction(LebesgueScaled(1.0, 2))
HERGLOTZ2 = HerglotzFunction(HerglotzTriple(0.5, (1.0, 0.0), LebesgueScaled(1.0, 2)))
T2 = (0.3, -0.4)

#: Every public entry that takes a two-variable point, called at z.
POINT_ENTRIES = {
    "CutPlanePoint": lambda z: point(*z),
    "CauchyTypeFunction.evaluate": LAMBDA2.evaluate,
    "CauchyTypeFunction.__call__": LAMBDA2,
    "evaluate_cauchy": lambda z: evaluate_cauchy(LebesgueScaled(1.0, 2), z),
    "HerglotzFunction.evaluate": HERGLOTZ2.evaluate,
    "ClosedFormFunction.__call__": F2,
    "ClosedFormFunction.evaluate": F2.evaluate,
    "UpperRestriction.evaluate": restrict_to_upper(F2).evaluate,
    "_LinearlyShifted.__call__": _LinearlyShifted(F2, (0.0, 1.0)),
    "symmetry_residual": lambda z: symmetry_residual(F2, z),
    "full_symmetry_sum": lambda z: full_symmetry_sum(F2, z),
    "reconstruct_from_upper": lambda z: reconstruct_from_upper(restrict_to_upper(F2), z),
    "stoltz_limit": lambda z: stoltz_limit(F2, 1, z),
    "nevanlinna_residual": lambda z: nevanlinna_residual(LebesgueScaled(1.0, 2), z),
    "kernel_K": lambda z: kernel_K(z, T2),
    "poisson": lambda z: poisson(z, T2),
    "kernel_symmetry_residual": lambda z: kernel_symmetry_residual(z, T2),
    "poisson_alternating_sum": lambda z: poisson_alternating_sum(z, T2),
    "kernel_K1_closed": lambda z: kernel_K1_closed(z[0], 0.3),
    "n_factor(-1)": lambda z: n_factor(-1, z[0], 0.3),
    "n_factor(0)": lambda z: n_factor(0, z[0], 0.3),
}

#: The scalar entries, which read z[0] alone.
SCALAR_ENTRIES = {"kernel_K1_closed", "n_factor(-1)", "n_factor(0)"}
#: The entries that take a whole point.  Each rejects a point of dimension
#: 3: through its own check, the function's public call, or t's length.
WHOLE_POINT_ENTRIES = sorted(set(POINT_ENTRIES) - SCALAR_ENTRIES - {"CutPlanePoint"})

BAD_COORDINATES = {
    "nan": complex(NAN, 1.0),
    "nan_imag": complex(0.5, NAN),
    "inf": complex(INF, 1.0),
    "inf_imag": complex(0.0, INF),
    "real": 0.7 + 0j,
    "zero": 0j,
    "denormal_imag": 1e-320j,
    "below_min_imag": complex(2.0, -1e-301),
}


@pytest.mark.parametrize("coord", BAD_COORDINATES.values(), ids=BAD_COORDINATES.keys())
@pytest.mark.parametrize("entry", sorted(POINT_ENTRIES))
def test_every_point_entry_rejects_a_coordinate_off_the_cut_plane(entry, coord):
    with pytest.raises(InvalidPointError):
        POINT_ENTRIES[entry]((coord, 1j))
    if entry not in SCALAR_ENTRIES:
        with pytest.raises(InvalidPointError):
            POINT_ENTRIES[entry]((1j, coord))


@pytest.mark.parametrize("entry", WHOLE_POINT_ENTRIES)
def test_every_point_entry_with_a_dimension_rejects_another(entry):
    # reconstruction needs a lower coordinate, which the C+ entries refuse
    z = (1j, 2j, -3j) if entry == "reconstruct_from_upper" else (1j, 2j, 3j)
    with pytest.raises(InvalidArgumentError, match="dimension 3 where 2|must hold 3 "):
        POINT_ENTRIES[entry](z)


def outcome(f, z) -> str:
    """repr of f(z), or the type and message of the error it raises."""
    try:
        return repr(f(z))
    except InvalidArgumentError as e:
        return f"{type(e).__name__}: {e}"


@pytest.mark.parametrize("z", [(0.4 + 1.2j, 0.3 + 0.8j), (0.4 + 1.2j, 0.3 - 0.8j)])
@pytest.mark.parametrize("entry", WHOLE_POINT_ENTRIES)
def test_every_point_entry_takes_coordinates_as_their_point(entry, z):
    f = POINT_ENTRIES[entry]
    assert outcome(f, z) == outcome(f, point(*z))


# --- the real vector t --------------------------------------------------------

KERNEL_T_ENTRIES = {
    "kernel_K": lambda t: kernel_K(point(1j, 1j), t),
    "poisson": lambda t: poisson(point(1j, 1j), t),
    "kernel_symmetry_residual": lambda t: kernel_symmetry_residual(point(1j, 1j), t),
    "poisson_alternating_sum": lambda t: poisson_alternating_sum(point(1j, 1j), t),
    "kernel_K1_closed": lambda t: kernel_K1_closed(1j, t[0]),
    "n_factor": lambda t: n_factor(1, 1j, t[0]),
}


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
@pytest.mark.parametrize("entry", sorted(KERNEL_T_ENTRIES))
def test_every_kernel_entry_rejects_a_non_finite_t(entry, bad):
    with pytest.raises(InvalidArgumentError):
        KERNEL_T_ENTRIES[entry]((bad, 0.0))


@pytest.mark.parametrize("t", [(0.1,), (0.1, 0.2, 0.3), ()])
@pytest.mark.parametrize(
    "entry", ["kernel_K", "poisson", "kernel_symmetry_residual", "poisson_alternating_sum"]
)
def test_every_kernel_entry_rejects_a_t_of_another_length(entry, t):
    with pytest.raises(InvalidArgumentError):
        KERNEL_T_ENTRIES[entry](t)


# --- declared dimensions -----------------------------------------------------------

BAD_DIMENSIONS = [0, MAX_DIMENSION + 1, 2.5, True, "2", None]


@pytest.mark.parametrize("n", BAD_DIMENSIONS, ids=repr)
@pytest.mark.parametrize(
    "make",
    [
        lambda n: ClosedFormFunction("x", n, {}),
        phi_cauchy,
        phi_gaussian,
        lambda n: phi_gaussian(n, 0.5),
    ],
    ids=["ClosedFormFunction", "phi_cauchy", "phi_gaussian", "phi_gaussian_narrow"],
)
def test_declared_dimensions_follow_the_dimension_rule(make, n):
    with pytest.raises(InvalidArgumentError, match=f"int in 1..{MAX_DIMENSION}"):
        make(n)


@pytest.mark.parametrize("phi", ["cauchy0d", "gauss0d", "cauchy9d", "gauss9d"])
def test_cli_rejects_a_phi_dimension_out_of_range(phi, capsys):
    assert main(["invert", "--fn", "cauchy:lebesgue1", "--phi", phi]) == 2
    assert f"int in 1..{MAX_DIMENSION}" in capsys.readouterr().err


# --- integer parameters ------------------------------------------------------------

#: Every public integer parameter other than a dimension, called with k.
INTEGER_ENTRIES = {
    "n_factor rho": lambda k: n_factor(k, 1j, 0.3),
    "stoltz_limit axis": lambda k: stoltz_limit(F2, k, (1j, 1j)),
    "stoltz_limit base_alternates": lambda k: stoltz_limit(F2, 1, (1j, 1j), base_alternates=k),
    "richardson_tableau order": lambda k: richardson_tableau([1.0, 2.0], [1.0, 0.5], k),
}


@pytest.mark.parametrize("k", [True, False, 1.0, 0.0, "1", None], ids=repr)
@pytest.mark.parametrize("entry", INTEGER_ENTRIES.values(), ids=INTEGER_ENTRIES.keys())
def test_integer_parameters_reject_a_bool_or_a_non_int(entry, k):
    with pytest.raises(InvalidArgumentError, match="must be an int"):
        entry(k)


@pytest.mark.parametrize(
    "entry, k",
    [("n_factor rho", -2), ("n_factor rho", 2), ("stoltz_limit axis", 0),
     ("stoltz_limit axis", 3), ("stoltz_limit base_alternates", -1),
     ("richardson_tableau order", -1)],
)
def test_integer_parameters_reject_an_int_out_of_range(entry, k):
    with pytest.raises(InvalidArgumentError, match="must be an int"):
        INTEGER_ENTRIES[entry](k)


@pytest.mark.parametrize(
    "entry, k",
    [("n_factor rho", -1), ("n_factor rho", 1), ("stoltz_limit axis", 2),
     ("stoltz_limit base_alternates", 0), ("richardson_tableau order", 0)],
)
def test_integer_parameters_accept_an_int_in_range(entry, k):
    INTEGER_ENTRIES[entry](k)


# --- curves with a slope too small for double precision ------------------------------


def tiny_curve(alpha):
    return CurvePushforward((alpha, alpha), (0.0, 0.0), gaussian_density(0.4, 0.7))


@pytest.mark.parametrize("alpha", [1e-200, 1e-320, -1e-250])
def test_a_tiny_slope_raises_in_the_curve_quadrature(alpha):
    mu = tiny_curve(alpha)
    for run in (
        lambda: pair_integral(mu, [(1j, -1j), (2j, -1j)]),
        lambda: check_growth(mu),
        lambda: CauchyTypeFunction(mu).evaluate(point(1j, 2j)),
    ):
        with pytest.raises(InvalidArgumentError, match="overflows double precision"):
            run()


@pytest.mark.parametrize("alpha", [1e-200, 1e-320])
def test_a_tiny_slope_with_a_zero_factor_gives_zero(alpha):
    """pair(i, i) vanishes on every axis, so the product does too."""
    assert pair_integral(tiny_curve(alpha), [(1j, 1j), (2j, -1j)]) == (0j, 0.0)


def test_a_slope_within_range_keeps_its_value():
    mu = tiny_curve(1e-60)
    assert repr(pair_integral(mu, [(1j, -1j)] * 2)) == (
        "((1.0000488433275618+0j), 0.43530360429430554)"
    )
    growth = check_growth(mu)
    assert growth.finite and repr(growth.value) == "1.0000488433275618"


def test_cli_rejects_a_tiny_slope(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"type": "cauchy", "measure": measure_to_dict(tiny_curve(1e-200))}))
    assert main(["eval", "--fn", f"@{path}", "--point", "i,2i"]) == 2
    assert "overflows double precision" in capsys.readouterr().err
