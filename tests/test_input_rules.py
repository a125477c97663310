"""Caller input is checked by the rules of `core`, at every public entry.

A point entry takes a `CutPlanePoint` or coordinates: real, near-real, NaN
and infinite coordinates raise `InvalidPointError`, and an entry that fixes
a dimension raises `InvalidArgumentError` for another one.  A kernel's real
vector t, and the x of a boundary point, must hold one finite real, not a
bool, per coordinate, and a declared dimension (a catalogue-style
function's, a test function's) must be an int, not a bool, in
1..MAX_DIMENSION.  Every other integer parameter (n_factor's
rho, a Stoltz limit's axis and alternate bases, a Richardson order) must
be an int, not a bool, in its own range, and so must a sampled check's seed.
Every real parameter (a tolerance, a width, a ladder step, a measure's
weights, coordinates and scales, a Herglotz a and b) must be a finite real,
not a bool, in its own range, and raises its entry's own error class
otherwise; a boundary height y must lift x off the real axis.  The entries
defined on C+^n only share one message for a point outside it, and every
entry that takes a measure argument rejects anything else as an unknown
variant.  A curve whose slope is too small for double precision raises
`InvalidArgumentError`, never NaN, in both curve engines, unless a zero
factor makes the product 0.  The limit and inversion entries take their
configs as `LimitConfig` and `QuadratureConfig` instances, or raise
`InvalidArgumentError` before any work, and so do the two public
quadratures, `integrate_line` and `integrate_rn`: integrate_rn's n follows
the dimension rule and integrate_line's `complex_func` is None or a bool,
checked before the integrand is called.  A caller's sequence (an atom's
points and weights, a curve's alpha and beta, a Herglotz b, a config's
ladders, a kernel's t, product factors, sum terms) is any iterable but a
str, and junk in any data argument of a public constructor, config or
point entry, of `pair_integral` or of the JSON readers raises the
library's error or gives a result, never a raw TypeError, ValueError or
AttributeError.  A pole pair is two finite complex numbers off the real
axis, by the rule of a point's coordinates.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyherglotz import (
    Atomic,
    CauchyTypeFunction,
    ClosedFormFunction,
    CurvePushforward,
    CutPlanePoint,
    DensityDescriptor,
    HerglotzFunction,
    HerglotzTriple,
    InvalidArgumentError,
    PolyherglotzError,
    ProductDensity,
    TestFunction,
    InvalidMeasureError,
    InvalidPointError,
    LebesgueScaled,
    LimitConfig,
    MU2,
    MeasureSum,
    QuadratureConfig,
    analysis,
    catalogue,
    characterize,
    check_growth,
    cauchy_weight,
    constant_density,
    evaluate_cauchy,
    full_symmetry_sum,
    function_from_dict,
    function_from_json,
    gaussian_density,
    integrate,
    kernel_K,
    kernel_K1_closed,
    kernel_symmetry_residual,
    measure_from_dict,
    measure_from_json,
    measure_to_json,
    n_factor,
    nevanlinna_residual,
    nondependence_test,
    phi_cauchy,
    phi_gaussian,
    point,
    poisson,
    poisson_alternating_sum,
    positivity_check,
    rational_density,
    reconstruct_from_upper,
    restrict_to_upper,
    richardson_tableau,
    stieltjes_cauchy_type,
    stieltjes_classic,
    stoltz_limit,
    symmetry_check,
    symmetry_residual,
)
from polyherglotz.analysis import alternating_boundary_sum
from polyherglotz.cli import main
from polyherglotz.core import MAX_DIMENSION
from polyherglotz.functions import _Affine
from polyherglotz.measures import (
    _curve_pair_integral,
    density_from_dict,
    measure_to_dict,
    pair_integral,
)
from polyherglotz.quadrature import integrate_line, integrate_rn
from conftest import count_calls

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
    "_Affine.__call__": _Affine(F2, 0.0, (-0.0, -1.0)),
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


# --- real vectors: a kernel's t, a boundary point's x ---------------------------

KERNEL_T_ENTRIES = {
    "kernel_K": lambda t: kernel_K(point(1j, 1j), t),
    "poisson": lambda t: poisson(point(1j, 1j), t),
    "kernel_symmetry_residual": lambda t: kernel_symmetry_residual(point(1j, 1j), t),
    "poisson_alternating_sum": lambda t: poisson_alternating_sum(point(1j, 1j), t),
    "kernel_K1_closed": lambda t: kernel_K1_closed(1j, t[0]),
    "n_factor": lambda t: n_factor(1, 1j, t[0]),
    "alternating_boundary_sum": lambda t: alternating_boundary_sum(F2, t, 0.5),
}


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
@pytest.mark.parametrize("entry", sorted(KERNEL_T_ENTRIES))
def test_every_kernel_entry_rejects_a_non_finite_t(entry, bad):
    with pytest.raises(InvalidArgumentError):
        KERNEL_T_ENTRIES[entry]((bad, 0.0))


@pytest.mark.parametrize("t", [(0.1,), (0.1, 0.2, 0.3), ()])
@pytest.mark.parametrize(
    "entry",
    ["kernel_K", "poisson", "kernel_symmetry_residual", "poisson_alternating_sum",
     "alternating_boundary_sum"],
)
def test_every_kernel_entry_rejects_a_t_of_another_length(entry, t):
    with pytest.raises(InvalidArgumentError):
        KERNEL_T_ENTRIES[entry](t)


@pytest.mark.parametrize("bad", ["0.5", True, False, 1j, None], ids=repr)
@pytest.mark.parametrize("entry", sorted(KERNEL_T_ENTRIES))
def test_every_real_vector_entry_rejects_what_is_not_a_real(entry, bad):
    with pytest.raises(InvalidArgumentError, match="finite reals"):
        KERNEL_T_ENTRIES[entry]((bad, 0.0))


def test_real_vectors_take_ints_and_numpy_reals_as_floats():
    z = point(0.4 + 1.2j, 0.3 - 0.8j)
    assert repr(kernel_K(z, (1, np.float64(0.5)))) == repr(kernel_K(z, (1.0, 0.5)))
    assert repr(alternating_boundary_sum(F2, [np.int64(1), 0.5], 0.25)) == repr(
        alternating_boundary_sum(F2, (1.0, 0.5), 0.25)
    )


# --- config arguments ---------------------------------------------------------------

#: Every config argument of a limit or inversion entry, called with c.
CONFIG_ENTRIES = {
    "stoltz_limit cfg": lambda c: stoltz_limit(F2, 1, (1j, 1j), c),
    "characterize cfg": lambda c: characterize(F2, c),
    "stieltjes_classic cfg": lambda c: stieltjes_classic(restrict_to_upper(F2), phi_cauchy(2), c),
    "stieltjes_classic quad": (
        lambda c: stieltjes_classic(restrict_to_upper(F2), phi_cauchy(2), quad=c)
    ),
    "stieltjes_cauchy_type cfg": lambda c: stieltjes_cauchy_type(F2, phi_cauchy(2), c),
    "stieltjes_cauchy_type quad": lambda c: stieltjes_cauchy_type(F2, phi_cauchy(2), quad=c),
}


@pytest.mark.parametrize(
    "bad", [{}, {"stoltz_angle": 0.5}, None, "default", "swapped"], ids=repr
)
@pytest.mark.parametrize("entry", sorted(CONFIG_ENTRIES))
def test_config_arguments_reject_anything_but_their_config(monkeypatch, entry, bad):
    # "swapped" stands for the entry's other config type
    if bad == "swapped":
        bad = QuadratureConfig() if entry.endswith("cfg") else LimitConfig()
    resolved = count_calls(monkeypatch, analysis, "_on_coords")
    spot_checked = count_calls(monkeypatch, analysis, "_spot_check_bound")
    with pytest.raises(InvalidArgumentError, match="Config is expected") as info:
        CONFIG_ENTRIES[entry](bad)
    assert info.type is InvalidArgumentError and resolved == spot_checked == []


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


# --- quadrature entries -------------------------------------------------------------

#: The two public quadratures, each called with a recording integrand that
#: decays like 1/(1+t^2) per axis, and its keyword arguments.
QUADRATURE_ENTRIES = {
    "integrate_line": lambda seen, **kw: integrate_line(
        lambda t: seen.append(t) or 1.0 / (1.0 + t * t), **kw
    ),
    "integrate_rn": lambda seen, n=2, **kw: integrate_rn(
        lambda x: seen.append(x) or 1.0 / math.prod(1.0 + t * t for t in x), n, **kw
    ),
}


@pytest.mark.parametrize("n", BAD_DIMENSIONS + [-1], ids=repr)
def test_integrate_rn_takes_n_by_the_dimension_rule(n):
    seen = []
    with pytest.raises(InvalidArgumentError, match=f"int in 1..{MAX_DIMENSION}") as info:
        QUADRATURE_ENTRIES["integrate_rn"](seen, n=n)
    assert info.type is InvalidArgumentError and seen == []


@pytest.mark.parametrize(
    "cfg", [{}, {"abs_tol": 1e-8, "rel_tol": 1e-7}, None, "default", LimitConfig()], ids=repr
)
@pytest.mark.parametrize("entry", sorted(QUADRATURE_ENTRIES))
def test_quadrature_entries_take_a_quadrature_config(entry, cfg):
    seen = []
    with pytest.raises(InvalidArgumentError, match="QuadratureConfig is expected") as info:
        QUADRATURE_ENTRIES[entry](seen, cfg=cfg)
    assert info.type is InvalidArgumentError and seen == []


@pytest.mark.parametrize("flag", ["no", "", 0, 1, 1.0, np.bool_(True)], ids=repr)
def test_integrate_line_takes_complex_func_as_none_or_a_bool(flag):
    seen = []
    with pytest.raises(InvalidArgumentError, match="complex_func must be None or a bool"):
        QUADRATURE_ENTRIES["integrate_line"](seen, complex_func=flag)
    assert seen == []


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
    """pair(i, i) vanishes on every axis, so the product does too, in the
    curve quadrature and in the exact engine alike."""
    pairs = [(1j, 1j), (2j, -1j)]
    for weight in (gaussian_density(0.4, 0.7), constant_density(1.0)):
        mu = CurvePushforward((alpha, alpha), (0.0, 0.0), weight)
        assert pair_integral(mu, pairs) == (0j, 0.0)
        assert _curve_pair_integral(mu, pairs) == 0j


def test_a_slope_within_range_keeps_its_value():
    mu = tiny_curve(1e-60)
    assert repr(pair_integral(mu, [(1j, -1j)] * 2)) == (
        "((1.0000488433275618+0j), 0.43530360429430554)"
    )
    growth = check_growth(mu)
    assert growth.finite and repr(growth.value) == "1.0"


def test_cli_rejects_a_tiny_slope(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"type": "cauchy", "measure": measure_to_dict(tiny_curve(1e-200))}))
    assert main(["eval", "--fn", f"@{path}", "--point", "i,2i"]) == 2
    assert "overflows double precision" in capsys.readouterr().err


# --- real parameters ------------------------------------------------------------------

W = constant_density(1.0)
LAMBDA1 = LebesgueScaled(1.0, 1)

#: Every real parameter, as (its entry called with x, the entry's error class,
#: values out of its range).  A parameter that any finite real may take has none.
REAL_ENTRIES = {
    "LimitConfig stoltz_angle": (
        lambda x: LimitConfig(stoltz_angle=x), InvalidArgumentError, [0.0, -0.5, 1.6]
    ),
    "LimitConfig radius_sequence": (
        lambda x: LimitConfig(radius_sequence=x), InvalidArgumentError, [(), []]
    ),
    "LimitConfig y_sequence": (
        lambda x: LimitConfig(y_sequence=x), InvalidArgumentError, [(), []]
    ),
    "LimitConfig radius": (
        lambda x: LimitConfig(radius_sequence=(x, 1e300)), InvalidArgumentError, [0.0, -4.0]
    ),
    "LimitConfig y step": (
        lambda x: LimitConfig(y_sequence=(1e300, x)), InvalidArgumentError, [0.0, -0.5, 1e-310]
    ),
    "symmetry_check tol": (
        lambda x: symmetry_check(F2, tol=x), InvalidArgumentError, [0.0, -1e-9]
    ),
    "positivity_check tol": (
        lambda x: positivity_check(F2, tol=x), InvalidArgumentError, [0.0, -1e-9]
    ),
    "nondependence_test tol": (
        lambda x: nondependence_test(F2, tol=x), InvalidArgumentError, [0.0, -1e-9]
    ),
    "stieltjes_cauchy_type conv_tol": (
        lambda x: stieltjes_cauchy_type(F2, phi_cauchy(2), conv_tol=x),
        InvalidArgumentError,
        [0.0, -5e-4],
    ),
    "stieltjes_classic conv_tol": (
        lambda x: stieltjes_classic(restrict_to_upper(F2), phi_cauchy(2), conv_tol=x),
        InvalidArgumentError,
        [0.0, -5e-4],
    ),
    "phi_gaussian sigma": (lambda x: phi_gaussian(2, x), InvalidArgumentError, [0.0, -1.0]),
    "alternating_boundary_sum y": (
        lambda x: alternating_boundary_sum(F2, (0.3, -0.2), x),
        InvalidPointError,
        [0.0, 1e-310, -1e-310],
    ),
    "QuadratureConfig abs_tol": (
        lambda x: QuadratureConfig(abs_tol=x), InvalidArgumentError, [0.0, -1e-10]
    ),
    "QuadratureConfig rel_tol": (
        lambda x: QuadratureConfig(rel_tol=x), InvalidArgumentError, [0.0, -1e-9]
    ),
    "HerglotzTriple a": (
        lambda x: HerglotzTriple(x, (0.0,), LAMBDA1), InvalidArgumentError, []
    ),
    "HerglotzTriple b": (
        lambda x: HerglotzTriple(0.0, (x,), LAMBDA1), InvalidArgumentError, [-1.0]
    ),
    "constant_density c": (lambda x: constant_density(x), InvalidMeasureError, [-1.0]),
    "DensityDescriptor constant c": (
        lambda x: DensityDescriptor("constant", (x,)), InvalidMeasureError, [-1.0]
    ),
    "gaussian_density mean": (lambda x: gaussian_density(x, 1.0), InvalidMeasureError, []),
    "gaussian_density sigma": (
        lambda x: gaussian_density(0.0, x), InvalidMeasureError, [0.0, -1.0]
    ),
    "DensityDescriptor gaussian mean": (
        lambda x: DensityDescriptor("gaussian", (x, 1.0)), InvalidMeasureError, []
    ),
    "DensityDescriptor gaussian sigma": (
        lambda x: DensityDescriptor("gaussian", (0.0, x)), InvalidMeasureError, [0.0, -1.0]
    ),
    "Atomic weight": (lambda x: Atomic(((0.5,),), (x,)), InvalidMeasureError, [-1.0]),
    "Atomic coordinate": (lambda x: Atomic(((x,),), (1.0,)), InvalidMeasureError, []),
    "LebesgueScaled c": (lambda x: LebesgueScaled(x, 2), InvalidMeasureError, [-1.0]),
    "CurvePushforward alpha": (
        lambda x: CurvePushforward((x, 1.0), (0.0, 0.0), W), InvalidMeasureError, []
    ),
    "CurvePushforward beta": (
        lambda x: CurvePushforward((1.0, 1.0), (0.0, x), W), InvalidMeasureError, []
    ),
    "CurvePushforward scale": (
        lambda x: CurvePushforward((1.0, 1.0), (0.0, 0.0), W, x), InvalidMeasureError, [-1.0]
    ),
}

NOT_FINITE_REALS = {"bool": True, "str": "1", "complex": 1j, "nan": NAN, "inf": INF, "-inf": -INF}


def raised(entry, x) -> type:
    """The type of the exception that entry(x) raises."""
    with pytest.raises(Exception) as info:
        entry(x)
    return info.type


@pytest.mark.parametrize("x", NOT_FINITE_REALS.values(), ids=NOT_FINITE_REALS.keys())
@pytest.mark.parametrize("entry", sorted(REAL_ENTRIES))
def test_real_parameters_reject_what_is_not_a_finite_real(entry, x):
    make, error, _ = REAL_ENTRIES[entry]
    assert raised(make, x) is error


@pytest.mark.parametrize(
    "entry, x", [(e, x) for e, (_, _, out) in sorted(REAL_ENTRIES.items()) for x in out], ids=repr
)
def test_real_parameters_reject_a_value_out_of_range(entry, x):
    make, error, _ = REAL_ENTRIES[entry]
    assert raised(make, x) is error


def test_valid_reals_are_stored_as_given():
    want = '{"c": 1, "dimension": 2, "type": "lebesgue_scaled"}'
    assert measure_to_json(LebesgueScaled(1, 2)) == want
    assert DensityDescriptor("constant", (1,)).params == (1,)
    assert constant_density(1).params == (1.0,) and gaussian_density(0, 2).params == (0.0, 2.0)
    assert LimitConfig(stoltz_angle=1).stoltz_angle == 1


# --- seeds ------------------------------------------------------------------------------

SEED_ENTRIES = {
    "symmetry_check": lambda k: symmetry_check(F2, seed=k),
    "positivity_check": lambda k: positivity_check(F2, seed=k),
    "characterize": lambda k: characterize(F2, seed=k),
}


@pytest.mark.parametrize("k", [True, "1", 1j, NAN, INF, -INF, 1.5, -1], ids=repr)
@pytest.mark.parametrize("entry", sorted(SEED_ENTRIES))
def test_seeds_follow_the_integer_rule(entry, k):
    with pytest.raises(InvalidArgumentError, match="seed must be an int >= 0"):
        SEED_ENTRIES[entry](k)


def test_a_seed_is_reported_as_given():
    report = symmetry_check(catalogue("f7"), seed=0)
    assert report.config["seed"] == 0 and report.verdict == "pass"


# --- entries defined on C+^n only -------------------------------------------------------

UPPER_ENTRIES = {
    "poisson": lambda z: poisson(z, T2),
    "poisson_alternating_sum": lambda z: poisson_alternating_sum(z, T2),
    "nevanlinna_residual": lambda z: nevanlinna_residual(LebesgueScaled(1.0, 2), z),
    "UpperRestriction.evaluate": restrict_to_upper(F2).evaluate,
}


@pytest.mark.parametrize("z", [(1j, -1j), (-1j, 1j), (-1j, -2j)])
@pytest.mark.parametrize("entry", sorted(UPPER_ENTRIES))
def test_upper_entries_share_one_message_off_c_plus(entry, z):
    with pytest.raises(InvalidArgumentError, match=r"is only defined on C\+\^n$") as info:
        UPPER_ENTRIES[entry](z)
    assert info.type is InvalidArgumentError


# --- measure arguments ------------------------------------------------------------------

MEASURE_ENTRIES = {
    "CauchyTypeFunction": CauchyTypeFunction,
    "HerglotzTriple": lambda mu: HerglotzTriple(0.0, (0.0,), mu),
    "MeasureSum term": lambda mu: MeasureSum((LAMBDA1, mu)),
    "check_growth": check_growth,
    "nevanlinna_residual": lambda mu: nevanlinna_residual(mu, point(1j, 1j)),
    "integrate": lambda mu: integrate(mu, lambda t: 1.0),
    "pair_integral": lambda mu: pair_integral(mu, [(1j, -1j)]),
    "measure_to_dict": measure_to_dict,
}


@pytest.mark.parametrize(
    "mu", [True, "lambda", 1j, NAN, INF, None, W, (LAMBDA1,)], ids=repr
)
@pytest.mark.parametrize("entry", sorted(MEASURE_ENTRIES))
def test_measure_arguments_reject_a_non_measure(entry, mu):
    with pytest.raises(InvalidArgumentError, match="unknown measure variant") as info:
        MEASURE_ENTRIES[entry](mu)
    assert info.type is InvalidArgumentError


# --- junk data ------------------------------------------------------------------------

#: What a caller may pass by mistake where data is due: 1j is junk where a
#: real is due, and fed to every data argument alike.
JUNK = [None, 5, "ab", [[None]], {}, 1j]

F7 = catalogue("f7")
TRIPLE1 = HerglotzTriple(0.0, (0.0,), LAMBDA1)

#: Every public constructor, config and point entry, and the sampled checks
#: and the Richardson tableau, with valid values of its data arguments.
#: Arguments that are functions (f, phi, integrands) stay duck-typed.
JUNK_ENTRIES = {
    "DensityDescriptor": (DensityDescriptor, ["constant", (1.0,)]),
    "constant_density": (constant_density, [1.0]),
    "gaussian_density": (gaussian_density, [0.0, 1.0]),
    "rational_density": (rational_density, ["cauchy_squared"]),
    "density_from_dict": (density_from_dict, [{"form": "constant", "c": 1.0}]),
    "Atomic": (Atomic, [((0.5,),), (1.0,), 1]),
    "LebesgueScaled": (LebesgueScaled, [1.0, 1]),
    "ProductDensity": (ProductDensity, [(W, cauchy_weight())]),
    "CurvePushforward": (CurvePushforward, [(1.0,), (0.0,), W, 1.0]),
    "MeasureSum": (MeasureSum, [(LAMBDA1,)]),
    "measure_from_dict": (measure_from_dict, [measure_to_dict(LAMBDA1)]),
    "HerglotzTriple": (HerglotzTriple, [0.0, (0.0,), LAMBDA1]),
    "CauchyTypeFunction": (CauchyTypeFunction, [LAMBDA1]),
    "HerglotzFunction": (HerglotzFunction, [TRIPLE1]),
    "ClosedFormFunction": (ClosedFormFunction, ["x", 2, {}, None]),
    "catalogue": (catalogue, ["f2"]),
    "function_from_dict": (function_from_dict, [{"type": "catalogue", "id": "f2"}]),
    "phi_cauchy": (phi_cauchy, [2]),
    "phi_gaussian": (phi_gaussian, [2, 1.0]),
    "TestFunction": (lambda *a: TestFunction(*a, math.exp), ["x", 1, 1.0]),
    "LimitConfig": (LimitConfig, [0.5, (8.0, 16.0), (0.5, 0.25)]),
    "QuadratureConfig": (QuadratureConfig, [1e-10, 1e-9]),
    "point": (point, [1j, -1j]),
    "CutPlanePoint": (CutPlanePoint, [(1j, -1j)]),
    "CauchyTypeFunction.__call__": (LAMBDA2, [(1j, -1j)]),
    "CauchyTypeFunction.evaluate": (LAMBDA2.evaluate, [(1j, -1j)]),
    "HerglotzFunction.__call__": (HERGLOTZ2, [(1j, -1j)]),
    "HerglotzFunction.evaluate": (HERGLOTZ2.evaluate, [(1j, -1j)]),
    "ClosedFormFunction.__call__": (F2, [(1j, -1j)]),
    "ClosedFormFunction.evaluate": (F2.evaluate, [(1j, -1j)]),
    "UpperRestriction.evaluate": (restrict_to_upper(F2).evaluate, [(1j, 1j)]),
    "evaluate_cauchy": (evaluate_cauchy, [LAMBDA1, (1j,)]),
    "kernel_K": (kernel_K, [(1j, -1j), T2]),
    "kernel_K1_closed": (kernel_K1_closed, [1j, 0.3]),
    "n_factor": (n_factor, [1, 1j, 0.3]),
    "poisson": (poisson, [(1j, 1j), T2]),
    "kernel_symmetry_residual": (kernel_symmetry_residual, [(1j, -1j), T2]),
    "poisson_alternating_sum": (poisson_alternating_sum, [(1j, 1j), T2]),
    "nevanlinna_residual": (nevanlinna_residual, [LebesgueScaled(1.0, 2), (1j, 1j)]),
    "check_growth": (check_growth, [LAMBDA1]),
    "symmetry_residual": (lambda z: symmetry_residual(F2, z), [(1j, -1j)]),
    "full_symmetry_sum": (lambda z: full_symmetry_sum(F2, z), [(1j, -1j)]),
    "reconstruct_from_upper": (
        lambda z: reconstruct_from_upper(restrict_to_upper(F2), z), [(1j, -1j)]
    ),
    "stoltz_limit": (
        lambda *a: stoltz_limit(F2, *a), [1, (1j, 1j), LimitConfig(), "upper", 1]
    ),
    "alternating_boundary_sum": (lambda *a: alternating_boundary_sum(F2, *a), [T2, 0.5]),
    "symmetry_check": (lambda *a: symmetry_check(F7, *a), [1e-9, 0]),
    "positivity_check": (lambda *a: positivity_check(F7, *a), [1e-9, 0]),
    "nondependence_test": (lambda *a: nondependence_test(F7, *a), [1e-9]),
    "characterize": (lambda *a: characterize(F7, *a), [LimitConfig(), 0]),
    "stieltjes_classic": (
        lambda *a: stieltjes_classic(restrict_to_upper(F2), phi_cauchy(2), *a),
        [LimitConfig(), QuadratureConfig(), 5e-4],
    ),
    "stieltjes_cauchy_type": (
        lambda *a: stieltjes_cauchy_type(F2, phi_cauchy(2), *a),
        [LimitConfig(), QuadratureConfig(), 5e-4],
    ),
    "richardson_tableau": (richardson_tableau, [[1.0, 2.0], [1.0, 0.5], 1]),
    "pair_integral": (pair_integral, [LAMBDA1, [(1j, -1j)]]),
    "function_from_json": (function_from_json, ['{"type": "catalogue", "id": "f2"}']),
    "measure_from_json": (measure_from_json, [measure_to_json(LAMBDA1)]),
}


@pytest.mark.parametrize("entry", sorted(JUNK_ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_junk_data_raises_the_library_error_or_gives_a_result(entry, data):
    make, args = JUNK_ENTRIES[entry]
    k = data.draw(st.integers(0, len(args) - 1), label="argument")
    args = [*args[:k], data.draw(st.sampled_from(JUNK), label="junk"), *args[k + 1 :]]
    try:
        make(*args)
    except PolyherglotzError:
        pass


#: Malformed data, each call with the error class of its entry, which the
#: point and sequence rules of `core` raise in place of a raw TypeError,
#: ValueError or AttributeError.
MALFORMED_CALLS = {
    'point("abc")': (lambda: point("abc"), InvalidPointError),
    "point(None)": (lambda: point(None), InvalidPointError),
    "CutPlanePoint(5)": (lambda: CutPlanePoint(5), InvalidPointError),
    "stoltz_limit base": (lambda: stoltz_limit(F2, 1, 5), InvalidPointError),
    "reconstruct_from_upper": (lambda: reconstruct_from_upper(F2, 5), InvalidPointError),
    "nevanlinna_residual": (lambda: nevanlinna_residual(LAMBDA1, 5), InvalidPointError),
    "kernel_K t": (lambda: kernel_K((1j,), 5), InvalidArgumentError),
    "Atomic points": (lambda: Atomic(5, (1.0,)), InvalidMeasureError),
    "Atomic weights": (lambda: Atomic(((0.5,),), None), InvalidMeasureError),
    "CurvePushforward alpha": (lambda: CurvePushforward(5, (0.0,), W), InvalidMeasureError),
    "HerglotzTriple b": (lambda: HerglotzTriple(0.0, 5, LAMBDA1), InvalidArgumentError),
    "ProductDensity": (lambda: ProductDensity(5), InvalidMeasureError),
    "MeasureSum": (lambda: MeasureSum(5), InvalidMeasureError),
    "ClosedFormFunction branches": (
        lambda: ClosedFormFunction("x", 2, None), InvalidArgumentError
    ),
    "rational_density": (lambda: rational_density(["x"]), InvalidMeasureError),
    "richardson_tableau": (lambda: richardson_tableau(5, [1.0], 1), InvalidArgumentError),
    "HerglotzFunction": (lambda: HerglotzFunction(None), InvalidArgumentError),
    "pair_integral 5": (lambda: pair_integral(LAMBDA1, 5), InvalidArgumentError),
    "pair_integral [[None]]": (lambda: pair_integral(LAMBDA1, [[None]]), InvalidArgumentError),
    "pair_integral [(None, None)]": (
        lambda: pair_integral(LAMBDA1, [(None, None)]), InvalidArgumentError
    ),
    "pair_integral real pole": (
        lambda: pair_integral(MU2, [(1j, -1j), (0.5, -1j)]), InvalidArgumentError
    ),
    "function_from_json(None)": (lambda: function_from_json(None), InvalidArgumentError),
    "measure_from_json(5)": (lambda: measure_from_json(5), InvalidArgumentError),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CALLS))
def test_malformed_data_raises_the_entry_error(name):
    call, error = MALFORMED_CALLS[name]
    with pytest.raises(error):
        call()


def test_a_caller_sequence_is_any_iterable_but_a_str():
    assert Atomic([[0.5]], iter([2])) == Atomic(((0.5,),), (2.0,))
    assert HerglotzTriple(0, [1], LAMBDA1).b == (1.0,)
    assert LimitConfig(radius_sequence=[8, 16]).radius_sequence == (8, 16)
    for make in (
        lambda: Atomic(["ab"], (1.0,)),
        lambda: CurvePushforward("1", (0.0,), W),
        lambda: MeasureSum("ab"),
    ):
        with pytest.raises(InvalidMeasureError, match="must be a sequence, got"):
            make()
