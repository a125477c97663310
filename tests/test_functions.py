import itertools
import json
import math

import numpy as np
import pytest

from polyherglotz import (
    CauchyTypeFunction,
    ClosedFormFunction,
    F4_DEFINING_MEASURE,
    F4_NEVANLINNA_MEASURE,
    HerglotzFunction,
    HerglotzTriple,
    InvalidArgumentError,
    InvalidMeasureError,
    LebesgueScaled,
    MU2,
    PolyherglotzError,
    UnknownCatalogueIdError,
    catalogue,
    evaluate_cauchy,
    function_from_dict,
    function_from_json,
    measure_to_dict,
    point,
    positivity_check,
    restrict_to_upper,
)
from polyherglotz.measures import Atomic, check_growth, GrowthResult
from conftest import random_cut_point

PI = math.pi

COMPONENT_POINTS = {
    (1, 1): point(2j, 3j),
    (-1, 1): point(-2j, 3j),
    (1, -1): point(2j, -3j),
    (-1, -1): point(-2j, -3j),
}


def test_catalogue_frozen_values():
    # hand-evaluated closed forms
    f2 = catalogue("f2")
    assert abs(f2(point(4j, 4j)) - (-0.1j)) < 1e-16
    f7 = catalogue("f7")
    assert f7(point(-1j, -1j)) == -1j
    assert f7(point(1j, 5j)) == 1j
    f0 = catalogue("f0")
    assert f0(point(1j, 1j)) == -1j
    assert f0(point(-2j, 3j)) == 1.0 / 3j


def test_catalogue_unknown_id():
    with pytest.raises(UnknownCatalogueIdError):
        catalogue("f8")


@pytest.mark.parametrize("fid", [5, ["f2"], None, ("f2",)])
def test_catalogue_id_must_be_a_string(fid):
    with pytest.raises(UnknownCatalogueIdError):
        catalogue(fid)
    with pytest.raises(UnknownCatalogueIdError):
        function_from_dict({"type": "catalogue", "id": fid})


@pytest.mark.parametrize(
    "obj, where",
    [
        ({"type": "catalogue", "id": "f2", "extra": 1}, "catalogue"),
        ({"type": "cauchy", "measure": {}, "extra": 1}, "cauchy"),
        ({"type": "herglotz", "a": 0, "b": [], "measure": {}, "extra": 1}, "herglotz"),
    ],
)
def test_unknown_descriptor_fields_are_named(obj, where):
    with pytest.raises(InvalidArgumentError, match=rf"unknown fields \['extra'\] in {where}"):
        function_from_dict(obj)


def test_catalogue_dimension_check():
    with pytest.raises(InvalidArgumentError):
        catalogue("f7")(point(1j))


@pytest.mark.parametrize("fid", [f"f{k}" for k in range(8)])
def test_closed_form_branch_table_is_the_branch_dict(rng, fid):
    f = catalogue(fid)
    for signs in COMPONENT_POINTS:
        for _ in range(5):
            zs = random_cut_point(rng, 2, signs).coords
            assert repr(f._at(zs)) == repr(f.branches[signs](*zs)), signs


def test_closed_form_in_three_variables(rng):
    # a distinct closed form on each of the 8 components
    components = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    branches = {
        s: (lambda z1, z2, z3, k=k: k + z1 * z2 - 1 / z3) for k, s in enumerate(components)
    }
    f = ClosedFormFunction("g3", 3, branches)
    for signs, branch in branches.items():
        zs = random_cut_point(rng, 3, signs).coords
        assert repr(f._at(zs)) == repr(f(point(*zs))) == repr(branch(*zs)), signs
    del branches[(1, -1, 1)]
    g = ClosedFormFunction("g3", 3, branches)
    assert g(point(1j, 2j, 3j)) == f(point(1j, 2j, 3j))
    z = point(1j, -2j, 3j)
    for at in (g, lambda z: g._at(z.coords)):
        with pytest.raises(
            InvalidArgumentError, match=r"^g3 has no branch for component \(1, -1, 1\)$"
        ):
            at(z)


@pytest.mark.parametrize("dimension", [0, 9, 2.0])
def test_closed_form_dimension_must_be_an_int_in_range(dimension):
    with pytest.raises(InvalidArgumentError):
        ClosedFormFunction("g", dimension, {})


def test_cauchy_lambda2_is_plus_minus_i(rng):
    # the Cauchy transform of Lebesgue measure on R^2 is the constant i on
    # the all-upper component and -i on every other component
    g = CauchyTypeFunction(LebesgueScaled(1.0, 2))
    for signs, p in COMPONENT_POINTS.items():
        want = 1j if signs == (1, 1) else -1j
        val, err = g.evaluate(p)
        assert abs(val - want) < 1e-8
        assert err < 1e-6
    for _ in range(10):
        p = random_cut_point(rng, 2)
        want = 1j if p.is_upper() else -1j
        assert abs(g(p) - want) < 1e-7


def test_mu2_quadrature_matches_f2_closed_form(rng):
    f2 = catalogue("f2")
    g = CauchyTypeFunction(MU2)
    for signs in COMPONENT_POINTS:
        for _ in range(10):
            p = random_cut_point(rng, 2, signs=signs)
            assert abs(g(p) - f2(p)) < 1e-8


def test_f4_defining_measure_matches_catalogue(rng):
    f4 = catalogue("f4")
    for _ in range(8):
        p = random_cut_point(rng, 2)
        assert abs(evaluate_cauchy(F4_DEFINING_MEASURE, p) - f4(p)) < 1e-7


def test_f4_nevanlinna_measure_represents_f4_on_upper(rng):
    # alternative representation of f4 restricted to the all-upper component
    h = HerglotzFunction(HerglotzTriple(0.0, (0.0, 0.0), F4_NEVANLINNA_MEASURE))
    f4 = catalogue("f4")
    for _ in range(8):
        p = random_cut_point(rng, 2, signs=(1, 1))
        assert abs(h(p) - f4(p)) < 1e-7


def test_herglotz_linear_part():
    triple = HerglotzTriple(1.0, (2.0,), LebesgueScaled(0.0, 1))
    h = HerglotzFunction(triple)
    assert h(point(1j)) == 1 + 2j
    assert HerglotzFunction(triple)(point(2 + 3j)) == 1 + 2 * (2 + 3j)


def test_herglotz_b_validation():
    with pytest.raises(InvalidArgumentError):
        HerglotzTriple(0.0, (-1.0,), LebesgueScaled(1.0, 1))
    with pytest.raises(InvalidArgumentError):
        HerglotzTriple(0.0, (1.0,), LebesgueScaled(1.0, 2))


@pytest.mark.parametrize(
    "a, b",
    [(math.nan, (0.0, 0.0)), (math.inf, (0.0, 1.0)), (0.0, (0.0, math.inf)), (1.0, (math.nan, 0.0))],
)
def test_herglotz_a_and_b_must_be_finite(a, b):
    with pytest.raises(InvalidArgumentError, match="finite"):
        HerglotzTriple(a, b, LebesgueScaled(1.0, 2))


def test_cauchy_n1_herglotz_values():
    # (1/pi) integral K_1 dt = i on C+, -i on C-
    g = CauchyTypeFunction(LebesgueScaled(1.0, 1))
    assert abs(g(point(0.3 + 0.8j)) - 1j) < 1e-9
    assert abs(g(point(-2 - 0.5j)) + 1j) < 1e-9


def test_upper_restriction():
    f = restrict_to_upper(catalogue("f4"))
    assert f(point(1j, 1j)) == catalogue("f4")(point(1j, 1j))
    with pytest.raises(InvalidArgumentError):
        f(point(-1j, 1j))


def test_positivity_probe():
    assert positivity_check(catalogue("f7"), seed=1729).verdict == "pass"
    # f2 fails positivity; (4i,4i) alone witnesses Im = -0.1
    assert positivity_check(catalogue("f2"), seed=1729).max_residual >= 0.09


def test_function_descriptors():
    f = function_from_dict({"type": "catalogue", "id": "f2"})
    assert abs(f(point(4j, 4j)) - (-0.1j)) < 1e-16
    g = function_from_dict(
        {"type": "cauchy", "measure": {"type": "lebesgue_scaled", "c": 1, "dimension": 2}}
    )
    assert abs(g(point(1j, 1j)) - 1j) < 1e-8
    h = function_from_dict(
        {
            "type": "herglotz",
            "a": 1.0,
            "b": [2.0],
            "measure": {"type": "atomic", "points": [], "weights": [], "dimension": 1},
        }
    )
    assert h(point(1j)) == 1 + 2j
    with pytest.raises(InvalidArgumentError):
        function_from_dict({"type": "nope"})
    with pytest.raises(UnknownCatalogueIdError):
        function_from_dict({"type": "catalogue", "id": "f99"})


def test_function_descriptor_upper_restriction():
    f = function_from_dict({"type": "catalogue", "id": "f4-upper"})
    assert abs(f(point(1j, 1j)) - catalogue("f4")(point(1j, 1j))) == 0.0
    with pytest.raises(InvalidArgumentError):
        f(point(-1j, 1j))


#: One JSON descriptor of each kind `function_from_json` reads.
JSON_DESCRIPTORS = {
    "catalogue": '{"type": "catalogue", "id": "f2"}',
    "catalogue upper": '{"type": "catalogue", "id": "f4-upper"}',
    "cauchy": json.dumps({"type": "cauchy", "measure": measure_to_dict(MU2)}),
    "herglotz": json.dumps(
        {
            "type": "herglotz",
            "a": 0.5,
            "b": [1.0, 2.5],
            "measure": {"type": "lebesgue_scaled", "c": 1.0, "dimension": 2},
        }
    ),
}


@pytest.mark.parametrize("kind", sorted(JSON_DESCRIPTORS))
def test_function_from_json_is_function_from_dict_of_the_parsed_text(kind):
    """The same function, to the bit, at points on every component it
    accepts; the restriction refuses the others, as its dict twin does."""
    text = JSON_DESCRIPTORS[kind]
    f, g = function_from_json(text), function_from_dict(json.loads(text))
    assert type(f) is type(g) and f.dimension == g.dimension
    rng = np.random.default_rng(20261021)
    for signs in itertools.product((1, -1), repeat=f.dimension):
        for _ in range(3):
            z = random_cut_point(rng, f.dimension, signs)
            if kind == "catalogue upper" and -1 in signs:
                for h in (f, g):
                    with pytest.raises(InvalidArgumentError, match="only defined on C"):
                        h(z)
                continue
            assert repr(f(z)) == repr(g(z))
            assert repr(f.evaluate(z)) == repr(g.evaluate(z))


@pytest.mark.parametrize(
    "text",
    ['{"type": "catalogue", "id": "f2"', "catalogue:f2", "", "[1, 2]", "5"],
    ids=["unclosed", "shorthand", "empty", "list", "number"],
)
def test_function_from_json_rejects_text_that_is_no_descriptor(text):
    with pytest.raises(ValueError):  # json.JSONDecodeError or the library's error
        function_from_json(text)


@pytest.mark.parametrize(
    "obj",
    [
        {"type": "herglotz", "a": 0.0, "b": 5, "measure": {"type": "lebesgue_scaled", "c": 1.0}},
        {"type": "herglotz", "a": 0.0, "b": "ab", "measure": measure_to_dict(MU2)},
        {"type": "cauchy", "measure": {"type": "atomic", "points": 5, "weights": [1.0]}},
        {"type": "cauchy", "measure": {"type": "atomic", "points": [[0.5]], "weights": None}},
        {"type": "cauchy", "measure": {"type": "curve_pushforward", "curve": {"alpha": 1,
         "beta": [0.0]}, "weight": {"form": "constant", "c": 1.0}, "scale": 1.0}},
        {"type": "catalogue", "id": ["f2"]},
    ],
    ids=["b number", "b str", "atom points", "atom weights", "curve alpha", "id list"],
)
def test_function_from_json_raises_the_library_error_for_malformed_fields(obj):
    with pytest.raises(PolyherglotzError):
        function_from_json(json.dumps(obj))


def test_quadrature_error_estimates_reported():
    g = CauchyTypeFunction(MU2)
    val, err = g.evaluate(point(1j, 2j))
    assert err > 0.0
    assert err < 1e-8


#: Two atoms whose growth integral overflows double precision.
INFINITE_GROWTH = Atomic(((0.0,), (0.0,)), (1.7e308, 1.7e308))


@pytest.mark.parametrize(
    "build",
    [
        lambda: CauchyTypeFunction(INFINITE_GROWTH),
        lambda: evaluate_cauchy(INFINITE_GROWTH, point(1j)),
        lambda: HerglotzFunction(HerglotzTriple(0.0, (0.0,), INFINITE_GROWTH)),
        lambda: function_from_dict({
            "type": "cauchy",
            "measure": {"type": "atomic", "points": [[0.0], [0.0]], "weights": [1.7e308] * 2},
        }),
        lambda: function_from_dict({
            "type": "herglotz", "a": 0.0, "b": [0.0],
            "measure": {"type": "atomic", "points": [[0.0], [0.0]], "weights": [1.7e308] * 2},
        }),
    ],
    ids=["cauchy", "evaluate_cauchy", "herglotz", "cauchy descriptor", "herglotz descriptor"],
)
def test_a_function_of_a_measure_with_infinite_growth_is_refused(build):
    """The growth integral is not finite: building the function raises,
    where it evaluated to NaN with an error estimate of 0."""
    with pytest.raises(InvalidMeasureError, match="growth integral of the measure is not finite"):
        build()
    assert check_growth(INFINITE_GROWTH) == GrowthResult(False, math.inf)


def test_a_herglotz_triple_leaves_the_growth_to_its_function():
    triple = HerglotzTriple(0.0, (0.0,), INFINITE_GROWTH)
    assert triple.mu is INFINITE_GROWTH


def test_a_restriction_checks_the_dimension_before_the_half_plane():
    """Off C+^n and of the wrong dimension: both calls give the dimension
    error, as `nevanlinna_residual` does."""
    f = restrict_to_upper(catalogue("f4"))
    for call in (f, f.evaluate):
        with pytest.raises(InvalidArgumentError, match="dimension 3 where 2 is expected"):
            call(point(-1j, 1j, 1j))
        with pytest.raises(InvalidArgumentError, match=r"only defined on C\+\^n$"):
            call(point(-1j, 1j))
