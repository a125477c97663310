import math

import pytest

from polyherglotz import (
    CauchyTypeFunction,
    F4_DEFINING_MEASURE,
    F4_NEVANLINNA_MEASURE,
    HerglotzFunction,
    HerglotzTriple,
    InvalidArgumentError,
    LebesgueScaled,
    MU2,
    UnknownCatalogueIdError,
    catalogue,
    evaluate_cauchy,
    function_from_dict,
    point,
    positivity_check,
    restrict_to_upper,
)
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


def test_catalogue_dimension_check():
    with pytest.raises(InvalidArgumentError):
        catalogue("f7")(point(1j))


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


def test_quadrature_error_estimates_reported():
    g = CauchyTypeFunction(MU2)
    val, err = g.evaluate(point(1j, 2j))
    assert err > 0.0
    assert err < 1e-8
