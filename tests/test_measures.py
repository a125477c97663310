import copy
import json
import math
import pickle

import numpy as np
import pytest

from polyherglotz import (
    F4_DEFINING_MEASURE,
    F4_NEVANLINNA_MEASURE,
    MU2,
    Atomic,
    CurvePushforward,
    DensityDescriptor,
    DivergenceError,
    InvalidArgumentError,
    InvalidMeasureError,
    LebesgueScaled,
    MeasureSum,
    ProductDensity,
    cauchy_weight,
    check_growth,
    constant_density,
    gaussian_density,
    integrate,
    measure_from_dict,
    measure_from_json,
    measure_to_dict,
    measure_to_json,
    nevanlinna_residual,
    point,
    rational_density,
)
from polyherglotz import measures
from polyherglotz.core import MAX_DIMENSION
from polyherglotz.measures import density_from_dict, density_to_dict
from polyherglotz.quadrature import integrate_rn
from conftest import count_calls

PI = math.pi


def cauchy_nd(x):
    p = 1.0
    for v in x:
        p *= 1.0 / (1.0 + v * v)
    return p


def test_atomic_exact_sum():
    mu = Atomic(((0.0, 0.0), (1.0, 2.0)), (2.0, 3.0))
    val, err = integrate(mu, cauchy_nd)
    assert err == 0.0
    assert abs(val - (2.0 + 3.0 / (2 * 5))) < 1e-15


def test_atomic_validation():
    with pytest.raises(InvalidMeasureError):
        Atomic(((0.0,),), (2.0, 3.0))
    with pytest.raises(InvalidMeasureError):
        Atomic(((0.0,),), (-1.0,))
    with pytest.raises(InvalidMeasureError):
        Atomic((), ())  # needs explicit dim
    assert Atomic((), (), dim=2).dimension == 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DensityDescriptor("triangular", (1.0,)), "unknown density form"),
        (lambda: DensityDescriptor("gaussian", (0.0,)), "a gaussian density has 2"),
        (lambda: DensityDescriptor("cauchy_weight", (1.0,)), "a cauchy_weight density has 0"),
        (lambda: Atomic(((0.0,), (0.0, 1.0)), (1.0, 1.0)), "inconsistent dimensions"),
        (lambda: Atomic(((0.0, 1.0),), (1.0,), dim=3), "dim does not match"),
        (lambda: MeasureSum(()), "needs >= 1 term"),
    ],
    ids=["unknown-form", "gaussian-one-param", "cauchy-weight-one-param",
         "atoms-mixed-dimension", "atoms-dim-mismatch", "empty-sum"],
)
def test_structural_rules_reject(build, message):
    with pytest.raises(InvalidMeasureError, match=message):
        build()


def test_growth_overflowing_double_precision_is_infinite():
    g = check_growth(Atomic(((0.0,), (0.0,)), (1.7e308, 1.7e308)))
    assert g == measures.GrowthResult(False, math.inf)


def test_lebesgue_1d_cauchy_integral():
    # integral of (1+t^2)^-1 over R is pi
    val, err = integrate(LebesgueScaled(1.0, 1), cauchy_nd)
    assert abs(val - PI) < 1e-9
    assert err < 1e-6


def test_lebesgue_2d_growth():
    # growth integral of lambda^2 is pi^2
    g = check_growth(LebesgueScaled(1.0, 2))
    assert g.finite
    assert abs(g.value - PI * PI) < 1e-8


def test_mu2_growth_and_phi_integral():
    # the diagonal measure: integral of prod (1+x^2)^-1 is pi * integral
    # (1+t^2)^-2 dt = pi * pi/2
    g = check_growth(MU2)
    assert g.finite
    assert abs(g.value - PI * PI / 2) < 1e-9
    val, _ = integrate(MU2, cauchy_nd)
    assert abs(val - PI * PI / 2) < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the inner axis misses the ridge x2 = x1 far out while the outer "
    "error estimate stays near 1e-9",
)
def test_lebesgue_diagonal_ridge_within_reported_error():
    # integral of exp(-(x1-x2)^2) / ((1+x1^2)(1+x2^2)) over R^2 is
    # pi^2 e^4 erfc(2)
    def phi_diagonal(x):
        return math.exp(-((x[0] - x[1]) ** 2)) / ((1 + x[0] ** 2) * (1 + x[1] ** 2))

    exact = 2.520654290933361
    val, err = integrate(LebesgueScaled(1.0, 2), phi_diagonal)
    assert abs(val.real - exact) <= 10 * err


def test_product_density_cauchy():
    mu = ProductDensity((cauchy_weight(), cauchy_weight()))
    val, _ = integrate(mu, lambda x: 1.0)
    assert abs(val - PI * PI) < 1e-8


def test_gaussian_density_normalized():
    mu = ProductDensity((gaussian_density(1.5, 2.0),))
    val, _ = integrate(mu, lambda x: 1.0)
    assert abs(val - 1.0) < 1e-9


def gaussian_cauchy_transform_v0(w, z):
    """The Gaussian's Cauchy transform as first written: scipy's wofz in
    numpy arithmetic on C+, and conj C(conj z) on C-."""
    from scipy.special import wofz

    if z.imag < 0:
        return gaussian_cauchy_transform_v0(w, z.conjugate()).conjugate()
    m, s = w.params
    return complex(1j * PI * wofz((z - m) / (s * math.sqrt(2.0))) / (s * math.sqrt(2.0 * PI)))


@pytest.mark.parametrize("w", [gaussian_density(0.4, 0.7), gaussian_density(-1.3, 2.5),
                               gaussian_density(0.0, 0.25)], ids=repr)
def test_gaussian_cauchy_transform_is_bit_identical(w):
    """`_faddeeva` gives the same bits on both half-planes as conjugating
    wofz from C+: on and near the mean's vertical, near the axis and far out."""
    rng = np.random.default_rng(20261021)
    m = w.params[0]
    for k in range(6000):
        re = (m, rng.normal(scale=3.0), rng.normal(scale=300.0))[k % 3]
        im = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, 2.5)
        z = complex(re, im)
        assert repr(w._cauchy_transform(z)) == repr(gaussian_cauchy_transform_v0(w, z)), z
        p, q = z, complex(rng.normal(), -im)
        assert repr(w.pair_integral(p, q)) == repr(
            (gaussian_cauchy_transform_v0(w, p) - gaussian_cauchy_transform_v0(w, q)) / 2j
        )


def test_rational_density_table():
    mu = ProductDensity((rational_density("cauchy_squared"),))
    val, _ = integrate(mu, lambda x: 1.0)
    assert abs(val - PI / 2) < 1e-9
    with pytest.raises(InvalidMeasureError):
        rational_density("nope")


def test_curve_pushforward_affine():
    # pushforward of ds along s -> 2s+1: integral (1+(2s+1)^2)^-1 ds = pi/2
    mu = CurvePushforward((2.0,), (1.0,), constant_density(1.0))
    val, _ = integrate(mu, cauchy_nd)
    assert abs(val - PI / 2) < 1e-9


def test_measure_sum():
    mu = MeasureSum((LebesgueScaled(2.0, 1), Atomic(((0.0,),), (1.0,))))
    val, _ = integrate(mu, cauchy_nd)
    assert abs(val - (2 * PI + 1.0)) < 1e-8
    with pytest.raises(InvalidMeasureError):
        MeasureSum((LebesgueScaled(1.0, 1), LebesgueScaled(1.0, 2)))


def shifted_cauchy(x):
    # neither symmetric nor real, so no two terms can cancel by accident
    return cauchy_nd(x) * (1.0 + 0.3j * x[0] / (1.0 + x[0] ** 2)) / (1.0 + (x[-1] - 0.5) ** 2)


MERGED_SUMS = [
    (
        LebesgueScaled(0.0, 2),
        LebesgueScaled(1.5, 2),
        ProductDensity((constant_density(2.0), cauchy_weight())),
        ProductDensity((gaussian_density(0.5, 1.2), rational_density("cauchy_squared"))),
        Atomic(((0.0, 1.0), (2.0, -1.0)), (1.0, 0.5)),
        MU2,
    ),
    (
        LebesgueScaled(0.0, 1),
        ProductDensity((constant_density(0.7),)),
        ProductDensity((cauchy_weight(),)),
        LebesgueScaled(3.0, 1),
        ProductDensity((gaussian_density(-1.0, 0.4),)),
        ProductDensity((rational_density("cauchy_squared"),)),
        CurvePushforward((2.0,), (1.0,), cauchy_weight(), 0.5),
    ),
]


@pytest.mark.parametrize("terms", MERGED_SUMS)
def test_merged_sum_matches_term_by_term(terms):
    # nested as (t0, (t1, (t2, ...))) so that flattening is exercised too
    mu = terms[-1]
    for term in reversed(terms[:-1]):
        mu = MeasureSum((term, mu))
    val, err = integrate(mu, shifted_cauchy)
    want, want_err = 0j, 0.0
    for term in terms:
        v, e = integrate(term, shifted_cauchy)
        want += v
        want_err += e
    assert abs(val - want) <= err + want_err


def test_density_terms_share_one_quadrature(monkeypatch):
    calls = count_calls(monkeypatch, measures, "integrate_rn")
    # 4.5 lambda^2 plus two product densities
    val, _ = integrate(F4_NEVANLINNA_MEASURE, cauchy_nd)
    assert [args[1] for args, _ in calls] == [2]
    assert abs(val - 5.5 * PI * PI) < 1e-7


def reference_density(d, t):
    """The density formulas, written out apart from `DensityDescriptor`."""
    if d.form == "constant":
        return d.params[0]
    if d.form == "cauchy_weight":
        return 1.0 / (1.0 + t * t)
    if d.form == "gaussian":
        m, s = d.params
        return math.exp(-0.5 * ((t - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
    return 1.0 / (1.0 + t * t) ** 2  # the one rational_table entry, cauchy_squared


DENSITIES = [
    constant_density(1.0),
    constant_density(0.7),
    cauchy_weight(),
    gaussian_density(0.5, 1.2),
    rational_density("cauchy_squared"),
]


@pytest.mark.parametrize("d", DENSITIES, ids=lambda d: d.form + repr(d.params))
def test_resolved_density_matches_its_formula_bit_for_bit(d):
    radii = [0.0] + [10.0 ** (k / 4) for k in range(-32, 33)]  # up to 1e8
    for t in [s * r for r in radii for s in (1.0, -1.0)] + [0.5, 1.7, -2.3]:
        want = float(reference_density(d, t)).hex()
        assert float(d._fn(t)).hex() == want, t
        assert float(d(t)).hex() == want, t


def reference_density_integral(terms, f):
    """integrate_rn of f(t) * (c + sum over products of prod_l w_l(t_l)),
    the weight summed in the order of the terms as `integrate` merges them."""
    c = sum(t.c for t in terms if isinstance(t, LebesgueScaled))
    products = [t.factors for t in terms if isinstance(t, ProductDensity)]

    def fw(t):
        d = c
        for factors in products:
            p = 1.0
            for w, x in zip(factors, t):
                p *= reference_density(w, x)
            d += p
        return f(t) * d

    val, err = integrate_rn(fw, terms[0].dimension)
    return complex(val), err


def phi_diagonal(x):
    return math.exp(-((x[0] - x[1]) ** 2)) / ((1 + x[0] ** 2) * (1 + x[1] ** 2))


def test_density_weight_matches_the_reference_integrand():
    assert integrate(F4_NEVANLINNA_MEASURE, phi_diagonal) == reference_density_integral(
        F4_NEVANLINNA_MEASURE.terms, phi_diagonal
    )
    dense = [t for t in MERGED_SUMS[0] if isinstance(t, (LebesgueScaled, ProductDensity))]
    assert integrate(MeasureSum(tuple(dense)), shifted_cauchy) == reference_density_integral(
        dense, shifted_cauchy
    )


@pytest.mark.parametrize(
    "mu",
    [
        Atomic(((0.0, 1.0), (2.0, -1.0)), (1.0, 0.5)),
        LebesgueScaled(1.5, 2),
        ProductDensity(tuple(DENSITIES)),
        CurvePushforward((2.0, 1.0), (1.0, 0.0), gaussian_density(0.5, 1.2), 0.5),
        MU2,
        F4_DEFINING_MEASURE,
        F4_NEVANLINNA_MEASURE,
        *DENSITIES,
    ],
    ids=lambda mu: type(mu).__name__,
)
def test_measures_survive_pickle_and_deepcopy(mu):
    for copied in (pickle.loads(pickle.dumps(mu)), copy.deepcopy(mu)):
        assert copied == mu and hash(copied) == hash(mu)
        assert pickle.dumps(copied) == pickle.dumps(mu)
        if isinstance(mu, DensityDescriptor):
            assert copied(0.3) == mu(0.3)


@pytest.mark.parametrize(
    "build",
    [
        lambda x: LebesgueScaled(x, 2),
        lambda x: constant_density(x),
        lambda x: gaussian_density(x, 1.0),
        lambda x: gaussian_density(0.0, x),
        lambda x: Atomic(((0.0, x),), (1.0,)),
        lambda x: Atomic(((0.0, 1.0),), (x,)),
        lambda x: CurvePushforward((1.0, x), (0.0, 0.0), cauchy_weight()),
        lambda x: CurvePushforward((1.0, 1.0), (x, 0.0), cauchy_weight()),
        lambda x: CurvePushforward((1.0, 1.0), (0.0, 0.0), cauchy_weight(), x),
    ],
    ids=["lebesgue-c", "constant-c", "gaussian-mean", "gaussian-sigma", "atom-point",
         "atom-weight", "curve-alpha", "curve-beta", "curve-scale"],
)
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(build, x):
    with pytest.raises(InvalidMeasureError):
        build(x)


def test_divergence_detection():
    with pytest.raises(DivergenceError):
        integrate(LebesgueScaled(1.0, 1), lambda x: 1.0)
    # merged with a decaying density term, the Lebesgue term is still checked
    with pytest.raises(DivergenceError):
        integrate(
            MeasureSum((LebesgueScaled(1.0, 1), ProductDensity((cauchy_weight(),)))),
            lambda x: 1.0,
        )
    g = check_growth(CurvePushforward((1.0,), (0.0,), constant_density(1.0)))
    assert g.finite  # constant weight against (1+t^2)^-1 converges
    bad = check_growth(
        CurvePushforward((1.0, 0.0), (0.0, 0.0), constant_density(1.0), 1.0)
    )
    # along (t, 0) the growth factor only decays like 1/t^2 in one variable,
    # which is still integrable
    assert bad.finite


def test_curve_validation():
    with pytest.raises(InvalidMeasureError):
        CurvePushforward((0.0, 0.0), (0.0, 0.0), constant_density(1.0))
    with pytest.raises(InvalidMeasureError):
        CurvePushforward((1.0,), (0.0, 0.0), constant_density(1.0))
    with pytest.raises(InvalidMeasureError):
        CurvePushforward((1.0,), (0.0,), constant_density(1.0), -1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda d: LebesgueScaled(1.0, d),
        lambda d: Atomic((), (), d),
        lambda d: measure_from_dict({"type": "lebesgue_scaled", "c": 1.0, "dimension": d}),
    ],
    ids=["lebesgue", "atomic", "json"],
)
@pytest.mark.parametrize("dim", [2.5, 2.0, True, False, 0, -1, MAX_DIMENSION + 1, "2"])
def test_dimension_must_be_an_int_in_range(build, dim):
    with pytest.raises(InvalidMeasureError, match=f"int in 1..{MAX_DIMENSION}"):
        build(dim)
    assert build(MAX_DIMENSION).dimension == MAX_DIMENSION


def test_axis_counts_are_bounded():
    n = MAX_DIMENSION + 1
    with pytest.raises(InvalidMeasureError):
        Atomic(((0.0,) * n,), (1.0,))
    with pytest.raises(InvalidMeasureError):
        Atomic(((),), (1.0,))
    with pytest.raises(InvalidMeasureError):
        CurvePushforward((1.0,) * n, (0.0,) * n, cauchy_weight())
    with pytest.raises(InvalidMeasureError):
        ProductDensity((cauchy_weight(),) * n)
    n = MAX_DIMENSION
    assert Atomic(((0.0,) * n,), (1.0,)).dimension == n
    assert CurvePushforward((1.0,) * n, (0.0,) * n, cauchy_weight()).dimension == n
    assert ProductDensity((cauchy_weight(),) * n).dimension == n


@pytest.mark.parametrize("slot", ["x", None, 1.0, {"form": "cauchy_weight"}])
def test_density_slots_are_type_checked(slot):
    with pytest.raises(InvalidMeasureError):
        CurvePushforward((1.0,), (0.0,), slot)
    with pytest.raises(InvalidMeasureError):
        ProductDensity((cauchy_weight(), slot))


# --- Nevanlinna condition -------------------------------------------------

def test_nevanlinna_residual_n1_structural_zero():
    assert nevanlinna_residual(LebesgueScaled(1.0, 1), point(1j)) == 0j


def test_nevanlinna_residual_lambda2_vanishes():
    pts = [(1j, 1j), (0.5 + 1j, 2j), (-1 + 0.3j, 1 + 0.2j), (2 + 2j, -0.5 + 0.7j),
           (0.1 + 0.9j, 3 + 0.4j)]
    for p in pts:
        assert abs(nevanlinna_residual(LebesgueScaled(1.0, 2), point(*p))) < 1e-8


def test_nevanlinna_residual_mu2_nonzero():
    # the diagonal measure is not a representing measure
    assert abs(nevanlinna_residual(MU2, point(2j, 1 + 1j))) > 0.01


def test_nevanlinna_residual_validation():
    with pytest.raises(InvalidArgumentError):
        nevanlinna_residual(MU2, point(1j, -1j))
    with pytest.raises(InvalidArgumentError):
        nevanlinna_residual(MU2, point(1j))


# --- JSON specification ----------------------------------------------------

def test_measure_json_roundtrip():
    examples = [
        Atomic(((0.0, 1.0),), (2.0,)),
        LebesgueScaled(3.0, 2),
        ProductDensity((cauchy_weight(), gaussian_density(0.0, 1.0))),
        MU2,
        MeasureSum((MU2, LebesgueScaled(5.0, 2))),
    ]
    for mu in examples:
        assert measure_from_json(measure_to_json(mu)) == mu


def test_rational_table_density_json_roundtrip():
    mu = ProductDensity((rational_density("cauchy_squared"), constant_density(2.0)))
    assert measure_to_dict(mu)["factors"][0] == {"form": "rational_table", "name": "cauchy_squared"}
    assert measure_from_json(measure_to_json(mu)) == mu


def test_measure_json_exact_shape():
    text = json.dumps(
        {
            "type": "curve_pushforward",
            "curve": {"alpha": [1, 1], "beta": [0, 0]},
            "weight": {"form": "constant", "c": 1},
            "scale": 3.141592653589793,
        }
    )
    mu = measure_from_json(text)
    assert mu == MU2


def test_measure_json_rejects_unknown_fields():
    with pytest.raises(InvalidArgumentError):
        measure_from_dict({"type": "lebesgue_scaled", "c": 1, "dimension": 1, "x": 0})
    with pytest.raises(InvalidArgumentError):
        measure_from_dict({"type": "bogus"})
    with pytest.raises(InvalidArgumentError):
        measure_from_dict({"c": 1})
    with pytest.raises(InvalidArgumentError):
        measure_from_dict(
            {"type": "product_density", "factors": [{"form": "mystery"}]}
        )


#: (measure, json.dumps of its measure_to_dict, which keeps the key order,
#: and its measure_to_json text), one per variant and a nested sum.
JSON_FORMS = {
    "atomic": (
        Atomic(((1.0, 2.0), (-0.5, 0.0)), (2.0, 0.25)),
        '{"type": "atomic", "points": [[1.0, 2.0], [-0.5, 0.0]], "weights": [2.0, 0.25], '
        '"dimension": 2}',
        '{"dimension": 2, "points": [[1.0, 2.0], [-0.5, 0.0]], "type": "atomic", '
        '"weights": [2.0, 0.25]}',
    ),
    "empty_atomic": (
        Atomic((), (), 3),
        '{"type": "atomic", "points": [], "weights": [], "dimension": 3}',
        '{"dimension": 3, "points": [], "type": "atomic", "weights": []}',
    ),
    "lebesgue_scaled": (
        LebesgueScaled(5.0, 2),
        '{"type": "lebesgue_scaled", "c": 5.0, "dimension": 2}',
        '{"c": 5.0, "dimension": 2, "type": "lebesgue_scaled"}',
    ),
    "product_density": (
        ProductDensity((cauchy_weight(), gaussian_density(0.5, 1.5),
                        rational_density("cauchy_squared"), constant_density(2.0))),
        '{"type": "product_density", "factors": [{"form": "cauchy_weight"}, '
        '{"form": "gaussian", "mean": 0.5, "sigma": 1.5}, '
        '{"form": "rational_table", "name": "cauchy_squared"}, {"form": "constant", "c": 2.0}]}',
        '{"factors": [{"form": "cauchy_weight"}, {"form": "gaussian", "mean": 0.5, "sigma": 1.5}, '
        '{"form": "rational_table", "name": "cauchy_squared"}, {"c": 2.0, "form": "constant"}], '
        '"type": "product_density"}',
    ),
    "curve_pushforward": (
        MU2,
        '{"type": "curve_pushforward", "curve": {"alpha": [1.0, 1.0], "beta": [0.0, 0.0]}, '
        '"weight": {"form": "constant", "c": 1.0}, "scale": 3.141592653589793}',
        '{"curve": {"alpha": [1.0, 1.0], "beta": [0.0, 0.0]}, "scale": 3.141592653589793, '
        '"type": "curve_pushforward", "weight": {"c": 1.0, "form": "constant"}}',
    ),
    "nested_sum": (
        MeasureSum((LebesgueScaled(1.0, 2), MeasureSum((MU2, Atomic(((0.0, 1.0),), (1.0,)))))),
        '{"type": "sum", "terms": [{"type": "lebesgue_scaled", "c": 1.0, "dimension": 2}, '
        '{"type": "sum", "terms": [{"type": "curve_pushforward", '
        '"curve": {"alpha": [1.0, 1.0], "beta": [0.0, 0.0]}, '
        '"weight": {"form": "constant", "c": 1.0}, "scale": 3.141592653589793}, '
        '{"type": "atomic", "points": [[0.0, 1.0]], "weights": [1.0], "dimension": 2}]}]}',
        '{"terms": [{"c": 1.0, "dimension": 2, "type": "lebesgue_scaled"}, '
        '{"terms": [{"curve": {"alpha": [1.0, 1.0], "beta": [0.0, 0.0]}, '
        '"scale": 3.141592653589793, "type": "curve_pushforward", '
        '"weight": {"c": 1.0, "form": "constant"}}, '
        '{"dimension": 2, "points": [[0.0, 1.0]], "type": "atomic", "weights": [1.0]}], '
        '"type": "sum"}], "type": "sum"}',
    ),
}


@pytest.mark.parametrize("mu, ordered, text", JSON_FORMS.values(), ids=list(JSON_FORMS))
def test_measure_to_dict_stable(mu, ordered, text):
    assert json.dumps(measure_to_dict(mu)) == ordered
    assert measure_to_json(mu) == text
    assert measure_from_json(text) == mu


@pytest.mark.parametrize("form", [["constant"], {"c": 1}, 1, None, "Constant"])
def test_an_unknown_density_form_is_named(form):
    """A form that is not a known string, unhashable ones included, gives
    the one message in JSON and in the descriptor."""
    with pytest.raises(InvalidArgumentError, match="unknown density form") as info:
        density_from_dict({"form": form, "c": 1.0})
    assert info.type is InvalidArgumentError
    with pytest.raises(InvalidMeasureError, match="unknown density form"):
        DensityDescriptor(form, (1.0,))


@pytest.mark.parametrize(
    "d, obj",
    [
        (constant_density(2.0), {"form": "constant", "c": 2.0}),
        (cauchy_weight(), {"form": "cauchy_weight"}),
        (gaussian_density(0.5, 1.5), {"form": "gaussian", "mean": 0.5, "sigma": 1.5}),
        (rational_density("cauchy_squared"), {"form": "rational_table", "name": "cauchy_squared"}),
    ],
    ids=lambda v: v["form"] if isinstance(v, dict) else "",
)
def test_every_density_form_round_trips(d, obj):
    assert density_to_dict(d) == obj and list(density_to_dict(d)) == list(obj)
    assert density_from_dict(obj) == d
    with pytest.raises(InvalidArgumentError, match=f"unknown fields \\['x'\\] in {obj['form']} density"):
        density_from_dict({**obj, "x": 0})


@pytest.mark.parametrize("obj", [{"form": "constant"}, {"form": "gaussian", "mean": 0.0}])
def test_a_missing_density_parameter_is_malformed(obj):
    with pytest.raises(InvalidArgumentError, match="malformed measure descriptor .KeyError"):
        measure_from_dict({"type": "product_density", "factors": [obj]})
