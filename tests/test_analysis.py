import cmath
import json
import math

import numpy as np
import pytest

from polyherglotz import (
    F4_DEFINING_MEASURE,
    Atomic,
    CauchyTypeFunction,
    ClosedFormFunction,
    CurvePushforward,
    HerglotzFunction,
    HerglotzTriple,
    InvalidArgumentError,
    InvalidPointError,
    LebesgueScaled,
    LimitConfig,
    MU2,
    TestFunctionBoundError,
    catalogue,
    cauchy_weight,
    characterize,
    full_symmetry_sum,
    nondependence_test,
    phi_cauchy,
    phi_gaussian,
    point,
    positivity_check,
    reconstruct_from_upper,
    restrict_to_upper,
    richardson_tableau,
    stieltjes_cauchy_type,
    stieltjes_classic,
    stoltz_limit,
    symmetry_check,
    symmetry_residual,
)
from polyherglotz import analysis
from polyherglotz.analysis import _spot_check_bound
from polyherglotz.measures import boundary_hints
from conftest import count_calls, random_cut_point

PI = math.pi


def test_richardson_tableau_geometric():
    # sequence 1 + (1/2)^k converges to 1; second-order tableau nails it
    steps = [0.5**k for k in range(6)]
    vals = [1 + h for h in steps]
    cols = richardson_tableau(vals, steps, 2)
    assert abs(cols[1][-1] - 1.0) < 1e-12


def test_richardson_tableau_needs_one_step_per_value():
    with pytest.raises(InvalidArgumentError):
        richardson_tableau([1.0, 2.0, 3.0], [1.0, 0.5], 2)


@pytest.mark.parametrize("ladder", ["radii", "y"])
def test_richardson_tableau_on_halving_steps_is_the_ratio_form(ladder):
    # on the default ladders the Neville step is (2^m b - a)/(2^m - 1) to the bit
    d = analysis.DEFAULT_LIMITS
    steps = [1.0 / r for r in d.radius_sequence] if ladder == "radii" else d.y_sequence
    rng = np.random.default_rng(7)
    for _ in range(300):
        vals = [
            complex(a, b) * 10.0 ** int(e)
            for a, b, e in zip(rng.normal(size=10), rng.normal(size=10), rng.integers(-8, 8, 10))
        ]
        want = [vals]
        for m in (1, 2):
            prev, fac = want[-1], 2.0**m
            want.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
        assert richardson_tableau(vals, steps, 2) == want


def test_three_row_ladder_is_not_converged():
    # two full-order extrapolants need order + 2 = 4 rows; with three, the
    # last two extrapolants are of orders 1 and 2 and prove nothing
    g = CauchyTypeFunction(Atomic(((0.0,),), (1.0,)))
    ladder = LimitConfig(y_sequence=(2.0**-8, 2.0**-9, 2.0**-10))
    res = stieltjes_cauchy_type(g, phi_cauchy(1), ladder)
    assert len(res.rows) == 3
    assert not res.converged


def test_inversion_on_a_quartering_ladder_converges():
    # the steps, not a fixed ratio of 2, weight the extrapolation
    g = CauchyTypeFunction(Atomic(((0.0,),), (1.0,)))
    ladder = LimitConfig(y_sequence=tuple(4.0**-k for k in range(1, 6)))
    res = stieltjes_cauchy_type(g, phi_cauchy(1), ladder)
    assert res.converged
    assert abs(res.estimate - 1.0) < 1e-6


@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_stoltz_limit_on_quartering_radii_converges(direction):
    cfg = LimitConfig(radius_sequence=tuple(4.0**k for k in range(2, 8)))
    s = stoltz_limit(catalogue("f2"), 1, point(0.5 + 1.1j, 0.5 + 1.1j), cfg, direction)
    assert s.converged
    assert abs(s.estimate) < 1e-9


def test_limit_config_validation():
    with pytest.raises(InvalidArgumentError):
        LimitConfig(stoltz_angle=0.0)
    with pytest.raises(InvalidArgumentError):
        LimitConfig(radius_sequence=(4.0, 2.0))
    with pytest.raises(InvalidArgumentError):
        LimitConfig(y_sequence=(0.1, 0.2))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"y_sequence": (0.5, 0.25, -0.25)},
        {"y_sequence": (0.5, 0.25, 0.0)},
        {"radius_sequence": (-4.0, -2.0, 1.0)},
        {"radius_sequence": (0.0, 2.0, 4.0)},
    ],
)
def test_limit_config_rejects_nonpositive_steps(kwargs):
    with pytest.raises(InvalidArgumentError):
        LimitConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"y_sequence": (0.5, 1e-310)},
        {"y_sequence": (math.inf, 0.5)},
        {"y_sequence": (0.5, math.nan)},
        {"radius_sequence": (8.0, math.inf)},
        {"radius_sequence": (1e-301, 1.0)},
        {"radius_sequence": (1e-299, 1.0), "stoltz_angle": 1e-2},
        {"radius_sequence": ()},
        {"y_sequence": ()},
    ],
)
def test_limit_config_rejects_points_off_the_cut_plane(kwargs):
    # every ladder and ray point must be a valid cut-plane point, because
    # those points are built unchecked
    with pytest.raises(InvalidArgumentError):
        LimitConfig(**kwargs)


@pytest.mark.parametrize("y", [0.0, 1e-310, -1e-310, math.inf, math.nan])
def test_alternating_boundary_sum_checks_y(y):
    with pytest.raises(InvalidPointError):
        analysis.alternating_boundary_sum(catalogue("f2"), (0.3, -0.2), y)


# --- symmetry --------------------------------------------------------------

def test_symmetry_residual_f7_zero(rng):
    f7 = catalogue("f7")
    worst = max(
        symmetry_residual(f7, random_cut_point(rng, 2)) for _ in range(200)
    )
    assert worst < 1e-12


def test_symmetry_residual_f5_known_failure():
    # all three reflected points carry value 0, so the sum misses the i
    f5 = catalogue("f5")
    assert abs(symmetry_residual(f5, point(1j, 2j)) - 1.0) < 1e-15
    assert abs(full_symmetry_sum(f5, point(1j, 2j))) == 0.0


def test_symmetry_check_matrix():
    expected = {
        "f0": "fail", "f1": "fail", "f2": "pass", "f3": "fail",
        "f4": "pass", "f5": "fail", "f6": "pass", "f7": "pass",
    }
    for fid, want in expected.items():
        report = symmetry_check(catalogue(fid))
        assert report.verdict == want, fid
        if want == "fail":
            assert report.witnesses


def test_symmetry_check_report_shape():
    r = symmetry_check(catalogue("f5"))
    d = r.to_dict()
    assert set(d) == {"verdict", "max_residual", "tolerance", "witnesses", "config"}
    w = d["witnesses"][0]
    assert set(w) == {"point", "residual"}
    json.dumps(d)  # serializable


# --- non-dependence ---------------------------------------------------------

def test_nondependence_matrix():
    expected = {
        "f0": "fail", "f1": "fail", "f2": "fail", "f3": "pass",
        "f4": "fail", "f5": "pass", "f6": "pass", "f7": "pass",
    }
    for fid, want in expected.items():
        assert nondependence_test(catalogue(fid)).verdict == want, fid


def test_nondependence_rejects_probes_it_cannot_sample():
    # the check sweeps its five fixed upper probes, and records that many
    assert nondependence_test(catalogue("f4")).config == {"probes": 5}


def test_nondependence_vacuous_n1():
    g = CauchyTypeFunction(LebesgueScaled(1.0, 1))
    r = nondependence_test(g)
    assert r.verdict == "pass"
    assert r.max_residual == 0.0


# --- positivity --------------------------------------------------------------

def test_positivity_matrix():
    expected = {
        "f0": "fail", "f1": "pass", "f2": "fail", "f3": "fail",
        "f4": "pass", "f5": "pass", "f6": "fail", "f7": "pass",
    }
    for fid, want in expected.items():
        r = positivity_check(catalogue(fid))
        assert r.verdict == want, fid
        if want == "fail":
            assert r.witnesses[0][0].is_upper()


def test_sampled_report_witnesses_worst_first():
    pts = [point(complex(0, k + 1)) for k in range(8)]
    residuals = [0.5, 3.0, 0.0, 2.0, 3.0, 1.0, 4.0, 2.5]
    r = analysis._sampled_report(zip(pts, residuals), 0.75, {"k": 1})
    assert (r.verdict, r.max_residual, r.tolerance, r.config) == ("fail", 4.0, 0.75, {"k": 1})
    assert r.witnesses == [(pts[6], 4.0), (pts[1], 3.0), (pts[4], 3.0), (pts[7], 2.5), (pts[3], 2.0)]
    r = analysis._sampled_report(zip(pts, residuals), 4.0, {})
    assert (r.verdict, r.max_residual, r.witnesses) == ("pass", 4.0, [])
    assert analysis._sampled_report([], 1e-9, {}).verdict == "pass"


def test_a_nan_residual_fails_a_sampled_check():
    pts = [point(complex(0, k + 1)) for k in range(4)]
    r = analysis._sampled_report(zip(pts, [2.0, math.nan, 0.0, 3.0]), 1.0, {})
    assert r.verdict == "fail" and math.isnan(r.max_residual)
    assert r.witnesses[0][0] == pts[1] and math.isnan(r.witnesses[0][1])
    assert r.witnesses[1:] == [(pts[3], 3.0), (pts[0], 2.0)]
    # a function that is NaN on one mixed component, exact elsewhere
    f7 = catalogue("f7")
    branches = dict(f7.branches)
    branches[(1, -1)] = lambda z1, z2: complex(math.nan, math.nan)
    f = ClosedFormFunction("f7-nan", 2, branches)
    for r in (symmetry_check(f), nondependence_test(f)):
        assert r.verdict == "fail" and math.isnan(r.max_residual)
        assert math.isnan(r.witnesses[0][1])


def test_a_nan_imaginary_part_fails_positivity():
    branches = dict(catalogue("f7").branches)
    branches[(1, 1)] = lambda z1, z2: complex(1.0, math.nan)
    r = positivity_check(ClosedFormFunction("f7-nan", 2, branches))
    assert r.verdict == "fail" and math.isnan(r.max_residual)
    assert r.witnesses[0][0].is_upper() and math.isnan(r.witnesses[0][1])


def test_failing_checks_report_their_worst_sample_first():
    for k in range(8):
        f = catalogue(f"f{k}")
        for r in (symmetry_check(f), nondependence_test(f), positivity_check(f)):
            if r.verdict == "fail":
                residuals = [res for _, res in r.witnesses]
                assert residuals[0] == r.max_residual, (k, r.config)
                assert all(a >= b for a, b in zip(residuals, residuals[1:])), (k, r.config)


# --- reconstruction ----------------------------------------------------------

def test_reconstruct_f7(rng):
    f7 = catalogue("f7")
    f7u = restrict_to_upper(f7)
    for _ in range(100):
        z = random_cut_point(rng, 2)
        if z.is_upper():
            continue
        assert abs(reconstruct_from_upper(f7u, z) - f7(z)) < 1e-13


def test_reconstruct_lambda2_quadrature(rng):
    g = CauchyTypeFunction(LebesgueScaled(1.0, 2))
    gu = restrict_to_upper(g)
    for _ in range(20):
        z = random_cut_point(rng, 2)
        if z.is_upper():
            continue
        assert abs(reconstruct_from_upper(gu, z) - g(z)) < 1e-7


def test_reconstruct_rejects_upper_points():
    with pytest.raises(InvalidArgumentError):
        reconstruct_from_upper(catalogue("f7"), point(1j, 1j))


# --- growth limits -----------------------------------------------------------

def test_stoltz_recovers_b():
    h = HerglotzFunction(HerglotzTriple(0.0, (0.0, 2.0), LebesgueScaled(1.0, 2)))
    base = point(0.5 + 1.1j, 0.5 + 1.1j)
    for j, want in ((1, 0.0), (2, 2.0)):
        for direction in ("upper", "lower"):
            s = stoltz_limit(h, j, base, direction=direction)
            assert s.converged
            assert abs(s.estimate - want) < 1e-3
            assert s.base_spread < 1e-6


def test_stoltz_zero_for_catalogue(rng):
    base = point(0.5 + 1.1j, 0.5 + 1.1j)
    s = stoltz_limit(catalogue("f2"), 1, base)
    assert s.converged and abs(s.estimate) < 1e-6


def test_stoltz_result_shape():
    cfg = LimitConfig(radius_sequence=(4.0, 8.0, 16.0))
    s = stoltz_limit(catalogue("f2"), 2, point(0.5 + 1.1j, 0.5 + 1.1j), cfg)
    assert not hasattr(s, "__dict__")
    assert type(s.samples) is tuple and len(s.samples) == 3
    assert s.limits is cfg
    assert s.config == {"angle": math.pi / 4, "radii": [4.0, 8.0, 16.0]}


def test_stoltz_result_reads_its_samples_back_bit_for_bit():
    cfg = LimitConfig()
    samples = (complex(-0.0, 0.0), complex(1e-310, -0.0), complex(math.inf, -math.inf),
               complex(math.nan, 1.0), (0.1 + 0.2j) / 3)
    s = analysis.StoltzResult(1j, False, "lower", 2, 0.5, samples, cfg)
    assert type(s.samples) is tuple and repr(s.samples) == repr(samples)
    assert repr(s) == (f"StoltzResult(estimate=1j, converged=False, direction='lower', axis=2, "
                       f"base_spread=0.5, samples={samples!r}, limits={cfg!r})")
    t = stoltz_limit(catalogue("f2"), 1, point(0.5 + 1.1j, -0.3 + 0.7j))
    assert t == analysis.StoltzResult(t.estimate, t.converged, t.direction, t.axis,
                                      t.base_spread, t.samples, t.limits)
    assert t != s and t.__hash__ is None


def test_stoltz_results_keep_no_boxed_samples():
    # a stream of kept limits holds a packed array per result, not ten complex objects
    import tracemalloc

    cfg = LimitConfig()
    tracemalloc.start()
    try:
        kept = [analysis.StoltzResult(0j, True, "upper", 1, 0.0,
                                      tuple(complex(k, i) for i in range(10)), cfg)
                for k in range(1000)]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == 1000 and size < 350 * 1000


def test_stoltz_validation():
    base = point(1j, 1j)
    with pytest.raises(InvalidArgumentError):
        stoltz_limit(catalogue("f7"), 3, base)
    with pytest.raises(InvalidArgumentError):
        stoltz_limit(catalogue("f7"), 1, base, direction="sideways")


@pytest.mark.parametrize(
    "j, alternates",
    [(1.5, 3), (2, -2), (2, 2.5), (1, "3"), (0, 3), (3, 3)],
)
def test_stoltz_limit_needs_int_axis_and_alternates(j, alternates):
    with pytest.raises(InvalidArgumentError):
        stoltz_limit(catalogue("f2"), j, point(1j, 1j), base_alternates=alternates)


# --- characterization ---------------------------------------------------------

def test_characterize_f7_passes():
    r = characterize(catalogue("f7"))
    assert r.verdict == "pass"
    assert r.d == (0.0, 0.0)


def test_characterize_f2_fails():
    assert characterize(catalogue("f2")).verdict == "fail"


def test_characterize_with_linear_growth():
    h = HerglotzFunction(HerglotzTriple(0.0, (0.0, 2.0), LebesgueScaled(1.0, 2)))
    r = characterize(h)
    assert r.verdict == "pass"
    assert abs(r.d[0]) < 1e-5 and abs(r.d[1] - 2.0) < 1e-5


def test_characterize_matrix_agreement():
    # a function is a symmetric extension iff it clears all three conditions
    for fid in ("f0", "f1", "f3", "f4", "f5", "f6"):
        assert characterize(catalogue(fid)).verdict == "fail", fid


def one_variable(name, upper, lower=None):
    """A one-variable closed form with these branches on C+ and C-."""
    return ClosedFormFunction(name, 1, {(1,): upper, (-1,): lower or upper})


#: Each Stoltz gate outcome of one-variable functions: (function, verdict,
#: d, the limits record's axis_1 upper and lower estimates, converged).  The
#: real part of log z grows without limit, so its estimate is left open.
GATE_CASES = {
    "z log z diverges": (
        one_variable("zlogz", lambda z: z * cmath.log(z)),
        "inconclusive", (math.nan,), [None, PI / 4], [None, -PI / 4], False,
    ),
    "upper differs from lower": (
        one_variable("z|0", lambda z: z, lambda z: 0j),
        "fail", (0.5,), [1.0, 0.0], [0.0, 0.0], True,
    ),
    "imaginary growth": (
        one_variable("iz", lambda z: 1j * z), "fail", (0.0,), [0.0, 1.0], [0.0, 1.0], True,
    ),
    "negative growth": (
        one_variable("-z", lambda z: -z), "fail", (-1.0,), [-1.0, 0.0], [-1.0, 0.0], True,
    ),
}


@pytest.mark.parametrize("case", GATE_CASES)
def test_characterize_gate_outcomes(case):
    f, verdict, d, upper, lower, converged = GATE_CASES[case]
    r = characterize(f)
    assert r.verdict == verdict
    assert r.d == pytest.approx(d, nan_ok=True)
    assert list(r.reports) == ["limits"]  # a gate that does not pass runs no sub-check
    axis = r.reports["limits"]["axis_1"]
    left_open = axis["upper"][0]  # both directions must agree on it
    for got, want in ((axis["upper"], upper), (axis["lower"], lower)):
        assert got == pytest.approx([left_open if w is None else w for w in want], abs=1e-9)
    assert axis["base_spread"] == 0.0
    assert axis["converged"] is converged


def test_characterize_fails_on_the_base_spread_alone():
    # z1 * (2 + 1/(1 + |z2|)): axis 1's limit depends on z2, axis 2's is 0
    def branch(z1, z2):
        return z1 * (2 + 1 / (1 + abs(z2)))

    f = ClosedFormFunction("spread", 2, {s: branch for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))})
    r = characterize(f)
    assert r.verdict == "fail"
    assert r.d == (pytest.approx(2.452836081216211, abs=1e-9), 0.0)
    assert list(r.reports) == ["limits"]
    axis1, axis2 = r.reports["limits"]["axis_1"], r.reports["limits"]["axis_2"]
    assert axis1["upper"] == pytest.approx(axis1["lower"], abs=1e-9)
    assert axis1["upper"][1] == pytest.approx(0.0, abs=1e-9)
    assert axis1["base_spread"] == pytest.approx(0.177, abs=1e-3)
    assert axis1["converged"] and axis2["converged"]
    assert max(map(abs, axis2["upper"] + axis2["lower"])) < 1e-9
    assert axis2["base_spread"] < 1e-9


# --- test functions and inversion ---------------------------------------------

def test_phi_builtins_satisfy_bound():
    _spot_check_bound(phi_cauchy(2))
    _spot_check_bound(phi_gaussian(2))
    _spot_check_bound(phi_gaussian(1, sigma=3.0))


def test_phi_bound_violation_detected():
    from polyherglotz.analysis import TestFunction

    bad = TestFunction("bad", 1, 0.5, lambda x: 1.0 / (1.0 + x[0] ** 2))
    with pytest.raises(TestFunctionBoundError):
        _spot_check_bound(bad)


@pytest.mark.parametrize(
    "value, bound", [(math.nan, 1.0), (0.5, math.nan)], ids=["nan-value", "nan-bound"]
)
def test_phi_bound_check_rejects_nan(value, bound):
    from polyherglotz.analysis import TestFunction

    phi = TestFunction("nan", 1, bound, lambda x: value / (1.0 + x[0] ** 2))
    with pytest.raises(TestFunctionBoundError):
        _spot_check_bound(phi)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
def test_phi_gaussian_needs_a_positive_finite_sigma(sigma):
    # 0 divided by zero, NaN made a NaN estimate, and inf made phi == 1,
    # which is not admissible yet passed the spot check
    with pytest.raises(InvalidArgumentError):
        phi_gaussian(2, sigma)


def test_stieltjes_classic_1d_atomic_style():
    # h(z) = i matches Lebesgue measure: integral of phi recovers pi
    g = CauchyTypeFunction(LebesgueScaled(1.0, 1))
    res = stieltjes_classic(g, phi_cauchy(1))
    assert res.converged
    assert abs(res.estimate - PI) < 1e-4


def test_stieltjes_alternating_1d():
    g = CauchyTypeFunction(LebesgueScaled(1.0, 1))
    res = stieltjes_cauchy_type(g, phi_cauchy(1))
    assert res.converged
    assert abs(res.estimate - PI) < 1e-4


def test_stieltjes_lambda2_alternating():
    g = CauchyTypeFunction(LebesgueScaled(1.0, 2))
    res = stieltjes_cauchy_type(g, phi_cauchy(2))
    assert res.converged
    assert abs(res.estimate - PI * PI) < 1e-3
    assert len(res.rows) == 10


def test_a_point_of_the_wrong_dimension_raises_the_function_error():
    f2, z3 = catalogue("f2"), point(1j, 1j, 1j)
    message = "a point of dimension 3 where 2 is expected"
    with pytest.raises(InvalidArgumentError, match=message):
        stoltz_limit(f2, 1, z3)
    with pytest.raises(InvalidArgumentError, match=message):
        symmetry_residual(f2, z3)
    with pytest.raises(InvalidArgumentError, match=message):
        analysis.alternating_boundary_sum(f2, (0.3, -0.2, 0.1), 0.5)
    with pytest.raises(InvalidArgumentError, match=message):
        reconstruct_from_upper(restrict_to_upper(f2), point(-1j, 1j, 1j))
    g = CauchyTypeFunction(LebesgueScaled(1.0, 2))
    with pytest.raises(InvalidArgumentError, match=message):
        stoltz_limit(g, 1, z3)


def test_stieltjes_dimension_mismatch():
    g = CauchyTypeFunction(LebesgueScaled(1.0, 2))
    with pytest.raises(InvalidArgumentError):
        stieltjes_classic(g, phi_cauchy(1))


@pytest.mark.parametrize(
    "f, mu",
    [
        (HerglotzFunction(HerglotzTriple(0.0, (0.0, 0.0), MU2)), MU2),
        (restrict_to_upper(catalogue("f4")), F4_DEFINING_MEASURE),
        (CauchyTypeFunction(MU2), MU2),
        (catalogue("f7"), None),
    ],
    ids=["herglotz", "f4-upper", "cauchy", "no-measure"],
)
def test_inversion_hints_come_from_the_measure(monkeypatch, f, mu):
    seen = []

    def no_quadrature(integrand, n, quad, hints=None):
        seen.append(hints)
        return 0j, 0.0

    monkeypatch.setattr(analysis, "integrate_rn", no_quadrature)
    stieltjes_classic(f, phi_cauchy(2))
    assert f.measure is mu
    ladder = analysis.DEFAULT_LIMITS.y_sequence
    assert len(seen) == len(ladder)
    for y, hints in zip(ladder, seen):
        if mu is None:
            assert hints is None
        else:  # the diagonal puts a spike of half-width 2y at x2 = x1
            assert hints((0.3,)) == boundary_hints(mu, (0.3,), y) == [(0.3, 2 * y)]


def test_boundary_hints_by_variant():
    y = 0.25
    assert boundary_hints(MU2, (0.3,), y) == [(0.3, 2 * y)]
    assert boundary_hints(MU2, (), y) == []
    atoms = Atomic(((1.0, 2.0), (-1.0, 0.5)), (1.0, 1.0))
    assert boundary_hints(atoms, (), y) == [(1.0, y), (-1.0, y)]
    assert boundary_hints(atoms, (0.0,), y) == [(2.0, y), (0.5, y)]
    assert boundary_hints(LebesgueScaled(1.0, 2), (0.3,), y) == []


@pytest.mark.parametrize("y", [0.5, 2.0**-6, 1e-9])
def test_boundary_hints_carry_the_poisson_width(y):
    # the boundary integrand is prod_l P_y(x_l - t_l) dmu: an atom is one
    # P_y, and a curve fixed through axis 1 spreads s over y/|alpha_1|, so
    # axis 2 sees P_y convolved with P_(y |alpha_2/alpha_1|)
    assert boundary_hints(Atomic(((1.0, 2.0),), (1.0,)), (0.0,), y) == [(2.0, y)]
    assert boundary_hints(MU2, (0.3,), y) == [(0.3, 2 * y)]
    steep = CurvePushforward((1.0, 2.0), (0.0, 1.0), cauchy_weight())
    assert boundary_hints(steep, (0.3,), y) == [(1.6, 3 * y)]
    flat = CurvePushforward((1.0, 0.0), (0.0, 1.0), cauchy_weight())
    assert boundary_hints(flat, (0.3,), y) == [(1.0, y)]


def test_inversion_result_serializable():
    g = CauchyTypeFunction(LebesgueScaled(1.0, 1))
    res = stieltjes_cauchy_type(g, phi_cauchy(1))
    json.dumps(res.to_dict())


def test_stieltjes_f2_rows_near_exact(monkeypatch):
    # the alternating boundary sum of a Cauchy-type function is the Poisson
    # integral of its measure, so against phi_cauchy(2) the f2 row at y is
    # the MU2 integral of prod (1+y)/(t^2+(1+y)^2), that is pi^2/(2(1+y))
    calls = count_calls(monkeypatch, analysis, "_boundary_sum")
    ladder = (2.0**-5, 2.0**-6, 2.0**-7)
    res = stieltjes_cauchy_type(
        catalogue("f2"), phi_cauchy(2), LimitConfig(y_sequence=ladder)
    )
    for y, raw, _ in res.rows:
        assert abs(raw - PI * PI / (2.0 * (1.0 + y))) < 5e-7, y
    # about 22k boundary values at this step.  Fixed bracket offsets that
    # ignore the 2y ridge width took 65k, and inner levels at the outer
    # tolerance, which feed the outer axis noise that it subdivides to
    # chase, took more
    assert sum(args[2] == 2.0**-6 for args, _ in calls) < 40_000
