"""The exact curve engine gives the same bits as its first version.

`measures` resolves each weight's line-integral data once, splits and sorts
the nodes in place, runs the forward substitutions in one vector and picks
the rho products from a per-dimension plan.  None of that may change a
result: `_curve_pair_integral` and `nevanlinna_residual` are compared
`repr`-equal with the straightforward versions copied below (`_curve_poles`,
`_line_integral`, `_solve` and `_rho_products` as first written).  The
Gaussian's Faddeeva table is shared with the library; its one change, the
in-place `_solve`, is compared on its own.  The one intended difference:
where the first version gave NaN or overflowed, at slopes so small that the
constant leaves double precision, the engine raises InvalidArgumentError.
"""

import cmath
import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from polyherglotz import CurvePushforward, InvalidArgumentError, nevanlinna_residual, point
from polyherglotz.core import MAX_DIMENSION
from polyherglotz.kernels import _n_pairs, _pair
from polyherglotz.measures import (
    _RATIONAL_TABLE,
    _RHO_PLANS,
    _curve_pair_integral,
    _faddeeva_divided_difference,
    _rho_products,
    _solve,
    _telescoped,
    cauchy_weight,
    constant_density,
    gaussian_density,
    rational_density,
)

# --- the engine as first written -------------------------------------------


def curve_poles_v0(mu, pairs):
    const = mu.scale
    poles = []
    for (p, q), a, b in zip(pairs, mu.alpha, mu.beta):
        if a == 0.0:
            const *= _pair(p, q, b)
        else:
            const /= 2j * a
            poles.append(((p - b) / a, (q - b) / a))
    return const, poles


def solve_v0(nodes, pole, v):
    out, prev = [], 0j
    for x, b in zip(nodes, v):
        prev = (b - prev) / (x - pole)
        out.append(prev)
    return out


def line_integral_v0(w, nodes):
    if w.form == "gaussian":
        m, s = w.params
        dd = _faddeeva_divided_difference(nodes, m, s * math.sqrt(2.0))
        return 1j * math.pi * dd / (s * math.sqrt(2.0 * math.pi))
    if w.form == "constant":
        c, poles = w.params[0], ()
    elif w.form == "cauchy_weight":
        c, poles = 1.0, (1j,)
    else:
        c, poles = 1.0, _RATIONAL_TABLE[w.params[0]][2]
    by_height = lambda r: -r.imag
    upper = sorted([r for r in nodes if r.imag > 0] + list(poles), key=by_height)
    if not upper:
        return 0j
    lower = sorted([r for r in nodes if r.imag < 0] + [a.conjugate() for a in poles], key=by_height)
    v = [1.0] + [0.0] * (len(upper) - 1)
    for l in lower:
        v = solve_v0(upper, l, v)
    return 2j * math.pi * c * v[-1]


def curve_pair_integral_v0(mu, pairs):
    const, poles = curve_poles_v0(mu, pairs)
    for p, q in poles:
        const *= p - q
    if const == 0:
        return 0j
    return const * line_integral_v0(mu.weight, [r for pq in poles for r in pq])


def rho_products_v0(tables):
    neither, minus_only, plus_only, both = [()], [], [], []
    for minus, zero, plus in tables:
        neither, minus_only, plus_only, both = (
            [p + (zero,) for p in neither],
            [p + ((minus[0], zero[1]),) for p in minus_only] + [p + (minus,) for p in neither],
            [p + ((zero[0], plus[1]),) for p in plus_only] + [p + (plus,) for p in neither],
            [p + ((minus[0], plus[1]),) for p in both]
            + [p + (plus,) for p in minus_only]
            + [p + (minus,) for p in plus_only],
        )
    return both


def residual_v0(mu, z):
    products = rho_products_v0([_n_pairs(c) for c in z])
    return sum((curve_pair_integral_v0(mu, pairs) for pairs in products), 0j) if products else 0j


# --- strategies -------------------------------------------------------------

WEIGHTS = st.sampled_from(
    [
        constant_density(1.7),
        constant_density(0.0),
        cauchy_weight(),
        rational_density("cauchy_squared"),
        gaussian_density(0.4, 0.7),
        gaussian_density(-1.3, 2.5),
        gaussian_density(0.0, 0.25),
    ]
)

ALPHA = st.one_of(
    st.just(0.0),
    st.sampled_from((1.0, -1.0, 0.5, -2.0)),
    st.floats(-4.0, 4.0),
    st.floats(1e-9, 1e-6).flatmap(lambda a: st.sampled_from((a, -a))),
)

# |Im z| log-uniform down to 1e-8
UPPER = st.builds(
    lambda x, log_y: complex(x, 10.0**log_y), st.floats(-5.0, 5.0), st.floats(-8.0, 0.7)
)


@st.composite
def curves(draw, n):
    alpha = draw(st.lists(ALPHA, min_size=n, max_size=n))
    if not any(alpha):
        alpha[draw(st.integers(0, n - 1))] = draw(st.sampled_from((1.0, -0.5)))
    offset = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    beta = draw(st.lists(offset, min_size=n, max_size=n))
    scale = draw(st.sampled_from((1.0, math.pi, 0.3)))
    return CurvePushforward(tuple(alpha), tuple(beta), draw(WEIGHTS), scale)


@st.composite
def cases(draw, max_n=3):
    """A curve and an upper point; z_2 = z_1 at times, repeating nodes on
    the diagonal."""
    n = draw(st.integers(1, max_n))
    z = draw(st.lists(UPPER, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        z[1] = z[0]
    return draw(curves(n)), z


# --- bit identity -----------------------------------------------------------


def outcome(f, *args) -> str:
    """repr of f(*args) when it is finite, else "non-finite", or the name
    of the error or warning it raises."""
    try:
        value = f(*args)
    except (ArithmeticError, RuntimeWarning, InvalidArgumentError) as e:
        return type(e).__name__
    return repr(value) if cmath.isfinite(value) else "non-finite"


def assert_same_or_refused(got: str, want: str) -> None:
    """The engine gives the first version's bits wherever that version
    gave a finite number or a plain error.  Where it gave NaN or
    overflowed (|alpha| so small that the constant leaves double
    precision), the engine raises InvalidArgumentError, or gives 0 for a
    product with a zero factor."""
    if want in ("non-finite", "OverflowError", "RuntimeWarning"):
        assert got in ("InvalidArgumentError", "0j"), (got, want)
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(cases(), st.data())
def test_curve_pair_integral_is_bit_identical(case, data):
    mu, z = case
    pairs = [data.draw(st.sampled_from(_telescoped(c))) for c in z]
    assert_same_or_refused(
        outcome(_curve_pair_integral, mu, pairs), outcome(curve_pair_integral_v0, mu, pairs)
    )


@settings(max_examples=200, deadline=None)
@given(cases())
def test_nevanlinna_residual_is_bit_identical(case):
    mu, z = case
    assert_same_or_refused(outcome(nevanlinna_residual, mu, point(*z)), outcome(residual_v0, mu, z))


def relative_precision(xs) -> float:
    """The relative precision of the least precise nonzero real among xs:
    about 1.1e-16 for a normal float, and ulp/|x| for a subnormal one,
    which carries only |x|/5e-324 units."""
    return max([math.ulp(x) / abs(x) for x in xs if x != 0.0], default=0.0)


@settings(max_examples=200, deadline=None)
@given(cases(), st.floats(-320.0, -200.0))
# z_1 = z_2 with a subnormal real part and two fixed axes: the residual is
# the finite 2.97e-109, which scales as Re z_1 / alpha_1
@example(
    (
        CurvePushforward((1.0, 0.0, 0.0), (0.0,) * 3, constant_density(1.7)),
        [2.225073858507203e-309 + 1j, 2.225073858507203e-309 + 1j, 1 + 1j],
    ),
    -200.0,
)
def test_tiny_slopes_raise_vanish_or_are_finite(case, log_alpha):
    """An axis with |alpha| <= 1e-200 makes the constant overflow or nearly
    so: the residual raises InvalidArgumentError, or is 0, or is finite and
    then agrees with the partial-fraction oracle of `test_curve_exact`,
    whose Gaussian takes the asymptotic series of the Faddeeva function at
    nodes this large.  It is never NaN or inf.  The oracle
    takes the double-precision inputs as exact, so a subnormal coordinate
    or offset, whose own precision is coarser, widens the tolerance by that
    precision."""
    mu, z = case
    mu = CurvePushforward((10.0**log_alpha,) + mu.alpha[1:], mu.beta, mu.weight, mu.scale)
    got = outcome(nevanlinna_residual, mu, point(*z))
    assert got != "non-finite"
    if got in ("InvalidArgumentError", "0j"):
        return
    from test_curve_exact import REL_TOL, oracle_residual

    value = nevanlinna_residual(mu, point(*z))
    want, scale = oracle_residual(mu, z)
    precision = relative_precision([c.real for c in z] + list(mu.beta))
    assert abs(value - complex(want)) <= (REL_TOL + 8 * precision) * scale, (value, complex(want))


TINY_SLOPE_POINT = (1j, 2j, 1 + 1j)


def test_tiny_slope_within_range_keeps_its_value():
    mu = CurvePushforward((1e-30,) * 3, (0.0,) * 3, gaussian_density(0.4, 0.7))
    assert abs(nevanlinna_residual(mu, point(*TINY_SLOPE_POINT)) - 0.125) <= 1e-12


@pytest.mark.parametrize("alpha", [1e-60, 1e-200, 4.6e-270])
@pytest.mark.parametrize("weight", [gaussian_density(0.4, 0.7), constant_density(1.0), cauchy_weight()],
                         ids=["gaussian", "constant", "cauchy"])
def test_tiny_slope_out_of_range_raises(alpha, weight):
    mu = CurvePushforward((alpha,) * 3, (0.0,) * 3, weight)
    with pytest.raises(InvalidArgumentError, match="overflows double precision"):
        nevanlinna_residual(mu, point(*TINY_SLOPE_POINT))


def test_tiny_slope_zero_factor_vanishes():
    """At (i, i) every product holds N_-1(i, .) = pair(i, i) or
    N_1(i, .) = pair(-i, -i), which vanish: the residual is 0 however far
    the constant overflows."""
    mu = CurvePushforward((1e-200, 1e-200), (0.0, 0.0), gaussian_density(0.4, 0.7))
    assert nevanlinna_residual(mu, point(1j, 1j)) == 0j


@settings(max_examples=100, deadline=None)
@given(st.lists(UPPER, min_size=1, max_size=MAX_DIMENSION))
def test_rho_products_are_bit_identical(z):
    got = _rho_products(tuple(z))
    assert repr(got) == repr(rho_products_v0([_n_pairs(c) for c in z]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(UPPER, min_size=1, max_size=6),
    st.lists(UPPER.map(complex.conjugate), min_size=0, max_size=6),
)
def test_in_place_solve_is_bit_identical(nodes, poles):
    want = [1.0] + [0.0] * (len(nodes) - 1)
    for pole in poles:
        want = solve_v0(nodes, pole, want)
    got = _solve(nodes, poles, [1.0] + [0.0] * (len(nodes) - 1))
    assert repr(got) == repr(want)


# --- the plan against rho by rho --------------------------------------------

# the values of rho_l that each `_telescoped` pair sums N over
SLOT_RHOS = ({-1}, {0}, {1}, {-1, 0}, {0, 1}, {-1, 0, 1})


def test_telescoped_pairs_sum_their_n_factors():
    for z in (0.3 + 2j, -1.7 + 1e-3j, 4.0 + 0.5j):
        n_pairs = _n_pairs(z)
        for t in (-2.0, 0.0, 0.7, 11.0):
            for pair, rhos in zip(_telescoped(z), SLOT_RHOS):
                want = sum(_pair(*n_pairs[r + 1], t) for r in rhos)
                assert abs(_pair(*pair, t) - want) <= 1e-13 * (1 + abs(want))


def test_rho_plan_covers_each_rho_once():
    """Expanding every product of the plan axis by axis gives each rho in
    {-1, 0, 1}^n holding both -1 and 1 exactly once, for n = 1..4."""
    for n in range(1, 5):
        labels = [(l, k) for l in range(n) for k in range(6)]
        expanded = []
        for get in _RHO_PLANS[n]:
            product = get(labels)
            assert [l for l, _ in product] == list(range(n))
            expanded += itertools.product(*(sorted(SLOT_RHOS[k]) for _, k in product))
        want = [rho for rho in itertools.product((-1, 0, 1), repeat=n) if -1 in rho and 1 in rho]
        assert sorted(expanded) == want, n
    dims = range(MAX_DIMENSION + 1)
    assert [len(_RHO_PLANS[n]) for n in dims] == [n * (n - 1) for n in dims]
    assert len(_RHO_PLANS) == len(dims)
