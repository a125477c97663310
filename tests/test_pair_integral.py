"""The pole-pair integral against quadrature oracles and closed forms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyherglotz import (
    MU2,
    CauchyTypeFunction,
    CurvePushforward,
    F4_DEFINING_MEASURE,
    F4_NEVANLINNA_MEASURE,
    LebesgueScaled,
    catalogue,
    check_growth,
    integrate,
    nevanlinna_residual,
    point,
)
from polyherglotz import measures
from polyherglotz.cli import main
from polyherglotz.kernels import _n_pairs
from polyherglotz.measures import (
    cauchy_weight,
    constant_density,
    gaussian_density,
    pair_integral,
    rational_density,
)
from polyherglotz.quadrature import integrate_line
from conftest import count_calls


def pair(p, q, t):
    return (1.0 / (t - p) - 1.0 / (t - q)) / 2j


def pairs_at(z):
    """The pairs of A(z, .), N_-1, N_0 = the growth weight, and N_1."""
    return ((z, -1j), (z, 1j), (1j, -1j), (-1j, z.conjugate()))


densities = st.one_of(
    st.floats(0.0, 5.0).map(constant_density),
    st.just(cauchy_weight()),
    st.just(rational_density("cauchy_squared")),
    st.builds(gaussian_density, st.floats(-3.0, 3.0), st.floats(0.2, 3.0)),
)


def z_with_im(lo, hi):
    """|Im z| log-uniform in [lo, hi] on either side of the real axis."""
    return st.builds(
        lambda x, log_y, sign: complex(x, sign * math.exp(log_y)),
        st.floats(-5.0, 5.0),
        st.floats(math.log(lo), math.log(hi)),
        st.sampled_from((-1.0, 1.0)),
    )


# points within 1e-6 of the removable singularity at i and the zero at -i
near_i_z = st.builds(
    lambda anchor, dx, dy: anchor + complex(dx, dy),
    st.sampled_from((1j, -1j)),
    st.floats(-1e-6, 1e-6),
    st.floats(-1e-6, 1e-6),
)


@settings(deadline=None)
@given(densities, st.one_of(z_with_im(1e-3, 10.0), near_i_z), st.integers(0, 3))
def test_density_pair_integral_matches_quadrature(w, z, k):
    p, q = pairs_at(z)[k]
    val, err = integrate_line(
        lambda t: pair(p, q, t) * w(t),
        singularities=[(p.real, abs(p.imag)), (q.real, abs(q.imag))],
    )
    assert abs(w.pair_integral(p, q) - val) <= err + 1e-10


@st.composite
def curves(draw):
    n = draw(st.integers(1, 3))
    alpha = draw(
        st.lists(st.sampled_from((0.0, 1.0, -1.0, 0.5, -2.0, 3.0)), min_size=n, max_size=n)
    )
    if not any(alpha):
        alpha[draw(st.integers(0, n - 1))] = draw(st.sampled_from((1.0, -0.5)))
    beta = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    weight = draw(densities)
    mu = CurvePushforward(tuple(alpha), tuple(beta), weight, draw(st.floats(0.1, 4.0)))
    pairs = [
        pairs_at(draw(z_with_im(1e-2, 5.0)))[draw(st.integers(0, 3))] for _ in range(n)
    ]
    return mu, pairs


@settings(deadline=None)
@given(curves())
def test_curve_pair_integral_matches_integrate(case):
    mu, pairs = case
    want, want_err = integrate(
        mu, lambda t: math.prod(pair(p, q, x) for (p, q), x in zip(pairs, t))
    )
    got, err = pair_integral(mu, pairs)
    assert abs(got - want) <= err + want_err + 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="the line quadrature of a Gaussian-weighted curve reports an error "
    "about 9x smaller than its distance from the closed form",
)
def test_gaussian_curve_pair_integral_error_bounds_deviation():
    w = gaussian_density(-0.208984375, 2.680273075898175)
    mu = CurvePushforward((1.0, 0.0), (1.5, 0.0), w)
    (p, q), (p2, q2) = pairs = [(2.40625 - 1j, -1j), (-1j, 1j)]
    # axis 1 moves as s + 1.5 and axis 2 stays at 0, where pair(-i, i) = -1
    exact = w.pair_integral(p - 1.5, q - 1.5) * pair(p2, q2, 0.0)
    got, err = pair_integral(mu, pairs)
    assert abs(got - exact) <= err


def test_mu2_cauchy_function_matches_f2():
    g, f2 = CauchyTypeFunction(MU2), catalogue("f2")
    rng = np.random.default_rng(20261018)
    for lo, hi in ((1e-3, 1e-2), (1e-2, 1e-1), (1e-1, 1.0), (1.0, 5.0)):
        worst = 0.0
        for _ in range(100):
            z = point(*(
                complex(
                    rng.uniform(-5, 5),
                    rng.choice([-1, 1]) * math.exp(rng.uniform(math.log(lo), math.log(hi))),
                )
                for _ in range(2)
            ))
            worst = max(worst, abs(g(z) - f2(z)))
        assert worst < 1e-10, (lo, hi, worst)


@pytest.mark.xfail(
    strict=True,
    reason="the curve line quadrature's error estimate misses the near-double "
    "pole at s = Re z when z1 = z2 lies close to the real axis",
)
def test_mu2_cauchy_function_error_bounds_deviation_near_double_pole():
    z = point(-4.877 - 1e-4j, -4.877 - 1e-4j)
    val, err = CauchyTypeFunction(MU2).evaluate(z)
    assert abs(val - catalogue("f2")(z)) <= err


def n1(z, t):
    return (1 / (t + 1j) - 1 / (t - z.conjugate())) / 2j


def test_mu2_residual_matches_residue_form():
    # closing each line integral in the upper half-plane.  The residue form
    # is a sum of four terms; near the real axis they can exceed the sum by
    # orders of magnitude, so the error is measured against their sizes.
    rng = np.random.default_rng(20261019)
    for lo, hi in ((1e-6, 1e-2), (1e-2, 1e-1), (1e-1, 1.0), (1.0, 5.0)):
        for _ in range(50):
            z1, z2 = (
                complex(rng.uniform(-5, 5), math.exp(rng.uniform(math.log(lo), math.log(hi))))
                for _ in range(2)
            )
            terms = (n1(z2, z1), -n1(z2, 1j), n1(z1, z2), -n1(z1, 1j))
            want = math.pi**2 * sum(terms)
            scale = math.pi**2 * sum(map(abs, terms))
            assert abs(nevanlinna_residual(MU2, point(z1, z2)) - want) <= 1e-13 * scale, (z1, z2)


def residual_by_rho(mu, z):
    """sum over rho of pair_integral, one quadrature per rho; (value, error)."""
    tables = [_n_pairs(c) for c in z]
    val, err = 0j, 0.0
    for rho in itertools.product((-1, 0, 1), repeat=len(z)):
        if -1 in rho and 1 in rho:
            v, e = pair_integral(mu, [tab[r + 1] for tab, r in zip(tables, rho)])
            val += v
            err += e
    return val, err


def test_curve_residual_matches_rho_by_rho_oracle():
    mu = CurvePushforward((1.0, 0.0, -2.0), (0.3, -0.5, 1.0), cauchy_weight(), 1.7)
    rng = np.random.default_rng(20261020)
    for _ in range(20):
        z = tuple(
            complex(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(1e-2), math.log(5))))
            for _ in range(3)
        )
        want, err = residual_by_rho(mu, z)
        assert abs(nevanlinna_residual(mu, point(*z)) - want) <= err + 1e-10, z


@pytest.mark.parametrize(
    "mu",
    [MU2, CurvePushforward((1.0, 0.0, -2.0), (0.3, -0.5, 1.0), cauchy_weight()), F4_DEFINING_MEASURE],
)
def test_curve_residual_runs_no_quadrature(monkeypatch, mu):
    calls = count_calls(monkeypatch, measures, "integrate_line")
    assert math.isfinite(abs(nevanlinna_residual(mu, point(*[0.5 + 1j] * mu.dimension))))
    assert calls == []


def test_product_measure_residuals_vanish_exactly():
    pts = [(1j, 1j), (0.5 + 1j, 2j), (-1 + 0.3j, 1 + 0.2j), (2 + 2j, -0.5 + 0.7j),
           (0.1 + 0.9j, 3 + 0.4j)]
    for mu in (LebesgueScaled(1.0, 2), F4_NEVANLINNA_MEASURE):
        for p in pts:
            assert nevanlinna_residual(mu, point(*p)) == 0.0


def test_lebesgue_growth_is_exact():
    for c in (0.3, 1.0, 4.5, 5.0):
        for n in (1, 2, 3):
            want = c * math.pi**n
            assert abs(check_growth(LebesgueScaled(c, n)).value - want) <= 1e-15 * want


def test_characterize_lebesgue2_seed8_passes():
    # the quadrature error of the A-integrals used to push the symmetry
    # residual to 2.1e-9 here, over the 1e-9 tolerance
    assert main(["check", "characterize", "--fn", "cauchy:lebesgue2", "--seed", "8"]) == 0
