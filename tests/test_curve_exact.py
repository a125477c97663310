"""The exact curve integral and the curve Nevanlinna residual against a
partial-fraction oracle in mpmath.

The oracle sums C(r_j) / prod_{k != j} (r_j - r_k) over the nodes r_j of
w(s) / prod_j (s - r_j), with C the Cauchy transform of the weight on the
half-plane of each node (the Faddeeva function for the Gaussian: mpmath's
erfc near the weight, its asymptotic series far out), at 80 digits.
Repeated nodes are split by 1e-25: a node repeats at most three times (once
per axis), so the split costs 50 digits and moves the integral by about
1e-25 over the distance to the nearest other node.

Moving axes have beta = 0 and alpha a power of two, so that the nodes
(z - beta)/alpha are exact in double precision and the library and the
oracle integrate the same nodes: a rounded node moves the integral by up to
eps*|s|/|Im s|, which near the real axis is far more than the 1e-12 asked
of the engine.
"""

import itertools
import math

import numpy as np
import pytest

from polyherglotz import CurvePushforward, nevanlinna_residual, point
from polyherglotz.kernels import _n_pairs
from polyherglotz.measures import (
    _curve_pair_integral,
    cauchy_weight,
    constant_density,
    gaussian_density,
    rational_density,
)

mp = pytest.importorskip("mpmath")
mp.mp.dps = 80

# an overflow in a Taylor series the engine does not use is still a defect
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

REL_TOL = 1e-12
# the oracle's own error floor, from splitting repeated nodes
ABS_FLOOR = 1e-18

WEIGHTS = [
    constant_density(1.7),
    cauchy_weight(),
    rational_density("cauchy_squared"),
    gaussian_density(0.4, 0.7),
    gaussian_density(-1.3, 2.5),
    gaussian_density(0.0, 0.25),  # nodes far out in its tails
]


#: Beyond this |zeta| the oracle takes w(zeta) from its asymptotic series,
#: whose least term, about exp(-|zeta|^2), is then below 1e-170.
SERIES_RADIUS = 20


def faddeeva(zeta):
    """w(zeta) for Im zeta >= 0.  Near the origin, exp(-zeta^2) erfc(-i zeta);
    farther out that product of a huge and a tiny factor breaks down (at
    |zeta| near 1e250 mpmath returned values near 1e+1125436476), and w is
    the asymptotic series i/(sqrt(pi) zeta) sum_k (2k-1)!!/(2 zeta^2)^k,
    summed until a term falls below 1e-90 of the first."""
    if abs(zeta) < SERIES_RADIUS:
        return mp.exp(-zeta**2) * mp.erfc(-1j * zeta)
    total, term, k = mp.mpc(0), mp.mpc(1), 0
    while abs(term) > mp.mpf(10) ** -90:
        total += term
        term *= (2 * k + 1) / (2 * zeta**2)
        k += 1
    return 1j * total / (mp.sqrt(mp.pi) * zeta)


def cauchy_transform(w, r):
    """integral of w(t)/(t - r) dt, on either half-plane."""
    if r.imag < 0:
        return mp.conj(cauchy_transform(w, mp.conj(r)))
    if w.form == "constant":
        return 1j * mp.pi * w.params[0]  # the principal value
    if w.form == "cauchy_weight":
        return -mp.pi / (r + 1j)  # residue at t = -i
    if w.form == "rational_table":
        return -mp.pi / 2 * (1j / (r + 1j) ** 2 + 1 / (r + 1j))  # double pole at -i
    m, s = (mp.mpf(x) for x in w.params)
    zeta = (r - m) / (s * mp.sqrt(2))
    return 1j * mp.pi * faddeeva(zeta) / (s * mp.sqrt(2 * mp.pi))


@pytest.mark.parametrize("radius", [SERIES_RADIUS, 35, 200])
def test_the_faddeeva_series_matches_erfc_where_both_hold(radius):
    """Where erfc still holds, at 120 digits, the series agrees with it to
    75 digits (its 80-digit arithmetic, summed over up to some 60 terms),
    in every direction of the closed upper half-plane."""
    for angle in (0.0, 0.1, 0.5, 1.0, 1.5, 2.5, 3.1, mp.pi):
        zeta = radius * mp.expjpi(angle / mp.pi)
        series = faddeeva(zeta)
        with mp.workdps(120):
            want = mp.exp(-zeta**2) * mp.erfc(-1j * zeta)
        assert abs(series - want) <= mp.mpf(10) ** -75 * abs(want), (radius, angle)


def test_the_faddeeva_series_holds_at_huge_nodes():
    """w(zeta) ~ i/(sqrt(pi) zeta) to every digit once |zeta| is huge."""
    for zeta in (mp.mpc(1e250, 1e-3), mp.mpc(-3e249, 2e250), mp.mpc(0, 1e300)):
        want = 1j / (mp.sqrt(mp.pi) * zeta)
        assert abs(faddeeva(zeta) - want) <= mp.mpf(10) ** -80 * abs(want)


def oracle_product(mu, pairs):
    """integral of prod_l pair(p_l, q_l)(t_l) dmu by partial fractions."""
    const = mp.mpf(mu.scale)
    nodes = []
    for (p, q), a, b in zip(pairs, mu.alpha, mu.beta):
        p, q = mp.mpc(p), mp.mpc(q)
        if a == 0:
            const *= (1 / (b - p) - 1 / (b - q)) / 2j
        else:
            # (1/2i)(1/(a s + b - p) - 1/(a s + b - q)) = (p' - q') / (2i a (s - p')(s - q'))
            pp, qq = (p - b) / a, (q - b) / a
            const *= (pp - qq) / (2j * a)
            nodes += [pp, qq]
    if const == 0:
        return mp.mpc(0)
    split = []
    for k, r in enumerate(nodes):
        while any(abs(r - o) < mp.mpf(10) ** -40 for o in split):
            r += mp.mpf(10) ** -25 * (1 + k) * (1 + 1j)
        split.append(r)
    total = mp.mpc(0)
    for j, r in enumerate(split):
        total += cauchy_transform(mu.weight, r) / mp.fprod(r - o for k, o in enumerate(split) if k != j)
    return const * total


def oracle_residual(mu, z):
    """The residual and the sum of the magnitudes of its rho terms."""
    tables = [_n_pairs(c) for c in z]
    terms = [
        oracle_product(mu, [tab[r + 1] for tab, r in zip(tables, rho)])
        for rho in itertools.product((-1, 0, 1), repeat=len(z))
        if -1 in rho and 1 in rho
    ]
    return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


def assert_close(got, want, case, scale=None):
    """Within REL_TOL of |want|, or of `scale` for a sum whose terms cancel."""
    scale = abs(want) if scale is None else scale
    assert abs(got - want) <= REL_TOL * scale + ABS_FLOOR, (complex(want), got, case)


def random_curve(rng, n, w):
    alpha = [float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) for _ in range(n)]
    if all(a == 0 for a in alpha):
        alpha[0] = 1.0
    beta = [0.0 if a else float(rng.uniform(-1, 1)) for a in alpha]
    return CurvePushforward(tuple(alpha), tuple(beta), w, 1.3)


def random_upper(rng):
    """Re z in [-3, 3] and Im z log-uniform in [1e-6, 5]."""
    return complex(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(1e-6), math.log(5))))


def upper_points(rng, mu, kind):
    """A point of C+^n: random, with z1 = z2, with a coordinate at i, or
    with the node of axis 1 (kind 3) or the i node of axis 1 (kind 4)
    1e-4 to 1e-12 from axis 0's node."""
    n, alpha = mu.dimension, mu.alpha
    z = [random_upper(rng) for _ in range(n)]
    if kind == 1:
        z[1] = z[0]
    elif kind == 2:
        z[int(rng.integers(n))] = 1j
    elif kind in (3, 4) and alpha[0] and alpha[1]:
        d = 10.0 ** -int(rng.integers(4, 13)) * complex(*rng.normal(size=2))
        if kind == 3:
            zj = alpha[1] * (z[0] / alpha[0] + d)
            z[1] = zj if zj.imag > 0 else z[1]
        else:
            z0 = alpha[0] * (1j / alpha[1] + d)
            z[0] = z0 if z0.imag > 0 else z[0]
    return z


@pytest.mark.parametrize("w", WEIGHTS, ids=lambda w: f"{w.form}{w.params}")
def test_curve_residual_matches_partial_fraction_oracle(w):
    # Every term is exact to rounding, but near the real axis the terms of
    # the rho sum can exceed the sum by 1e6, so the sum is held to 1e-12 of
    # the magnitudes of its terms.
    rng = np.random.default_rng(20261018)
    for trial in range(25):
        mu = random_curve(rng, 2 + trial % 2, w)
        z = upper_points(rng, mu, trial % 5)
        want, scale = oracle_residual(mu, z)
        assert_close(nevanlinna_residual(mu, point(*z)), want, (mu, z), scale)


def pole_pair(rng, z):
    """One of A(z, .), N_-1, N_0 (the growth weight) and N_1 at z."""
    return ((z, -1j), (z, 1j), (1j, -1j), (-1j, z.conjugate()))[int(rng.integers(4))]


@pytest.mark.parametrize("w", WEIGHTS, ids=lambda w: f"{w.form}{w.params}")
def test_curve_pair_integral_matches_partial_fraction_oracle(w):
    # n = 1..3, points on either half-plane, at +-i, and repeated
    rng = np.random.default_rng(20261019)
    for trial in range(30):
        mu = random_curve(rng, 1 + trial % 3, w)
        z = [random_upper(rng) * rng.choice([1, -1]).item() for _ in range(mu.dimension)]
        if trial % 4 == 1:
            z[0] = complex(rng.choice([1j, -1j]))
        elif trial % 4 == 2:
            z = [z[0]] * mu.dimension
        pairs = [pole_pair(rng, c) for c in z]
        assert_close(_curve_pair_integral(mu, pairs), oracle_product(mu, pairs), (mu, pairs))


def test_double_minus_i_node():
    # the node -i twice: A(z1, .) and N_1(z2) on the diagonal share it
    for w in WEIGHTS:
        mu = CurvePushforward((1.0, 1.0), (0.0, 0.0), w)
        pairs = [(0.3 + 0.2j, -1j), (-1j, 0.7 - 0.4j)]
        assert_close(_curve_pair_integral(mu, pairs), oracle_product(mu, pairs), w)


def test_near_real_pinch_costs_no_digits():
    # an upper and a lower node 8e-6 apart across the real axis, far from
    # the weight's bulk: the halves of a two-sided formula cancel there
    x = -5.075959948073423
    for w in WEIGHTS:
        mu = CurvePushforward((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), w)
        pairs = [(-2j, complex(x - 3.8e-12, -4.034999e-06)), (complex(x, 4.034992e-06), 0.5j), (-1j, 1j)]
        want = oracle_product(mu, pairs)
        assert abs(_curve_pair_integral(mu, pairs) - want) <= 1e-14 * abs(want), w
