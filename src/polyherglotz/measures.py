"""A closed family of positive Borel measures on R^n and their integrals.

Variants: finite atomic combinations, scaled Lebesgue measure, products of
one-dimensional densities, pushforwards of a weighted line measure along an
affine curve, and finite sums of these.  Every measure appearing in the
examples (lambda, 5*lambda, the diagonal measure, the product-density
alternative) is expressible; the family is deliberately closed so the
Nevanlinna checker's error analysis stays tractable.

The kernel integral, the Nevanlinna residual and the growth integral are
all integrals of products of pole pairs (see `kernels`), which
`pair_integral` computes; `integrate` is adaptive quadrature for arbitrary
integrands.  `integrate` has one path for absolutely continuous terms: a
measure counts as the sum of its terms, and all its scaled Lebesgue and
product-density terms take one iterated quadrature.

Against a curve, a product of pole pairs is the weight over a polynomial
in the curve parameter, and `_curve_pair_integral` integrates it exactly
as a divided difference over the poles (`DensityDescriptor._line_integral`).
The Nevanlinna residual takes every term that way, so it runs no
quadrature for any measure of the family.  `pair_integral`'s curve branch
is still one line quadrature, the independent oracle of the exact one.
`boundary_hints` tells Stieltjes inversion where a measure's singular part
puts spikes on each integration axis at height y, and how wide they are.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.special import wofz

from .core import CutPlanePoint
from .errors import DivergenceError, InvalidArgumentError, InvalidMeasureError
from .kernels import _n_pairs, _pair
from .quadrature import integrate_line, integrate_rn

# name -> (density w(t), its Cauchy transform C(z) for Im z > 0, and the
# poles of w in C+ with their multiplicity: w(t) = 1 / prod (t - a)(t - conj a))
_RATIONAL_TABLE: dict = {
    # C by residues at the double pole t = -i
    "cauchy_squared": (
        lambda t: 1.0 / (1.0 + t * t) ** 2,
        lambda z: -0.5 * math.pi * (1j / (z + 1j) ** 2 + 1.0 / (z + 1j)),
        (1j, 1j),
    ),
}

# The Gaussian's Taylor coefficients come from this many samples of the
# Faddeeva function on a circle about each cluster of nodes.
_TAYLOR_SAMPLES = 64


@dataclass(frozen=True)
class DensityDescriptor:
    """One-dimensional density, nonnegative and integrable against (1+t^2)^-1."""

    form: str
    params: tuple = ()

    def __post_init__(self):
        if self.form == "constant":
            if len(self.params) != 1 or not 0 <= self.params[0] < math.inf:
                raise InvalidMeasureError("constant density needs a finite c >= 0")
            fn = lambda t, c=self.params[0]: c
        elif self.form == "cauchy_weight":
            if self.params:
                raise InvalidMeasureError("cauchy_weight takes no parameters")
            fn = lambda t: 1.0 / (1.0 + t * t)
        elif self.form == "gaussian":
            if len(self.params) != 2 or not (
                math.isfinite(self.params[0]) and 0 < self.params[1] < math.inf
            ):
                raise InvalidMeasureError("gaussian needs a finite (mean, sigma), sigma > 0")
            m, s = self.params
            fn = lambda t: math.exp(-0.5 * ((t - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        elif self.form == "rational_table":
            if len(self.params) != 1 or self.params[0] not in _RATIONAL_TABLE:
                raise InvalidMeasureError(
                    f"unknown rational_table entry {self.params!r}"
                )
            fn = _RATIONAL_TABLE[self.params[0]][0]
        else:
            raise InvalidMeasureError(f"unknown density form {self.form!r}")
        object.__setattr__(self, "_fn", fn)  # the formula, resolved once for every caller

    def __reduce__(self):  # pickle and copy rebuild `_fn` from the fields
        return type(self), (self.form, self.params)

    def __call__(self, t: float) -> float:
        return self._fn(t)

    def pair_integral(self, p: complex, q: complex) -> complex:
        """integral over R of pair(p, q)(t) w(t) dt in closed form, for nonreal p, q.

        pair(p, q)(t) = (1/2i)(1/(t-p) - 1/(t-q)), so the integral is
        (C(p) - C(q)) / 2i with C the Cauchy transform of w (see
        `_cauchy_transform`); the constant density, whose transform
        diverges, gives c*pi*((Im p > 0) - (Im q > 0)).
        """
        if self.form == "constant":
            return complex(self.params[0] * math.pi * ((p.imag > 0) - (q.imag > 0)))
        return (self._cauchy_transform(p) - self._cauchy_transform(q)) / 2j

    def _cauchy_transform(self, z: complex) -> complex:
        """C(z) = integral of w(t)/(t-z) dt; C(z) = conj C(conj z) for Im z < 0."""
        if z.imag < 0:
            return self._cauchy_transform(z.conjugate()).conjugate()
        if self.form == "cauchy_weight":
            return -math.pi / (z + 1j)
        if self.form == "gaussian":
            m, s = self.params
            w = wofz((z - m) / (s * math.sqrt(2.0)))
            return complex(1j * math.pi * w / (s * math.sqrt(2.0 * math.pi)))
        return _RATIONAL_TABLE[self.params[0]][1](z)

    def _line_integral(self, nodes: list) -> complex:
        """integral of w(s) / prod_j (s - r_j) ds over R, for two or more
        nonreal nodes r_j, repeated or not.

        A constant or rational w is c / prod (s - a)(s - conj a) over its
        poles a in C+, so the integrand is rational and decays like s^-2:
        closing the line in C+ gives 2*pi*i*c times the divided difference
        over the nodes and poles in C+ of 1 / P, with P the product of
        (r - l) over the nodes and poles l in C-.  By Opitz's formula that
        is the last entry of P(J)^-1 e_0, where J is lower bidiagonal with
        the upper nodes on its diagonal and ones below it: one forward
        substitution (`_solve`) per lower node.  It never divides by a
        difference of two nodes, and every term lives in C+, so repeated
        and nearly coincident nodes cost no digits, and an upper node next
        to a lower one across the real axis costs none in the order below.
        The Gaussian is entire and takes `_faddeeva_divided_difference`
        instead.
        """
        if self.form == "gaussian":
            m, s = self.params
            dd = _faddeeva_divided_difference(nodes, m, s * math.sqrt(2.0))
            return 1j * math.pi * dd / (s * math.sqrt(2.0 * math.pi))
        if self.form == "constant":
            c, poles = self.params[0], ()
        elif self.form == "cauchy_weight":
            c, poles = 1.0, (1j,)
        else:
            c, poles = 1.0, _RATIONAL_TABLE[self.params[0]][2]
        # nodes near the real axis come last in C+ and first in C-: a pair
        # of them across the axis then makes one large entry, which later
        # substitutions only add to
        by_height = lambda r: -r.imag
        upper = sorted([r for r in nodes if r.imag > 0] + list(poles), key=by_height)
        if not upper:
            return 0j
        lower = sorted([r for r in nodes if r.imag < 0] + [a.conjugate() for a in poles], key=by_height)
        v = [1.0] + [0.0] * (len(upper) - 1)
        for l in lower:
            v = _solve(upper, l, v)
        return 2j * math.pi * c * v[-1]


def _solve(nodes: list, pole: complex, v: list) -> list:
    """(J - pole)^-1 v by forward substitution, J lower bidiagonal with
    `nodes` on its diagonal and ones below it.  From v = e_0 it gives the
    divided differences of 1/(r - pole) over the leading nodes."""
    out, prev = [], 0j
    for x, b in zip(nodes, v):
        prev = (b - prev) / (x - pole)
        out.append(prev)
    return out


def _faddeeva(zeta: complex) -> complex:
    """Omega(zeta): w(zeta) on C+ and -w(-zeta) = w(zeta) - 2 exp(-zeta^2)
    on C-, with w = `wofz`.  A Gaussian density of mean m and width s has
    C(t) = i*pi*Omega((t - m)/(s*sqrt(2)))/(s*sqrt(2*pi))."""
    if zeta.imag > 0:
        return complex(wofz(zeta))
    return -complex(wofz(-zeta))


def _faddeeva_divided_difference(nodes: list, m: float, scale: float) -> complex:
    """[x_0, ..., x_N] of Omega((x - m)/scale) (`_faddeeva`), by a Newton table.

    The nodes are first grouped by `_clusters` and ordered so that each
    cluster is contiguous.  A run of nodes within one cluster is the
    divided difference of a Taylor series about the cluster's mean
    (`_cluster_divided_difference`); any other run comes from the Newton
    recursion, which then divides by a distance of at least the cluster
    scale.  A cluster may hold nodes on both sides of the real axis,
    where the jump 2 exp(-zeta^2) of Omega can be far smaller than Omega
    itself (the Gaussian's tails): there Omega is w minus that jump on the
    nodes in C-, and neither part is formed as a difference.  Every
    difference of nodes is taken in x, never between rounded zeta.
    """
    zeta = [(x - m) / scale for x in nodes]
    labels = _clusters(zeta)
    order = sorted(range(len(nodes)), key=labels.__getitem__)
    x = [nodes[i] for i in order]
    zeta = [zeta[i] for i in order]
    labels = [labels[i] for i in order]
    n = len(x)
    table = [[0j] * n for _ in range(n)]
    series = {}
    for i in range(n):
        table[i][i] = _faddeeva(zeta[i])
        for j in range(i - 1, -1, -1):
            if labels[j] != labels[i]:
                table[j][i] = (table[j + 1][i] - table[j][i - 1]) / (x[i] - x[j])
                continue
            if labels[i] not in series:
                series[labels[i]] = _cluster_series(
                    [a for a, c in zip(x, labels) if c == labels[i]], m, scale
                )
            table[j][i] = _cluster_divided_difference(series[labels[i]], x[j:i + 1])
    return table[0][n - 1]


def _taylor_radius(z: float) -> float:
    """The radius of the Taylor circles about a point at distance z from
    the origin, in zeta (see `_cluster_series`)."""
    return max(1.0, z / 4)


def _clusters(zeta: list, fraction: float = 0.5) -> list:
    """Cluster labels (tuples) for points of the plane.

    Two points are linked when they lie within `fraction` of the Taylor
    radius of each other, and a cluster is a linked chain, so that the
    Newton recursion between clusters divides by at least that much.  A
    chain that does not fit in half the Taylor radius about its mean is
    split again at half the fraction, so that each cluster's series
    converges like 2^-k.
    """
    labels = [(i,) for i in range(len(zeta))]
    for i, a in enumerate(zeta):
        for j in range(i):
            b = zeta[j]
            if labels[i] != labels[j] and abs(a - b) <= fraction * _taylor_radius(min(abs(a), abs(b))):
                old = labels[i]
                labels = [labels[j] if x == old else x for x in labels]
    for label in set(labels):
        idx = [k for k, x in enumerate(labels) if x == label]
        points = [zeta[k] for k in idx]
        center = sum(points) / len(points)
        if max(abs(p - center) for p in points) > _taylor_radius(abs(center)) / 2:
            for k, sub in zip(idx, _clusters(points, fraction / 2)):
                labels[k] = label + sub
    return labels


def _cluster_series(nodes: list, m: float, scale: float):
    """(mirrored, center, radius, w series, exp(-zeta^2) series or None)
    about the mean of a cluster of nodes: the coefficients a_k of
    f(zeta(center + radius*u)) = sum_k a_k u^k, zeta(x) = (x - m)/scale,
    from the Cauchy integral on the circle |u| = 1.

    A cluster entirely in C- is mirrored into C+ (Omega = -conj w(conj .)
    there).  The radius is max(1, |zeta(center)|/4) in zeta; a center in
    C- then belongs to a cluster with a node in C+ within half a radius.
    The disc of twice the radius stays where |exp(-zeta^2)| < e^7 (within
    2.5 of the real axis near the origin, or where |Re| >= |Im|, or in
    C+), so that w and exp(-zeta^2) are bounded on it, their coefficients
    fall off like 2^-k, and the samples alias nothing above rounding.  On a larger
    circle the exp(-zeta^2) part of w, negligible at the center, would
    alias into the low coefficients; a smaller one would leave the
    coefficients of high order, which a divided difference over many
    nodes needs, with fewer correct digits.
    """
    mirrored = all(x.imag < 0 for x in nodes)
    center = sum(nodes) / len(nodes)
    if mirrored:
        center = center.conjugate()
    zc = (center - m) / scale
    r = _taylor_radius(abs(zc))
    u = zc + r * np.exp(2j * np.pi * np.arange(_TAYLOR_SAMPLES) / _TAYLOR_SAMPLES)
    w_series = (np.fft.fft(wofz(u)) / _TAYLOR_SAMPLES).tolist()
    exp_series = None  # needed, and bounded, only across the real axis
    if not mirrored and any(x.imag < 0 for x in nodes):
        exp_series = (np.fft.fft(np.exp(-u * u)) / _TAYLOR_SAMPLES).tolist()
    return mirrored, center, r * scale, w_series, exp_series


def _cluster_divided_difference(series, run: list) -> complex:
    """[run] Omega for a run of nodes of one cluster.

    With U and L the nodes of the run in C+ and C-, Omega = w - 2 exp(-zeta^2)
    on L gives [run] w - 2 [L](exp(-zeta^2) / P_U) by partial fractions
    (P_U = prod over U of (x - u)); the second term is a forward
    substitution (`_solve`) against the divided differences of the
    exp(-zeta^2) series over L.
    """
    mirrored, center, radius, w_series, exp_series = series
    if mirrored:
        return -_taylor_divided_difference(
            center, radius, w_series, [x.conjugate() for x in run]
        ).conjugate()
    dd = _taylor_divided_difference(center, radius, w_series, run)
    lower = [x for x in run if x.imag < 0]
    if not lower:
        return dd
    v = [1.0] + [0.0] * (len(lower) - 1)
    for u in run:
        if u.imag > 0:
            v = _solve(lower, u, v)
    jump = sum(
        a * _taylor_divided_difference(center, radius, exp_series, lower[k:])
        for k, a in enumerate(v)
    )
    return dd - 2 * jump


def _taylor_divided_difference(center, radius, coeffs, nodes: list) -> complex:
    """Divided difference over `nodes` of sum_k a_k ((x - center)/radius)^k:
    divide the series by (u - u_j) for all nodes but the last (synthetic
    division), evaluate at the last, and rescale by radius^-(len - 1)."""
    a = coeffs
    us = [(x - center) / radius for x in nodes]
    for d in us[:-1]:
        q, acc = [0j] * (len(a) - 1), 0j
        for k in range(len(a) - 1, 0, -1):
            acc = a[k] + d * acc
            q[k - 1] = acc
        a = q
    val = 0j
    for c in reversed(a):
        val = val * us[-1] + c
    return val / radius ** (len(nodes) - 1)


def constant_density(c: float) -> DensityDescriptor:
    return DensityDescriptor("constant", (float(c),))


def cauchy_weight() -> DensityDescriptor:
    return DensityDescriptor("cauchy_weight")


def gaussian_density(mean: float, sigma: float) -> DensityDescriptor:
    return DensityDescriptor("gaussian", (float(mean), float(sigma)))


def rational_density(name: str) -> DensityDescriptor:
    return DensityDescriptor("rational_table", (name,))


@dataclass(frozen=True)
class Atomic:
    points: tuple  # tuple of real n-vectors
    weights: tuple
    dim: int | None = None

    def __post_init__(self):
        points = tuple(tuple(float(x) for x in p) for p in self.points)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if len(points) != len(weights):
            raise InvalidMeasureError("points and weights lengths differ")
        if not all(0 <= w < math.inf for w in weights):
            raise InvalidMeasureError("atomic weights must be finite and >= 0")
        if not all(math.isfinite(x) for p in points for x in p):
            raise InvalidMeasureError("atom coordinates must be finite")
        if points:
            n = len(points[0])
            if any(len(p) != n for p in points):
                raise InvalidMeasureError("atoms have inconsistent dimensions")
            if self.dim is not None and self.dim != n:
                raise InvalidMeasureError("dim does not match atom dimension")
            object.__setattr__(self, "dim", n)
        elif self.dim is None:
            raise InvalidMeasureError("empty atomic measure needs an explicit dim")

    @property
    def dimension(self) -> int:
        return self.dim


@dataclass(frozen=True)
class LebesgueScaled:
    c: float
    dim: int = 1

    def __post_init__(self):
        if not 0 <= self.c < math.inf:
            raise InvalidMeasureError("Lebesgue scale must be finite and >= 0")
        if self.dim < 1:
            raise InvalidMeasureError("dimension must be >= 1")

    @property
    def dimension(self) -> int:
        return self.dim


@dataclass(frozen=True)
class ProductDensity:
    factors: tuple  # of DensityDescriptor

    def __post_init__(self):
        if not self.factors:
            raise InvalidMeasureError("product density needs >= 1 factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dimension(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class CurvePushforward:
    """Pushforward of weight(s) ds along s -> alpha * s + beta in R^n."""

    alpha: tuple
    beta: tuple
    weight: DensityDescriptor
    scale: float = 1.0

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        beta = tuple(float(b) for b in self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if len(alpha) != len(beta):
            raise InvalidMeasureError("alpha and beta lengths differ")
        if not all(math.isfinite(x) for x in alpha + beta):
            raise InvalidMeasureError("curve alpha and beta must be finite")
        if all(a == 0 for a in alpha):
            raise InvalidMeasureError("curve must have a nonzero direction")
        if not 0 <= self.scale < math.inf:
            raise InvalidMeasureError("scale must be finite and >= 0")

    @property
    def dimension(self) -> int:
        return len(self.alpha)

    def at(self, s: float) -> tuple:
        return tuple(a * s + b for a, b in zip(self.alpha, self.beta))


@dataclass(frozen=True)
class MeasureSum:
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise InvalidMeasureError("sum needs >= 1 term")
        dims = {m.dimension for m in self.terms}
        if len(dims) != 1:
            raise InvalidMeasureError(f"sum terms have mixed dimensions {dims}")

    @property
    def dimension(self) -> int:
        return self.terms[0].dimension


Measure = Union[Atomic, LebesgueScaled, ProductDensity, CurvePushforward, MeasureSum]


def _check_decay(g: Callable[[float], complex], label: str) -> None:
    """Reject integrands whose 1-d profile fails to decay like 1/t^2.

    Samples |g(t)|*(1+t^2) at doubling radii; sustained growth means the
    tan-substituted integrand blows up at the endpoints.
    """
    radii = [4.0 * 2**k for k in range(7)]
    for sign in (1.0, -1.0):
        vals = [abs(g(sign * r)) * (1.0 + r * r) for r in radii]
        floor = vals[0] + 1e-12
        if vals[-1] > 100.0 * floor and all(
            vals[k + 1] >= vals[k] for k in range(3, 6)
        ):
            raise DivergenceError(
                f"integrand does not decay along {label} (t={sign * radii[-1]:g})"
            )


def _axis_profiles(f, n):
    """1-d profiles of an n-dim integrand along each axis and the diagonal."""
    profiles = []
    for j in range(n):
        profiles.append(
            (f"axis {j + 1}", lambda t, j=j: f(tuple(t if k == j else 0.0 for k in range(n))))
        )
    if n > 1:
        profiles.append(("diagonal", lambda t: f((t,) * n)))
    return profiles


def _flat_terms(mu: Measure):
    """The terms of a measure, nested sums flattened; a measure that is not
    a sum is its own single term."""
    if isinstance(mu, MeasureSum):
        for term in mu.terms:
            yield from _flat_terms(term)
    else:
        yield mu


def _has_density(mu: Measure) -> bool:
    """Whether `integrate` puts this term into the density quadrature.

    A scaled Lebesgue measure with c = 0 stays out: it integrates to 0
    without a decay check.
    """
    return isinstance(mu, ProductDensity) or (isinstance(mu, LebesgueScaled) and mu.c != 0.0)


def _weighted(f, c: float, products: list):
    """t -> f(t) * (c + sum_k prod_l w_kl(t_l)), products of (l, w_kl._fn)."""
    def fw(t):
        d = c
        for factors in products:
            p = 1.0
            for l, w in factors:
                p *= w(t[l])
            d += p
        return f(t) * d
    return fw


def _integrate_densities(terms: list, f):
    """integral of f against a sum of scaled Lebesgue and product-density
    terms as one quadrature of f times the sum of their densities, a weight
    built once and without constant factors of 1.0; with no product term, the
    sum of the scales times the integral of f.  Each term's decay is checked alone.
    """
    c, products = 0.0, []
    for term in terms:
        if isinstance(term, LebesgueScaled):
            c += term.c
            g = f
        else:
            unit = constant_density(1.0)
            products.append(tuple((l, w._fn) for l, w in enumerate(term.factors) if w != unit))
            g = _weighted(f, 0.0, products[-1:])
        for label, h in _axis_profiles(g, term.dimension):
            _check_decay(h, label)
    n = terms[0].dimension
    if not products:
        val, err = integrate_rn(f, n)
        return c * val, c * err
    return integrate_rn(_weighted(f, c, products), n)


def integrate(mu: Measure, f: Callable[[tuple], complex]):
    """integral of f dmu.  Returns (value, error_estimate).

    A measure is taken as the sum of its flattened terms (one term when it
    is not a sum).  All absolutely continuous terms (scaled Lebesgue with
    c > 0, product densities) are integrated as one adaptive quadrature on
    the tan-compactified axes; then atoms are summed exactly and each curve
    takes one line quadrature, in the order of the terms.  Every quadrature
    runs at the `quadrature` module's default tolerances.
    """
    terms = list(_flat_terms(mu))
    dense = [t for t in terms if _has_density(t)]
    val, err = _integrate_densities(dense, f) if dense else (0j, 0.0)
    for term in terms:
        if isinstance(term, Atomic):
            val += sum((w * f(p) for p, w in zip(term.points, term.weights)), 0j)
        elif isinstance(term, CurvePushforward) and term.scale != 0.0:
            g = lambda s, w=term.weight._fn: f(term.at(s)) * w(s)
            _check_decay(g, "curve parameter")
            v, e = integrate_line(g)
            val += term.scale * v
            err += term.scale * e
        elif not isinstance(term, (LebesgueScaled, ProductDensity, CurvePushforward)):
            raise InvalidArgumentError(f"unknown measure variant {type(term).__name__}")
    return complex(val), err


def boundary_hints(mu: Measure, prefix: tuple, y: float) -> list:
    """(location, half_width) spikes on the next integration axis for
    boundary integrals at height y.

    Used by Stieltjes inversion: the boundary integrand at x + iy is the
    Poisson integral of the measure, prod_l P_y(x_l - t_l) dmu, so it peaks
    where the measure carries mass on the slice through the fixed
    coordinates `prefix`.  An atom, or a curve that does not move on this
    axis, gives a spike of half-width y.  A curve t = alpha*s + beta fixed
    through an earlier axis i spreads s over y/|alpha_i|, so its spike on
    this axis is P_y convolved with that: half-width y*(1 + |alpha/alpha_i|),
    2y on the diagonal.  Densities are smooth and give none.
    """
    axis = len(prefix)
    if isinstance(mu, Atomic):
        return [(p[axis], y) for p in mu.points]
    if isinstance(mu, MeasureSum):
        return [x for t in mu.terms for x in boundary_hints(t, prefix, y)]
    if isinstance(mu, CurvePushforward):
        a = mu.alpha[axis]
        if a == 0.0:
            return [(mu.beta[axis], y)]
        for i in range(axis):
            if mu.alpha[i] != 0.0:
                s = (prefix[i] - mu.beta[i]) / mu.alpha[i]
                return [(a * s + mu.beta[axis], y * (1.0 + abs(a / mu.alpha[i])))]
        return []
    return []


# A curve integrand's pole at s gets quadrature breakpoints only when
# |Im s| is below this: farther poles need none, and hinting them all
# doubles the cost of a curve integral.
_HINT_IM = 1e-2


def pair_integral(mu: Measure, pairs: Sequence[tuple]):
    """integral of prod_l pair(p_l, q_l)(t_l) dmu for nonreal poles.

    `pairs` holds one (p_l, q_l) per axis.  Returns (value, error_estimate);
    every variant but the curve is exact and reports 0.0.  The curve takes
    one line quadrature at the `quadrature` module's default tolerances.
    """
    if isinstance(mu, LebesgueScaled):
        # every axis is the constant density, c on the first and 1 on the rest
        val = mu.c
        for p, q in pairs:
            val *= math.pi * ((p.imag > 0) - (q.imag > 0))
        return val, 0.0

    if isinstance(mu, ProductDensity):
        return math.prod(w.pair_integral(p, q) for w, (p, q) in zip(mu.factors, pairs)), 0.0

    if isinstance(mu, Atomic):
        val = sum(
            (w * math.prod(_pair(p, q, x) for (p, q), x in zip(pairs, t))
             for t, w in zip(mu.points, mu.weights)),
            0j,
        )
        return val, 0.0

    if isinstance(mu, MeasureSum):
        val, err = 0j, 0.0
        for term in mu.terms:
            v, e = pair_integral(term, pairs)
            val += v
            err += e
        return val, err

    if isinstance(mu, CurvePushforward):
        const, poles = _curve_poles(mu, pairs)
        w = mu.weight._fn

        def g(s):
            v = w(s)
            for p, q in poles:
                v *= 1.0 / (s - p) - 1.0 / (s - q)
            return v

        val, err = integrate_line(g, singularities=_near_axis(poles), complex_func=True)
        return const * val, abs(const) * err

    raise InvalidArgumentError(f"unknown measure variant {type(mu).__name__}")


def _curve_poles(mu: CurvePushforward, pairs: Sequence[tuple]):
    """(const, poles) with prod_l pair(p_l, q_l)(t_l) dmu =
    const * prod_k (1/(s-p'_k) - 1/(s-q'_k)) * weight(s) ds.

    With t = alpha*s + beta, an axis with alpha = 0 is the constant
    pair(p, q)(beta); any other is (1/(s-p') - 1/(s-q'))/(2i*alpha) with
    p' = (p - beta)/alpha.
    """
    const = mu.scale
    poles = []
    for (p, q), a, b in zip(pairs, mu.alpha, mu.beta):
        if a == 0.0:
            const *= _pair(p, q, b)
        else:
            const /= 2j * a
            poles.append(((p - b) / a, (q - b) / a))
    return const, poles


def _near_axis(poles) -> list:
    """(location, half_width) of the poles 1/(s - r) within _HINT_IM of the axis."""
    return [(r.real, abs(r.imag)) for pq in poles for r in pq if abs(r.imag) < _HINT_IM]


@dataclass(frozen=True)
class GrowthResult:
    finite: bool
    value: float


def check_growth(mu: Measure) -> GrowthResult:
    """Evaluate the growth integral of prod(1+t_l^2)^-1 against mu.

    1/(1+t^2) is the pole pair (i, -i).
    """
    val, _ = pair_integral(mu, [(1j, -1j)] * mu.dimension)
    if not math.isfinite(abs(val)):
        return GrowthResult(False, math.inf)
    return GrowthResult(True, val.real)


def nevanlinna_residual(mu: Measure, z: CutPlanePoint) -> complex:
    """The rho-indexed N-factor sum whose vanishing (for all z in C+^n)
    characterizes representing measures.

    The sum runs over every rho in {-1, 0, 1}^n containing both -1 and 1,
    of the integral of prod_l N_rho_l(z_l, t_l) dmu, taken as the grouped
    products of `_rho_products`.  Every product is exact: a curve takes
    `_curve_pair_integral` and every other variant `pair_integral`, so no
    quadrature runs.  For n = 1 the index set is empty and the residual is
    exactly 0.
    """
    if not isinstance(z, CutPlanePoint):
        z = CutPlanePoint(tuple(z))
    if not z.is_upper():
        raise InvalidArgumentError("nevanlinna residual is sampled on C+^n")
    if mu.dimension != z.n:
        raise InvalidArgumentError("measure and point dimensions differ")
    products = _rho_products([_n_pairs(c) for c in z.coords])
    return _residual(mu, products) if products else 0j


def _rho_products(tables: list) -> list:
    """The sum over rho of prod_l N_rho_l as a list of products of pole
    pairs, one pair per axis.

    The axes are taken in turn, keeping the products of each prefix of rho
    by whether it holds -1 and whether it holds 1.  Where a prefix leaves
    several values free on the next axis, the product takes their sum,
    which telescopes to one pair: N_-1 + N_0 = pair(z, -i),
    N_0 + N_1 = pair(i, conj z) and N_-1 + N_0 + N_1 = pair(z, conj z).
    That takes 2 products at n = 2 (the same two as rho by rho) and 6
    instead of 12 at n = 3.  Near the real axis the telescoped pair is
    small where its terms are large, so these products cancel far less
    than the rho terms do.
    """
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


def _residual(mu: Measure, products: list) -> complex:
    """sum over `products` of the integral of each pole-pair product dmu."""
    if isinstance(mu, MeasureSum):
        return sum((_residual(term, products) for term in mu.terms), 0j)
    if isinstance(mu, CurvePushforward):
        return sum((_curve_pair_integral(mu, pairs) for pairs in products), 0j)
    return sum((pair_integral(mu, pairs)[0] for pairs in products), 0j)


def _curve_pair_integral(mu: CurvePushforward, pairs: Sequence[tuple]) -> complex:
    """integral of prod_l pair(p_l, q_l)(t_l) dmu against a curve, exactly.

    Each factor 1/(s-p) - 1/(s-q) of `_curve_poles` is (p-q)/((s-p)(s-q)),
    which leaves the integral of the weight over the product of (s - r)
    for all the poles r (`DensityDescriptor._line_integral`).  A pair with
    p = q is the zero factor.
    """
    const, poles = _curve_poles(mu, pairs)
    for p, q in poles:
        const *= p - q
    if const == 0:
        return 0j
    return const * mu.weight._line_integral([r for pq in poles for r in pq])


# ---------------------------------------------------------------------------
# JSON specification format (tagged union, unknown fields rejected)

def _require_fields(obj: dict, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise InvalidArgumentError(f"unknown fields {sorted(extra)} in {where}")


def density_from_dict(obj: dict) -> DensityDescriptor:
    if not isinstance(obj, dict) or "form" not in obj:
        raise InvalidArgumentError("density descriptor needs a 'form' field")
    form = obj["form"]
    if form == "constant":
        _require_fields(obj, {"form", "c"}, "constant density")
        return constant_density(obj["c"])
    if form == "cauchy_weight":
        _require_fields(obj, {"form"}, "cauchy_weight density")
        return cauchy_weight()
    if form == "gaussian":
        _require_fields(obj, {"form", "mean", "sigma"}, "gaussian density")
        return gaussian_density(obj["mean"], obj["sigma"])
    if form == "rational_table":
        _require_fields(obj, {"form", "name"}, "rational_table density")
        return rational_density(obj["name"])
    raise InvalidArgumentError(f"unknown density form {form!r}")


def density_to_dict(d: DensityDescriptor) -> dict:
    if d.form == "constant":
        return {"form": "constant", "c": d.params[0]}
    if d.form == "cauchy_weight":
        return {"form": "cauchy_weight"}
    if d.form == "gaussian":
        return {"form": "gaussian", "mean": d.params[0], "sigma": d.params[1]}
    return {"form": "rational_table", "name": d.params[0]}


def measure_from_dict(obj: dict) -> Measure:
    try:
        return _measure_from_dict(obj)
    except (KeyError, TypeError) as e:
        raise InvalidArgumentError(
            f"malformed measure descriptor ({type(e).__name__}: {e})"
        ) from e


def _measure_from_dict(obj: dict) -> Measure:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidArgumentError("measure descriptor needs a 'type' field")
    kind = obj["type"]
    if kind == "atomic":
        _require_fields(obj, {"type", "points", "weights", "dimension"}, "atomic")
        return Atomic(
            tuple(tuple(p) for p in obj["points"]),
            tuple(obj["weights"]),
            obj.get("dimension"),
        )
    if kind == "lebesgue_scaled":
        _require_fields(obj, {"type", "c", "dimension"}, "lebesgue_scaled")
        return LebesgueScaled(obj["c"], obj["dimension"])
    if kind == "product_density":
        _require_fields(obj, {"type", "factors"}, "product_density")
        return ProductDensity(tuple(density_from_dict(d) for d in obj["factors"]))
    if kind == "curve_pushforward":
        _require_fields(obj, {"type", "curve", "weight", "scale"}, "curve_pushforward")
        curve = obj["curve"]
        _require_fields(curve, {"alpha", "beta"}, "curve")
        return CurvePushforward(
            tuple(curve["alpha"]),
            tuple(curve["beta"]),
            density_from_dict(obj["weight"]),
            obj["scale"],
        )
    if kind == "sum":
        _require_fields(obj, {"type", "terms"}, "sum")
        return MeasureSum(tuple(_measure_from_dict(t) for t in obj["terms"]))
    raise InvalidArgumentError(f"unknown measure type {kind!r}")


def measure_to_dict(mu: Measure) -> dict:
    if isinstance(mu, Atomic):
        return {
            "type": "atomic",
            "points": [list(p) for p in mu.points],
            "weights": list(mu.weights),
            "dimension": mu.dimension,
        }
    if isinstance(mu, LebesgueScaled):
        return {"type": "lebesgue_scaled", "c": mu.c, "dimension": mu.dim}
    if isinstance(mu, ProductDensity):
        return {
            "type": "product_density",
            "factors": [density_to_dict(d) for d in mu.factors],
        }
    if isinstance(mu, CurvePushforward):
        return {
            "type": "curve_pushforward",
            "curve": {"alpha": list(mu.alpha), "beta": list(mu.beta)},
            "weight": density_to_dict(mu.weight),
            "scale": mu.scale,
        }
    if isinstance(mu, MeasureSum):
        return {"type": "sum", "terms": [measure_to_dict(t) for t in mu.terms]}
    raise InvalidArgumentError(f"unknown measure variant {type(mu).__name__}")


def measure_from_json(text: str) -> Measure:
    return measure_from_dict(json.loads(text))


def measure_to_json(mu: Measure) -> str:
    return json.dumps(measure_to_dict(mu), sort_keys=True)


# The diagonal measure on R^2: mu2(U) = pi * integral chi_U(t, t) dt.
MU2 = CurvePushforward(
    alpha=(1.0, 1.0), beta=(0.0, 0.0), weight=constant_density(1.0), scale=math.pi
)
