"""A closed family of positive Borel measures on R^n and their integrals.

Variants: finite atomic combinations, scaled Lebesgue measure, products of
one-dimensional densities, pushforwards of a weighted line measure along an
affine curve, and finite sums of these.  Every measure appearing in the
examples (lambda, 5*lambda, the diagonal measure, the product-density
alternative) is expressible; the family is deliberately closed so the
Nevanlinna checker's error analysis stays tractable.  Every entry that
takes a measure checks it with `_measure`.

Each variant is a subclass of `_Measure` and owns its operations: its
pole-pair integral (`_pair_integral`), its exact residual (`_residual`),
its boundary hints, its share of `integrate`'s density quadrature
(`_density`) or its own exact or line integral (`_integral`), and its JSON
form.  The public functions check their arguments and call the method.
A new variant is one class and one line of the JSON tag table.

The kernel integral, the Nevanlinna residual and the growth integral are
all integrals of products of pole pairs (see `kernels`), which
`pair_integral` computes; `integrate` is adaptive quadrature for arbitrary
integrands.  `integrate` has one path for absolutely continuous terms: a
measure counts as the sum of its terms, and all its scaled Lebesgue and
product-density terms take one iterated quadrature.

Against a curve, a product of pole pairs is the weight over a polynomial
in the curve parameter, and `_curve_pair_integral` integrates it exactly
as a divided difference over the poles (`DensityDescriptor._line_integral`);
both curve engines read one substitution (`_curve_substitution`).
The Nevanlinna residual and the growth integral take every curve term
that way and every other term by its exact `_pair_integral` (`_residual`),
so neither runs a quadrature for any measure of the family.
A curve's `_pair_integral` is still one line quadrature, the oracle of
the exact one; in the library only a Cauchy-type function's evaluation
against a curve runs it (`functions`).  scipy's Faddeeva function is imported by the first Gaussian density that
needs it, not by this module.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    MAX_DIMENSION,
    CutPlanePoint,
    _dimension,
    _pole_pairs,
    _real,
    _reals,
    _sequence,
    _upper,
)
from .errors import DivergenceError, InvalidArgumentError, InvalidMeasureError
from .kernels import _n_pairs, _pair
from .quadrature import DEFAULT_CONFIG, _line, integrate_line, integrate_rn

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
        if not isinstance(self.form, str) or self.form not in _FORMS:
            raise InvalidMeasureError(f"unknown density form {self.form!r}")
        arity = len(_FORMS[self.form][0])
        object.__setattr__(self, "params", _sequence(self.params, "params", InvalidMeasureError))
        if len(self.params) != arity:
            raise InvalidMeasureError(f"a {self.form} density has {arity} parameter(s)")
        rational = None  # (c, poles a in C+) of w = c / prod (t - a)(t - conj a)
        if self.form == "constant":
            _real(self.params[0], "constant density c", 0, error=InvalidMeasureError)
            fn = lambda t, c=self.params[0]: c
            rational = (self.params[0], ())
        elif self.form == "cauchy_weight":
            fn = lambda t: 1.0 / (1.0 + t * t)
            rational = (1.0, (1j,))
        elif self.form == "gaussian":
            m, s = self.params
            _real(m, "gaussian mean", error=InvalidMeasureError)
            _real(s, "gaussian sigma", 0, error=InvalidMeasureError, open_lo=True)
            fn = lambda t: math.exp(-0.5 * ((t - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        else:  # rational_table
            if not isinstance(self.params[0], str) or self.params[0] not in _RATIONAL_TABLE:
                raise InvalidMeasureError(f"unknown rational_table entry {self.params!r}")
            fn = _RATIONAL_TABLE[self.params[0]][0]
            rational = (1.0, _RATIONAL_TABLE[self.params[0]][2])
        # the formula and the line-integral data (c, poles, their conjugates;
        # None for the Gaussian, which is entire), resolved once for every caller
        object.__setattr__(self, "_fn", fn)
        if rational is not None:
            c, poles = rational
            rational = (c, poles, tuple(a.conjugate() for a in poles))
        object.__setattr__(self, "_rational", rational)

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
        """C(z) = integral of w(t)/(t-z) dt, by `_faddeeva` for the Gaussian;
        otherwise C(z) = conj C(conj z) for Im z < 0."""
        if self.form == "gaussian":
            m, s = self.params
            peak = 1.0 / (s * math.sqrt(2.0 * math.pi))  # the density at its mean
            return 1j * math.pi * _faddeeva((z - m) / (s * math.sqrt(2.0))) * peak
        if z.imag < 0:
            return self._cauchy_transform(z.conjugate()).conjugate()
        if self.form == "cauchy_weight":
            return -math.pi / (z + 1j)
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
        if self._rational is None:
            m, s = self.params
            dd = _faddeeva_divided_difference(nodes, m, s * math.sqrt(2.0))
            return 1j * math.pi * dd / (s * math.sqrt(2.0 * math.pi))
        c, poles, conj_poles = self._rational
        upper, lower = [], []
        for r in nodes:
            if r.imag > 0:
                upper.append(r)
            elif r.imag < 0:
                lower.append(r)
        upper += poles
        if not upper:
            return 0j
        # nodes near the real axis come last in C+ and first in C-: a pair
        # of them across the axis then makes one large entry, which later
        # substitutions only add to
        upper.sort(key=_IMAG, reverse=True)
        lower += conj_poles
        lower.sort(key=_IMAG, reverse=True)
        v = [1.0] + [0.0] * (len(upper) - 1)
        return 2j * math.pi * c * _solve(upper, lower, v)[-1]


# Sorting by this key in reverse is stable, as sorting by -Im r is.
_IMAG = operator.attrgetter("imag")


def _solve(nodes: list, poles, v: list) -> list:
    """prod over `poles` of (J - pole)^-1 v, in place: one forward
    substitution per pole, J lower bidiagonal with `nodes` on its diagonal
    and ones below it.  From v = e_0 it gives the divided differences of
    1 / prod (r - pole) over the leading nodes."""
    for pole in poles:
        prev = 0j
        for k, x in enumerate(nodes):
            prev = (v[k] - prev) / (x - pole)
            v[k] = prev
    return v


def _wofz(z):
    """The Faddeeva function w(z), scipy's `wofz`.  The first call imports
    it and rebinds this name to it, so later calls go straight to scipy."""
    global _wofz
    from scipy.special import wofz as _wofz

    return _wofz(z)


def _faddeeva(zeta: complex) -> complex:
    """Omega(zeta): w(zeta) on C+ and -w(-zeta) = w(zeta) - 2 exp(-zeta^2)
    on C-, with w = `_wofz`.  A Gaussian density of mean m and width s has
    C(t) = i*pi*Omega((t - m)/(s*sqrt(2)))/(s*sqrt(2*pi))."""
    if zeta.imag > 0:
        return complex(_wofz(zeta))
    return -complex(_wofz(-zeta))


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
    w_series = (np.fft.fft(_wofz(u)) / _TAYLOR_SAMPLES).tolist()
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
    v = _solve(lower, [u for u in run if u.imag > 0], [1.0] + [0.0] * (len(lower) - 1))
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


def _as_floats(d: DensityDescriptor) -> DensityDescriptor:
    """d, checked as given, with its parameters converted to floats."""
    return DensityDescriptor(d.form, tuple(map(float, d.params)))


def constant_density(c: float) -> DensityDescriptor:
    return _as_floats(DensityDescriptor("constant", (c,)))


def cauchy_weight() -> DensityDescriptor:
    return DensityDescriptor("cauchy_weight")


def gaussian_density(mean: float, sigma: float) -> DensityDescriptor:
    return _as_floats(DensityDescriptor("gaussian", (mean, sigma)))


def rational_density(name: str) -> DensityDescriptor:
    return DensityDescriptor("rational_table", (name,))


#: form -> (the JSON names of its parameters, in `params` order; its constructor)
_FORMS = {
    "constant": (("c",), constant_density),
    "cauchy_weight": ((), cauchy_weight),
    "gaussian": (("mean", "sigma"), gaussian_density),
    "rational_table": (("name",), rational_density),
}


class _Measure:
    """A variant of the family.  Each owns `_pair_integral(pairs)`, the
    integral of prod_l pair(p_l, q_l)(t_l) dmu for checked pairs as (value,
    error), and its JSON form, `_to_dict()` and the classmethod
    `_from_dict(obj)`; below are the defaults of the other operations."""

    def _terms(self) -> tuple:
        """The terms `integrate` sums, nested sums flattened."""
        return (self,)

    def _residual(self, products: list) -> complex:
        """sum over `products` of the integral of each pole-pair product dmu, exactly."""
        return sum((self._pair_integral(pairs)[0] for pairs in products), 0j)

    def _boundary_hints(self, prefix: tuple, y: float) -> list:
        return []  # a density is smooth

    def _density(self):
        """Its share of the weight of `integrate`'s density quadrature: a
        scale c or a product of (axis, w) factors; None for none."""
        return None

    def _integral(self, f):
        """(value, error) of f dmu for a term that `integrate` takes alone; None for none."""
        return None


@dataclass(frozen=True)
class Atomic(_Measure):
    points: tuple  # tuple of real n-vectors
    weights: tuple
    dim: int | None = None

    def __post_init__(self):
        weights = _reals(self.weights, "atom weights", "an atom weight", 0, InvalidMeasureError)
        points = [_reals(p, "an atom", "an atom coordinate", error=InvalidMeasureError)
                  for p in _sequence(self.points, "atoms", InvalidMeasureError)]
        points = tuple(tuple(map(float, p)) for p in points)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", tuple(map(float, weights)))
        if len(points) != len(weights):
            raise InvalidMeasureError("points and weights lengths differ")
        if self.dim is not None:
            _dimension(self.dim, "atomic dim", InvalidMeasureError)
        if points:
            n = len(points[0])
            if any(len(p) != n for p in points):
                raise InvalidMeasureError("atoms have inconsistent dimensions")
            _dimension(n, "atom dimension", InvalidMeasureError)
            if self.dim is not None and self.dim != n:
                raise InvalidMeasureError("dim does not match atom dimension")
            object.__setattr__(self, "dim", n)
        elif self.dim is None:
            raise InvalidMeasureError("empty atomic measure needs an explicit dim")

    @property
    def dimension(self) -> int:
        return self.dim

    def _pair_integral(self, pairs):
        return self._integral(lambda t: math.prod(_pair(p, q, x) for (p, q), x in zip(pairs, t)))

    def _integral(self, f):
        return sum((w * f(p) for p, w in zip(self.points, self.weights)), 0j), 0.0

    def _boundary_hints(self, prefix, y):
        return [(p[len(prefix)], y) for p in self.points]

    def _to_dict(self) -> dict:
        return {
            "type": "atomic",
            "points": [list(p) for p in self.points],
            "weights": list(self.weights),
            "dimension": self.dimension,
        }

    @classmethod
    def _from_dict(cls, obj: dict):
        _require_fields(obj, {"type", "points", "weights", "dimension"}, "atomic")
        return cls(obj["points"], obj["weights"], obj.get("dimension"))


@dataclass(frozen=True)
class LebesgueScaled(_Measure):
    c: float
    dim: int = 1

    def __post_init__(self):
        _real(self.c, "Lebesgue scale c", 0, error=InvalidMeasureError)
        _dimension(self.dim, "Lebesgue dimension", InvalidMeasureError)

    @property
    def dimension(self) -> int:
        return self.dim

    def _pair_integral(self, pairs):
        # every axis is the constant density, c on the first and 1 on the rest
        val = self.c
        for p, q in pairs:
            val *= math.pi * ((p.imag > 0) - (q.imag > 0))
        return val, 0.0

    def _density(self):
        # c = 0 integrates to 0 without a decay check
        return self.c if self.c != 0.0 else None

    def _to_dict(self) -> dict:
        return {"type": "lebesgue_scaled", "c": self.c, "dimension": self.dim}

    @classmethod
    def _from_dict(cls, obj: dict):
        _require_fields(obj, {"type", "c", "dimension"}, "lebesgue_scaled")
        return cls(obj["c"], obj["dimension"])


@dataclass(frozen=True)
class ProductDensity(_Measure):
    factors: tuple  # of DensityDescriptor

    def __post_init__(self):
        factors = _sequence(self.factors, "product density factors", InvalidMeasureError)
        object.__setattr__(self, "factors", factors)
        _dimension(len(factors), "product density dimension", InvalidMeasureError)
        if not all(isinstance(w, DensityDescriptor) for w in factors):
            raise InvalidMeasureError("product density factors must be DensityDescriptors")

    @property
    def dimension(self) -> int:
        return len(self.factors)

    def _pair_integral(self, pairs):
        return math.prod(w.pair_integral(p, q) for w, (p, q) in zip(self.factors, pairs)), 0.0

    def _density(self):
        # a unit constant factor adds nothing to the product
        unit = constant_density(1.0)
        return tuple((l, w._fn) for l, w in enumerate(self.factors) if w != unit)

    def _to_dict(self) -> dict:
        return {
            "type": "product_density",
            "factors": [density_to_dict(d) for d in self.factors],
        }

    @classmethod
    def _from_dict(cls, obj: dict):
        _require_fields(obj, {"type", "factors"}, "product_density")
        return cls(tuple(density_from_dict(d) for d in obj["factors"]))


@dataclass(frozen=True)
class CurvePushforward(_Measure):
    """Pushforward of weight(s) ds along s -> alpha * s + beta in R^n."""

    alpha: tuple
    beta: tuple
    weight: DensityDescriptor
    scale: float = 1.0

    def __post_init__(self):
        entry = "a curve alpha or beta component"
        alpha = tuple(map(float, _reals(self.alpha, "alpha", entry, error=InvalidMeasureError)))
        beta = tuple(map(float, _reals(self.beta, "beta", entry, error=InvalidMeasureError)))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if len(alpha) != len(beta):
            raise InvalidMeasureError("alpha and beta lengths differ")
        _dimension(len(alpha), "curve dimension", InvalidMeasureError)
        if not isinstance(self.weight, DensityDescriptor):
            raise InvalidMeasureError("curve weight must be a DensityDescriptor")
        if all(a == 0 for a in alpha):
            raise InvalidMeasureError("curve must have a nonzero direction")
        _real(self.scale, "curve scale", 0, error=InvalidMeasureError)

    @property
    def dimension(self) -> int:
        return len(self.alpha)

    def at(self, s: float) -> tuple:
        return tuple(a * s + b for a, b in zip(self.alpha, self.beta))

    def _pair_integral(self, pairs):
        const, nodes = _curve_substitution(self, pairs)
        if not all(map(cmath.isfinite, [const, *nodes])):
            return _slope_out_of_range(self, pairs), 0.0
        poles = list(zip(nodes[::2], nodes[1::2]))
        w = self.weight._fn
        # the imaginary pass revisits most of the real pass's nodes: each
        # node's complex integrand is computed once per call, keyed by theta
        values = {}

        def real(theta):
            t = math.tan(theta)
            v = w(t)
            for p, q in poles:
                v *= 1.0 / (t - p) - 1.0 / (t - q)
            values[theta] = v = v * (1.0 + t * t)
            return v.real

        def imag(theta):
            if theta not in values:
                real(theta)
            return values[theta].imag

        hints = _near_axis(poles)
        re, re_err = _line(real, DEFAULT_CONFIG, hints, False)
        im, im_err = _line(imag, DEFAULT_CONFIG, hints, False)
        # combined as scipy's `quad` combines the two passes of a complex integrand
        return const * (re + 1j * im), abs(const) * abs(re_err + 1j * im_err)

    def _residual(self, products):
        return sum((_curve_pair_integral(self, pairs) for pairs in products), 0j)

    def _integral(self, f):
        if self.scale == 0.0:
            return None
        g = lambda s, w=self.weight._fn: f(self.at(s)) * w(s)
        _check_decay(g, "curve parameter")
        v, e = integrate_line(g)
        return self.scale * v, self.scale * e

    def _boundary_hints(self, prefix, y):
        axis = len(prefix)
        a = self.alpha[axis]
        if a == 0.0:
            return [(self.beta[axis], y)]
        for i in range(axis):
            if self.alpha[i] != 0.0:
                s = (prefix[i] - self.beta[i]) / self.alpha[i]
                return [(a * s + self.beta[axis], y * (1.0 + abs(a / self.alpha[i])))]
        return []

    def _to_dict(self) -> dict:
        return {
            "type": "curve_pushforward",
            "curve": {"alpha": list(self.alpha), "beta": list(self.beta)},
            "weight": density_to_dict(self.weight),
            "scale": self.scale,
        }

    @classmethod
    def _from_dict(cls, obj: dict):
        _require_fields(obj, {"type", "curve", "weight", "scale"}, "curve_pushforward")
        curve = obj["curve"]
        _require_fields(curve, {"alpha", "beta"}, "curve")
        return cls(curve["alpha"], curve["beta"], density_from_dict(obj["weight"]), obj["scale"])


@dataclass(frozen=True)
class MeasureSum(_Measure):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", _sequence(self.terms, "sum terms", InvalidMeasureError))
        if not self.terms:
            raise InvalidMeasureError("sum needs >= 1 term")
        for term in self.terms:
            _measure(term)
        dims = {m.dimension for m in self.terms}
        if len(dims) != 1:
            raise InvalidMeasureError(f"sum terms have mixed dimensions {dims}")

    @property
    def dimension(self) -> int:
        return self.terms[0].dimension

    def _terms(self):
        return tuple(t for term in self.terms for t in term._terms())

    def _pair_integral(self, pairs):
        val, err = 0j, 0.0
        for term in self.terms:
            v, e = term._pair_integral(pairs)
            val += v
            err += e
        return val, err

    def _residual(self, products):
        return sum((term._residual(products) for term in self.terms), 0j)

    def _boundary_hints(self, prefix, y):
        return [x for t in self.terms for x in t._boundary_hints(prefix, y)]

    def _to_dict(self) -> dict:
        return {"type": "sum", "terms": [t._to_dict() for t in self.terms]}

    @classmethod
    def _from_dict(cls, obj: dict):
        _require_fields(obj, {"type", "terms"}, "sum")
        return cls(tuple(measure_from_dict(t) for t in obj["terms"]))


Measure = _Measure

#: JSON tag -> variant
_MEASURE_TAGS = {
    "atomic": Atomic,
    "lebesgue_scaled": LebesgueScaled,
    "product_density": ProductDensity,
    "curve_pushforward": CurvePushforward,
    "sum": MeasureSum,
}


def _measure(mu) -> None:
    """Raise `InvalidArgumentError` unless mu is one of the five variants."""
    if not isinstance(mu, _Measure):
        raise InvalidArgumentError(f"unknown measure variant {type(mu).__name__}")


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


def _weighted(f, c: float, products: list):
    """t -> f(t) * (c + sum_k prod_l w_kl(t_l)), products of (l, w_kl._fn).

    The weight is resolved here, once per integral.  Exactly two one-factor
    products, as in F4's Nevanlinna measure, are written out as one lambda,
    summed from c in term order: each skips the 1.0 * w(t_l) of the loop,
    which gives the same bits, and a node loops over nothing.
    """
    if len(products) == 2 and all(len(factors) == 1 for factors in products):
        ((l, w),), ((m, v),) = products
        return lambda t: f(t) * (c + w(t[l]) + v(t[m]))

    def fw(t):
        d = c
        for factors in products:
            p = 1.0
            for l, w in factors:
                p *= w(t[l])
            d += p
        return f(t) * d
    return fw


def integrate(mu: Measure, f: Callable[[tuple], complex]):
    """integral of f dmu.  Returns (value, error_estimate).

    A measure is taken as the sum of its flattened terms (one term when it
    is not a sum).  All absolutely continuous terms (scaled Lebesgue with
    c > 0, product densities) are integrated as one adaptive quadrature on
    the tan-compactified axes, of f times the sum of their densities (their
    `_density` shares), a weight built once; with no product density, the
    sum of the scales times the integral of f.  Each term's decay is checked
    alone.  Then atoms are summed exactly and each curve takes one line
    quadrature, in the order of the terms.  Every quadrature runs at the
    `quadrature` module's default tolerances.
    """
    _measure(mu)
    n, terms = mu.dimension, mu._terms()
    c, products, val, err = 0.0, [], 0j, 0.0
    densities = [d for d in (t._density() for t in terms) if d is not None]
    for d in densities:
        if isinstance(d, tuple):
            products.append(d)
            g = _weighted(f, 0.0, [d])
        else:
            c += d
            g = f
        for label, h in _axis_profiles(g, n):
            _check_decay(h, label)
    if products:
        val, err = integrate_rn(_weighted(f, c, products), n)
    elif densities:
        val, err = integrate_rn(f, n)
        val, err = c * val, c * err
    for term in terms:
        part = term._integral(f)
        if part is not None:
            val += part[0]
            err += part[1]
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
    return mu._boundary_hints(prefix, y)


# A curve integrand's pole at s gets quadrature breakpoints only when
# |Im s| is below this: farther poles need none, and hinting them all
# doubles the cost of a curve integral.
_HINT_IM = 1e-2


def pair_integral(mu: Measure, pairs: Sequence[tuple]):
    """integral of prod_l pair(p_l, q_l)(t_l) dmu for nonreal poles.

    `pairs` holds one (p_l, q_l) per axis.  Returns (value, error_estimate);
    every variant but the curve is exact and reports 0.0.  The curve takes
    one line quadrature at the `quadrature` module's default tolerances, in
    two passes, one per part: the imaginary pass reads each node in theta
    that the real pass computed, so a node both visit is computed once.
    The pairs are checked once per call (`core._pole_pairs`): pairs that
    are not two finite nonreal complex numbers, or any other number of
    them than the measure's dimension, raise `InvalidArgumentError`, and so
    does a curve slope too small for double precision (`_slope_out_of_range`).
    """
    _measure(mu)
    pairs = _pole_pairs(pairs)
    if len(pairs) != mu.dimension:
        raise InvalidArgumentError(
            f"pair_integral needs one pole pair per axis: got {len(pairs)} "
            f"for a measure of dimension {mu.dimension}"
        )
    return mu._pair_integral(pairs)


def _curve_substitution(mu: CurvePushforward, pairs: Sequence[tuple]):
    """(const, [p'_0, q'_0, p'_1, ...]) with prod_l pair(p_l, q_l)(t_l) dmu =
    const * prod_k (1/(s-p'_k) - 1/(s-q'_k)) * weight(s) ds, unchecked: with
    t = alpha*s + beta, an axis with alpha = 0 is the constant pair(p, q)(beta)
    and any other (1/(s-p') - 1/(s-q'))/(2i*alpha), p' = (p - beta)/alpha."""
    const, nodes = mu.scale, []
    for (p, q), a, b in zip(pairs, mu.alpha, mu.beta):
        if a == 0.0:
            const *= _pair(p, q, b)
        else:
            const /= 2j * a
            nodes += ((p - b) / a, (q - b) / a)
    return const, nodes


def _slope_out_of_range(mu: CurvePushforward, pairs: Sequence[tuple]) -> complex:
    """Both curve engines' rule for a slope too small for double precision:
    0 when a pair has p = q, a zero factor, else `InvalidArgumentError`."""
    if any(p == q for p, q in pairs):
        return 0j
    raise InvalidArgumentError(
        f"the curve integral with alpha = {mu.alpha} overflows double precision"
    )


def _near_axis(poles) -> list:
    """(location, half_width) of the poles 1/(s - r) within _HINT_IM of the axis."""
    return [(r.real, abs(r.imag)) for pq in poles for r in pq if abs(r.imag) < _HINT_IM]


@dataclass(frozen=True)
class GrowthResult:
    finite: bool
    value: float


def check_growth(mu: Measure) -> GrowthResult:
    """Evaluate the growth integral of prod(1+t_l^2)^-1 against mu.

    1/(1+t^2) is the pole pair (i, -i); one per axis takes the measure's
    exact `_residual`, so no measure runs a quadrature.
    """
    _measure(mu)
    val = mu._residual([[(1j, -1j)] * mu.dimension])
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
    exactly 0.  A curve with a slope too small for double precision raises
    `InvalidArgumentError` (see `_curve_pair_integral`).
    """
    _measure(mu)
    z = _upper(z, "nevanlinna_residual", mu.dimension)
    products = _rho_products(z.coords)
    return mu._residual(products) if products else 0j


def _telescoped(z: complex) -> tuple:
    """The six pole pairs an axis of a rho product takes at z: N_-1, N_0,
    N_1 (`_n_pairs`) and the telescoped sums N_-1 + N_0 = pair(z, -i),
    N_0 + N_1 = pair(i, conj z) and N_-1 + N_0 + N_1 = pair(z, conj z)."""
    minus, zero, plus = _n_pairs(z)
    return minus, zero, plus, (minus[0], zero[1]), (zero[0], plus[1]), (minus[0], plus[1])


def _rho_plan(n: int) -> list:
    """The sum over rho of prod_l N_rho_l as products of pole pairs, one
    pair per axis, each an index tuple into the `_telescoped` pairs of all
    axes in turn (6*l + k for pair k of axis l).

    The axes are taken in turn, keeping the products of each prefix of rho
    by whether it holds -1 and whether it holds 1.  Where a prefix leaves
    several values free on the next axis, the product takes their sum,
    which telescopes to one pair.  That takes 2 products at n = 2 (the
    same two as rho by rho) and 6 instead of 12 at n = 3.  Near the real
    axis the telescoped pair is small where its terms are large, so these
    products cancel far less than the rho terms do.
    """
    neither, minus_only, plus_only, both = [()], [], [], []
    for l in range(n):
        minus, zero, plus, minus_zero, zero_plus, any_ = range(6 * l, 6 * l + 6)
        neither, minus_only, plus_only, both = (
            [p + (zero,) for p in neither],
            [p + (minus_zero,) for p in minus_only] + [p + (minus,) for p in neither],
            [p + (zero_plus,) for p in plus_only] + [p + (plus,) for p in neither],
            [p + (any_,) for p in both]
            + [p + (plus,) for p in minus_only]
            + [p + (minus,) for p in plus_only],
        )
    return both


#: _RHO_PLANS[n] picks the products of `_rho_plan(n)` out of the
#: `_telescoped` pairs of n axes, built once for every n <= MAX_DIMENSION
#: (56 products at n = 8).  At n = 1 there are none.
_RHO_PLANS = tuple(
    tuple(operator.itemgetter(*idx) for idx in _rho_plan(n)) for n in range(MAX_DIMENSION + 1)
)


def _rho_products(coords: tuple) -> list:
    """The products of `_rho_plan` at the point with these coordinates."""
    pairs = [pair for z in coords for pair in _telescoped(z)]
    return [get(pairs) for get in _RHO_PLANS[len(coords)]]


def _curve_pair_integral(mu: CurvePushforward, pairs: Sequence[tuple]) -> complex:
    """integral of prod_l pair(p_l, q_l)(t_l) dmu against a curve, exactly.

    Each factor 1/(s-p') - 1/(s-q') of `_curve_substitution` is
    (p'-q')/((s-p')(s-q')): the constant takes the differences p' - q' in
    turn, times the integral of the weight over the product of (s - r) for
    all the nodes r (`DensityDescriptor._line_integral`).  A slope so small
    that the constant (like alpha^-2 per axis) or the product leaves double
    precision goes to `_slope_out_of_range`.
    """
    try:
        const, nodes = _curve_substitution(mu, pairs)
        for k in range(0, len(nodes), 2):
            const *= nodes[k] - nodes[k + 1]
        if const == 0:
            return 0j
        if cmath.isfinite(const):
            val = const * mu.weight._line_integral(nodes)
            if cmath.isfinite(val):
                return val
    except OverflowError:  # a Faddeeva table of nodes that large
        pass
    return _slope_out_of_range(mu, pairs)


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
    if not isinstance(form, str) or form not in _FORMS:
        raise InvalidArgumentError(f"unknown density form {form!r}")
    names, make = _FORMS[form]
    _require_fields(obj, {"form", *names}, f"{form} density")
    return make(*[obj[name] for name in names])


def density_to_dict(d: DensityDescriptor) -> dict:
    return {"form": d.form, **dict(zip(_FORMS[d.form][0], d.params))}


def measure_from_dict(obj: dict) -> Measure:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidArgumentError("measure descriptor needs a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _MEASURE_TAGS:
        raise InvalidArgumentError(f"unknown measure type {kind!r}")
    try:
        return _MEASURE_TAGS[kind]._from_dict(obj)
    except (KeyError, TypeError) as e:
        raise InvalidArgumentError(
            f"malformed measure descriptor ({type(e).__name__}: {e})"
        ) from e


def measure_to_dict(mu: Measure) -> dict:
    _measure(mu)
    return mu._to_dict()


def _loads(text, what: str):
    """json.loads(text), or `InvalidArgumentError` unless text is JSON text."""
    try:
        return json.loads(text)
    except (TypeError, ValueError) as e:
        raise InvalidArgumentError(f"{what} is not JSON text ({type(e).__name__}: {e})") from None


def measure_from_json(text: str) -> Measure:
    return measure_from_dict(_loads(text, "a measure descriptor"))


def measure_to_json(mu: Measure) -> str:
    return json.dumps(measure_to_dict(mu), sort_keys=True)


# The diagonal measure on R^2: mu2(U) = pi * integral chi_U(t, t) dt.
MU2 = CurvePushforward(
    alpha=(1.0, 1.0), beta=(0.0, 0.0), weight=constant_density(1.0), scale=math.pi
)
