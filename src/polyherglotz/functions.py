"""Evaluable functions on the poly cut-plane.

Three families share one calling convention, `core._Function` (``f(point)
-> complex`` with ``f.dimension``, and ``f.evaluate(point) -> (value,
error estimate)``): Cauchy-type functions defined by a measure, Herglotz
functions a + sum b_j z_j + g given by a triple (a, b, mu), the wrapper
`_Affine` around the Cauchy-type g of mu, and the closed-form example
catalogue f0..f7, whose branches are keyed by the sign pattern of the
imaginary parts.  `restrict_to_upper` views any of them on C+^n only, and
`function_from_dict` builds one from its JSON descriptor.

Each family has one private evaluation on a coordinate tuple,
``f._at(coords) -> complex``, which checks nothing.  The public call is
`_at` of its point (a `CutPlanePoint`, or coordinates that become one),
which `core._point` validates with its dimension once; `analysis`
evaluates the points it makes itself (reflections, ray, ladder and sample
points) through `_at` as well (`core._on_coords`), so it builds none.
`ClosedFormFunction` checks its declared dimension with `core._dimension`.

A Cauchy-type function integrates K_n = i(2 prod A(z_l, t_l) - prod A(i, t_l))
against its measure.  A(z, .) is the pole pair (z, -i), so the first
product is a `measures.pair_integral`; the second is the growth integral,
exact for every measure, which construction reads once from
`measures.check_growth`.  An evaluation has checked its point's dimension,
the measure's, so it skips `pair_integral`'s check of the pair count.
Product measures are thereby exact, atomic measures are summed, and
curve measures take one line quadrature per evaluation, at the
`quadrature` module's default tolerances, whose two passes (the real part,
then the imaginary part) share the nodes in theta: no function takes a
quadrature setting.
Building a function runs no quadrature.

A measure whose pair integrals read only which half-plane each pole lies
in (`_half_planes_only`: scaled Lebesgue measure, a product of constant
densities, a sum of such terms) has a Cauchy-type function that is
constant on each of the 2^n components.  Construction tabulates it: the
formula runs once at the point of +-i coordinates of each component, and
`_at` and `evaluate` return the stored value (with the error estimate
0.0) for the bitmask of the point's lower axes, as `ClosedFormFunction`
reads its branches.  Every other measure evaluates its pair integral at
every point.

Every function object exposes `measure`: the defining measure of a
Cauchy-type function or a catalogue entry that has one, the representing
measure of a Herglotz function, the inner function's for a restriction or
an affine wrapper, and None otherwise.  Stieltjes inversion reads its
quadrature hints from it (`measures.boundary_hints`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import _config, _dimension, _Function, _on_coords, _point, _real, _reals, _upper
from .errors import InvalidArgumentError, InvalidMeasureError, UnknownCatalogueIdError
from .measures import (
    MU2,
    DensityDescriptor,
    LebesgueScaled,
    Measure,
    MeasureSum,
    ProductDensity,
    _loads,
    _measure,
    _require_fields,
    check_growth,
    constant_density,
    measure_from_dict,
)


class CauchyTypeFunction(_Function):
    """g(z) = (1/pi^n) integral K_n(z, t) dmu(t) on the whole cut-plane.

    The growth term is exact (`check_growth`), so the error estimate is
    the z-dependent integral's, nonzero only from a curve term."""

    def __init__(self, measure: Measure):
        growth = check_growth(measure)  # which checks the measure's variant first
        if not growth.finite:
            raise InvalidMeasureError("the growth integral of the measure is not finite")
        self.measure = measure
        self.dimension = n = measure.dimension
        self._prefactor = 1.0 / math.pi**n
        self._growth = growth.value
        # g of a measure whose pair integrals read only the half-plane of each
        # pole is constant on each component: its value at the point of +-i
        # coordinates, indexed by the bitmask of the lower axes
        self._table = None
        if measure._half_planes_only():
            self._table = [
                self._formula(tuple([-1j if mask >> j & 1 else 1j for j in range(n)]))[0]
                for mask in range(1 << n)
            ]

    def _formula(self, zs: tuple) -> tuple:
        """(g, error estimate) at the coordinates zs, from the pair integral."""
        val, err = self.measure._pair_integral([(c, -1j) for c in zs])
        return (
            self._prefactor * (1j * (2.0 * val - self._growth)),
            self._prefactor * (2.0 * err),
        )

    def evaluate(self, z) -> tuple:
        zs = _point(z, self.dimension).coords
        if self._table is None:
            return self._formula(zs)
        return self._at(zs), 0.0

    def _at(self, zs: tuple) -> complex:
        table = self._table
        if table is None:
            return self._formula(zs)[0]
        mask = 0
        for c in reversed(zs):
            mask = 2 * mask + (c.imag < 0)
        return table[mask]


def evaluate_cauchy(mu: Measure, z) -> complex:
    return CauchyTypeFunction(mu)(z)


@dataclass(frozen=True)
class HerglotzTriple:
    """Representing data (a, b, mu); b_j >= 0; a `HerglotzFunction` checks mu's growth."""

    a: float
    b: tuple
    mu: Measure

    def __post_init__(self):
        _real(self.a, "a")
        b = _reals(self.b, "b", "a b component", 0)
        _measure(self.mu)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", tuple(map(float, b)))
        if len(self.b) != self.mu.dimension:
            raise InvalidArgumentError("b and measure dimensions differ")


class _Affine(_Function):
    """a + sum b_j z_j + inner(z), summed in that order, with inner's error estimate."""

    def __init__(self, inner, a: float, b: tuple):
        self.inner = inner
        self.a = a
        self.b = b
        self.dimension = inner.dimension
        self.measure = getattr(inner, "measure", None)
        self._inner_at = _on_coords(inner, inner.dimension)

    def evaluate(self, z) -> tuple:
        p = _point(z, self.dimension)
        val, err = self.inner.evaluate(p)
        return self.a + sum(b * c for b, c in zip(self.b, p.coords)) + val, err

    def _at(self, zs: tuple) -> complex:
        return self.a + sum(b * c for b, c in zip(self.b, zs)) + self._inner_at(zs)


class HerglotzFunction(_Affine):
    """h_sym(z) = a + sum b_j z_j + (1/pi^n) integral K_n dmu.

    On C+^n this is the represented Herglotz function; on the remaining
    components it is the symmetric extension (not the analytic one).
    """

    def __init__(self, triple: HerglotzTriple):
        _config(triple, HerglotzTriple)
        super().__init__(CauchyTypeFunction(triple.mu), triple.a, triple.b)
        self.triple = triple


class ClosedFormFunction(_Function):
    """Per-component closed forms, keyed by the sign pattern of Im z.

    Evaluation refuses points whose component has no branch; the catalogue
    entries define all four components of the two-variable cut-plane.
    A branch takes the n coordinates and returns a complex value.
    `branches` is read once, at construction, into a table indexed by the
    bitmask of the lower axes (bit j set when Im z_(j+1) < 0, as in `core`);
    a key that is not a tuple of n signs (ints 1 or -1) or a branch that is
    not callable raises `InvalidArgumentError` there.
    """

    def __init__(self, name, dimension, branches, measure=None):
        _dimension(dimension, "dimension", InvalidArgumentError)
        _config(branches, dict)
        for signs, branch in branches.items():
            if not (
                isinstance(signs, tuple)
                and len(signs) == dimension
                and all(type(s) is int and s in (1, -1) for s in signs)
            ):
                raise InvalidArgumentError(
                    f"a branch key is a tuple of {dimension} signs 1 or -1, not {signs!r}"
                )
            if not callable(branch):
                raise InvalidArgumentError(f"the branch for component {signs} is not callable")
        self.name = name
        self.dimension = dimension
        self.branches = branches
        self.measure = measure  # defining measure, when the function is Cauchy-type
        self._table = [
            branches.get(tuple([-1 if mask >> j & 1 else 1 for j in range(dimension)]))
            for mask in range(1 << dimension)
        ]

    def _at(self, zs: tuple) -> complex:
        mask = 0
        for c in reversed(zs):
            mask = 2 * mask + (c.imag < 0)
        branch = self._table[mask]
        if branch is None:
            signs = tuple([1 if c.imag > 0 else -1 for c in zs])
            raise InvalidArgumentError(
                f"{self.name} has no branch for component {signs}"
            )
        return branch(*zs)


class UpperRestriction(_Function):
    """View of a function restricted to C+^n (raises elsewhere)."""

    def __init__(self, f):
        self.inner = f
        self.measure = getattr(f, "measure", None)
        self.dimension = f.dimension
        self.name = getattr(f, "name", "function") + "|upper"
        self._inner_at = _on_coords(f, f.dimension)

    def evaluate(self, z):
        p = _upper(z, self.name, self.dimension)
        if hasattr(self.inner, "evaluate"):
            return self.inner.evaluate(p)
        return self.inner(p), 0.0

    def _at(self, zs: tuple) -> complex:
        if not all(c.imag > 0 for c in zs):
            raise InvalidArgumentError(f"{self.name} is only defined on C+^n")
        return self._inner_at(zs)


def restrict_to_upper(f) -> UpperRestriction:
    return UpperRestriction(f)


_PP = (1, 1)
_MP = (-1, 1)
_PM = (1, -1)
_MM = (-1, -1)

# Defining measure of f4 as a Cauchy-type function: mu2 + 5*lambda on R^2.
F4_DEFINING_MEASURE = MeasureSum((MU2, LebesgueScaled(5.0, 2)))


def _constant(c):
    return lambda z1, z2: c


_CATALOGUE_SPECS = {
    "f0": {
        _PP: _constant(-1j),
        _MP: lambda z1, z2: 1.0 / z2,
        _PM: _constant(0j),
        _MM: _constant(0j),
    },
    "f1": {
        _PP: _constant(1j),
        _MP: lambda z1, z2: 1.0 / z2,
        _PM: _constant(0j),
        _MM: _constant(0j),
    },
    "f2": {
        _PP: lambda z1, z2: -0.5j - 1 / (1j + z1) - 1 / (1j + z2),
        _MP: lambda z1, z2: -0.5j + 1 / (z2 - z1) - 1 / (1j + z2),
        _PM: lambda z1, z2: -0.5j - 1 / (1j + z1) + 1 / (z1 - z2),
        _MM: _constant(-0.5j),
    },
    "f3": {
        _PP: _constant(-1j),
        _MP: _constant(0j),
        _PM: _constant(0j),
        _MM: _constant(0j),
    },
    "f4": {
        _PP: lambda z1, z2: 4.5j - 1 / (1j + z1) - 1 / (1j + z2),
        _MP: lambda z1, z2: -5.5j + 1 / (z2 - z1) - 1 / (1j + z2),
        _PM: lambda z1, z2: -5.5j - 1 / (1j + z1) + 1 / (z1 - z2),
        _MM: _constant(-5.5j),
    },
    "f5": {
        _PP: _constant(1j),
        _MP: _constant(0j),
        _PM: _constant(0j),
        _MM: _constant(0j),
    },
    "f6": {
        _PP: _constant(-1j),
        _MP: _constant(1j),
        _PM: _constant(1j),
        _MM: _constant(1j),
    },
    "f7": {
        _PP: _constant(1j),
        _MP: _constant(-1j),
        _PM: _constant(-1j),
        _MM: _constant(-1j),
    },
}

_CATALOGUE_MEASURES = {
    "f2": MU2,
    "f4": F4_DEFINING_MEASURE,
}


def catalogue(fid: str) -> ClosedFormFunction:
    """The eight two-variable example functions, as exact closed forms."""
    if not isinstance(fid, str) or fid not in _CATALOGUE_SPECS:
        raise UnknownCatalogueIdError(f"unknown catalogue id {fid!r}")
    return ClosedFormFunction(
        fid, 2, _CATALOGUE_SPECS[fid], measure=_CATALOGUE_MEASURES.get(fid)
    )


# The representing measure of f4|C+^2 in the integral-representation sense
# (distinct from the defining measure mu2 + 5*lambda of f4 as a Cauchy-type
# function; both are needed by the uniqueness experiments).
F4_NEVANLINNA_MEASURE = MeasureSum(
    (
        LebesgueScaled(4.5, 2),
        ProductDensity((DensityDescriptor("cauchy_weight"), constant_density(1.0))),
        ProductDensity((constant_density(1.0), DensityDescriptor("cauchy_weight"))),
    )
)


# ---------------------------------------------------------------------------
# Function descriptor JSON

def function_from_dict(obj: dict):
    try:
        return _function_from_dict(obj)
    except (KeyError, TypeError) as e:
        raise InvalidArgumentError(
            f"malformed function descriptor ({type(e).__name__}: {e})"
        ) from e


def _function_from_dict(obj: dict):
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidArgumentError("function descriptor needs a 'type' field")
    kind = obj["type"]
    if kind == "catalogue":
        _require_fields(obj, {"type", "id"}, "catalogue descriptor")
        fid = obj["id"]
        if isinstance(fid, str) and fid.endswith("-upper"):
            return restrict_to_upper(catalogue(fid[: -len("-upper")]))
        return catalogue(fid)
    if kind == "cauchy":
        _require_fields(obj, {"type", "measure"}, "cauchy descriptor")
        return CauchyTypeFunction(measure_from_dict(obj["measure"]))
    if kind == "herglotz":
        _require_fields(obj, {"type", "a", "b", "measure"}, "herglotz descriptor")
        triple = HerglotzTriple(obj["a"], obj["b"], measure_from_dict(obj["measure"]))
        return HerglotzFunction(triple)
    raise InvalidArgumentError(f"unknown function type {kind!r}")


def function_from_json(text: str):
    return function_from_dict(_loads(text, "a function descriptor"))
