"""Evaluable functions on the poly cut-plane.

Three families share one calling convention (``f(point) -> complex`` with
``f.dimension``, and ``f.evaluate(point) -> (value, error estimate)``):
Cauchy-type functions defined by a measure, Herglotz functions given by a
representing triple (a, b, mu) and extended symmetrically to the whole
cut-plane, and the closed-form two-variable example catalogue f0..f7,
whose branches are keyed by the sign pattern of the imaginary parts.
`restrict_to_upper` views any of them on C+^n only, and
`function_from_dict` builds one from its JSON descriptor.

The public calls validate their point (a `CutPlanePoint`, or coordinates
that become one) and its dimension once.  Each family also has one
private evaluation on a coordinate tuple, ``f._at(coords) -> complex``,
which checks nothing and gives the public value to the bit; `analysis`
evaluates the reflections, ray points and ladder points derived from a
validated point through it (`core._on_coords`), so it builds no point.

A Cauchy-type function integrates K_n = i(2 prod A(z_l, t_l) - prod A(i, t_l))
against its measure.  A(z, .) is the pole pair (z, -i), so both products
are `measures.pair_integral`s; the second does not depend on z and is
computed once, at construction.  Product measures are thereby exact,
atomic measures are summed, and curve measures take one line quadrature
per evaluation, at the `quadrature` module's default tolerances: no
function takes a quadrature setting.

Every function object exposes `measure`: the defining measure of a
Cauchy-type function or a catalogue entry that has one, the representing
measure of a Herglotz function, the inner function's for a restriction,
and None otherwise.  Stieltjes inversion reads its quadrature hints from
it (`measures.boundary_hints`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .core import CutPlanePoint, _on_coords
from .errors import InvalidArgumentError, UnknownCatalogueIdError
from .measures import (
    MU2,
    DensityDescriptor,
    LebesgueScaled,
    Measure,
    MeasureSum,
    ProductDensity,
    constant_density,
    measure_from_dict,
    pair_integral,
)


class CauchyTypeFunction:
    """g(z) = (1/pi^n) integral K_n(z, t) dmu(t) on the whole cut-plane."""

    def __init__(self, measure: Measure):
        self.measure = measure
        self.dimension = measure.dimension
        self._prefactor = 1.0 / math.pi**self.dimension
        # integral of prod A(i, t_l) dmu, the growth integral
        self._growth, self._growth_err = pair_integral(measure, [(1j, -1j)] * self.dimension)

    def evaluate(self, z) -> tuple:
        zs = z.coords if isinstance(z, CutPlanePoint) else CutPlanePoint(tuple(z)).coords
        if len(zs) != self.dimension:
            raise InvalidArgumentError("point dimension does not match measure")
        val, err = pair_integral(self.measure, [(c, -1j) for c in zs])
        return (
            self._prefactor * (1j * (2.0 * val - self._growth)),
            self._prefactor * (2.0 * err + self._growth_err),
        )

    def __call__(self, z) -> complex:
        return self.evaluate(z)[0]

    def _at(self, zs: tuple) -> complex:
        val, _ = pair_integral(self.measure, [(c, -1j) for c in zs])
        return self._prefactor * (1j * (2.0 * val - self._growth))


def evaluate_cauchy(mu: Measure, z) -> complex:
    return CauchyTypeFunction(mu)(z)


@dataclass(frozen=True)
class HerglotzTriple:
    """Representing data (a, b, mu); b_j >= 0, mu satisfies the growth bound."""

    a: float
    b: tuple
    mu: Measure

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        if any(x < 0 for x in self.b):
            raise InvalidArgumentError("b components must be >= 0")
        if len(self.b) != self.mu.dimension:
            raise InvalidArgumentError("b and measure dimensions differ")
        if not all(math.isfinite(x) for x in (self.a, *self.b)):
            raise InvalidArgumentError("a and the b components must be finite")


class HerglotzFunction:
    """h_sym(z) = a + sum b_j z_j + (1/pi^n) integral K_n dmu.

    On C+^n this is the represented Herglotz function; on the remaining
    components it is the symmetric extension (not the analytic one).
    """

    def __init__(self, triple: HerglotzTriple):
        self.triple = triple
        self.measure = triple.mu
        self.dimension = triple.mu.dimension
        self._cauchy = CauchyTypeFunction(triple.mu)

    def evaluate(self, z) -> tuple:
        p = z if isinstance(z, CutPlanePoint) else CutPlanePoint(tuple(z))
        val, err = self._cauchy.evaluate(p)
        lin = self.triple.a + sum(b * c for b, c in zip(self.triple.b, p.coords))
        return lin + val, err

    def __call__(self, z) -> complex:
        return self.evaluate(z)[0]

    def _at(self, zs: tuple) -> complex:
        lin = self.triple.a + sum(b * c for b, c in zip(self.triple.b, zs))
        return lin + self._cauchy._at(zs)


class ClosedFormFunction:
    """Per-component closed forms, keyed by the sign pattern of Im z.

    Evaluation refuses points whose component has no branch; the catalogue
    entries define all four components of the two-variable cut-plane.
    A branch takes the n coordinates and returns a complex value.
    """

    def __init__(self, name, dimension, branches, measure=None):
        self.name = name
        self.dimension = dimension
        self.branches = branches
        self.measure = measure  # defining measure, when the function is Cauchy-type

    def evaluate(self, z) -> tuple:
        return self(z), 0.0

    def __call__(self, z) -> complex:
        zs = z.coords if isinstance(z, CutPlanePoint) else CutPlanePoint(tuple(z)).coords
        if len(zs) != self.dimension:
            raise InvalidArgumentError(
                f"{self.name} is defined in dimension {self.dimension}"
            )
        return self._at(zs)

    def _at(self, zs: tuple) -> complex:
        signs = tuple([1 if c.imag > 0 else -1 for c in zs])
        branch = self.branches.get(signs)
        if branch is None:
            raise InvalidArgumentError(
                f"{self.name} has no branch for component {signs}"
            )
        return branch(*zs)


class UpperRestriction:
    """View of a function restricted to C+^n (raises elsewhere)."""

    def __init__(self, f):
        self.inner = f
        self.measure = getattr(f, "measure", None)
        self.dimension = f.dimension
        self.name = getattr(f, "name", "function") + "|upper"
        self._inner_at = _on_coords(f, f.dimension)

    def evaluate(self, z):
        p = z if isinstance(z, CutPlanePoint) else CutPlanePoint(tuple(z))
        if not p.is_upper():
            raise InvalidArgumentError(f"{self.name} is only defined on C+^n")
        if hasattr(self.inner, "evaluate"):
            return self.inner.evaluate(p)
        return self.inner(p), 0.0

    def __call__(self, z) -> complex:
        return self.evaluate(z)[0]

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
    if fid not in _CATALOGUE_SPECS:
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
        allowed = {"type", "id"}
        if set(obj) - allowed:
            raise InvalidArgumentError(f"unknown fields in catalogue descriptor")
        fid = obj["id"]
        if fid.endswith("-upper"):
            return restrict_to_upper(catalogue(fid[: -len("-upper")]))
        return catalogue(fid)
    if kind == "cauchy":
        if set(obj) - {"type", "measure"}:
            raise InvalidArgumentError("unknown fields in cauchy descriptor")
        return CauchyTypeFunction(measure_from_dict(obj["measure"]))
    if kind == "herglotz":
        if set(obj) - {"type", "a", "b", "measure"}:
            raise InvalidArgumentError("unknown fields in herglotz descriptor")
        triple = HerglotzTriple(
            obj["a"], tuple(obj["b"]), measure_from_dict(obj["measure"])
        )
        return HerglotzFunction(triple)
    raise InvalidArgumentError(f"unknown function type {kind!r}")


def function_from_json(text: str):
    return function_from_dict(json.loads(text))
