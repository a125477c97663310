"""Value types for the poly cut-plane and the selective-conjugation sums.

A point of the cut-plane is an n-tuple of finite complex coordinates, each
with strictly nonzero imaginary part.  A point is validated once, where it
enters the library: `CutPlanePoint` checks its coordinates on construction
and rejects real, NaN and infinite ones.  Points derived from a validated
one (its reflections, and the Stieltjes ladder and Stoltz ray points whose
parameters `analysis.LimitConfig` checks) are never built: `_on_coords`
hands their coordinate tuples to the function's own `_at`.

The cut-plane splits into 2^n connected components indexed by the sign
pattern of the imaginary parts.  The selective conjugation Psi_B(w, z)
keeps w_j for j outside B and takes conj(z_j) for j in B.  The library never builds
Psi_B on its own: a subset B of {1, ..., n} is a bitmask (bit j for
coordinate j + 1), and the two reflection sums defined here run over every
B in bitmask order, so their floating-point sums are reproducible bit for
bit.  `symmetry_sum` carries the symmetry formula and its reduced form used
for reconstruction, and `alternating_sum` the alternating sum behind
Stieltjes inversion.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidArgumentError, InvalidPointError

#: Hard ceiling on the dimension; subset sums scale as 2^n.
MAX_DIMENSION = 8

#: Coordinates closer to the real axis than this are rejected as on-the-cut.
MIN_IMAG = 1e-300


@dataclass(frozen=True, slots=True)
class CutPlanePoint:
    """A point of (C \\ R)^n with finite coordinates."""

    coords: tuple

    def __post_init__(self):
        coords = tuple([complex(c) for c in self.coords])
        object.__setattr__(self, "coords", coords)
        n = len(coords)
        if n < 1:
            raise InvalidPointError("point must have dimension >= 1")
        if n > MAX_DIMENSION:
            raise InvalidArgumentError(
                f"dimension {n} exceeds the maximum {MAX_DIMENSION}"
            )
        for j, c in enumerate(coords):
            if not cmath.isfinite(c):
                raise InvalidPointError(f"coordinate {j + 1} = {c} is not finite")
            if abs(c.imag) < MIN_IMAG:
                raise InvalidPointError(
                    f"coordinate {j + 1} = {c} lies on the real axis"
                )

    @property
    def n(self) -> int:
        return len(self.coords)

    def is_upper(self) -> bool:
        return all(c.imag > 0 for c in self.coords)


def point(*coords) -> CutPlanePoint:
    """Convenience constructor: point(1j, 2+3j)."""
    return CutPlanePoint(tuple(coords))


def _on_coords(f, n: int):
    """f on coordinate tuples of length n derived from a validated point.

    That is `f._at`, which builds no point, when f has one and has
    dimension n.  Otherwise each tuple goes through f's validating public
    call: a dimension mismatch raises f's own error, and a function from
    outside the library only ever sees validated points.
    """
    if getattr(f, "dimension", None) == n and hasattr(f, "_at"):
        return f._at
    return lambda w: complex(f(CutPlanePoint(w)))


def _reflections(pairs: Sequence[tuple]) -> list:
    """The coordinate tuples picking pairs[j][bit j of mask], in bitmask order."""
    refls = [()]
    for pair in pairs:
        refls = [r + (c,) for c in pair for r in refls]
    return refls


#: _SIGNS[n] is (-1)^|mask| for every mask of n bits, in bitmask order,
#: built once for every n <= MAX_DIMENSION.
_SIGNS = [[1.0]]
for _ in range(MAX_DIMENSION):
    _SIGNS.append(_SIGNS[-1] + [-s for s in _SIGNS[-1]])


def symmetry_sum(f, z: Sequence[complex], within: int | None = None) -> complex:
    """sum over nonempty B within `within` of (-1)^(|B|+1) conj f(Psi_B(i*1, z)).

    `f` takes a coordinate tuple.  `within` is a bitmask of axes (bit j for
    coordinate j + 1) and defaults to all of them.  Subsets run in bitmask
    order, so the floating-point sum is reproducible bit for bit.
    """
    n = len(z)
    if within is None:
        within = (1 << n) - 1
    refls = _reflections([(1j, c.conjugate()) for c in z])
    signs = _SIGNS[n]
    total = 0j
    for mask in range(1, 1 << n):
        if not mask & ~within:
            total += -signs[mask] * f(refls[mask]).conjugate()
    return total


def alternating_sum(f, z: Sequence[complex]) -> complex:
    """sum over all B of (-1)^|B| f(Psi_B(z, z)), in bitmask order."""
    refls = _reflections([(c, c.conjugate()) for c in z])
    total = 0j
    for sign, refl in zip(_SIGNS[len(z)], refls):
        total += sign * f(refl)
    return total
