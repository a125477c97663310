"""Value types for the poly cut-plane and the selective-conjugation sums.

A point of the cut-plane is an n-tuple of finite complex coordinates, each
with strictly nonzero imaginary part.  A point is validated once, where it
enters the library: `CutPlanePoint` checks its coordinates on construction
and rejects real, NaN and infinite ones.  Points derived from a validated
one (its reflections, and the Stieltjes ladder and Stoltz ray points whose
parameters `analysis.LimitConfig` checks) are built unchecked through
`CutPlanePoint._unchecked`.

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

    @classmethod
    def _unchecked(cls, coords: tuple) -> CutPlanePoint:
        """A point from complex coordinates derived from a validated point,
        without the check: conjugating a coordinate keeps it off the axis."""
        p = object.__new__(cls)
        object.__setattr__(p, "coords", coords)
        return p

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


def _reflections(pairs: Sequence[tuple]) -> list:
    """The coordinate tuples picking pairs[j][bit j of mask], in bitmask order."""
    refls = [()]
    for pair in pairs:
        refls = [r + (c,) for c in pair for r in refls]
    return refls


def _signs(n: int) -> list:
    """(-1)^|mask| for every mask of n bits, in bitmask order."""
    signs = [1.0]
    for _ in range(n):
        signs = signs + [-s for s in signs]
    return signs


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
    signs = _signs(n)
    total = 0j
    for mask in range(1, 1 << n):
        if not mask & ~within:
            total += -signs[mask] * f(refls[mask]).conjugate()
    return total


def alternating_sum(f, z: Sequence[complex]) -> complex:
    """sum over all B of (-1)^|B| f(Psi_B(z, z)), in bitmask order."""
    refls = _reflections([(c, c.conjugate()) for c in z])
    total = 0j
    for sign, refl in zip(_signs(len(z)), refls):
        total += sign * f(refl)
    return total
