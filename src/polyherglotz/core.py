"""Value types for the poly cut-plane and the selective-conjugation map.

A point of the cut-plane is an n-tuple of finite complex coordinates, each
with strictly nonzero imaginary part.  A point is validated once, where it
enters the library: `CutPlanePoint` checks its coordinates on construction
and rejects real, NaN and infinite ones.  Points derived from a validated
one (its reflections, and the Stieltjes ladder and Stoltz ray points whose
parameters `analysis.LimitConfig` checks) are built unchecked through
`CutPlanePoint._unchecked`.  The cut-plane splits into 2^n connected
components indexed by the sign pattern of the imaginary parts; most of the
combinatorics downstream runs over subsets of {1, ..., n} in bitmask order,
through the two reflection sums defined here: `symmetry_sum` (the symmetry
formula and its reduced form used for reconstruction) and `alternating_sum`
(the alternating sum behind Stieltjes inversion).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvalidArgumentError, InvalidPointError

#: Hard ceiling on the dimension; subset sums scale as 2^n.
MAX_DIMENSION = 8

#: Coordinates closer to the real axis than this are rejected as on-the-cut.
MIN_IMAG = 1e-300


def validate_index_set(members: frozenset, n: int) -> frozenset:
    members = frozenset(members)
    for j in members:
        if not isinstance(j, int) or j < 1 or j > n:
            raise InvalidArgumentError(
                f"index set {sorted(members)} not contained in {{1..{n}}}"
            )
    return members


@dataclass(frozen=True)
class ComponentSignature:
    """Sign pattern of imaginary parts, identifying a connected component."""

    signs: tuple

    def __post_init__(self):
        if not self.signs or any(s not in (-1, 1) for s in self.signs):
            raise InvalidArgumentError("signature entries must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.signs)

    def lower_index_set(self) -> frozenset:
        """B' = indices whose coordinate lies in the lower half-plane."""
        return frozenset(j + 1 for j, s in enumerate(self.signs) if s == -1)

    def is_upper(self) -> bool:
        return all(s == 1 for s in self.signs)


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

    def signature(self) -> ComponentSignature:
        return ComponentSignature(tuple(1 if c.imag > 0 else -1 for c in self.coords))

    def is_upper(self) -> bool:
        return all(c.imag > 0 for c in self.coords)


def point(*coords) -> CutPlanePoint:
    """Convenience constructor: point(1j, 2+3j)."""
    return CutPlanePoint(tuple(coords))


def signature_of(p: CutPlanePoint) -> ComponentSignature:
    if not isinstance(p, CutPlanePoint):
        p = CutPlanePoint(tuple(p))
    return p.signature()


def psi_map(B: frozenset, z: Sequence[complex], w: Sequence[complex]) -> tuple:
    """Selective conjugation: keep z_j for j not in B, take conj(w_j) for j in B."""
    z = tuple(complex(c) for c in z)
    w = tuple(complex(c) for c in w)
    if len(z) != len(w):
        raise InvalidArgumentError(
            f"vector lengths differ: {len(z)} vs {len(w)}"
        )
    B = validate_index_set(B, len(z))
    return tuple(
        w[j].conjugate() if (j + 1) in B else z[j] for j in range(len(z))
    )


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


def psi_point(B: frozenset, z: CutPlanePoint, w: CutPlanePoint) -> CutPlanePoint:
    return CutPlanePoint(psi_map(B, z.coords, w.coords))


def _mask_to_set(mask: int, n: int) -> frozenset:
    return frozenset(j + 1 for j in range(n) if mask >> j & 1)


def enumerate_subsets(
    n: int, filter: str = "all", bprime: frozenset | None = None
) -> Iterator[frozenset]:
    """Enumerate subsets of {1..n} in bitmask-lexicographic order.

    Filters: "all", "nonempty", "subsets_of" (of bprime), "not_subsets_of".
    The fixed order keeps floating-point subset sums bit-for-bit reproducible.
    """
    if n < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    if filter in ("subsets_of", "not_subsets_of"):
        if bprime is None:
            raise InvalidArgumentError(f"filter {filter!r} requires bprime")
        bprime = validate_index_set(bprime, n)
    elif filter not in ("all", "nonempty"):
        raise InvalidArgumentError(f"unknown subset filter {filter!r}")

    for mask in range(1 << n):
        s = _mask_to_set(mask, n)
        if filter == "nonempty" and not s:
            continue
        if filter == "subsets_of" and not s <= bprime:
            continue
        if filter == "not_subsets_of" and s <= bprime:
            continue
        yield s
