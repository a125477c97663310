"""Value types for the poly cut-plane and the selective-conjugation sums.

A point of the cut-plane is an n-tuple of finite complex coordinates, each
with strictly nonzero imaginary part.  Caller input is validated once, by
rules that live here alone: `CutPlanePoint` rejects real, NaN, infinite and
non-numeric coordinates (`InvalidPointError`); an entry takes its point
through `_point` (which checks a fixed dimension), or `_upper` if defined
on C+^n only; `_real` checks every real parameter (a finite real, not a
bool, in range, or the caller's error class), `_height` the y of a
Stieltjes boundary point, `_sequence` every caller's sequence (any iterable
but a str), `_reals` one of reals, `_real_vector` a kernel's t and a
boundary point's x, `_pole_pairs` the pole pairs of a pair integral,
`_integer` every integer parameter, `_dimension` every declared dimension
and `_config` every config argument.  `_Function`, the
calling convention of every function family, checks a point once and hands
its coordinates to the family's `_at`.  Points the library makes itself are
never built: `_on_coords` hands their tuples to `_at`, and a sampled check
builds a point only for a witness it returns.

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
import math
import numbers
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
        try:
            coords = tuple([complex(c) for c in self.coords])
        except (TypeError, ValueError, OverflowError):
            raise InvalidPointError(f"coordinates {self.coords!r} are not complex") from None
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


def _point(z, n: int | None = None) -> CutPlanePoint:
    """z itself when it is a `CutPlanePoint`, else the point of its
    coordinates; given n, another dimension raises `InvalidArgumentError`."""
    if not isinstance(z, CutPlanePoint):
        z = CutPlanePoint(z)
    if n is not None and len(z.coords) != n:
        raise InvalidArgumentError(f"a point of dimension {len(z.coords)} where {n} is expected")
    return z


def _finite_real(x) -> bool:
    """Whether x is a finite real, not a bool.  A float skips the slow ABC check."""
    return (
        type(x) is float or not isinstance(x, bool) and isinstance(x, numbers.Real)
    ) and -math.inf < x < math.inf


def _sequence(seq, what: str, error: type = InvalidArgumentError) -> tuple:
    """seq as a tuple, or `error` unless it is a sequence (any iterable) and not a str."""
    if isinstance(seq, str) or not hasattr(seq, "__iter__"):
        raise error(f"{what} must be a sequence, got {seq!r}")
    return tuple(seq)


def _reals(seq, what: str, entry: str, lo=-math.inf, error=InvalidArgumentError, open_lo=False):
    """`_sequence(seq, what, error)`, each entry x checked by `_real(x, entry, lo, ...)`."""
    seq = _sequence(seq, what, error)
    for x in seq:
        _real(x, entry, lo, error=error, open_lo=open_lo)
    return seq


def _pole_pairs(pairs) -> list:
    """pairs as a list of (p, q) complex pairs, or `InvalidArgumentError`
    unless it is a sequence of 2-entry sequences of finite complex numbers
    off the real axis (|Im| >= MIN_IMAG, a point coordinate's rule)."""
    out = []
    for pair in _sequence(pairs, "pairs"):
        pair = _sequence(pair, "a pole pair")
        if len(pair) != 2 or not all(map(_pole, pair)):
            raise InvalidArgumentError(
                f"a pole pair must hold two finite nonreal complex numbers, got {pair!r}"
            )
        out.append((complex(pair[0]), complex(pair[1])))
    return out


def _pole(c) -> bool:
    """Whether c is a finite complex number with |Im c| >= MIN_IMAG."""
    return (
        isinstance(c, numbers.Complex) and cmath.isfinite(c) and abs(complex(c).imag) >= MIN_IMAG
    )


def _real_vector(t, n: int) -> tuple:
    """t as a tuple of n floats, or `InvalidArgumentError` unless it is a
    sequence whose every entry is a finite real, not a bool (`_real`'s rule)."""
    t = _sequence(t, "t")
    if len(t) != n or not all(map(_finite_real, t)):
        raise InvalidArgumentError(f"t = {t} must hold {n} finite reals")
    return tuple([float(x) for x in t])


def _integer(
    k, what: str, lo: int, hi: int | None = None, error: type = InvalidArgumentError
) -> None:
    """Raise `error` unless k is an int (a bool is not) in lo..hi, or at
    least lo when hi is None."""
    if isinstance(k, bool) or not isinstance(k, int) or k < lo or hi is not None and k > hi:
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise error(f"{what} must be an int {bounds}, got {k!r}")


def _real(x, what: str, lo=-math.inf, hi=math.inf, error=InvalidArgumentError, open_lo=False):
    """Raise `error` unless x is a finite real (a bool is not) in [lo, hi],
    or in (lo, hi] when `open_lo`."""
    if not (_finite_real(x) and (lo < x if open_lo else lo <= x) and x <= hi):
        left, right = "(" if open_lo or lo == -math.inf else "[", "]" if hi < math.inf else ")"
        rule = f"a finite real in {left}{lo}, {hi}{right}"
        if open_lo and lo == 0 and hi == math.inf:
            rule = "positive and finite"
        raise error(f"{what} must be {rule}, got {x!r}")


def _height(y) -> None:
    """Raise `InvalidPointError` unless y is a finite real, not a bool, with
    |y| >= MIN_IMAG."""
    if not (_finite_real(y) and MIN_IMAG <= abs(y)):
        raise InvalidPointError(f"y = {y!r} does not lift x off the real axis")


def _upper(z, what: str, n: int | None = None) -> CutPlanePoint:
    """`_point(z, n)`, or `InvalidArgumentError` if it lies outside C+^n."""
    z = _point(z, n)
    if not z.is_upper():
        raise InvalidArgumentError(f"{what} is only defined on C+^n")
    return z


def _config(cfg, cls: type) -> None:
    """Raise `InvalidArgumentError` unless cfg is a `cls`.  The limit,
    inversion and quadrature entries call this before any work: a dict of
    the same fields would fail later, and has none of the rays a
    `LimitConfig` computes.  A Herglotz triple and a branch dict too."""
    if not isinstance(cfg, cls):
        raise InvalidArgumentError(f"a {cls.__name__} is expected, got {cfg!r}")


def _dimension(n, what: str, error: type) -> None:
    """Raise `error` unless n is an int (a bool is not) in 1..MAX_DIMENSION."""
    _integer(n, what, 1, MAX_DIMENSION, error)


class _Function:
    """The calling convention of every function family: f(z) is `_at` of the
    point z, checked once by `_point` against f.dimension, and f.evaluate(z)
    is (f(z), 0.0) unless the family overrides it to report an error."""

    def __call__(self, z) -> complex:
        return self._at(_point(z, self.dimension).coords)

    def evaluate(self, z) -> tuple:
        return self(z), 0.0


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
