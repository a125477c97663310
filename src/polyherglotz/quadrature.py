"""Adaptive quadrature over R^n via the fixed t = tan(theta) compactification.

Every integrand in this package decays like prod (1+t_l^2)^-1 or faster, so
the substitution renders the transformed integrand bounded on the open
interval (-pi/2, pi/2).  Dimensions n >= 2 are handled by iterated
(axis-by-axis) adaptive quadrature; callers may supply per-axis hints for
near-axis spikes (e.g. poles approaching the real axis as y -> 0+).

A hint is a (location, half_width) pair: a spike at s about h wide.
`integrate_line` brackets it with breakpoints graded geometrically from
its width up, at s and at s -+ d for d = h, 4h, 16h, ... while d < 1.
Gauss-Kronrod nodes never fall close to a subinterval endpoint, so a lone
split at s can leave a narrow spike unsampled, while brackets finer than
the spike only cost subintervals.  Grading starts no finer than 4^-20, so
a singularity takes at most 20 scales for any width.

Every inner level of the iterated quadrature runs at 1/100 of the caller's
tolerances and only the outermost level at the caller's own: an inner error
of the outer tolerance's size would reach the outer integrand as noise,
which the outer adaptive rule then subdivides to chase.  The reported error
is still the outermost estimate only.

`quad` integrates a complex integrand as two adaptive passes, one per part.
Whether an integrand is complex is read once per call from its value at
the origin, by `integrate_rn` for all of its lines; a real integrand then
takes one pass on every line and gives a float, the same number as the
real part of the two-pass result.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from scipy.integrate import IntegrationWarning, quad

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        for tol in (self.abs_tol, self.rel_tol):
            if not (isinstance(tol, numbers.Real) and 0 < tol < math.inf):
                raise InvalidArgumentError(f"tolerances must be positive and finite, got {tol!r}")


#: The rule of every quadrature but Stieltjes inversion's, which takes its own.
DEFAULT_CONFIG = QuadratureConfig()

#: Each adaptive `quad` pass bisects at most this many subintervals.
_MAX_SUBDIVISIONS = 2000

#: Inner levels of `integrate_rn` run at this fraction of the tolerances.
_INNER_TOL_FACTOR = 1e-2

#: Bracket half-widths grow by this ratio from a spike's width up to 1 ...
_BRACKET_RATIO = 4.0

#: ... starting no finer than this, which bounds a spike's scales at 20.
_MIN_BRACKET = _BRACKET_RATIO**-20


def integrate_line(
    f: Callable[[float], complex],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    singularities: Sequence[tuple] = (),
    complex_func: bool | None = None,
):
    """Adaptive quadrature of f over R.  Returns (value, error_estimate).

    `singularities` holds (location, half_width) pairs, each bracketed by
    breakpoints graded from its half-width up (see the module docstring).

    `complex_func` says whether f is complex; when it is None, f's value at
    the origin decides.  A real f takes one `quad` pass and gives a float,
    a complex f two passes, one per part.  An f taken as real that returns
    a complex value raises TypeError.
    """
    if complex_func is None:
        complex_func = _is_complex(f(0.0))

    def integrand(theta):
        t = math.tan(theta)
        return f(t) * (1.0 + t * t)

    pts = set()
    for s, h in singularities:
        pts.add(math.atan(s))
        d = max(h, _MIN_BRACKET)
        while d < 1.0:
            pts.add(math.atan(s - d))
            pts.add(math.atan(s + d))
            d *= _BRACKET_RATIO
    pts = sorted(pts)
    with warnings.catch_warnings():
        # accuracy is judged from the returned error estimate, not warnings
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(
            integrand,
            -math.pi / 2,
            math.pi / 2,
            points=pts or None,
            epsabs=cfg.abs_tol,
            epsrel=cfg.rel_tol,
            limit=_MAX_SUBDIVISIONS,
            complex_func=complex_func,
        )
    return val, abs(err)


def _is_complex(value) -> bool:
    """Whether an integrand with this value at the origin needs the
    imaginary pass of `quad`."""
    return not isinstance(value, numbers.Real)


def integrate_rn(
    f: Callable[[tuple], complex],
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    hints: Callable[[tuple], Sequence[tuple]] | None = None,
):
    """Iterated quadrature of f over R^n.

    `hints(prefix)` may return (location, half_width) spikes for the axis
    following the already-fixed coordinates `prefix`.  The outermost axis
    runs at `cfg`'s tolerances and every inner axis at 1/100 of them, so
    that inner errors stay well below what the outer rule resolves.  The
    reported error is the outermost quadrature estimate only.  Whether f is
    complex is read once, from its value at the origin, and passed to every
    line: a real f gives a float and takes one `quad` pass per line.
    """
    complex_func = _is_complex(f((0.0,) * n))
    inner = replace(
        cfg,
        abs_tol=cfg.abs_tol * _INNER_TOL_FACTOR,
        rel_tol=cfg.rel_tol * _INNER_TOL_FACTOR,
    )

    def level(prefix: tuple):
        axis = len(prefix)
        sing = hints(prefix) if hints else ()
        if axis == n - 1:
            g = lambda t: f(prefix + (t,))
        else:
            g = lambda t: level(prefix + (t,))[0]
        return integrate_line(g, inner if axis else cfg, sing, complex_func)

    return level(())
