"""Adaptive quadrature over R^n via the fixed t = tan(theta) compactification.

Every integrand in this package decays like prod (1+t_l^2)^-1 or faster, so
the substitution renders the transformed integrand bounded on the open
interval (-pi/2, pi/2).  Dimensions n >= 2 are handled by iterated
(axis-by-axis) adaptive quadrature; callers may supply per-axis hints for
near-axis spikes (e.g. poles approaching the real axis as y -> 0+).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from scipy.integrate import IntegrationWarning, quad

from .errors import AccuracyError


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


def integrate_line(
    f: Callable[[float], complex],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    singularities: Sequence[float] = (),
    strict: bool = False,
):
    """Adaptive quadrature of f over R.  Returns (value, error_estimate)."""

    def integrand(theta):
        t = math.tan(theta)
        return f(t) * (1.0 + t * t)

    # bracket each singularity at several scales: Gauss-Kronrod nodes never
    # fall close to a subinterval endpoint, so a lone split at the spike
    # location can leave a narrow peak entirely unsampled
    pts = set()
    for s in singularities:
        pts.add(math.atan(s))
        for d in (1e-1, 1e-2, 1e-4, 1e-6):
            pts.add(math.atan(s - d))
            pts.add(math.atan(s + d))
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
            limit=max(cfg.max_subdivisions, 10),
            complex_func=True,
        )
    err = abs(err)
    if strict and err > max(cfg.abs_tol, cfg.rel_tol * abs(val)) * 10:
        raise AccuracyError(
            f"quadrature error {err:.3e} exceeds tolerance", val, err
        )
    return val, err


def integrate_rn(
    f: Callable[[tuple], complex],
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    hints: Callable[[tuple], Sequence[float]] | None = None,
):
    """Iterated quadrature of f over R^n.

    `hints(prefix)` may return spike locations for the axis following the
    already-fixed coordinates `prefix`.  The reported error is the outermost
    quadrature estimate only; inner errors are controlled by the same
    tolerances.
    """
    if n == 1:
        return integrate_line(lambda t: f((t,)), cfg, hints(()) if hints else ())

    def level(prefix: tuple):
        axis = len(prefix)
        sing = hints(prefix) if hints else ()
        if axis == n - 1:
            g = lambda t: f(prefix + (t,))
        else:
            g = lambda t: level(prefix + (t,))[0]
        return integrate_line(g, cfg, sing)

    return level(())
