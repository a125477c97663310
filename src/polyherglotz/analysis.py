"""Higher-level procedures: symmetry and non-dependence checks, recovery of
cut-plane values from upper-half-plane data, non-tangential growth limits,
the symmetric-extension characterization verdict, and Stieltjes inversion
in both the classical and the alternating (full cut-plane) form.

All checks are sampled: universal statements are reported over documented
deterministic grids plus seeded random points, never "proved".
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import CutPlanePoint, alternating_sum, symmetry_sum
from .errors import InvalidArgumentError, TestFunctionBoundError
from .quadrature import QuadratureConfig, integrate_rn
from .functions import _probe_points
from .measures import boundary_hints

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class LimitConfig:
    stoltz_angle: float = math.pi / 4
    radius_sequence: tuple = tuple(2.0**k for k in range(3, 13))
    y_sequence: tuple = tuple(2.0**-k for k in range(1, 11))
    extrapolation_order: int = 2

    def __post_init__(self):
        if not 0 < self.stoltz_angle <= math.pi / 2:
            raise InvalidArgumentError("stoltz angle must lie in (0, pi/2]")
        r = self.radius_sequence
        if not all(v > 0 for v in r):
            raise InvalidArgumentError("radii must be positive")
        if any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
            raise InvalidArgumentError("radius sequence must increase")
        y = self.y_sequence
        if not all(v > 0 for v in y):
            raise InvalidArgumentError("y steps must be positive")
        if any(y[i] <= y[i + 1] for i in range(len(y) - 1)):
            raise InvalidArgumentError("y sequence must decrease")


DEFAULT_LIMITS = LimitConfig()


@dataclass
class CheckReport:
    verdict: str  # pass | fail | inconclusive
    max_residual: float
    tolerance: float
    witnesses: list = field(default_factory=list)  # [(CutPlanePoint, residual)]
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "witnesses": [
                {"point": [[c.real, c.imag] for c in p.coords], "residual": r}
                for p, r in self.witnesses
            ],
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def richardson_tableau(values: Sequence[complex], ratio: float = 2.0, order: int = 2):
    """Columns of the Richardson tableau for a step sequence shrinking by `ratio`."""
    cols = [list(values)]
    for m in range(1, order + 1):
        prev = cols[-1]
        if len(prev) < 2:
            break
        fac = ratio**m
        cols.append(
            [(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)]
        )
    return cols


# ---------------------------------------------------------------------------
# Symmetry and non-dependence

def full_symmetry_sum(f, z: CutPlanePoint) -> complex:
    """sum over nonempty B of (-1)^(|B|+1) conj f(Psi_B(i*1, z))."""
    return symmetry_sum(lambda w: complex(f(CutPlanePoint(w))), z.coords)


def symmetry_residual(f, z: CutPlanePoint) -> float:
    """|f(z) - symmetry sum|; zero for symmetric extensions with b = 0."""
    if not isinstance(z, CutPlanePoint):
        z = CutPlanePoint(tuple(z))
    return abs(complex(f(z)) - full_symmetry_sum(f, z))


def _random_point(rng, signs) -> CutPlanePoint:
    coords = tuple(
        complex(
            rng.uniform(-3.0, 3.0),
            s * math.exp(rng.uniform(math.log(0.1), math.log(3.0))),
        )
        for s in signs
    )
    return CutPlanePoint(coords)


def _sampled_report(samples, tol: float, config: dict) -> CheckReport:
    """The verdict of a sampled check from its (point, residual) pairs.

    The check passes when no residual exceeds `tol`; its witnesses are up
    to five samples over `tol`, worst first (ties in sampling order).
    """
    worst = 0.0
    over = []
    for z, r in samples:
        if r > worst:
            worst = r
        if r > tol:
            over.append((z, r))
    over.sort(key=lambda w: w[1], reverse=True)
    return CheckReport("pass" if worst <= tol else "fail", worst, tol, over[:5], config)


def symmetry_check(
    f,
    points_per_component: int = 50,
    tol: float = 1e-9,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Sample the symmetry formula on every connected component."""
    rng = np.random.default_rng(seed)
    points = (
        _random_point(rng, signs)
        for signs in itertools.product((1, -1), repeat=f.dimension)
        for _ in range(points_per_component)
    )
    return _sampled_report(
        ((z, symmetry_residual(f, z)) for z in points),
        tol,
        {"points_per_component": points_per_component, "seed": seed},
    )


_LOWER_BASES = (-0.5 - 0.8j, 1.3 - 0.45j, -2.1 - 2.2j)
_UPPER_PROBES = (0.3 + 0.7j, -1.1 + 1.5j, 2.2 + 0.2j, 0.05 + 3.0j, -2.5 + 0.6j)


def nondependence_test(f, probes: int = 5, tol: float = 1e-9) -> CheckReport:
    """Check that values with some coordinate in C- ignore the C+ coordinates.

    For each mixed signature the lower coordinates are fixed at deterministic
    samples while the upper ones sweep `probes` values; each sample is the
    deviation of f from its value at the first probe.  `probes` runs from
    1 to the five fixed upper probes.  For n = 1 there is no mixed
    signature, so the check passes vacuously.
    """
    if not 1 <= probes <= len(_UPPER_PROBES):
        raise InvalidArgumentError(
            f"probes must lie in 1..{len(_UPPER_PROBES)}, got {probes!r}"
        )
    samples = _nondependence_samples(f, probes)
    return _sampled_report(samples, tol, {"probes": probes})


def _nondependence_samples(f, probes: int):
    n = f.dimension
    for signs in itertools.product((1, -1), repeat=n):
        upper = [j for j, s in enumerate(signs) if s == 1]
        if not 0 < len(upper) < n:
            continue
        for k in range(len(_LOWER_BASES)):
            coords = [_LOWER_BASES[(k + j) % len(_LOWER_BASES)] for j in range(n)]
            for p in range(probes):
                for j in upper:
                    coords[j] = _UPPER_PROBES[(p + j) % len(_UPPER_PROBES)]
                pt = CutPlanePoint(tuple(coords))
                value = complex(f(pt))
                if p:
                    yield pt, abs(value - first)
                else:
                    first = value


def positivity_check(
    f,
    samples: int = 200,
    tol: float = 1e-12,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Sampled Im f >= 0 on C+^n; a point's residual is max(0, -Im f), so
    roundoff below `tol` passes."""
    points = _probe_points(f.dimension, samples, seed)
    return _sampled_report(
        ((p, max(0.0, -complex(f(p)).imag)) for p in points),
        tol,
        {"samples": samples, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Reconstruction from upper-half-plane data

def reconstruct_from_upper(f_upper, z: CutPlanePoint) -> complex:
    """Value at a mixed/lower point from C+^n data alone.

    Uses the reduced sum over nonempty B contained in the lower index set B';
    the remaining subsets cancel in pairs for functions satisfying symmetry
    plus non-dependence (which the caller asserts, this routine computes).
    """
    if not isinstance(z, CutPlanePoint):
        z = CutPlanePoint(tuple(z))
    bprime = z.signature().lower_index_set()
    if not bprime:
        raise InvalidArgumentError(
            "point lies in C+^n; evaluate the function directly"
        )
    within = sum(1 << (j - 1) for j in bprime)
    return symmetry_sum(lambda w: complex(f_upper(CutPlanePoint(w))), z.coords, within)


# ---------------------------------------------------------------------------
# Non-tangential growth limits

@dataclass
class StoltzResult:
    estimate: complex
    converged: bool
    direction: str
    axis: int
    base_spread: float
    samples: list
    config: dict

    @property
    def verdict(self) -> str:
        return "converged" if self.converged else "inconclusive"


_ALT_BASE_COORDS = (0.7 + 1.1j, -1.3 + 0.6j, 0.4 - 0.9j, -2.0 - 1.7j)


def _limit_along_ray(f, j, base_coords, cfg, direction, conv_tol):
    phase = cmath.exp(1j * cfg.stoltz_angle)
    if direction == "lower":
        phase = phase.conjugate()
    values = []
    for r in cfg.radius_sequence:
        zj = r * phase
        coords = tuple(
            zj if k == j else base_coords[k] for k in range(len(base_coords))
        )
        values.append(complex(f(CutPlanePoint(coords))) / zj)
    cols = richardson_tableau(values, 2.0, cfg.extrapolation_order)
    top = cols[-1]
    est = top[-1]
    converged = len(top) >= 2 and abs(top[-1] - top[-2]) <= conv_tol
    return est, converged, values


def stoltz_limit(
    f,
    j: int,
    base: CutPlanePoint,
    cfg: LimitConfig = DEFAULT_LIMITS,
    direction: str = "upper",
    conv_tol: float = 1e-7,
    base_alternates: int = 3,
) -> StoltzResult:
    """Estimate lim f(z)/z_j as z_j goes to infinity in a Stoltz sector.

    `j` is 1-based.  The estimate is Richardson-extrapolated along the
    radius sequence; alternate bases probe independence from the non-j
    coordinates.
    """
    if direction not in ("upper", "lower"):
        raise InvalidArgumentError("direction must be 'upper' or 'lower'")
    n = f.dimension
    if not 1 <= j <= n:
        raise InvalidArgumentError(f"axis {j} out of range for dimension {n}")
    jj = j - 1
    base_coords = base.coords if isinstance(base, CutPlanePoint) else tuple(base)
    est, converged, values = _limit_along_ray(
        f, jj, base_coords, cfg, direction, conv_tol
    )
    spread = 0.0
    for k in range(base_alternates):
        alt = tuple(
            base_coords[i]
            if i == jj
            else _ALT_BASE_COORDS[(k + i) % len(_ALT_BASE_COORDS)]
            for i in range(n)
        )
        alt_est, alt_conv, _ = _limit_along_ray(f, jj, alt, cfg, direction, conv_tol)
        converged = converged and alt_conv
        spread = max(spread, abs(alt_est - est))
    return StoltzResult(
        est,
        converged,
        direction,
        j,
        spread,
        values,
        {"angle": cfg.stoltz_angle, "radii": list(cfg.radius_sequence)},
    )


# ---------------------------------------------------------------------------
# Characterization verdict

class _LinearlyShifted:
    """f(z) - sum d_j z_j, used for the weakened growth variant."""

    def __init__(self, f, d):
        self.inner = f
        self.d = tuple(d)
        self.dimension = f.dimension

    def __call__(self, z):
        p = z if isinstance(z, CutPlanePoint) else CutPlanePoint(tuple(z))
        return complex(self.inner(p)) - sum(
            dj * c for dj, c in zip(self.d, p.coords)
        )


@dataclass
class CharacterizeResult:
    verdict: str  # pass | fail | inconclusive
    d: tuple
    reports: dict

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "d": list(self.d)}
        for k, v in self.reports.items():
            out[k] = v.to_dict() if hasattr(v, "to_dict") else v
        return out


def characterize(
    f,
    cfg: LimitConfig = DEFAULT_LIMITS,
    base: CutPlanePoint | None = None,
    d_tol: float = 1e-5,
    sym_tol: float = 1e-9,
    nondep_tol: float = 1e-9,
    pos_tol: float = 1e-12,
    seed: int = DEFAULT_SEED,
) -> CharacterizeResult:
    """Decide whether f is the symmetric extension of a Herglotz function.

    Extracts the linear growth d_j from both Stoltz directions (gating
    step), then checks sampled positivity on f and symmetry plus variable
    non-dependence on f - sum d_j z_j.  Any inconclusive sub-check makes
    the overall verdict inconclusive, never pass.
    """
    n = f.dimension
    if base is None:
        base = CutPlanePoint((0.5 + 1.1j,) * n)
    d = []
    limit_info = {}
    gate_fail = False
    gate_inconclusive = False
    for j in range(1, n + 1):
        up = stoltz_limit(f, j, base, cfg, "upper")
        low = stoltz_limit(f, j, base, cfg, "lower")
        limit_info[f"axis_{j}"] = {
            "upper": [up.estimate.real, up.estimate.imag],
            "lower": [low.estimate.real, low.estimate.imag],
            "base_spread": max(up.base_spread, low.base_spread),
            "converged": up.converged and low.converged,
        }
        if not (up.converged and low.converged):
            gate_inconclusive = True
            d.append(float("nan"))
            continue
        mismatch = abs(up.estimate - low.estimate)
        spread = max(up.base_spread, low.base_spread)
        dj = 0.5 * (up.estimate + low.estimate)
        if mismatch > d_tol or spread > d_tol or abs(dj.imag) > d_tol:
            gate_fail = True
            d.append(dj.real)
            continue
        d.append(0.0 if abs(dj.real) < d_tol else dj.real)
    if gate_inconclusive:
        return CharacterizeResult("inconclusive", tuple(d), {"limits": limit_info})
    if gate_fail or any(dj < -d_tol for dj in d):
        return CharacterizeResult("fail", tuple(d), {"limits": limit_info})

    shifted = f if all(dj == 0.0 for dj in d) else _LinearlyShifted(f, d)
    reports = {
        "limits": limit_info,
        "positivity": positivity_check(f, tol=pos_tol, seed=seed),
        "symmetry": symmetry_check(shifted, tol=sym_tol, seed=seed),
        "nondependence": nondependence_test(shifted, tol=nondep_tol),
    }
    sub = [reports["positivity"], reports["symmetry"], reports["nondependence"]]
    if any(r.verdict == "inconclusive" for r in sub):
        verdict = "inconclusive"
    elif any(r.verdict == "fail" for r in sub):
        verdict = "fail"
    else:
        verdict = "pass"
    return CharacterizeResult(verdict, tuple(d), reports)


# ---------------------------------------------------------------------------
# Stieltjes inversion

@dataclass(frozen=True)
class TestFunction:
    """Admissible C^1 test function with |phi(x)| <= D * prod(1+x_j^2)^-1."""

    __test__ = False  # not a pytest collection target despite the name

    name: str
    dimension: int
    bound_constant: float
    func: Callable

    def __call__(self, x: tuple) -> float:
        return self.func(x)


def phi_cauchy(n: int) -> TestFunction:
    def func(x):
        p = 1.0
        for v in x:
            p *= 1.0 / (1.0 + v * v)
        return p

    return TestFunction(f"cauchy{n}d", n, 1.0, func)


def phi_gaussian(n: int, sigma: float = 1.0) -> TestFunction:
    # sup (1+x^2) exp(-x^2 / (2 sigma^2)) per axis
    if sigma * sigma <= 0.5:
        d1 = 1.0
    else:
        x2 = 2.0 * sigma * sigma - 1.0
        d1 = (1.0 + x2) * math.exp(-x2 / (2.0 * sigma * sigma))

    def func(x):
        return math.exp(-sum(v * v for v in x) / (2.0 * sigma * sigma))

    return TestFunction(f"gauss{n}d", n, d1**n, func)


def _spot_check_bound(phi: TestFunction, seed: int = DEFAULT_SEED) -> None:
    rng = np.random.default_rng(seed)
    grid = [-50.0, -5.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0, 50.0]
    pts = [(g,) * phi.dimension for g in grid]
    for _ in range(200):
        pts.append(tuple(rng.uniform(-100, 100) for _ in range(phi.dimension)))
    for x in pts:
        bound = phi.bound_constant
        for v in x:
            bound *= 1.0 / (1.0 + v * v)
        if abs(phi(x)) > bound * (1.0 + 1e-9) + 1e-300:
            raise TestFunctionBoundError(
                f"{phi.name} violates its decay bound at {x}"
            )


@dataclass
class InversionResult:
    estimate: float
    rows: list  # (y, raw integral, running extrapolant)
    converged: bool
    mode: str
    config: dict

    @property
    def verdict(self) -> str:
        return "converged" if self.converged else "inconclusive"

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "mode": self.mode,
            "converged": self.converged,
            "rows": [list(r) for r in self.rows],
            "config": self.config,
        }


_INVERSION_QUAD = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7, max_subdivisions=2000)


def _limit_in_y(raw_values, y_sequence, order, conv_tol):
    rows = []
    extrapolants = []
    for k, (y, v) in enumerate(zip(y_sequence, raw_values)):
        cols = richardson_tableau(raw_values[: k + 1], 2.0, min(k, order))
        ext = cols[-1][-1]
        extrapolants.append(ext)
        rows.append((y, v, ext))
    converged = (
        len(extrapolants) >= 2
        and abs(extrapolants[-1] - extrapolants[-2]) <= conv_tol
    )
    return extrapolants[-1], rows, converged


def _stieltjes(f, boundary, phi, cfg, quad, conv_tol, mode) -> InversionResult:
    """Integrate phi(x) * boundary(x, y) over R^n on the y ladder and
    extrapolate to y -> 0+.  The quadrature hints are the spikes of
    `measures.boundary_hints` for the function's `measure`, when it has
    one."""
    n = phi.dimension
    if f.dimension != n:
        raise InvalidArgumentError("test function and function dimensions differ")
    _spot_check_bound(phi)
    mu = getattr(f, "measure", None)
    hints = None if mu is None else (lambda prefix: boundary_hints(mu, prefix))

    raw = []
    for y in cfg.y_sequence:

        def integrand(x, y=y):
            return phi(x) * boundary(x, y)

        val, _ = integrate_rn(integrand, n, quad, hints=hints)
        raw.append(val.real)
    est, rows, converged = _limit_in_y(
        raw, cfg.y_sequence, cfg.extrapolation_order, conv_tol
    )
    return InversionResult(
        float(est),
        rows,
        converged,
        mode,
        {"phi": phi.name, "y_sequence": list(cfg.y_sequence)},
    )


def stieltjes_classic(
    h_upper,
    phi: TestFunction,
    cfg: LimitConfig = DEFAULT_LIMITS,
    quad: QuadratureConfig = _INVERSION_QUAD,
    conv_tol: float = 5e-4,
) -> InversionResult:
    """Recover integral phi dmu from Im h on C+^n as y -> 0+."""

    def im_h(x, y):
        return complex(h_upper(CutPlanePoint(tuple(complex(v, y) for v in x)))).imag

    return _stieltjes(h_upper, im_h, phi, cfg, quad, conv_tol, "classic")


def alternating_boundary_sum(g, x: tuple, y: float) -> complex:
    """(1/2i) sum_B (-1)^|B| g(Psi_B(x+iy, x+iy))."""
    z = tuple(complex(v, y) for v in x)
    return alternating_sum(lambda w: complex(g(CutPlanePoint(w))), z) / 2j


def stieltjes_cauchy_type(
    g,
    phi: TestFunction,
    cfg: LimitConfig = DEFAULT_LIMITS,
    quad: QuadratureConfig = _INVERSION_QUAD,
    conv_tol: float = 5e-4,
) -> InversionResult:
    """Recover integral phi dmu of a Cauchy-type function's defining measure
    from its values on all 2^n components."""

    def boundary(x, y):
        # looked up at call time, so a wrapper patched onto the module sees it
        return alternating_boundary_sum(g, x, y)

    return _stieltjes(g, boundary, phi, cfg, quad, conv_tol, "alternating")
