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
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import MIN_IMAG, CutPlanePoint, _on_coords, alternating_sum, symmetry_sum
from .errors import InvalidArgumentError, InvalidPointError, TestFunctionBoundError
from .quadrature import QuadratureConfig, integrate_rn
from .measures import boundary_hints

DEFAULT_SEED = 1729

#: Richardson extrapolation removes this many error terms in the step.
_EXTRAPOLATION_ORDER = 2


@dataclass(frozen=True)
class LimitConfig:
    """The Stoltz rays and the Stieltjes y ladder.

    The ladders may shrink their steps by any ratio: the extrapolation reads
    the steps themselves.  The checks make every ray point r*e^(+-i*angle)
    and every ladder point x + iy a valid cut-plane point, so those are
    evaluated unchecked, as coordinate tuples.
    """

    stoltz_angle: float = math.pi / 4
    radius_sequence: tuple = tuple(2.0**k for k in range(3, 13))
    y_sequence: tuple = tuple(2.0**-k for k in range(1, 11))

    def __post_init__(self):
        a = self.stoltz_angle
        if not (isinstance(a, numbers.Real) and 0 < a <= math.pi / 2):
            raise InvalidArgumentError("stoltz angle must lie in (0, pi/2]")
        for name in ("radius_sequence", "y_sequence"):
            seq = getattr(self, name)
            if not isinstance(seq, (tuple, list)) or not all(
                isinstance(v, numbers.Real) for v in seq
            ):
                raise InvalidArgumentError(f"{name} must be a list of numbers")
            object.__setattr__(self, name, tuple(seq))
        r = self.radius_sequence
        if not r or not self.y_sequence:
            raise InvalidArgumentError("radius and y sequences must not be empty")
        if not all(0 < v < math.inf for v in r):
            raise InvalidArgumentError("radii must be positive and finite")
        if any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
            raise InvalidArgumentError("radius sequence must increase")
        if min(r) * math.sin(self.stoltz_angle) < MIN_IMAG:
            raise InvalidArgumentError(f"min(radius) * sin(angle) must be >= {MIN_IMAG}")
        y = self.y_sequence
        if not all(MIN_IMAG <= v < math.inf for v in y):
            raise InvalidArgumentError(f"y steps must be finite and >= {MIN_IMAG}")
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


def richardson_tableau(values: Sequence[complex], h: Sequence[float], order: int):
    """Columns 0..order (fewer on a short ladder) of the Richardson tableau
    of `values` taken at the decreasing steps h -> 0.

    Column m is the Neville step (h_i*b - h_(i+m)*a) / (h_i - h_(i+m)) on
    neighbours a, b of column m - 1; where the steps halve in powers of two
    it is (2^m*b - a) / (2^m - 1) to the bit.
    """
    if len(h) != len(values):
        raise InvalidArgumentError("the tableau needs one step per value")
    cols = [list(values)]
    for m in range(1, order + 1):
        prev = cols[-1]
        if len(prev) < 2:
            break
        cols.append(
            [(b * hi - a * hm) / (hi - hm) for a, b, hi, hm in zip(prev, prev[1:], h, h[m:])]
        )
    return cols


def _extrapolate(values: Sequence[complex], steps: Sequence[float], conv_tol: float):
    """The running extrapolants of a ladder (after step k, column
    min(k, order) of the one tableau) and whether it converged: it has at
    least order + 2 steps and its last two full-order extrapolants agree
    within `conv_tol`."""
    order = _EXTRAPOLATION_ORDER
    cols = richardson_tableau(values, steps, order)
    running = [col[0] for col in cols[:-1]] + cols[-1]
    top = cols[-1]
    converged = len(values) >= order + 2 and abs(top[-1] - top[-2]) <= conv_tol
    return running, converged


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise InvalidArgumentError(f"tolerance must be positive and finite, got {tol!r}")


# ---------------------------------------------------------------------------
# Symmetry and non-dependence

def full_symmetry_sum(f, z: CutPlanePoint) -> complex:
    """sum over nonempty B of (-1)^(|B|+1) conj f(Psi_B(i*1, z))."""
    return symmetry_sum(_on_coords(f, z.n), z.coords)


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
    to five samples over `tol`, worst first (ties in sampling order).  A
    NaN residual counts as over `tol` and as worse than any number, so it
    fails the check and is reported as the maximum.
    """
    _check_tol(tol)
    rank = lambda r: (math.isnan(r), r)
    worst = 0.0
    over = []
    for z, r in samples:
        worst = max(worst, r, key=rank)
        if not r <= tol:
            over.append((z, r))
    over.sort(key=lambda w: rank(w[1]), reverse=True)
    return CheckReport("fail" if over else "pass", worst, tol, over[:5], config)


_POINTS_PER_COMPONENT = 50


def symmetry_check(f, tol: float = 1e-9, seed: int = DEFAULT_SEED) -> CheckReport:
    """Sample the symmetry formula at 50 seeded points on every connected
    component."""
    rng = np.random.default_rng(seed)
    points = (
        _random_point(rng, signs)
        for signs in itertools.product((1, -1), repeat=f.dimension)
        for _ in range(_POINTS_PER_COMPONENT)
    )
    return _sampled_report(
        ((z, symmetry_residual(f, z)) for z in points),
        tol,
        {"points_per_component": _POINTS_PER_COMPONENT, "seed": seed},
    )


_LOWER_BASES = (-0.5 - 0.8j, 1.3 - 0.45j, -2.1 - 2.2j)
_UPPER_PROBES = (0.3 + 0.7j, -1.1 + 1.5j, 2.2 + 0.2j, 0.05 + 3.0j, -2.5 + 0.6j)


def nondependence_test(f, tol: float = 1e-9) -> CheckReport:
    """Check that values with some coordinate in C- ignore the C+ coordinates.

    For each mixed signature the lower coordinates are fixed at deterministic
    samples while the upper ones sweep the five fixed probes; each sample is
    the deviation of f from its value at the first probe.  For n = 1 there
    is no mixed signature, so the check passes vacuously.
    """
    probes = len(_UPPER_PROBES)
    return _sampled_report(_nondependence_samples(f, probes), tol, {"probes": probes})


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


def _probe_points(n: int, samples: int, seed: int):
    """A deterministic C+^n grid, then `samples` seeded log-uniform points."""
    if n <= 2:
        res = (-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 4.0)
        ims = (0.1, 0.5, 1.0, 2.0, 4.0)
    else:
        res = (-2.0, 0.0, 2.0)
        ims = (0.1, 1.0)
    axis = [complex(x, y) for x in res for y in ims]
    for coords in itertools.product(axis, repeat=n):
        yield CutPlanePoint(coords)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        coords = tuple(
            complex(rng.uniform(-6, 6), math.exp(rng.uniform(math.log(0.05), math.log(10))))
            for _ in range(n)
        )
        yield CutPlanePoint(coords)


_POSITIVITY_SAMPLES = 200


def _deficit(im: float) -> float:
    """max(0, -im), and NaN for a NaN im (which max would drop)."""
    return im if math.isnan(im) else max(0.0, -im)


def positivity_check(f, tol: float = 1e-12, seed: int = DEFAULT_SEED) -> CheckReport:
    """Sampled Im f >= 0 on C+^n, on a grid and 200 seeded points; a point's
    residual is max(0, -Im f), so roundoff below `tol` passes, and NaN where
    Im f is NaN, so that it fails."""
    points = _probe_points(f.dimension, _POSITIVITY_SAMPLES, seed)
    return _sampled_report(
        ((p, _deficit(complex(f(p)).imag)) for p in points),
        tol,
        {"samples": _POSITIVITY_SAMPLES, "seed": seed},
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
    # B' as a bitmask: the axes whose coordinate lies in the lower half-plane
    within = sum(1 << j for j, c in enumerate(z.coords) if c.imag < 0)
    if not within:
        raise InvalidArgumentError(
            "point lies in C+^n; evaluate the function directly"
        )
    return symmetry_sum(_on_coords(f_upper, z.n), z.coords, within)


# ---------------------------------------------------------------------------
# Non-tangential growth limits

@dataclass(slots=True)
class StoltzResult:
    estimate: complex
    converged: bool
    direction: str
    axis: int
    base_spread: float
    samples: tuple  # f(z)/z_j along the ray from the given base
    limits: LimitConfig

    @property
    def verdict(self) -> str:
        return "converged" if self.converged else "inconclusive"

    @property
    def config(self) -> dict:
        return {
            "angle": self.limits.stoltz_angle,
            "radii": list(self.limits.radius_sequence),
        }


_ALT_BASE_COORDS = (0.7 + 1.1j, -1.3 + 0.6j, 0.4 - 0.9j, -2.0 - 1.7j)

#: A ray converged when its last two extrapolants agree within this.
_STOLTZ_TOL = 1e-7


def stoltz_limit(
    f,
    j: int,
    base: CutPlanePoint,
    cfg: LimitConfig = DEFAULT_LIMITS,
    direction: str = "upper",
    base_alternates: int = 3,
) -> StoltzResult:
    """Estimate lim f(z)/z_j as z_j goes to infinity in a Stoltz sector.

    `j` is 1-based.  The estimate is Richardson-extrapolated in the steps
    1/r of the radius sequence; alternate bases probe independence from
    the non-j coordinates.
    """
    if direction not in ("upper", "lower"):
        raise InvalidArgumentError("direction must be 'upper' or 'lower'")
    n = f.dimension
    if not 1 <= j <= n:
        raise InvalidArgumentError(f"axis {j} out of range for dimension {n}")
    jj = j - 1
    if not isinstance(base, CutPlanePoint):
        base = CutPlanePoint(tuple(base))
    phase = cmath.exp(1j * cfg.stoltz_angle)
    if direction == "lower":
        phase = phase.conjugate()
    # the ray and its steps 1/r are shared by the base and its alternates
    ray = [r * phase for r in cfg.radius_sequence]
    steps = [1.0 / r for r in cfg.radius_sequence]
    g = _on_coords(f, base.n)
    alts = _ALT_BASE_COORDS
    bases = [base.coords] + [
        tuple(base.coords[i] if i == jj else alts[(k + i) % len(alts)] for i in range(n))
        for k in range(base_alternates)
    ]
    limits = []  # (estimate, converged, f(z)/z_j along the ray) per base
    for coords in bases:
        head, tail = coords[:jj], coords[jj + 1 :]
        values = [g(head + (zj,) + tail) / zj for zj in ray]
        running, converged = _extrapolate(values, steps, _STOLTZ_TOL)
        limits.append((running[-1], converged, values))
    est, _, values = limits[0]
    spread = max([0.0] + [abs(e - est) for e, _, _ in limits[1:]])
    converged = all(c for _, c, _ in limits)
    return StoltzResult(est, converged, direction, j, spread, tuple(values), cfg)


# ---------------------------------------------------------------------------
# Characterization verdict

class _LinearlyShifted:
    """f(z) - sum d_j z_j, used for the weakened growth variant."""

    def __init__(self, f, d):
        self.inner = f
        self.d = tuple(d)
        self.dimension = f.dimension
        self._inner_at = _on_coords(f, f.dimension)

    def __call__(self, z):
        p = z if isinstance(z, CutPlanePoint) else CutPlanePoint(tuple(z))
        if p.n != self.dimension:
            raise InvalidArgumentError(
                f"point dimension {p.n} differs from the function's {self.dimension}"
            )
        return self._at(p.coords)

    def _at(self, zs: tuple) -> complex:
        return self._inner_at(zs) - sum(dj * c for dj, c in zip(self.d, zs))


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


#: The Stoltz base of `characterize` has this value on every axis.
_CHARACTERIZE_BASE = 0.5 + 1.1j
#: Linear growth below this is 0; directions or bases that differ by more fail.
_D_TOL = 1e-5


def characterize(
    f, cfg: LimitConfig = DEFAULT_LIMITS, seed: int = DEFAULT_SEED
) -> CharacterizeResult:
    """Decide whether f is the symmetric extension of a Herglotz function.

    Extracts the linear growth d_j from both Stoltz directions (gating
    step), then checks sampled positivity on f and symmetry plus variable
    non-dependence on f - sum d_j z_j, each at its default tolerance.  Any
    inconclusive sub-check makes the overall verdict inconclusive, never
    pass.
    """
    n = f.dimension
    base = CutPlanePoint((_CHARACTERIZE_BASE,) * n)
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
        if mismatch > _D_TOL or spread > _D_TOL or abs(dj.imag) > _D_TOL:
            gate_fail = True
            d.append(dj.real)
            continue
        d.append(0.0 if abs(dj.real) < _D_TOL else dj.real)
    if gate_inconclusive:
        return CharacterizeResult("inconclusive", tuple(d), {"limits": limit_info})
    if gate_fail or any(dj < -_D_TOL for dj in d):
        return CharacterizeResult("fail", tuple(d), {"limits": limit_info})

    shifted = f if all(dj == 0.0 for dj in d) else _LinearlyShifted(f, d)
    reports = {
        "limits": limit_info,
        "positivity": positivity_check(f, seed=seed),
        "symmetry": symmetry_check(shifted, seed=seed),
        "nondependence": nondependence_test(shifted),
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
    if not (isinstance(sigma, numbers.Real) and 0 < sigma < math.inf):
        raise InvalidArgumentError(f"sigma must be positive and finite, got {sigma!r}")
    # sup (1+x^2) exp(-x^2 / (2 sigma^2)) per axis
    if sigma * sigma <= 0.5:
        d1 = 1.0
    else:
        x2 = 2.0 * sigma * sigma - 1.0
        d1 = (1.0 + x2) * math.exp(-x2 / (2.0 * sigma * sigma))

    def func(x):
        return math.exp(-sum(v * v for v in x) / (2.0 * sigma * sigma))

    return TestFunction(f"gauss{n}d", n, d1**n, func)


def _spot_check_bound(phi: TestFunction) -> None:
    rng = np.random.default_rng(DEFAULT_SEED)
    grid = [-50.0, -5.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0, 50.0]
    pts = [(g,) * phi.dimension for g in grid]
    for _ in range(200):
        pts.append(tuple(rng.uniform(-100, 100) for _ in range(phi.dimension)))
    for x in pts:
        bound = phi.bound_constant
        for v in x:
            bound *= 1.0 / (1.0 + v * v)
        if not abs(phi(x)) <= bound * (1.0 + 1e-9) + 1e-300:  # NaN fails
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


_INVERSION_QUAD = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7)


def _stieltjes(f, boundary, phi, cfg, quad, conv_tol, mode) -> InversionResult:
    """Integrate phi(x) * boundary(x, y) over R^n on the y ladder and
    extrapolate in the steps y to y -> 0+.  The quadrature hints of each
    row are the spikes of `measures.boundary_hints` at its y for the
    function's `measure`, when it has one."""
    n = phi.dimension
    if f.dimension != n:
        raise InvalidArgumentError("test function and function dimensions differ")
    _check_tol(conv_tol)
    _spot_check_bound(phi)
    mu = getattr(f, "measure", None)

    raw = []
    for y in cfg.y_sequence:

        def integrand(x, y=y):
            return phi(x) * boundary(x, y)

        hints = None if mu is None else (lambda prefix, y=y: boundary_hints(mu, prefix, y))
        val, _ = integrate_rn(integrand, n, quad, hints=hints)
        raw.append(val.real)
    running, converged = _extrapolate(raw, cfg.y_sequence, conv_tol)
    return InversionResult(
        float(running[-1]),
        list(zip(cfg.y_sequence, raw, running)),
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

    h = _on_coords(h_upper, phi.dimension)

    def im_h(x, y):
        return h(tuple(complex(v, y) for v in x)).imag

    return _stieltjes(h_upper, im_h, phi, cfg, quad, conv_tol, "classic")


def alternating_boundary_sum(g, x: tuple, y: float) -> complex:
    """(1/2i) sum_B (-1)^|B| g(Psi_B(x+iy, x+iy)) at finite real x.

    Only y is checked; the ladder point and its reflections are evaluated
    unchecked, as coordinate tuples.
    """
    if not MIN_IMAG <= abs(y) < math.inf:
        raise InvalidPointError(f"y = {y} does not lift x off the real axis")
    z = tuple(complex(v, y) for v in x)
    return alternating_sum(_on_coords(g, len(z)), z) / 2j


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
