"""Higher-level procedures: symmetry and non-dependence checks, recovery of
cut-plane values from upper-half-plane data, non-tangential growth limits,
the symmetric-extension characterization verdict (whose shifted function
f - sum d_j z_j is `functions._Affine`, the wrapper a Herglotz function
is), and Stieltjes inversion, classical or alternating (full cut-plane).

All checks are sampled: universal statements are reported over documented
deterministic grids plus seeded random points, never "proved": symmetry at
50 seeded points of C+^n and their reflections into every component,
positivity on the 35-value axis grid to the power n (for n > 2, the
6-value axis on each pair of axes, the others at i) plus 200 seeded points
of C+^n, and non-dependence at 3 lower bases times 5 upper probes per mixed
signature.  The symmetry sums of one seeded point's 2^n reflections read
only 3^n - 1 distinct values, and each is computed once.  Each check
resolves its function on coordinate tuples once, evaluates every sample as
a tuple and builds a point only for a witness it returns.  A Cauchy-type
function of a curve measure evaluates by one line quadrature whose two
passes share their nodes in theta (`measures.pair_integral`).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    _SIGNS,
    MAX_DIMENSION,
    MIN_IMAG,
    CutPlanePoint,
    _config,
    _dimension,
    _height,
    _integer,
    _on_coords,
    _point,
    _real,
    _real_vector,
    _reals,
    _reflections,
    _sequence,
    alternating_sum,
    symmetry_sum,
)
from .errors import InvalidArgumentError, TestFunctionBoundError
from .functions import _Affine
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
    evaluated unchecked, as coordinate tuples.  The ray points of both
    directions and the steps 1/r are computed once, here, for every Stoltz
    limit taken with the config; they are private attributes, not fields.
    """

    stoltz_angle: float = math.pi / 4
    radius_sequence: tuple = tuple(2.0**k for k in range(3, 13))
    y_sequence: tuple = tuple(2.0**-k for k in range(1, 11))

    def __post_init__(self):
        _real(self.stoltz_angle, "stoltz angle", 0, math.pi / 2, open_lo=True)
        for name, lo, open_lo in (("radius_sequence", 0, True), ("y_sequence", MIN_IMAG, False)):
            seq = getattr(self, name)
            if not isinstance(seq, (tuple, list)) or not seq:
                raise InvalidArgumentError(f"{name} must be a non-empty list of numbers")
            seq = _reals(seq, name, f"a {name} entry", lo, open_lo=open_lo)
            object.__setattr__(self, name, seq)
        r, y = self.radius_sequence, self.y_sequence
        if any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
            raise InvalidArgumentError("radius sequence must increase")
        if min(r) * math.sin(self.stoltz_angle) < MIN_IMAG:
            raise InvalidArgumentError(f"min(radius) * sin(angle) must be >= {MIN_IMAG}")
        if any(y[i] <= y[i + 1] for i in range(len(y) - 1)):
            raise InvalidArgumentError("y sequence must decrease")
        phase = cmath.exp(1j * self.stoltz_angle)
        object.__setattr__(self, "_upper_ray", tuple([ri * phase for ri in r]))
        object.__setattr__(self, "_lower_ray", tuple([ri * phase.conjugate() for ri in r]))
        object.__setattr__(self, "_steps", tuple([1.0 / ri for ri in r]))


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
    _integer(order, "order", 0)
    values, h = _sequence(values, "values"), _sequence(h, "h")
    if len(h) != len(values):
        raise InvalidArgumentError("the tableau needs one step per value")
    return _tableau(values, h, order)


def _tableau(values: Sequence[complex], h: Sequence[float], order: int):
    """`richardson_tableau` unchecked: one step per value, order >= 0."""
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
    cols = _tableau(values, steps, order)
    running = [col[0] for col in cols[:-1]] + cols[-1]
    top = cols[-1]
    converged = len(values) >= order + 2 and abs(top[-1] - top[-2]) <= conv_tol
    return running, converged


# ---------------------------------------------------------------------------
# Symmetry and non-dependence

def full_symmetry_sum(f, z: CutPlanePoint) -> complex:
    """sum over nonempty B of (-1)^(|B|+1) conj f(Psi_B(i*1, z))."""
    z = _point(z)
    return symmetry_sum(_on_coords(f, z.n), z.coords)


def symmetry_residual(f, z: CutPlanePoint) -> float:
    """|f(z) - symmetry sum|; zero for symmetric extensions with b = 0."""
    z = _point(z)
    g = _on_coords(f, z.n)
    return abs(complex(g(z.coords)) - symmetry_sum(g, z.coords))


def _random_point(rng, signs, re: float, im: tuple) -> tuple:
    """Per axis, Re z uniform in [-re, re], then |Im z| log-uniform in im, signed by `signs`."""
    lo, hi = math.log(im[0]), math.log(im[1])
    return tuple(complex(rng.uniform(-re, re), s * math.exp(rng.uniform(lo, hi))) for s in signs)


def _sampled_report(samples, tol: float, config: dict) -> CheckReport:
    """The verdict of a sampled check from its (coordinates, residual) pairs.

    The check passes when no residual exceeds `tol`; its witnesses are up
    to five samples over `tol`, worst first (ties in sampling order), each
    made a point here.  A NaN residual counts as over `tol` and as worse
    than any number, so it fails the check and is reported as the maximum.
    """
    _real(tol, "tolerance", 0, open_lo=True)
    rank = lambda r: (math.isnan(r), r)
    worst = 0.0
    over = []
    for zs, r in samples:
        worst = max(worst, r, key=rank)
        if not r <= tol:
            over.append((zs, r))
    over.sort(key=lambda w: rank(w[1]), reverse=True)
    witnesses = [(_point(zs), r) for zs, r in over[:5]]
    return CheckReport("fail" if over else "pass", worst, tol, witnesses, config)


_POINTS_PER_COMPONENT = 50


def symmetry_check(f, tol: float = 1e-9, seed: int = DEFAULT_SEED) -> CheckReport:
    """Sample the symmetry formula at 50 seeded points of C+^n and at their
    2^n reflections, one in each connected component (`_orbit_samples`)."""
    _integer(seed, "seed", 0)
    return _sampled_report(
        _orbit_samples(_on_coords(f, f.dimension), f.dimension, seed),
        tol,
        {"points_per_component": _POINTS_PER_COMPONENT, "seed": seed},
    )


def _orbit_samples(g, n: int, seed: int):
    """(reflection, symmetry residual) for each of the 2^n reflections of
    each seeded point z of C+^n, orbit by orbit, reflections in bitmask order.

    The symmetry sums of an orbit read g only where every coordinate is i,
    z_j or conj z_j, not all i: 3^n - 1 points, each evaluated once and
    indexed by its base-3 digits (0, 1, 2 for i, z_j, conj z_j).  Every
    residual sums its terms in `symmetry_sum`'s order, so it is
    `symmetry_residual` at its reflection to the bit.
    """
    rng = np.random.default_rng(seed)
    signs, table = _orbit_table(n)
    for _ in range(_POINTS_PER_COMPONENT):
        z = _random_point(rng, (1,) * n, 3.0, (0.1, 3.0))
        points = _reflections([(1j, c, c.conjugate()) for c in z])
        values = [None] + [g(w) for w in points[1:]]  # i*1 is never read
        conj = [None] + [v.conjugate() for v in values[1:]]
        for own, terms in table:
            total = 0j
            for sign, k in zip(signs, terms):
                total += sign * conj[k]
            yield points[own], abs(complex(values[own]) - total)


@functools.lru_cache(maxsize=MAX_DIMENSION)
def _orbit_table(n: int) -> tuple:
    """(signs, table) of the symmetry sums of an orbit.

    `signs` holds the sign -(-1)^|B| of each nonempty B in bitmask order.
    `table` holds, for each reflection mask M (bit j: conj z_j on axis j)
    in bitmask order, the base-3 index of the reflection and the indices
    of its terms Psi_B(i*1, reflection), B in bitmask order, whose axis j
    in B takes the conjugate of the reflection's coordinate: z_j where M
    conjugates it, conj z_j elsewhere.
    """
    table = []
    for m in range(1 << n):
        conjugated = [m >> j & 1 for j in range(n)]
        own = sum((1 + c) * 3**j for j, c in enumerate(conjugated))
        terms = tuple(
            sum((2 - c) * 3**j for j, c in enumerate(conjugated) if b >> j & 1)
            for b in range(1, 1 << n)
        )
        table.append((own, terms))
    return tuple(-s for s in _SIGNS[n][1:]), tuple(table)


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
    g = _on_coords(f, n)
    for signs in itertools.product((1, -1), repeat=n):
        upper = [j for j, s in enumerate(signs) if s == 1]
        if not 0 < len(upper) < n:
            continue
        for k in range(len(_LOWER_BASES)):
            coords = [_LOWER_BASES[(k + j) % len(_LOWER_BASES)] for j in range(n)]
            for p in range(probes):
                for j in upper:
                    coords[j] = _UPPER_PROBES[(p + j) % len(_UPPER_PROBES)]
                zs = tuple(coords)
                value = complex(g(zs))
                if p:
                    yield zs, abs(value - first)
                else:
                    first = value


def _probe_points(n: int, samples: int, seed: int):
    """A fixed C+^n grid, then `samples` seeded log-uniform points, as tuples.

    The grid is the 35-value axis to the power n for n <= 2; for n > 2 it
    is the 6-value axis, which holds i, on each pair of axes, the others at
    i, each point once in first-seen order: 1 + 5n + 25 * C(n, 2) points,
    not 6^n.
    """
    if n <= 2:
        res = (-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 4.0)
        axis = [complex(x, y) for x in res for y in (0.1, 0.5, 1.0, 2.0, 4.0)]
        yield from itertools.product(axis, repeat=n)
    else:
        axis = [complex(x, y) for x in (-2.0, 0.0, 2.0) for y in (0.1, 1.0)]
        grid = {}
        for j, k in itertools.combinations(range(n), 2):
            for a, b in itertools.product(axis, repeat=2):
                zs = [1j] * n
                zs[j], zs[k] = a, b
                grid[tuple(zs)] = None
        yield from grid
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        yield _random_point(rng, (1,) * n, 6.0, (0.05, 10.0))


_POSITIVITY_SAMPLES = 200


def _deficit(im: float) -> float:
    """max(0, -im), and NaN for a NaN im (which max would drop)."""
    return im if math.isnan(im) else max(0.0, -im)


def positivity_check(f, tol: float = 1e-12, seed: int = DEFAULT_SEED) -> CheckReport:
    """Sampled Im f >= 0 on C+^n, on a grid and 200 seeded points; a point's
    residual is max(0, -Im f), so roundoff below `tol` passes, and NaN where
    Im f is NaN, so that it fails."""
    _integer(seed, "seed", 0)
    g = _on_coords(f, f.dimension)
    points = _probe_points(f.dimension, _POSITIVITY_SAMPLES, seed)
    return _sampled_report(
        ((zs, _deficit(complex(g(zs)).imag)) for zs in points),
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
    z = _point(z)
    # B' as a bitmask: the axes whose coordinate lies in the lower half-plane
    within = sum(1 << j for j, c in enumerate(z.coords) if c.imag < 0)
    if not within:
        raise InvalidArgumentError(
            "point lies in C+^n; evaluate the function directly"
        )
    return symmetry_sum(_on_coords(f_upper, z.n), z.coords, within)


# ---------------------------------------------------------------------------
# Non-tangential growth limits

class StoltzResult:
    """`estimate` and `samples` come from the given base's ray alone; the
    alternate bases add their distance to it (`base_spread`, the largest)
    and their convergence.

    `samples`, f(z)/z_j at every radius of the ray from the given base, is
    kept as the bytes of a complex array and read back as a tuple of
    complex, bit for bit.  Ten boxed values and their tuple took about 440
    of a result's 590 bytes, packed they take 193, and a caller that keeps
    a stream of limits keeps them all.  Construction, attributes, repr and
    equality are those of the dataclass this was.
    """

    __slots__ = ("estimate", "converged", "direction", "axis", "base_spread", "_samples",
                 "limits")
    _FIELDS = ("estimate", "converged", "direction", "axis", "base_spread", "samples", "limits")
    __match_args__ = _FIELDS
    __hash__ = None

    def __init__(self, estimate: complex, converged: bool, direction: str, axis: int,
                 base_spread: float, samples: tuple, limits: LimitConfig):
        self.estimate = estimate
        self.converged = converged
        self.direction = direction
        self.axis = axis
        self.base_spread = base_spread
        self.samples = samples
        self.limits = limits

    @property
    def samples(self) -> tuple:
        return tuple(np.frombuffer(self._samples, complex).tolist())

    @samples.setter
    def samples(self, values) -> None:
        self._samples = np.array(values, dtype=complex).tobytes()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

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
    the non-j coordinates.  Every ray's final extrapolant and convergence
    read its last order + 2 values alone, so each ray's tableau is built
    on those.  The base's ray is evaluated at every radius, for `samples`;
    a ray of fewer than order + 2 radii reaches the column it can and
    never converges.  Alternate k sets non-j coordinate i to
    `_ALT_BASE_COORDS[(k + i) % 4]`: at most 4 are distinct, and for n = 1
    each is the base.  Each distinct one that differs from the base is
    evaluated once, at the last order + 2 radii.  The ray points and steps
    come with `cfg`, computed once.
    """
    _config(cfg, LimitConfig)
    if direction not in ("upper", "lower"):
        raise InvalidArgumentError("direction must be 'upper' or 'lower'")
    n = f.dimension
    _integer(j, "axis", 1, n)
    _integer(base_alternates, "base_alternates", 0)
    jj = j - 1
    base = _point(base)
    # the ray and its steps 1/r are shared by the base and its alternates
    ray = cfg._upper_ray if direction == "upper" else cfg._lower_ray
    last = _EXTRAPOLATION_ORDER + 2
    steps = cfg._steps[-last:]
    g = _on_coords(f, base.n)

    def along(coords, radii):
        """(final extrapolant, converged, f(z)/z_j) on the last `radii` radii."""
        head, tail = coords[:jj], coords[jj + 1 :]
        values = [g(head + (zj,) + tail) / zj for zj in ray[-radii:]]
        running, converged = _extrapolate(values[-last:], steps, _STOLTZ_TOL)
        return running[-1], converged, values

    est, converged, values = along(base.coords, len(ray))
    alts = _ALT_BASE_COORDS
    others = dict.fromkeys(
        tuple(base.coords[i] if i == jj else alts[(k + i) % len(alts)] for i in range(n))
        for k in range(base_alternates)
    )
    others.pop(base.coords, None)
    limits = [along(coords, last)[:2] for coords in others]
    spread = max([0.0] + [abs(e - est) for e, _ in limits])
    converged = converged and all(c for _, c in limits)
    return StoltzResult(est, converged, direction, j, spread, tuple(values), cfg)


# ---------------------------------------------------------------------------
# Characterization verdict

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
#: A verdict of several parts is the first of theirs in this order.
_PRECEDENCE = ("inconclusive", "fail", "pass").index


def characterize(
    f, cfg: LimitConfig = DEFAULT_LIMITS, seed: int = DEFAULT_SEED
) -> CharacterizeResult:
    """Decide whether f is the symmetric extension of a Herglotz function.

    Extracts the linear growth d_j from both Stoltz directions (gating
    step), then checks sampled positivity on f and symmetry plus variable
    non-dependence on f - sum d_j z_j, each at its default tolerance, once
    every axis passes.  The axes, then the sub-checks, combine by one rule
    (`_PRECEDENCE`): any inconclusive part makes the verdict inconclusive.
    """
    _integer(seed, "seed", 0)
    _config(cfg, LimitConfig)
    n = f.dimension
    base = _point((_CHARACTERIZE_BASE,) * n)
    d = []
    limit_info = {}
    gate = []
    for j in range(1, n + 1):
        up = stoltz_limit(f, j, base, cfg, "upper")
        low = stoltz_limit(f, j, base, cfg, "lower")
        spread = max(up.base_spread, low.base_spread)
        converged = up.converged and low.converged
        limit_info[f"axis_{j}"] = {
            "upper": [up.estimate.real, up.estimate.imag],
            "lower": [low.estimate.real, low.estimate.imag],
            "base_spread": spread,
            "converged": converged,
        }
        dj = 0.5 * (up.estimate + low.estimate)
        if not converged:
            gate.append("inconclusive")
            d.append(float("nan"))
        elif (abs(up.estimate - low.estimate) > _D_TOL or spread > _D_TOL
              or abs(dj.imag) > _D_TOL or dj.real < -_D_TOL):
            gate.append("fail")
            d.append(dj.real)
        else:
            gate.append("pass")
            d.append(0.0 if abs(dj.real) < _D_TOL else dj.real)
    reports = {"limits": limit_info}
    verdict = min(gate, key=_PRECEDENCE)
    if verdict == "pass":
        shifted = f if all(dj == 0.0 for dj in d) else _Affine(f, 0.0, tuple(-dj for dj in d))
        checks = {
            "positivity": positivity_check(f, seed=seed),
            "symmetry": symmetry_check(shifted, seed=seed),
            "nondependence": nondependence_test(shifted),
        }
        reports.update(checks)
        verdict = min((r.verdict for r in checks.values()), key=_PRECEDENCE)
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


def _decay(x: tuple) -> float:
    """prod_j (1 + x_j^2)^-1: phi_cauchy, and the bound of every test function over D."""
    p = 1.0
    for v in x:
        p *= 1.0 / (1.0 + v * v)
    return p


def phi_cauchy(n: int) -> TestFunction:
    _dimension(n, "phi dimension", InvalidArgumentError)
    return TestFunction(f"cauchy{n}d", n, 1.0, _decay)


def phi_gaussian(n: int, sigma: float = 1.0) -> TestFunction:
    _dimension(n, "phi dimension", InvalidArgumentError)
    _real(sigma, "sigma", 0, open_lo=True)
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
        if not abs(phi(x)) <= phi.bound_constant * _decay(x) * (1.0 + 1e-9) + 1e-300:  # NaN fails
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
    function's `measure`, when it has one.  The callers have checked cfg
    and quad."""
    n = phi.dimension
    if f.dimension != n:
        raise InvalidArgumentError("test function and function dimensions differ")
    _real(conv_tol, "tolerance", 0, open_lo=True)
    _spot_check_bound(phi)
    mu = getattr(f, "measure", None)
    phi_at = phi.func

    raw = []
    for y in cfg.y_sequence:

        def integrand(x, y=y):
            return phi_at(x) * boundary(x, y)

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
    _config(cfg, LimitConfig)
    _config(quad, QuadratureConfig)
    h = _on_coords(h_upper, phi.dimension)

    def im_h(x, y):
        return h(tuple(complex(v, y) for v in x)).imag

    return _stieltjes(h_upper, im_h, phi, cfg, quad, conv_tol, "classic")


def alternating_boundary_sum(g, x: tuple, y: float) -> complex:
    """(1/2i) sum_B (-1)^|B| g(Psi_B(x+iy, x+iy)) at finite real x.

    y is checked by `core._height`, and each entry of x by `_real`'s rule
    (`core._real_vector`); the length of x is left to g, as at every
    `analysis` entry.  The ladder point and its reflections are then
    evaluated unchecked, as coordinate tuples (`_boundary_sum`).
    """
    _height(y)
    x = _sequence(x, "x")
    return _boundary_sum(_on_coords(g, len(x)), _real_vector(x, len(x)), y)


def _boundary_sum(g_at, x: tuple, y: float) -> complex:
    """`alternating_boundary_sum` unchecked, for g on coordinate tuples."""
    return alternating_sum(g_at, tuple([complex(v, y) for v in x])) / 2j


def stieltjes_cauchy_type(
    g,
    phi: TestFunction,
    cfg: LimitConfig = DEFAULT_LIMITS,
    quad: QuadratureConfig = _INVERSION_QUAD,
    conv_tol: float = 5e-4,
) -> InversionResult:
    """Recover integral phi dmu of a Cauchy-type function's defining measure
    from its values on all 2^n components.  g is resolved on coordinate
    tuples once; every boundary value is the unchecked `_boundary_sum`, as
    the ladder is valid by `LimitConfig`'s checks and x comes from the
    quadrature."""
    _config(cfg, LimitConfig)
    _config(quad, QuadratureConfig)
    g_at = _on_coords(g, phi.dimension)

    def boundary(x, y):
        # looked up at call time, so a wrapper patched onto the module sees it
        return _boundary_sum(g_at, x, y)

    return _stieltjes(g, boundary, phi, cfg, quad, conv_tol, "alternating")
