"""Points are validated once, where they enter the library.

The reflection sums, the Stoltz rays, the Stieltjes ladder and the samples
of the three sampled checks evaluate their coordinate tuples through each
function's private `_at`, and build no point; a check builds one only for
each witness its report returns.  The oracles below are the validated, generator-based forms
they replace: every derived point goes through `CutPlanePoint` and the
public call, every reflection is rebuilt coordinate by coordinate.  The
results must agree to the bit (repr-equal).
"""

import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyherglotz import (
    F4_DEFINING_MEASURE,
    MU2,
    CauchyTypeFunction,
    CutPlanePoint,
    HerglotzFunction,
    HerglotzTriple,
    InvalidArgumentError,
    LebesgueScaled,
    LimitConfig,
    analysis,
    catalogue,
    phi_cauchy,
    restrict_to_upper,
    stieltjes_cauchy_type,
)
from polyherglotz.analysis import (
    _EXTRAPOLATION_ORDER,
    _INVERSION_QUAD,
    DEFAULT_LIMITS,
    _stieltjes,
    CheckReport,
    alternating_boundary_sum,
    characterize,
    full_symmetry_sum,
    nondependence_test,
    positivity_check,
    reconstruct_from_upper,
    richardson_tableau,
    stieltjes_classic,
    stoltz_limit,
    symmetry_check,
    symmetry_residual,
)
from polyherglotz.core import _Function
from polyherglotz.functions import ClosedFormFunction, UpperRestriction, _Affine
from conftest import count_calls

# --- oracles -----------------------------------------------------------------


def _validated(f):
    return lambda w: complex(f(CutPlanePoint(w)))


def oracle_symmetry_sum(f, z, within=None):
    n = len(z)
    if within is None:
        within = (1 << n) - 1
    total = 0j
    for mask in range(1, 1 << n):
        if mask & ~within:
            continue
        refl = tuple(z[j].conjugate() if mask >> j & 1 else 1j for j in range(n))
        sign = 1.0 if mask.bit_count() & 1 else -1.0
        total += sign * f(refl).conjugate()
    return total


def oracle_alternating_sum(f, z):
    n = len(z)
    total = 0j
    for mask in range(1 << n):
        refl = tuple(z[j].conjugate() if mask >> j & 1 else z[j] for j in range(n))
        sign = -1.0 if mask.bit_count() & 1 else 1.0
        total += sign * f(refl)
    return total


def oracle_boundary_sum(g, x, y):
    z = tuple(complex(v, y) for v in x)
    return oracle_alternating_sum(_validated(g), z) / 2j


def oracle_reconstruct(f_upper, z):
    # B' = the axes whose coordinate lies in the lower half-plane
    bprime = [j + 1 for j, c in enumerate(z.coords) if c.imag < 0]
    within = sum(1 << (j - 1) for j in bprime)
    return oracle_symmetry_sum(_validated(f_upper), z.coords, within)


def oracle_ray(f, j, base_coords, cfg, direction, conv_tol):
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
    cols = richardson_tableau(values, [1.0 / r for r in cfg.radius_sequence], 2)
    top = cols[-1]
    converged = len(top) >= 2 and abs(top[-1] - top[-2]) <= conv_tol
    return top[-1], converged, values


def oracle_stoltz(f, j, base, direction, conv_tol=1e-7, base_alternates=3, cfg=DEFAULT_LIMITS):
    jj, n = j - 1, f.dimension
    est, converged, values = oracle_ray(f, jj, base, cfg, direction, conv_tol)
    spread = 0.0
    alts = analysis._ALT_BASE_COORDS
    for k in range(base_alternates):
        alt = tuple(base[i] if i == jj else alts[(k + i) % len(alts)] for i in range(n))
        alt_est, alt_conv, _ = oracle_ray(f, jj, alt, cfg, direction, conv_tol)
        converged = converged and alt_conv
        spread = max(spread, abs(alt_est - est))
    return est, converged, spread, values


# --- bit identity --------------------------------------------------------------

FUNCTIONS = {
    "f2": catalogue("f2"),
    "f4": catalogue("f4"),
    "lambda2": CauchyTypeFunction(LebesgueScaled(1.0, 2)),
    "lambda3": CauchyTypeFunction(LebesgueScaled(1.0, 3)),
    **{
        f"herglotz{n}": HerglotzFunction(
            HerglotzTriple(0.3, (0.0, 2.0, 0.5)[:n], LebesgueScaled(1.0, n))
        )
        for n in (1, 2, 3)
    },
}


def seeded_point(rng, signs):
    return tuple(
        complex(rng.uniform(-3, 3), s * np.exp(rng.uniform(-2.5, 1.0))) for s in signs
    )


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_reflection_sums_are_bit_identical(name):
    f = FUNCTIONS[name]
    n = f.dimension
    upper = restrict_to_upper(f)
    rng = np.random.default_rng(20261018)
    for _ in range(8):
        x = tuple(rng.uniform(-3, 3, n))
        y = float(np.exp(rng.uniform(-9, 1)))
        assert repr(alternating_boundary_sum(f, x, y)) == repr(oracle_boundary_sum(f, x, y))

        z = CutPlanePoint(seeded_point(rng, rng.choice([-1, 1], n)))
        assert repr(full_symmetry_sum(f, z)) == repr(
            oracle_symmetry_sum(_validated(f), z.coords)
        )
        if not z.is_upper():
            assert repr(reconstruct_from_upper(upper, z)) == repr(
                oracle_reconstruct(upper, z)
            )


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_stoltz_limits_are_bit_identical(name):
    f = FUNCTIONS[name]
    n = f.dimension
    rng = np.random.default_rng(1729)
    for k in range(2):
        base = seeded_point(rng, (1,) * n)
        j = 1 + k % n
        for direction in ("upper", "lower"):
            s = stoltz_limit(f, j, base, direction=direction)
            got = (s.estimate, s.converged, s.base_spread, list(s.samples))
            assert repr(got) == repr(oracle_stoltz(f, j, base, direction))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_stoltz_limits_match_the_full_oracle_at_every_alternate_count(name):
    """The oracle evaluates every alternate's full ray, duplicates and
    copies of the base included; the second base makes alternate 0 a copy."""
    f = FUNCTIONS[name]
    n = f.dimension
    seeded = seeded_point(np.random.default_rng(7), (1,) * n)
    for base in (seeded, analysis._ALT_BASE_COORDS[:n]):
        for alternates in range(10):
            j = 1 + alternates % n
            for direction in ("upper", "lower"):
                s = stoltz_limit(
                    f, j, base, direction=direction, base_alternates=alternates
                )
                got = (s.estimate, s.converged, s.base_spread, list(s.samples))
                want = oracle_stoltz(f, j, base, direction, base_alternates=alternates)
                assert repr(got) == repr(want), (base, alternates, direction)


#: Rays beyond `DEFAULT_LIMITS`: 1, 2 and 3 radii, fewer than order + 2,
#: which reach the column they can and never converge; quartering radii;
#: irregular increasing radii, two of them close; and a narrower sector.
ORACLE_LIMITS = {
    "1 radius": LimitConfig(radius_sequence=(8.0,)),
    "2 radii": LimitConfig(radius_sequence=(8.0, 16.0)),
    "3 radii": LimitConfig(radius_sequence=(8.0, 16.0, 32.0)),
    "quartering": LimitConfig(radius_sequence=tuple(4.0**k for k in range(2, 8))),
    "irregular": LimitConfig(radius_sequence=(3.0, 7.5, 11.0, 40.0, 41.5, 130.0, 1000.0)),
    "angle 0.3": LimitConfig(stoltz_angle=0.3),
}


@pytest.mark.parametrize("limits", sorted(ORACLE_LIMITS))
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_stoltz_limits_match_the_oracle_on_other_rays(name, limits):
    f, cfg = FUNCTIONS[name], ORACLE_LIMITS[limits]
    n = f.dimension
    rng = np.random.default_rng(31)
    for k, alternates in enumerate((0, 3, 9)):
        base = seeded_point(rng, (1,) * n)
        j = 1 + k % n
        for direction in ("upper", "lower"):
            s = stoltz_limit(f, j, base, cfg, direction, alternates)
            got = (s.estimate, s.converged, s.base_spread, list(s.samples))
            want = oracle_stoltz(f, j, base, direction, base_alternates=alternates, cfg=cfg)
            assert repr(got) == repr(want), (alternates, direction)
            if len(cfg.radius_sequence) < _EXTRAPOLATION_ORDER + 2:
                assert not s.converged


# --- work counts -----------------------------------------------------------------


def count_points(monkeypatch):
    """Record the coordinates of every `CutPlanePoint` built, validated or
    not: each construction sets the `coords` slot."""
    built = []
    slot = CutPlanePoint.__dict__["coords"]

    class Counting:
        def __get__(self, obj, owner=None):
            return slot if obj is None else slot.__get__(obj, owner)

        def __set__(self, obj, value):
            built.append(value)
            slot.__set__(obj, value)

    monkeypatch.setattr(CutPlanePoint, "coords", Counting())
    return built


def test_boundary_sum_validates_no_point(monkeypatch):
    built = count_points(monkeypatch)
    value = alternating_boundary_sum(catalogue("f2"), (0.3, -0.2), 0.01)
    assert built == [] and value != 0


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_evaluation_at_a_point_validates_no_point(monkeypatch, name):
    f = FUNCTIONS[name]
    z = CutPlanePoint((0.4 + 1.2j, -0.7 - 0.3j, 1.1 + 0.6j)[: f.dimension])
    built = count_points(monkeypatch)
    f(z)
    assert built == []


def test_stoltz_limit_validates_only_its_base(monkeypatch):
    f2 = catalogue("f2")
    base = CutPlanePoint((0.5 + 1.1j, -0.3 + 0.7j))
    built = count_points(monkeypatch)
    assert stoltz_limit(f2, 1, base).converged
    assert built == []
    stoltz_limit(f2, 2, base.coords, direction="lower")
    assert set(built) == {base.coords}


@pytest.mark.parametrize(
    "name, alternates, calls",
    [
        ("f2", 0, 10),
        ("f2", 3, 22),
        ("f2", 9, 26),
        ("lambda3", 9, 26),
        ("herglotz1", 3, 10),
        ("herglotz1", 9, 10),
    ],
)
def test_stoltz_limit_evaluates_each_distinct_ray_once(monkeypatch, name, alternates, calls):
    """The base's 10 radii, and the last 4 of each distinct alternate: at
    most 4 differ from each other, and in one variable all are the base."""
    f = FUNCTIONS[name]
    seen = count_calls(monkeypatch, f, "_at")
    base = (0.5 + 1.1j, -0.3 + 0.7j, 1.2 + 0.4j)[: f.dimension]
    stoltz_limit(f, 1, base, base_alternates=alternates)
    assert len(seen) == calls


def test_inversion_row_validates_no_point(monkeypatch):
    built = count_points(monkeypatch)
    values = count_calls(monkeypatch, analysis, "_boundary_sum")
    res = stieltjes_cauchy_type(
        catalogue("f2"), phi_cauchy(2), LimitConfig(y_sequence=(0.5,))
    )
    assert len(res.rows) == 1 and len(values) > 1000
    assert built == []


def test_an_inversion_resolves_its_function_once(monkeypatch):
    resolved = count_calls(monkeypatch, analysis, "_on_coords")
    one_row = LimitConfig(y_sequence=(0.5,))
    stieltjes_cauchy_type(catalogue("f2"), phi_cauchy(2), one_row)
    assert len(resolved) == 1
    stieltjes_classic(restrict_to_upper(catalogue("f4")), phi_cauchy(2), one_row)
    assert len(resolved) == 2


@pytest.mark.parametrize("alternates", [0, 3, 9])
def test_each_stoltz_ray_extrapolates_its_last_values(monkeypatch, alternates):
    """The base ray and every distinct alternate hand the tableau their
    last order + 2 values, though the base is evaluated at all 10 radii."""
    ladders = count_calls(monkeypatch, analysis, "_extrapolate")
    s = stoltz_limit(catalogue("f2"), 1, (0.5 + 1.1j, -0.3 + 0.7j), base_alternates=alternates)
    assert len(s.samples) == 10
    assert len(ladders) == 1 + min(alternates, 4)
    assert all(len(args[0]) == _EXTRAPOLATION_ORDER + 2 for args, _ in ladders)


@pytest.mark.parametrize("radii", [(8.0,), (8.0, 16.0), (8.0, 16.0, 32.0)])
def test_a_short_stoltz_ray_reaches_the_column_it_can(radii):
    """Fewer than order + 2 radii: the last entry of the tableau's last
    column, never converged."""
    f2, base = catalogue("f2"), (0.5 + 1.1j, -0.3 + 0.7j)
    s = stoltz_limit(f2, 2, base, LimitConfig(radius_sequence=radii), base_alternates=0)
    top = richardson_tableau(s.samples, [1.0 / r for r in radii], _EXTRAPOLATION_ORDER)[-1]
    assert repr(s.estimate) == repr(top[-1]) and not s.converged


def test_limit_config_rays_are_not_fields():
    cfg = LimitConfig(stoltz_angle=0.5, radius_sequence=(2.0, 4.0))
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "stoltz_angle", "radius_sequence", "y_sequence"
    ]
    assert repr(cfg) == (
        f"LimitConfig(stoltz_angle=0.5, radius_sequence=(2.0, 4.0), "
        f"y_sequence={DEFAULT_LIMITS.y_sequence!r})"
    )
    assert cfg == LimitConfig(stoltz_angle=0.5, radius_sequence=[2.0, 4.0])
    phase = cmath.exp(0.5j)
    assert cfg._upper_ray == (2.0 * phase, 4.0 * phase)
    assert cfg._lower_ray == (2.0 * phase.conjugate(), 4.0 * phase.conjugate())
    assert cfg._steps == (0.5, 0.25)
    assert (cfg._upper_tail, cfg._lower_tail, cfg._tail_steps) == (
        cfg._upper_ray, cfg._lower_ray, cfg._steps
    )
    tail = -(_EXTRAPOLATION_ORDER + 2)
    assert DEFAULT_LIMITS._upper_tail == DEFAULT_LIMITS._upper_ray[tail:]
    assert DEFAULT_LIMITS._lower_tail == DEFAULT_LIMITS._lower_ray[tail:]
    assert DEFAULT_LIMITS._tail_steps == DEFAULT_LIMITS._steps[tail:]
    moved = dataclasses.replace(cfg, stoltz_angle=0.25)
    assert moved._upper_ray == (2.0 * cmath.exp(0.25j), 4.0 * cmath.exp(0.25j))


# --- `_at` is the public call ------------------------------------------------------

AT_FUNCTIONS = {
    **{f"f{k}": catalogue(f"f{k}") for k in range(8)},
    "lambda2": CauchyTypeFunction(LebesgueScaled(1.0, 2)),
    "lambda3": CauchyTypeFunction(LebesgueScaled(1.0, 3)),
    "mu2": CauchyTypeFunction(MU2),
    "f4_defining": CauchyTypeFunction(F4_DEFINING_MEASURE),
    "herglotz3": HerglotzFunction(
        HerglotzTriple(0.3, (0.0, 2.0, 0.5), LebesgueScaled(1.0, 3))
    ),
    "f4_upper": restrict_to_upper(catalogue("f4")),
    "f4_shifted": _Affine(catalogue("f4"), 0.0, (-0.5, -2.0)),
}


def outcome(f, arg):
    """repr of f(arg), or the message of the InvalidArgumentError it raises."""
    try:
        return repr(f(arg))
    except InvalidArgumentError as e:
        return f"InvalidArgumentError: {e}"


def upper_coords(n):
    part = st.tuples(st.floats(-5, 5), st.floats(0.05, 5)).map(lambda p: complex(*p))
    return st.tuples(*[part] * n)


@pytest.mark.parametrize("name", sorted(AT_FUNCTIONS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_at_is_the_public_call_on_every_component(name, data):
    f = AT_FUNCTIONS[name]
    z = data.draw(upper_coords(f.dimension))
    for mask in range(1 << f.dimension):
        w = tuple(c.conjugate() if mask >> j & 1 else c for j, c in enumerate(z))
        assert outcome(f._at, w) == outcome(f, CutPlanePoint(w)), mask


class Foreign:
    """A function from outside the library: a dimension and a public call,
    no `_at`.  It records the points it is called with."""

    dimension = 2

    def __init__(self, f):
        self.f = f
        self.seen = []

    def __call__(self, z):
        self.seen.append(z)
        return self.f(z)


def test_a_function_without_at_sees_only_validated_points():
    f2 = catalogue("f2")
    g = Foreign(f2)
    base = CutPlanePoint((0.5 + 1.1j, -0.3 + 0.7j))
    assert repr(alternating_boundary_sum(g, (0.3, -0.2), 0.01)) == repr(
        alternating_boundary_sum(f2, (0.3, -0.2), 0.01)
    )
    s, t = stoltz_limit(g, 2, base), stoltz_limit(f2, 2, base)
    assert repr((s.estimate, s.samples)) == repr((t.estimate, t.samples))
    z = CutPlanePoint((0.2 - 0.4j, 1.0 + 0.3j))
    assert repr(reconstruct_from_upper(restrict_to_upper(g), z)) == repr(
        reconstruct_from_upper(restrict_to_upper(f2), z)
    )
    # the base's full ray, and the last order + 2 radii of each of 3 alternates
    rays = len(DEFAULT_LIMITS.radius_sequence) + 3 * (_EXTRAPOLATION_ORDER + 2)
    assert len(g.seen) == 4 + rays + 1
    assert all(type(p) is CutPlanePoint for p in g.seen)


# --- parent oracles: whole inversions and seeded growth limits ----------------------


def test_inversions_are_bit_identical():
    phi = phi_cauchy(2)
    f2 = catalogue("f2")
    got = stieltjes_cauchy_type(f2, phi)
    want = _stieltjes(
        f2, lambda x, y: oracle_boundary_sum(f2, x, y), phi,
        DEFAULT_LIMITS, _INVERSION_QUAD, 5e-4, "alternating",
    )
    assert got.converged and repr((got.estimate, got.rows)) == repr(
        (want.estimate, want.rows)
    )

    f4u = restrict_to_upper(catalogue("f4"))

    def im_h(x, y):
        return complex(f4u(CutPlanePoint(tuple(complex(v, y) for v in x)))).imag

    got = stieltjes_classic(f4u, phi)
    want = _stieltjes(f4u, im_h, phi, DEFAULT_LIMITS, _INVERSION_QUAD, 5e-4, "classic")
    assert got.converged and repr((got.estimate, got.rows)) == repr(
        (want.estimate, want.rows)
    )


STOLTZ_FUNCTIONS = [catalogue(f"f{k}") for k in range(8)] + [
    FUNCTIONS["lambda2"],
    FUNCTIONS["herglotz2"],
    FUNCTIONS["herglotz3"],
    restrict_to_upper(catalogue("f4")),
]


def test_hundred_seeded_stoltz_limits_are_bit_identical():
    rng = np.random.default_rng(20261019)

    def limit(f, j, base, direction, alternates):
        s = stoltz_limit(
            f, j, CutPlanePoint(base), direction=direction, base_alternates=alternates
        )
        return s.estimate, s.converged, s.base_spread, list(s.samples)

    for k in range(100):
        f = STOLTZ_FUNCTIONS[k % len(STOLTZ_FUNCTIONS)]
        n = f.dimension
        base = seeded_point(rng, (1,) * n)
        j = int(rng.integers(1, n + 1))
        direction = ("upper", "lower")[int(rng.integers(2))]
        alternates = int(rng.integers(0, 4))
        got = outcome(lambda a: limit(f, j, base, direction, a), alternates)
        want = outcome(
            lambda a: oracle_stoltz(f, j, base, direction, base_alternates=a), alternates
        )
        assert got == want, k


# --- the sampled checks -------------------------------------------------------------
#
# Each oracle builds a `CutPlanePoint` for every sample and calls the public
# function on it, as the checks did before they evaluated coordinate tuples.


def oracle_report(samples, tol, config):
    """The verdict of (point, residual) samples: worst first, NaN worst."""
    rank = lambda r: (math.isnan(r), r)
    worst = max([0.0] + [r for _, r in samples], key=rank)
    over = sorted(
        [(z, r) for z, r in samples if not r <= tol], key=lambda w: rank(w[1]), reverse=True
    )
    return CheckReport("fail" if over else "pass", worst, tol, over[:5], config)


def oracle_symmetry_residual(f, z):
    return abs(complex(f(z)) - oracle_symmetry_sum(_validated(f), z.coords))


def oracle_symmetry_check(f, tol=1e-9, seed=analysis.DEFAULT_SEED):
    """50 seeded points of C+^n, each with its 2^n reflections in bitmask
    order, every reflection's residual computed alone: nothing is shared."""
    n = f.dimension
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(50):
        base = []
        for _ in range(n):
            x = rng.uniform(-3.0, 3.0)
            base.append(complex(x, math.exp(rng.uniform(math.log(0.1), math.log(3.0)))))
        for mask in range(1 << n):
            z = CutPlanePoint(tuple(
                c.conjugate() if mask >> j & 1 else c for j, c in enumerate(base)
            ))
            samples.append((z, oracle_symmetry_residual(f, z)))
    return oracle_report(samples, tol, {"points_per_component": 50, "seed": seed})


def oracle_positivity_check(f, tol=1e-12, seed=analysis.DEFAULT_SEED):
    n = f.dimension
    if n <= 2:
        axis = [complex(x, y) for x in (-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 4.0)
                for y in (0.1, 0.5, 1.0, 2.0, 4.0)]
    else:
        axis = [complex(x, y) for x in (-2.0, 0.0, 2.0) for y in (0.1, 1.0)]
    points = [CutPlanePoint(c) for c in itertools.product(axis, repeat=n)]
    rng = np.random.default_rng(seed)
    for _ in range(200):
        points.append(CutPlanePoint(tuple(
            complex(rng.uniform(-6, 6), math.exp(rng.uniform(math.log(0.05), math.log(10))))
            for _ in range(n)
        )))
    samples = []
    for z in points:
        im = complex(f(z)).imag
        samples.append((z, im if math.isnan(im) else max(0.0, -im)))
    return oracle_report(samples, tol, {"samples": 200, "seed": seed})


def oracle_nondependence_test(f, tol=1e-9):
    lower, upper = analysis._LOWER_BASES, analysis._UPPER_PROBES
    n = f.dimension
    samples = []
    for signs in itertools.product((1, -1), repeat=n):
        up = [j for j, s in enumerate(signs) if s == 1]
        if not 0 < len(up) < n:
            continue
        for k in range(3):
            values = []
            for p in range(5):
                z = CutPlanePoint(tuple(
                    upper[(p + j) % 5] if j in up else lower[(k + j) % 3] for j in range(n)
                ))
                values.append((z, complex(f(z))))
            samples += [(z, abs(v - values[0][1])) for z, v in values[1:]]
    return oracle_report(samples, tol, {"probes": 5})


CHECK_FUNCTIONS = {
    **{f"f{k}": catalogue(f"f{k}") for k in range(8)},
    "mu2": CauchyTypeFunction(MU2),
    "lambda2": CauchyTypeFunction(LebesgueScaled(1.0, 2)),
    "lambda3": CauchyTypeFunction(LebesgueScaled(1.0, 3)),
    "herglotz b=(0,2)": HerglotzFunction(
        HerglotzTriple(0.3, (0.0, 2.0), LebesgueScaled(1.0, 2))
    ),
    "f4_upper": restrict_to_upper(catalogue("f4")),
    "f4_shifted": _Affine(catalogue("f4"), 0.0, (-0.5, -2.0)),
}

CHECKS = {
    "symmetry": (symmetry_check, oracle_symmetry_check),
    "positivity": (positivity_check, oracle_positivity_check),
    "nondependence": (nondependence_test, oracle_nondependence_test),
}


def report_outcome(run, f):
    """(repr of the `to_dict` of run(f), its witnesses), or (the message of
    the InvalidArgumentError it raises, no witnesses)."""
    try:
        report = run(f)
    except InvalidArgumentError as e:
        return f"InvalidArgumentError: {e}", []
    return repr(report.to_dict()), report.witnesses


def count_validations(monkeypatch):
    """The calls of `CutPlanePoint.__post_init__`, one per point built."""
    return count_calls(monkeypatch, CutPlanePoint, "__post_init__")


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("name", sorted(CHECK_FUNCTIONS) + ["foreign"])
def test_sampled_checks_match_the_point_building_oracle(monkeypatch, name, check):
    """The same report to the bit, with a point built for each witness and
    for nothing else; a function without `_at` sees a validated point at
    every sample it is evaluated at.  The symmetry check evaluates each of
    an orbit's 3^2 - 1 distinct points once, 400 evaluations where the
    oracle makes 800."""
    run, oracle = CHECKS[check]
    f = Foreign(catalogue("f2")) if name == "foreign" else CHECK_FUNCTIONS[name]
    want, _ = report_outcome(oracle, f)
    evaluated = len(f.seen) if name == "foreign" else None
    validations = count_validations(monkeypatch)
    got, witnesses = report_outcome(run, f)
    assert got == want
    # the restriction raises off C+^n, as its public call does, and reports nothing
    assert not got.startswith("InvalidArgumentError") or name == "f4_upper"
    assert all(type(z) is CutPlanePoint for z, _ in witnesses)
    witnesses = len(witnesses)
    if name == "foreign":
        ran = len(f.seen) - evaluated
        assert (evaluated, ran) == ((800, 400) if check == "symmetry" else (evaluated, evaluated))
        assert len(validations) == ran + witnesses
        assert all(type(z) is CutPlanePoint for z in f.seen)
    else:
        assert len(validations) == witnesses


def test_the_oracle_cases_include_failures_with_five_witnesses():
    for run, _ in CHECKS.values():
        report = run(CHECK_FUNCTIONS["f0"])
        assert report.verdict == "fail" and len(report.witnesses) == 5


@pytest.mark.parametrize("name", sorted(CHECK_FUNCTIONS) + ["foreign"])
def test_symmetry_residual_matches_the_oracle_and_validates_its_point_once(monkeypatch, name):
    f = Foreign(catalogue("f2")) if name == "foreign" else CHECK_FUNCTIONS[name]
    rng = np.random.default_rng(20261020)
    for _ in range(6):
        coords = seeded_point(rng, rng.choice([-1, 1], f.dimension))
        z = CutPlanePoint(coords)
        want = outcome(lambda w: oracle_symmetry_residual(f, w), z)
        validations = count_validations(monkeypatch)
        assert outcome(lambda w: symmetry_residual(f, w), coords) == want
        # the coordinates become one point; only a function without `_at`
        # has each of the 2^n points it is evaluated at validated again
        evaluated = 1 << f.dimension if name == "foreign" else 0
        assert len(validations) == 1 + evaluated
        monkeypatch.undo()


@pytest.mark.parametrize("fid", [f"f{k}" for k in range(8)] + ["lambda2"])
def test_characterize_builds_its_base_and_its_witnesses(monkeypatch, fid):
    f = CHECK_FUNCTIONS[fid]
    validations = count_validations(monkeypatch)
    result = characterize(f)
    witnesses = sum(
        len(r.witnesses) for r in result.reports.values() if isinstance(r, CheckReport)
    )
    assert len(validations) == 1 + witnesses


@pytest.mark.parametrize(
    "cls",
    [CauchyTypeFunction, HerglotzFunction, ClosedFormFunction, UpperRestriction, _Affine],
    ids=lambda c: c.__name__,
)
def test_call_is_defined_once_in_core(cls):
    """Every family's public call is `_at` of the point it checks."""
    assert issubclass(cls, _Function) and "__call__" not in vars(cls)
    assert cls.__call__ is _Function.__call__
