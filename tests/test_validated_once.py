"""Points are validated once, where they enter the library.

The reflection sums, the Stoltz rays and the Stieltjes ladder evaluate
their coordinate tuples through each function's private `_at`, and build
no point.  The oracles below are the validated, generator-based forms
they replace: every derived point goes through `CutPlanePoint` and the
public call, every reflection is rebuilt coordinate by coordinate.  The
results must agree to the bit (repr-equal).
"""

import cmath

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
    _INVERSION_QUAD,
    DEFAULT_LIMITS,
    _LinearlyShifted,
    _stieltjes,
    alternating_boundary_sum,
    full_symmetry_sum,
    reconstruct_from_upper,
    richardson_tableau,
    stieltjes_classic,
    stoltz_limit,
)
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


def oracle_stoltz(f, j, base, direction, conv_tol=1e-7, base_alternates=3):
    jj, n = j - 1, f.dimension
    est, converged, values = oracle_ray(f, jj, base, DEFAULT_LIMITS, direction, conv_tol)
    spread = 0.0
    alts = analysis._ALT_BASE_COORDS
    for k in range(base_alternates):
        alt = tuple(base[i] if i == jj else alts[(k + i) % len(alts)] for i in range(n))
        alt_est, alt_conv, _ = oracle_ray(f, jj, alt, DEFAULT_LIMITS, direction, conv_tol)
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


def test_inversion_row_validates_no_point(monkeypatch):
    built = count_points(monkeypatch)
    values = count_calls(monkeypatch, analysis, "alternating_boundary_sum")
    res = stieltjes_cauchy_type(
        catalogue("f2"), phi_cauchy(2), LimitConfig(y_sequence=(0.5,))
    )
    assert len(res.rows) == 1 and len(values) > 1000
    assert built == []


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
    "f4_shifted": _LinearlyShifted(catalogue("f4"), (0.5, 2.0)),
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
    rays = 4 * len(DEFAULT_LIMITS.radius_sequence)
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
