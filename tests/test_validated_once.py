"""Points are validated once, where they enter the library.

The reflection sums, the Stoltz rays and the Stieltjes ladder build their
points unchecked from precomputed coordinates.  The oracles below are the
validated, generator-based forms they replace: every derived point goes
through `CutPlanePoint`, every reflection is rebuilt coordinate by
coordinate.  The results must agree to the bit (repr-equal).
"""

import cmath

import numpy as np
import pytest

from polyherglotz import (
    CauchyTypeFunction,
    CutPlanePoint,
    HerglotzFunction,
    HerglotzTriple,
    LebesgueScaled,
    LimitConfig,
    analysis,
    catalogue,
    phi_cauchy,
    restrict_to_upper,
    stieltjes_cauchy_type,
)
from polyherglotz.analysis import (
    DEFAULT_LIMITS,
    alternating_boundary_sum,
    full_symmetry_sum,
    reconstruct_from_upper,
    richardson_tableau,
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


def test_boundary_sum_validates_no_point(monkeypatch):
    points = count_calls(monkeypatch, CutPlanePoint, "__post_init__")
    value = alternating_boundary_sum(catalogue("f2"), (0.3, -0.2), 0.01)
    assert points == [] and value != 0


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_evaluation_at_a_point_validates_no_point(monkeypatch, name):
    f = FUNCTIONS[name]
    z = CutPlanePoint((0.4 + 1.2j, -0.7 - 0.3j, 1.1 + 0.6j)[: f.dimension])
    points = count_calls(monkeypatch, CutPlanePoint, "__post_init__")
    f(z)
    assert points == []


def test_stoltz_limit_validates_only_its_base(monkeypatch):
    f2 = catalogue("f2")
    base = CutPlanePoint((0.5 + 1.1j, -0.3 + 0.7j))
    points = count_calls(monkeypatch, CutPlanePoint, "__post_init__")
    stoltz_limit(f2, 1, base)
    assert points == []
    stoltz_limit(f2, 2, base.coords, direction="lower")
    assert len(points) == 1


def test_inversion_row_validates_no_point(monkeypatch):
    points = count_calls(monkeypatch, CutPlanePoint, "__post_init__")
    values = count_calls(monkeypatch, analysis, "alternating_boundary_sum")
    res = stieltjes_cauchy_type(
        catalogue("f2"), phi_cauchy(2), LimitConfig(y_sequence=(0.5,))
    )
    assert len(res.rows) == 1 and len(values) > 1000
    assert points == []
