import math

import numpy as np
import pytest

from polyherglotz import (
    InvalidArgumentError,
    backend_name,
    InvalidPointError,
    kernel_K,
    kernel_K1_closed,
    kernel_symmetry_residual,
    n_factor,
    point,
    poisson,
    poisson_alternating_sum,
)
from conftest import random_cut_point, random_upper_point


def test_k1_trivial_values():
    # K1(i, 0) = 1/(0-i) = i
    assert kernel_K1_closed(1j, 0.0) == 1j
    # K1(i, 1) = 1/(1-i) - 1/2 = i/2
    assert abs(kernel_K1_closed(1j, 1.0) - 0.5j) < 1e-15


def test_k1_rejects_real_z():
    with pytest.raises(InvalidPointError):
        kernel_K1_closed(2.0, 1.0)


def test_product_matches_closed_form_n1(rng):
    # agreement to 4 ulps of the dominant term, or 1e-12 absolute on the
    # moderate domain |z| <= 10, |Im z| >= 0.1 (cancellation near kernel
    # zeros makes a pure value-relative ulp bound unachievable)
    worst_abs = 0.0
    for _ in range(1000):
        z = complex(rng.uniform(-10, 10), rng.choice([-1, 1]) * rng.uniform(0.1, 10))
        t = rng.uniform(-10, 10)
        a = kernel_K((z,), (t,))
        b = kernel_K1_closed(z, t)
        d = abs(a - b)
        scale = max(abs(a), abs(1.0 / (t - z)), abs(t) / (1 + t * t))
        assert d <= max(4 * np.spacing(scale), 1e-12)
        worst_abs = max(worst_abs, d)
    assert worst_abs < 1e-12


def test_kernel_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        kernel_K((1j, 2j), (0.0,))


def test_symmetry_residual_specific():
    # n=2 three-term reflection sum
    assert kernel_symmetry_residual(point(-1j, 3 + 2j), (1.0, -1.0)) < 1e-12
    # n=1 the formula degenerates to K1(z,t) = conj K1(conj z, t)
    assert kernel_symmetry_residual(point(0.7 - 1.9j), (0.3,)) < 1e-15


def test_symmetry_residual_random(rng):
    for n in (1, 2, 3):
        worst = 0.0
        for _ in range(100):
            z = random_cut_point(rng, n)
            t = tuple(rng.uniform(-5, 5, size=n))
            worst = max(worst, kernel_symmetry_residual(z, t))
        assert worst < 1e-11


def test_poisson_value_and_positivity(rng):
    # P((i,2i),(0,0)) = (1*2)/(1*4) = 1/2
    assert abs(poisson(point(1j, 2j), (0.0, 0.0)) - 0.5) < 1e-15
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        z = random_upper_point(rng, n)
        t = tuple(rng.uniform(-5, 5, size=n))
        assert poisson(z, t) > 0.0


def test_poisson_requires_upper():
    with pytest.raises(InvalidArgumentError):
        poisson(point(1j, -2j), (0.0, 0.0))
    with pytest.raises(InvalidArgumentError):
        poisson_alternating_sum(point(-1j), (0.0,))


def test_alternating_sum_specific():
    # 4-term sum at ((i,2i),(0,0)) collapses to 2i * 1/2 = i
    v = poisson_alternating_sum(point(1j, 2j), (0.0, 0.0))
    assert abs(v - 1j) < 1e-14


def test_alternating_sum_matches_poisson(rng):
    for n in (1, 2, 3):
        worst = 0.0
        for _ in range(100):
            z = random_upper_point(rng, n)
            t = tuple(rng.uniform(-5, 5, size=n))
            p = poisson(z, t)
            worst = max(worst, abs(poisson_alternating_sum(z, t) - 2j * p) / p)
        assert worst < 1e-11


def test_n_factor_identities(rng):
    t_vals = rng.uniform(-10, 10, size=100)
    z0 = 0.3 + 0.9j
    for t in t_vals:
        n0 = n_factor(0, z0, t)
        assert n0.imag == 0.0
        # z-independence, exact equality across 10 sampled z
        for _ in range(10):
            z = complex(rng.uniform(-5, 5), rng.choice([-1, 1]) * rng.uniform(0.1, 5))
            assert n_factor(0, z, t) == n0
            assert n_factor(-1, z, t).conjugate() == n_factor(1, z, t)


def test_n_factor_validation():
    with pytest.raises(InvalidArgumentError):
        n_factor(2, 1j, 0.0)
    with pytest.raises(InvalidPointError):
        n_factor(0, 1.0, 0.0)


#: The six kernel entries at a one-variable z, with t = 0.3 on its axis.
ONE_VARIABLE_ENTRIES = {
    "kernel_K1_closed": lambda z: kernel_K1_closed(z, 0.3),
    "n_factor": lambda z: n_factor(1, z, 0.3),
    "kernel_K": lambda z: kernel_K(z, (0.3,)),
    "poisson": lambda z: poisson(z, (0.3,)),
    "kernel_symmetry_residual": lambda z: kernel_symmetry_residual(z, (0.3,)),
    "poisson_alternating_sum": lambda z: poisson_alternating_sum(z, (0.3,)),
}
SCALAR_Z_ENTRIES = ("kernel_K1_closed", "n_factor")


@pytest.mark.parametrize("entry", sorted(ONE_VARIABLE_ENTRIES))
def test_two_kernel_entries_read_a_scalar_z_and_four_take_a_point(entry):
    """kernel_K1_closed and n_factor read a scalar z as the point (z,); the
    other four take a point or its coordinates and refuse a scalar with the
    library's point error."""
    call, z = ONE_VARIABLE_ENTRIES[entry], 0.4 + 1.2j
    scalar, whole = (z, (z,)) if entry in SCALAR_Z_ENTRIES else ((z,), z)
    assert math.isfinite(abs(call(scalar)))
    with pytest.raises(InvalidPointError):
        call(whole)


def test_kernel_K1_closed_is_kernel_K_at_the_point_z():
    z = 0.4 + 1.2j
    assert abs(kernel_K1_closed(z, 0.3) - kernel_K((z,), (0.3,))) < 1e-15


def test_kernel_product_form_n2_consistency(rng):
    # K_2 assembled by hand from A-factors matches kernel_K
    def a_factor(z, t):
        return (1.0 / (t - z) - 1.0 / (t + 1j)) / 2j

    for _ in range(50):
        z = random_cut_point(rng, 2)
        t = tuple(rng.uniform(-5, 5, size=2))
        manual = 1j * (
            2 * a_factor(z.coords[0], t[0]) * a_factor(z.coords[1], t[1])
            - a_factor(1j, t[0]) * a_factor(1j, t[1])
        )
        assert abs(kernel_K(z, t) - manual) < 1e-13


def test_backend_name_reported():
    assert backend_name() == "python"
