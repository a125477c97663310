"""The sampled checks evaluate each point they read once.

The symmetry check draws 50 seeded points of C+^n and checks the 2^n
reflections of each.  Their symmetry sums read a function only where every
coordinate is i, z_j or conj z_j, and never at i*1: 3^n - 1 points per
orbit, each evaluated once, and each reflection's residual is
`symmetry_residual` at that reflection, to the bit.  The positivity grid
is the 35-value axis to the power n for n <= 2 and the 6-value axis on each
pair of axes for n > 2, each distinct point once, so it grows polynomially
in n.  Every check reads
its tolerance and seed before it evaluates anything.
"""

import math

import pytest

from polyherglotz import (
    F4_DEFINING_MEASURE,
    MU2,
    CauchyTypeFunction,
    InvalidArgumentError,
    LebesgueScaled,
    analysis,
    catalogue,
)
from polyherglotz.analysis import (
    characterize,
    nondependence_test,
    positivity_check,
    symmetry_check,
    symmetry_residual,
)
from polyherglotz.core import _Function
from polyherglotz.functions import _Affine


class Counted(_Function):
    """A library function that records every coordinate tuple its `_at` reads."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.seen = []

    def _at(self, zs):
        self.seen.append(zs)
        return self.inner._at(zs)


def lebesgue(n):
    return CauchyTypeFunction(LebesgueScaled(1.0, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetry_check_reads_each_orbit_point_once(n):
    f = Counted(lebesgue(n))
    report = symmetry_check(f)
    assert report.verdict == "pass"
    assert len(f.seen) == 50 * (3**n - 1)
    assert len(set(f.seen)) == len(f.seen)
    assert (1j,) * n not in f.seen
    # every point read is an orbit point: each coordinate i, z_j or conj z_j
    orbits = [f.seen[k : k + 3**n - 1] for k in range(0, len(f.seen), 3**n - 1)]
    for orbit in orbits:
        for j in range(n):
            values = {zs[j] for zs in orbit} - {1j}
            assert len(values) == 2 and values == {c.conjugate() for c in values}


ORBIT_FUNCTIONS = {
    "lambda1": lebesgue(1),
    "lambda2": lebesgue(2),
    "lambda3": lebesgue(3),
    "mu2": CauchyTypeFunction(MU2),
    "f4": catalogue("f4"),
    "f4_shifted": _Affine(catalogue("f4"), 0.0, (-0.5, -2.0)),
}


@pytest.mark.parametrize("seed", [1729, 3])
@pytest.mark.parametrize("name", sorted(ORBIT_FUNCTIONS))
def test_each_orbit_residual_is_the_symmetry_residual(name, seed):
    f = ORBIT_FUNCTIONS[name]
    n = f.dimension
    samples = list(analysis._orbit_samples(f._at, n, seed))
    assert len(samples) == 50 * 2**n
    for k, (zs, r) in enumerate(samples):
        # orbit by orbit, the reflections in bitmask order: bit j lowers axis j
        assert [c.imag < 0 for c in zs] == [bool(k % 2**n >> j & 1) for j in range(n)]
        assert repr(r) == repr(symmetry_residual(f, zs))
    report = symmetry_check(f, seed=seed)
    assert repr(report.max_residual) == repr(max(r for _, r in samples))


@pytest.mark.parametrize("n", range(1, 9))
def test_positivity_grid_grows_polynomially(n):
    f = Counted(lebesgue(n))
    assert positivity_check(f).verdict == "pass"
    # for n > 2, the 6-value axis holds i: a grid point with all axes at i,
    # one of n axes at one of 5 other values, or two of them
    grid = 35**n if n <= 2 else 1 + 5 * n + 25 * math.comb(n, 2)
    assert len(f.seen) == grid + 200
    if n > 2:
        # every grid point leaves all but at most two axes at i, and is evaluated once
        assert all(sum(c != 1j for c in zs) <= 2 for zs in f.seen[:grid])
        assert len(set(f.seen[:grid])) == grid


def test_positivity_grid_keeps_its_points_for_n_up_to_two():
    axis = [complex(x, y) for x in (-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 4.0)
            for y in (0.1, 0.5, 1.0, 2.0, 4.0)]
    f1, f2 = Counted(lebesgue(1)), Counted(lebesgue(2))
    positivity_check(f1), positivity_check(f2)
    assert f1.seen[:35] == [(a,) for a in axis]
    assert f2.seen[: 35**2] == [(a, b) for a in axis for b in axis]


BAD_TOLS = [0.0, -1.0, math.nan, math.inf, "1e-9", None, True]
BAD_SEEDS = [-1, 1.5, True, None, "0"]

#: Each sampled check and `characterize`, called with one bad argument.
BAD_CALLS = {
    **{f"symmetry tol={t!r}": lambda f, t=t: symmetry_check(f, tol=t) for t in BAD_TOLS},
    **{f"symmetry seed={s!r}": lambda f, s=s: symmetry_check(f, seed=s) for s in BAD_SEEDS},
    **{f"positivity tol={t!r}": lambda f, t=t: positivity_check(f, tol=t) for t in BAD_TOLS},
    **{f"positivity seed={s!r}": lambda f, s=s: positivity_check(f, seed=s) for s in BAD_SEEDS},
    **{f"nondependence tol={t!r}": lambda f, t=t: nondependence_test(f, tol=t) for t in BAD_TOLS},
    **{f"characterize seed={s!r}": lambda f, s=s: characterize(f, seed=s) for s in BAD_SEEDS},
}


@pytest.mark.parametrize("call", sorted(BAD_CALLS))
def test_a_bad_tolerance_or_seed_raises_before_any_evaluation(call):
    f = Counted(CauchyTypeFunction(F4_DEFINING_MEASURE))
    with pytest.raises(InvalidArgumentError):
        BAD_CALLS[call](f)
    assert f.seen == []
