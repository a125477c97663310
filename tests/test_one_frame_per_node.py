"""Density integrals cost one library frame per node, with the same bits.

The innermost level of `integrate_rn` hands its own closure in theta to the
private `_line`, and that closure calls f on the coordinate tuple itself;
`measures._weighted` writes out a density weight of exactly two one-factor
products as one lambda.  Neither may change a number: both are compared
`repr`-equal, values, error estimates, raised errors and integrand-call
counts alike, with in-test copies of the first composition below,
`integrate_line` of a prefix lambda per level and the nested-loop weight
that starts every product from 1.0.
"""

import math
import sys
from dataclasses import replace

import pytest

from polyherglotz import (
    F4_DEFINING_MEASURE,
    F4_NEVANLINNA_MEASURE,
    LebesgueScaled,
    MeasureSum,
    ProductDensity,
    QuadratureConfig,
    cauchy_weight,
    constant_density,
    gaussian_density,
    integrate,
    measures,
)
from polyherglotz.measures import rational_density
from polyherglotz.quadrature import DEFAULT_CONFIG, _is_complex, integrate_line, integrate_rn


def integrate_rn_v0(f, n, cfg=DEFAULT_CONFIG, hints=None):
    """integrate_rn as first composed: every level, the innermost included,
    is an `integrate_line` of a lambda that extends the prefix."""
    complex_func = _is_complex(f((0.0,) * n))
    inner = replace(cfg, abs_tol=cfg.abs_tol * 1e-2, rel_tol=cfg.rel_tol * 1e-2)

    def level(prefix):
        axis = len(prefix)
        sing = hints(prefix) if hints else ()
        if axis == n - 1:
            g = lambda t: f(prefix + (t,))
        else:
            g = lambda t: level(prefix + (t,))[0]
        return integrate_line(g, inner if axis else cfg, sing, complex_func)

    return level(())


def weighted_v0(f, c, products):
    """The density weight as first written: every product from p = 1.0."""

    def fw(t):
        d = c
        for factors in products:
            p = 1.0
            for l, w in factors:
                p *= w(t[l])
            d += p
        return f(t) * d

    return fw


def counted(f):
    """f and the list that records each of its calls."""
    calls = []

    def g(x):
        calls.append(None)
        return f(x)

    return g, calls


def outcome(run, f) -> tuple:
    """(repr of run(f), or the error it raised; the number of f's calls)."""
    g, calls = counted(f)
    try:
        text = repr(run(g))
    except Exception as e:  # the same error, raised after the same calls
        text = f"{type(e).__name__}: {e}"
    return text, len(calls)


def decay(x):
    return math.prod(1.0 + t * t for t in x)


# Asymmetric in the coordinates, so that a prefix built in another order
# gives another number.
INTEGRANDS = {
    "real": lambda x: 1.0 / (decay(x) * (1.0 + (0.5 * x[0] - 0.2) ** 2)),
    "complex": lambda x: complex(1.0 + 0.5 * x[0], x[-1] - 0.2) / decay(x) ** 1.5,
    "spiked": lambda x: 0.01 / ((x[-1] - 0.25) ** 2 + 1e-4) / (decay(x) * (1.0 + x[0] * x[0])),
    # real at the origin, complex away from it: quad raises on the first line
    "turns complex": lambda x: (x[0] * 1j if x[0] > 1.0 else 1.0) / decay(x),
}


def spike_hints(n):
    """The hints of "spiked" in n variables: its spike on the last axis."""
    return lambda prefix: [(0.25, 1e-2)] if len(prefix) == n - 1 else []


#: A cheaper rule for three axes, whose nodes grow as the cube of a line's.
CFG3 = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_integrate_rn_is_bit_identical(name, n):
    f = INTEGRANDS[name]
    cfg = CFG3 if n == 3 else DEFAULT_CONFIG
    hints = spike_hints(n) if name == "spiked" else None
    got = outcome(lambda g: integrate_rn(g, n, cfg, hints), f)
    want = outcome(lambda g: integrate_rn_v0(g, n, cfg, hints), f)
    assert got == want
    assert got[1] > 0


W = gaussian_density(0.3, 1.2)
C = cauchy_weight()
UNIT = constant_density(1.0)

MEASURES = {
    "lambda1": LebesgueScaled(1.0, 1),
    "lambda2": LebesgueScaled(2.5, 2),
    "lambda3": LebesgueScaled(1.0, 3),
    "one factor": ProductDensity((C, UNIT)),
    "one factor, second axis": ProductDensity((UNIT, W)),
    "multi factor": ProductDensity((C, W)),
    "two one-factor": MeasureSum((ProductDensity((C, UNIT)), ProductDensity((UNIT, W)))),
    "interleaved": MeasureSum(
        (
            ProductDensity((UNIT, C)),
            LebesgueScaled(0.75, 2),
            ProductDensity((W, rational_density("cauchy_squared"))),
            ProductDensity((UNIT, UNIT)),
            ProductDensity((constant_density(0.7), UNIT)),
            ProductDensity((C, W)),
        )
    ),
    "three one-factor": MeasureSum(
        (ProductDensity((C, UNIT)), ProductDensity((UNIT, W)), ProductDensity((W, UNIT)))
    ),
    "f4 defining": F4_DEFINING_MEASURE,
    "f4 nevanlinna": F4_NEVANLINNA_MEASURE,
}


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_integrate_is_bit_identical(monkeypatch, name, kind):
    mu = MEASURES[name]
    f = INTEGRANDS[kind]
    got = outcome(lambda g: integrate(mu, g), f)
    monkeypatch.setattr(measures, "integrate_rn", integrate_rn_v0)
    monkeypatch.setattr(measures, "_weighted", weighted_v0)
    want = outcome(lambda g: integrate(mu, g), f)
    assert got == want
    assert got[1] > 0


def test_a_node_of_f_costs_one_library_frame():
    """From f's frame up to QUADPACK's callback, the innermost level adds
    one frame of the library: its closure in theta."""
    depths = []

    def f(x):
        frame, depth = sys._getframe(1), 0
        while frame is not None and frame.f_code.co_filename.endswith("quadrature.py"):
            frame, depth = frame.f_back, depth + 1
        depths.append(depth)
        return 1.0 / decay(x)

    integrate_rn(f, 2)
    assert len(depths) > 1 and set(depths) == {1}
