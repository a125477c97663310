import math

import pytest

from polyherglotz import InvalidArgumentError, QuadratureConfig, quadrature
from polyherglotz.quadrature import integrate_line, integrate_rn
from conftest import count_calls

PI = math.pi


def test_integrate_line_cauchy():
    val, err = integrate_line(lambda t: 1.0 / (1.0 + t * t))
    assert abs(val - PI) < 1e-10
    assert err < 1e-8


# Near t0 = 3 a node tan(theta) is placed only to about 1e-15, which a
# spike of half-width 1e-9 turns into a relative error near 1e-6 per node:
# that case came out 1.1e-7 off, so the widths at 3 stop at 1e-8.
@pytest.mark.parametrize(
    "t0, h",
    [(3.0, 10.0**-k) for k in range(1, 9)] + [(0.0, 10.0**-k) for k in range(1, 10)],
)
def test_integrate_line_narrow_spike_with_hint(t0, h):
    # a Poisson spike of half-width h at t0 integrates to pi
    f = lambda t: h / ((t - t0) ** 2 + h * h)
    val, _ = integrate_line(f, singularities=[(t0, h)])
    assert abs(val - PI) < 1e-7


@pytest.mark.parametrize("s", [0.0, 3.0, 1e8])
def test_spike_brackets_stay_bounded(monkeypatch, s):
    # grading starts no finer than 4^-20 however narrow the spike, so one
    # singularity adds at most 20 scales: s and 40 brackets.  At s = 1e8
    # every atan(s -+ d) rounds onto atan(s) and the duplicates drop out.
    calls = count_calls(monkeypatch, quadrature, "quad")
    val, _ = integrate_line(lambda t: 1.0 / (1.0 + t * t), singularities=[(s, 1e-300)])
    assert abs(val - PI) < 1e-10
    ((_, kwargs),) = calls
    pts = list(kwargs["points"])
    assert pts == sorted(set(pts))
    assert len(pts) == (1 if s == 1e8 else 41)


def test_integrate_rn_product():
    val, _ = integrate_rn(
        lambda x: 1.0 / ((1 + x[0] ** 2) * (1 + x[1] ** 2)), 2
    )
    assert abs(val - PI * PI) < 1e-8


def test_integrate_rn_hints_per_axis():
    # ridge along x2 = x1 of width 1e-3; hints pin the inner axis
    y = 1e-3

    def f(x):
        return (
            y
            / ((x[1] - x[0]) ** 2 + y * y)
            / ((1 + x[0] ** 2) * (1 + x[1] ** 2))
        )

    def hints(prefix):
        return [(prefix[0], y)] if prefix else []

    val, _ = integrate_rn(f, 2, hints=hints)
    # as y -> 0 this tends to pi * integral (1+t^2)^-2 dt = pi^2/2
    assert abs(val - PI * PI / 2) < 0.01


def test_integrate_rn_inner_levels_run_tighter(monkeypatch):
    # only the outermost axis runs at the caller's tolerances; `_line` is
    # the per-line body that every axis reaches
    calls = count_calls(monkeypatch, quadrature, "_line")
    cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5)
    val, _ = integrate_rn(lambda x: 1.0 / ((1 + x[0] ** 2) * (1 + x[1] ** 2)), 2, cfg)
    assert abs(val - PI * PI) < 1e-5
    outer, *inner = [args[1] for args, _ in calls]
    assert outer == cfg
    assert inner and all(
        c.abs_tol == pytest.approx(1e-8) and c.rel_tol == pytest.approx(1e-7)
        for c in inner
    )


def complex_flags(calls):
    """The complex_func flag of each recorded call of quadrature's `quad`."""
    return [kwargs["complex_func"] for _, kwargs in calls]


def test_real_integrand_takes_one_pass(monkeypatch):
    calls = count_calls(monkeypatch, quadrature, "quad")
    val, err = integrate_line(lambda t: 1.0 / (1.0 + t * t))
    assert type(val) is float and abs(val - PI) < 1e-10
    assert complex_flags(calls) == [False]
    # the same QUADPACK call as the real part of the two-pass result
    both, both_err = integrate_line(lambda t: 1.0 / (1.0 + t * t), complex_func=True)
    assert (val, err) == (both.real, both_err)

    calls.clear()
    val, _ = integrate_rn(lambda x: 1.0 / ((1 + x[0] ** 2) * (1 + x[1] ** 2)), 2)
    assert type(val) is float and abs(val - PI * PI) < 1e-8
    assert calls and not any(complex_flags(calls))


def test_complex_integrand_keeps_both_parts(monkeypatch):
    calls = count_calls(monkeypatch, quadrature, "quad")
    val, err = integrate_line(lambda t: (1 + 2j) / (1.0 + t * t))
    assert abs(val - (1 + 2j) * PI) < 1e-10 and err < 1e-8
    assert complex_flags(calls) == [True]

    calls.clear()
    val, _ = integrate_rn(lambda x: (1 + 2j) / ((1 + x[0] ** 2) * (1 + x[1] ** 2)), 2)
    assert abs(val - (1 + 2j) * PI * PI) < 1e-8
    assert calls and all(complex_flags(calls))


def test_integrand_type_is_read_once_per_call(monkeypatch):
    # one probe per integrate_rn call, not one per inner line
    probes = count_calls(monkeypatch, quadrature, "_is_complex")
    integrate_rn(lambda x: 1.0 / ((1 + x[0] ** 2) * (1 + x[1] ** 2)), 2)
    assert len(probes) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [{"abs_tol": math.nan}, {"rel_tol": math.inf}, {"rel_tol": -1e-9}, {"abs_tol": "1e-8"}],
)
def test_config_rejects_tolerances_that_are_not_positive_finite_numbers(kwargs):
    with pytest.raises(InvalidArgumentError):
        QuadratureConfig(**kwargs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integrate_rn_never_calls_integrate_line(monkeypatch, n):
    """Every level of `integrate_rn` is one `_line` call: with the public
    `integrate_line` made to raise, it gives the same value and error."""
    f = lambda x: math.prod(1.0 / (1.0 + t * t) for t in x)
    cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5)
    want = integrate_rn(f, n, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("integrate_rn re-entered integrate_line")

    monkeypatch.setattr(quadrature, "integrate_line", refuse)
    assert repr(integrate_rn(f, n, cfg)) == repr(want)
    assert abs(want[0] - PI**n) < 1e-5
