import math

import pytest

from polyherglotz import QuadratureConfig, quadrature
from polyherglotz.quadrature import integrate_line, integrate_rn

PI = math.pi


def test_integrate_line_cauchy():
    val, err = integrate_line(lambda t: 1.0 / (1.0 + t * t))
    assert abs(val - PI) < 1e-10
    assert err < 1e-8


def test_integrate_line_narrow_spike_with_hint():
    # Poisson spike of width 1e-6 at t=3 integrates to pi
    y = 1e-6
    f = lambda t: y / ((t - 3.0) ** 2 + y * y)
    val, _ = integrate_line(f, singularities=[3.0])
    assert abs(val - PI) < 1e-7


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
        return [prefix[0]] if prefix else []

    val, _ = integrate_rn(f, 2, hints=hints)
    # as y -> 0 this tends to pi * integral (1+t^2)^-2 dt = pi^2/2
    assert abs(val - PI * PI / 2) < 0.01


def test_integrate_rn_inner_levels_run_tighter(monkeypatch):
    # only the outermost axis runs at the caller's tolerances
    seen = []
    line = quadrature.integrate_line

    def recording(g, cfg, sing, complex_func):
        seen.append(cfg)
        return line(g, cfg, sing, complex_func)

    monkeypatch.setattr(quadrature, "integrate_line", recording)
    cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5)
    val, _ = integrate_rn(lambda x: 1.0 / ((1 + x[0] ** 2) * (1 + x[1] ** 2)), 2, cfg)
    assert abs(val - PI * PI) < 1e-5
    outer, *inner = seen
    assert outer == cfg
    assert inner and all(
        c.abs_tol == pytest.approx(1e-8) and c.rel_tol == pytest.approx(1e-7)
        for c in inner
    )


def recorded_quad(monkeypatch):
    """Patch quadrature's `quad` to record the complex_func flag of each call."""
    flags, quad = [], quadrature.quad

    def recording(*args, **kwargs):
        flags.append(kwargs["complex_func"])
        return quad(*args, **kwargs)

    monkeypatch.setattr(quadrature, "quad", recording)
    return flags


def test_real_integrand_takes_one_pass(monkeypatch):
    flags = recorded_quad(monkeypatch)
    val, err = integrate_line(lambda t: 1.0 / (1.0 + t * t))
    assert type(val) is float and abs(val - PI) < 1e-10
    assert flags == [False]
    # the same QUADPACK call as the real part of the two-pass result
    both, both_err = integrate_line(lambda t: 1.0 / (1.0 + t * t), complex_func=True)
    assert (val, err) == (both.real, both_err)

    flags.clear()
    val, _ = integrate_rn(lambda x: 1.0 / ((1 + x[0] ** 2) * (1 + x[1] ** 2)), 2)
    assert type(val) is float and abs(val - PI * PI) < 1e-8
    assert flags and not any(flags)


def test_complex_integrand_keeps_both_parts(monkeypatch):
    flags = recorded_quad(monkeypatch)
    val, err = integrate_line(lambda t: (1 + 2j) / (1.0 + t * t))
    assert abs(val - (1 + 2j) * PI) < 1e-10 and err < 1e-8
    assert flags == [True]

    flags.clear()
    val, _ = integrate_rn(lambda x: (1 + 2j) / ((1 + x[0] ** 2) * (1 + x[1] ** 2)), 2)
    assert abs(val - (1 + 2j) * PI * PI) < 1e-8
    assert flags and all(flags)


def test_integrand_type_is_read_once_per_call(monkeypatch):
    # one probe per integrate_rn call, not one per inner line
    probes, is_complex = [], quadrature._is_complex

    def counting(value):
        probes.append(value)
        return is_complex(value)

    monkeypatch.setattr(quadrature, "_is_complex", counting)
    integrate_rn(lambda x: 1.0 / ((1 + x[0] ** 2) * (1 + x[1] ** 2)), 2)
    assert len(probes) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)
