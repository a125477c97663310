import inspect
import json
import math

import pytest

from polyherglotz import QuadratureConfig, analysis, measures, quadrature
from polyherglotz.cli import (
    format_complex,
    main,
    parse_complex,
    parse_function,
    parse_point,
)

PI = math.pi


def test_parse_complex_forms():
    assert parse_complex("4i") == 4j
    assert parse_complex("-i") == -1j
    assert parse_complex("i") == 1j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("1.5-0.5i") == 1.5 - 0.5j
    assert parse_complex("-2.25e-1+1e2i") == -0.225 + 100j
    assert parse_complex("3") == 3 + 0j
    with pytest.raises(ValueError):
        parse_complex("")
    with pytest.raises(ValueError):
        parse_complex("banana")


def test_complex_roundtrip():
    for z in (4j, -1j, 1 + 2j, 1.5 - 0.5j, -0.1 - 0.00032j, 3 + 0j):
        assert parse_complex(format_complex(z)) == z


def test_parse_point():
    p = parse_point("4i,4i")
    assert p.coords == (4j, 4j)
    assert parse_point("-i,-i").coords == (-1j, -1j)
    with pytest.raises(ValueError):
        parse_point("")


def test_parse_function_shorthands():
    from polyherglotz import point

    f = parse_function("catalogue:f7")
    assert f(point(1j, 1j)) == 1j
    g = parse_function("cauchy:lebesgue2")
    assert abs(g(point(1j, 1j)) - 1j) < 1e-8
    m = parse_function("cauchy:mu2")
    assert abs(m(point(4j, 4j)) - (-0.1j)) < 1e-8
    h = parse_function("herglotz:{a:1,b:[2],mu:zero}")
    assert h(point(1j)) == 1 + 2j
    with pytest.raises(ValueError):
        parse_function("catalogue")
    with pytest.raises(ValueError):
        parse_function("bogus:f1")


def test_eval_golden(capsys, tmp_path):
    out = tmp_path / "rec.json"
    code = main(["eval", "--fn", "catalogue:f2", "--point", "4i,4i", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert abs(parse_complex(printed) - (-0.1j)) < 1e-15
    rec = json.loads(out.read_text())
    assert rec["signature"] == [1, 1]
    assert parse_complex(rec["value"]) == parse_complex(printed)
    for ptext, signs in (("-2i,3i", [-1, 1]), ("-i,-i", [-1, -1])):
        assert main(["eval", "--fn", "catalogue:f2", f"--point={ptext}", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["signature"] == signs


def test_eval_lower_point(capsys):
    code = main(["eval", "--fn", "catalogue:f7", "--point=-i,-i"])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()[0]
    assert parse_complex(printed) == -1j


def test_eval_herglotz_shorthand(capsys):
    code = main(["eval", "--fn", "herglotz:{a:1,b:[2],mu:zero}", "--point", "i"])
    assert code == 0
    assert parse_complex(capsys.readouterr().out.splitlines()[0]) == 1 + 2j


def test_eval_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["eval", "--fn", "cauchy:mu2", "--point", "i,2i", "--out", str(a)])
    main(["eval", "--fn", "cauchy:mu2", "--point", "i,2i", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_check_exit_codes(tmp_path, capsys):
    assert main(["check", "symmetry", "--fn", "catalogue:f7"]) == 0
    assert main(["check", "nondep", "--fn", "catalogue:f4"]) == 1
    assert main(["check", "positivity", "--fn", "catalogue:f6"]) == 1
    out = tmp_path / "char.json"
    assert main(["check", "characterize", "--fn", "catalogue:f7", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "pass"
    assert rep["d"] == [0.0, 0.0]
    capsys.readouterr()


def test_check_positivity_witness_in_upper(tmp_path, capsys):
    out = tmp_path / "pos.json"
    assert main(["check", "positivity", "--fn", "catalogue:f6", "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    pt = rep["witnesses"][0]["point"]
    assert all(im > 0 for _, im in pt)
    capsys.readouterr()


def test_reproduce_tables(tmp_path, capsys):
    out = tmp_path / "tables.json"
    assert main(["reproduce-tables", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["match"] is True
    assert rep["table2_conditions"]["f7"] == ["yes", "yes", "yes"]
    assert rep["table2_conditions"]["f0"] == ["no", "no", "no"]
    assert rep["table2_conditions"] == rep["expected"]
    capsys.readouterr()


def test_reproduce_tables_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["reproduce-tables", "--out", str(a)])
    main(["reproduce-tables", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_invert_cli_1d(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main([
        "invert", "--fn", "cauchy:lebesgue1", "--phi", "cauchy1d",
        "--mode", "alternating", "--out", str(out),
    ])
    assert code == 0
    est = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(est - PI) < 1e-4
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "y,raw,extrapolant"
    assert len(lines) == 11


@pytest.mark.parametrize("text", ["nan+nani,1i", "1e999i,1i", "1i,2+nani"])
def test_eval_rejects_non_finite_points(text, capsys):
    assert main(["eval", "--fn", "catalogue:f2", "--point", text]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not finite" in err


@pytest.mark.parametrize(
    "limits", [{"y_sequence": []}, {"y_sequence": [0.5, 1e-310]}, {"radius_sequence": []}]
)
def test_invert_rejects_limits_off_the_cut_plane(limits, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"limits": limits}))
    argv = ["invert", "--fn", "cauchy:lebesgue1", "--phi", "cauchy1d", "--config", str(config)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "config",
    [
        {"limits": {"y_sequnce": [0.5]}},
        {"limit": {"y_sequence": [0.5]}},
        {"limits": [1]},
        [1],
        {"limits": {"y_sequence": 0.5}},
        {"limits": {"radius_sequence": ["8", "16"]}},
        {"limits": {"extrapolation_order": 2}},
        {"quadrature": {"max_subdivisions": 2000}},
        {"quadrature": {"abs_tol": math.nan}},
        {"quadrature": {"rel_tol": math.inf}},
    ],
    ids=[
        "misspelled-key", "misspelled-section", "section-not-object", "top-level-list",
        "y-not-a-sequence", "radii-not-numbers", "removed-extrapolation-order",
        "removed-max-subdivisions", "nan-tolerance", "infinite-tolerance",
    ],
)
def test_malformed_config_is_usage_error(config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["invert", "--fn", "cauchy:lebesgue1", "--phi", "cauchy1d", "--config", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "symmetry", "--fn", "catalogue:f7", "--tol", "0"],
        ["check", "positivity", "--fn", "catalogue:f7", "--tol", "nan"],
        ["check", "nondep", "--fn", "catalogue:f7", "--tol", "-1"],
        ["check", "symmetry", "--fn", "catalogue:f7", "--tol", "inf"],
        ["invert", "--fn", "cauchy:lebesgue1", "--phi", "cauchy1d", "--tol", "0"],
    ],
    ids=["zero", "nan", "negative", "infinite", "invert-zero"],
)
def test_tol_must_be_positive_and_finite(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "tolerance must be positive and finite" in err


@pytest.mark.parametrize("limits", [{"y_sequnce": [0.5]}, {"y_sequence": 0.5}])
def test_config_is_checked_where_a_section_is_not_read(limits, tmp_path, capsys):
    # check symmetry reads no limits
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"limits": limits}))
    assert main(["check", "symmetry", "--fn", "catalogue:f7", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_invert_applies_the_quadrature_section_to_the_inversion_only(
    monkeypatch, tmp_path, capsys
):
    line_cfgs, rules = [], []

    def record_line(*args, **kwargs):
        bound = inspect.signature(quadrature.integrate_line).bind(*args, **kwargs)
        bound.apply_defaults()
        line_cfgs.append(bound.arguments["cfg"])
        return quadrature.integrate_line(*args, **kwargs)

    def one_node(integrand, n, quad, hints=None):
        # the rule is recorded and MU2 evaluated at one ladder point; a full
        # quadrature of this curve-backed function takes minutes
        rules.append(quad)
        return integrand((0.25,) * n), 0.0

    monkeypatch.setattr(measures, "integrate_line", record_line)
    monkeypatch.setattr(analysis, "integrate_rn", one_node)
    rule = {"abs_tol": 1e-6, "rel_tol": 1e-5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"quadrature": rule, "limits": {"y_sequence": [0.5, 0.25]}}))
    main(["invert", "--fn", "cauchy:mu2", "--phi", "cauchy2d", "--config", str(path)])
    capsys.readouterr()
    assert rules == [QuadratureConfig(**rule)] * 2
    assert line_cfgs and all(cfg == quadrature.DEFAULT_CONFIG for cfg in line_cfgs)


def test_characterize_takes_no_tol(capsys):
    # its sub-checks run at their own default tolerances, so a --tol is not read
    assert main(["check", "characterize", "--fn", "catalogue:f7", "--tol", "1e-3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "own tolerances" in err


def test_usage_errors(capsys):
    assert main(["eval", "--fn", "catalogue:f2", "--point", "1,2"]) == 2  # real coords
    assert main(["eval", "--fn", "catalogue:f9", "--point", "i,i"]) == 2
    assert main(["eval", "--fn", "nope"]) == 2
    assert main(["invert", "--fn", "cauchy:lebesgue1", "--phi", "weird1d",
                 "--mode", "classic"]) == 2
    # each subcommand declares only the shared flags it reads
    for argv in (
        ["eval", "--fn", "catalogue:f7", "--point", "i,i", "--seed", "3"],
        ["eval", "--fn", "catalogue:f7", "--point", "i,i", "--tol", "1e-3"],
        ["eval", "--fn", "catalogue:f7", "--point", "i,i", "--config", "missing.json"],
        ["reproduce-tables", "--config", "missing.json"],
        ["reproduce-tables", "--tol", "1e-3"],
        ["invert", "--fn", "cauchy:lebesgue1", "--phi", "cauchy1d", "--seed", "3"],
    ):
        assert main(argv) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize(
    "fn",
    [
        'cauchy:{type:lebesgue_scaled,c:"x",dimension:2}',
        "cauchy:{type:atomic,points:5,weights:[1]}",
        '{"type":"herglotz","a":"x","b":[0,0],'
        '"measure":{"type":"lebesgue_scaled","c":1,"dimension":2}}',
        "cauchy:{type:lebesgue_scaled,c:1}",
        "herglotz:{a:1,b:5}",
    ],
)
def test_malformed_descriptor_is_usage_error(fn, capsys):
    assert main(["eval", "--fn", fn, "--point", "i,i"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "measure",
    [
        {"type": "lebesgue_scaled", "c": math.nan, "dimension": 2},
        {"type": "atomic", "points": [[0.0, math.inf]], "weights": [1.0]},
        {"type": "curve_pushforward", "curve": {"alpha": [1, 1], "beta": [0, 0]},
         "weight": {"form": "gaussian", "mean": math.nan, "sigma": 1.0}, "scale": 1.0},
    ],
)
def test_non_finite_measure_parameters_are_usage_errors(measure, tmp_path, capsys):
    spec = tmp_path / "fn.json"
    spec.write_text(json.dumps({"type": "cauchy", "measure": measure}))
    assert main(["eval", "--fn", f"@{spec}", "--point", "1i,1i"]) == 2
    assert main(["check", "symmetry", "--fn", f"@{spec}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "finite" in err


def test_non_finite_herglotz_a_and_b_are_usage_errors(tmp_path, capsys):
    spec = tmp_path / "fn.json"
    spec.write_text(json.dumps({
        "type": "herglotz", "a": math.nan, "b": [0, math.inf],
        "measure": {"type": "lebesgue_scaled", "c": 1, "dimension": 2},
    }))
    assert main(["eval", "--fn", f"@{spec}", "--point", "1i,1i"]) == 2
    assert main(["check", "positivity", "--fn", f"@{spec}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "finite" in err


def test_check_nondep_ignores_the_seed(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", "nondep", "--fn", "catalogue:f4", "--out", str(a)]) == 1
    assert main(["check", "nondep", "--fn", "catalogue:f4", "--seed", "3", "--out", str(b)]) == 1
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
