"""Command-line front end.

Subcommands: eval, check, reproduce-tables, invert.  Complex numbers are
read and written in the "a+bi" literal form and points are comma-separated
("4i,4i").  Exit codes: 0 success / pass, 1 failed check or table mismatch,
2 usage errors, bad input, or inconclusive results.

A --config file's `quadrature` section is the inversion's rule, read by
`invert` only; the function being inverted runs at the library's default.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import analysis
from .core import CutPlanePoint
from .errors import InvalidArgumentError, PolyherglotzError
from .functions import catalogue, function_from_dict
from .measures import MU2, measure_from_dict, measure_to_dict
from .quadrature import QuadratureConfig


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' literals; 'i', '-i', '4i', '1.5-0.5i' all work."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    t = t.replace("i", "j")
    if t in ("j", "+j"):
        t = "1j"
    elif t == "-j":
        t = "-1j"
    else:
        # bare trailing i after a sign, e.g. "1+i"
        t = t.replace("+j", "+1j").replace("-j", "-1j")
    try:
        return complex(t)
    except ValueError:
        raise ValueError(f"bad complex literal {text!r}") from None


def format_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 or math.isnan(z.imag) else "-"
    return f"{repr(z.real)}{sign}{repr(abs(z.imag))}i"


def parse_point(text: str) -> CutPlanePoint:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty point")
    return CutPlanePoint(tuple(parse_complex(p) for p in parts))


def _relaxed_json(text: str) -> dict:
    """Accept {a:1,b:[2],mu:zero} style shorthand: quote bare keys/words."""
    import re

    quoted = re.sub(r"([{\[,]\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*:)", r'\1"\2"\3', text)
    quoted = re.sub(
        r"(:\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*[,}\]])", r'\1"\2"\3', quoted
    )
    return json.loads(quoted)


def parse_function(text: str):
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return function_from_dict(json.load(fh))
    if text.startswith("{"):
        return function_from_dict(_relaxed_json(text))
    return function_from_dict(_shorthand_descriptor(text))


def _shorthand_descriptor(text: str) -> dict:
    """The JSON function descriptor that a catalogue:, cauchy: or herglotz:
    shorthand stands for."""
    if ":" not in text:
        raise ValueError(f"bad function descriptor {text!r}")
    kind, _, rest = text.partition(":")
    if kind == "catalogue":
        return {"type": "catalogue", "id": rest}
    if kind == "cauchy":
        if rest.startswith("{"):
            mu = _relaxed_json(rest)
        elif rest == "mu2":
            mu = measure_to_dict(MU2)
        elif rest.startswith("lebesgue"):
            dim = int(rest[len("lebesgue") :])
            mu = {"type": "lebesgue_scaled", "c": 1.0, "dimension": dim}
        else:
            raise ValueError(f"unknown cauchy measure shorthand {rest!r}")
        return {"type": "cauchy", "measure": mu}
    if kind == "herglotz":
        obj = _relaxed_json(rest)
        if not isinstance(obj, dict):
            raise ValueError(f"herglotz shorthand needs {{...}}, got {rest!r}")
        b = obj.pop("b", [])
        if not isinstance(b, list):
            raise ValueError(f"herglotz b must be a list, got {b!r}")
        mu = obj.pop("mu", "zero")
        if mu == "zero":
            mu = {"type": "atomic", "points": [], "weights": [], "dimension": len(b) or 1}
        if not b:
            b = [0.0] * measure_from_dict(mu).dimension
        return {"type": "herglotz", "a": 0.0, **obj, "b": b, "measure": mu}
    raise ValueError(f"unknown function descriptor kind {kind!r}")


#: The sections of a --config file and the config types whose fields they set.
_CONFIG_TYPES = {"limits": analysis.LimitConfig, "quadrature": QuadratureConfig}


def _load_config(path: str | None) -> tuple:
    """(`DEFAULT_LIMITS`, `_INVERSION_QUAD`) with the fields that a --config
    file sets, every section, key and value checked whether or not the
    subcommand reads it."""
    cfg = {}
    if path:
        with open(path) as fh:
            cfg = json.load(fh)
    if not isinstance(cfg, dict) or not set(cfg) <= set(_CONFIG_TYPES):
        raise InvalidArgumentError(f"config must be an object with sections {list(_CONFIG_TYPES)}")
    for section, kw in cfg.items():
        keys = [f.name for f in dataclasses.fields(_CONFIG_TYPES[section])]
        if not isinstance(kw, dict) or not set(kw) <= set(keys):
            raise InvalidArgumentError(f"config {section!r} must be an object with keys {keys}")
    limits = dataclasses.replace(analysis.DEFAULT_LIMITS, **cfg.get("limits", {}))
    quad = dataclasses.replace(analysis._INVERSION_QUAD, **cfg.get("quadrature", {}))
    return limits, quad


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def cmd_eval(args) -> int:
    f = parse_function(args.fn)
    p = parse_point(args.point)
    val, err = f.evaluate(p)
    record = {
        "fn": args.fn,
        "point": [format_complex(c) for c in p.coords],
        "value": format_complex(val),
        "error_estimate": err,
        "signature": [1 if c.imag > 0 else -1 for c in p.coords],
    }
    print(format_complex(val))
    _emit(json.dumps(record, sort_keys=True), args.out)
    return 0


_CHECK_NAMES = ("symmetry", "nondep", "positivity", "characterize")


def cmd_check(args) -> int:
    limits, _ = _load_config(args.config)
    f = parse_function(args.fn)
    which = args.which
    # without --tol each check keeps its own default tolerance
    tol = {} if args.tol is None else {"tol": args.tol}
    if which == "symmetry":
        report = analysis.symmetry_check(f, seed=args.seed, **tol)
    elif which == "nondep":
        report = analysis.nondependence_test(f, **tol)
    elif which == "positivity":
        report = analysis.positivity_check(f, seed=args.seed, **tol)
    elif which == "characterize":
        if tol:
            raise InvalidArgumentError("characterize runs its sub-checks at their own tolerances")
        report = analysis.characterize(f, limits, seed=args.seed)
    else:  # argparse choices should prevent this
        raise ValueError(which)
    _emit(json.dumps(report.to_dict(), sort_keys=True), args.out)
    verdict = report.verdict
    print(f"{which}: {verdict}", file=sys.stderr)
    return {"pass": 0, "fail": 1}.get(verdict, 2)


# Expected condition matrix: (positivity, symmetry, nondependence) per
# catalogue function; True = check passes on that function.
EXPECTED_CONDITION_MATRIX = {
    "f0": (False, False, False),
    "f1": (True, False, False),
    "f2": (False, True, False),
    "f3": (False, False, True),
    "f4": (True, True, False),
    "f5": (True, False, True),
    "f6": (False, True, True),
    "f7": (True, True, True),
}

# One point per connected component of the two-variable cut-plane.
_TABLE1_POINTS = ("2i,3i", "-2i,3i", "2i,-3i", "-2i,-3i")


def cmd_reproduce_tables(args) -> int:
    seed = args.seed
    table1 = {}
    for k in range(8):
        fid = f"f{k}"
        f = catalogue(fid)
        row = {}
        for ptext in _TABLE1_POINTS:
            p = parse_point(ptext)
            row[ptext] = format_complex(f(p))
        table1[fid] = row

    table2 = {}
    mismatches = []
    for k in range(8):
        fid = f"f{k}"
        f = catalogue(fid)
        got = (
            analysis.positivity_check(f, seed=seed).verdict == "pass",
            analysis.symmetry_check(f, seed=seed).verdict == "pass",
            analysis.nondependence_test(f).verdict == "pass",
        )
        table2[fid] = ["yes" if v else "no" for v in got]
        want = EXPECTED_CONDITION_MATRIX[fid]
        if got != want:
            mismatches.append((fid, want, got))

    report = {
        "table1_values": table1,
        "table2_conditions": table2,
        "expected": {
            k: ["yes" if v else "no" for v in row]
            for k, row in EXPECTED_CONDITION_MATRIX.items()
        },
        "seed": seed,
        "match": not mismatches,
    }
    _emit(json.dumps(report, sort_keys=True), args.out)
    if mismatches:
        for fid, want, got in mismatches:
            print(
                f"mismatch {fid}: expected {want}, computed {got}",
                file=sys.stderr,
            )
        return 1
    print("condition matrix reproduced for f0..f7", file=sys.stderr)
    return 0


def _parse_phi(text: str) -> analysis.TestFunction:
    import re

    m = re.fullmatch(r"(cauchy|gauss)(\d+)d", text.strip())
    if not m:
        raise ValueError(
            f"unknown phi {text!r}; use cauchyNd or gaussNd (e.g. cauchy2d)"
        )
    n = int(m.group(2))
    if m.group(1) == "cauchy":
        return analysis.phi_cauchy(n)
    return analysis.phi_gaussian(n)


def cmd_invert(args) -> int:
    limits, quad = _load_config(args.config)
    f = parse_function(args.fn)
    phi = _parse_phi(args.phi)
    conv_tol = {} if args.tol is None else {"conv_tol": args.tol}
    if args.mode == "classic":
        res = analysis.stieltjes_classic(f, phi, limits, quad, **conv_tol)
    else:
        res = analysis.stieltjes_cauchy_type(f, phi, limits, quad, **conv_tol)
    lines = ["y,raw,extrapolant"]
    for y, raw, ext in res.rows:
        lines.append(f"{repr(y)},{repr(float(raw))},{repr(float(ext))}")
    _emit("\n".join(lines), args.out)
    print(repr(res.estimate))
    if not res.converged:
        print("inversion did not converge; partial data written", file=sys.stderr)
        return 2
    return 0


# Flags shared by several subcommands; each subcommand declares only those
# it reads, so an unread one is a usage error.
_OPTIONS = {
    "out": {"help": "write the JSON/CSV report here instead of stdout"},
    "seed": {
        "type": int,
        "default": analysis.DEFAULT_SEED,
        "help": "seed of the sampled points; the nondep probes are fixed, so it ignores the seed",
    },
    "config": {"help": "JSON file with limit and inversion-quadrature overrides"},
    "tol": {"type": float, "default": None},
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyherglotz",
        description="Herglotz-Nevanlinna and Cauchy-type functions on the poly cut-plane",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def options(p, *names):
        """Declare the shared flags that this subcommand reads."""
        for name in names:
            p.add_argument(f"--{name}", **_OPTIONS[name])

    pe = sub.add_parser("eval", help="evaluate a function at a point")
    pe.add_argument("--fn", required=True)
    pe.add_argument("--point", required=True, help='comma-separated a+bi, e.g. "4i,4i"')
    options(pe, "out")
    pe.set_defaults(func=cmd_eval)

    pc = sub.add_parser("check", help="run a property check")
    pc.add_argument("which", choices=_CHECK_NAMES)
    pc.add_argument("--fn", required=True)
    options(pc, "out", "seed", "config", "tol")
    pc.set_defaults(func=cmd_check)

    pt = sub.add_parser(
        "reproduce-tables", help="recompute the catalogue condition matrix"
    )
    options(pt, "out", "seed")
    pt.set_defaults(func=cmd_reproduce_tables)

    pi = sub.add_parser("invert", help="Stieltjes inversion of a function")
    pi.add_argument("--fn", required=True)
    pi.add_argument("--phi", required=True, help="cauchyNd or gaussNd")
    pi.add_argument(
        "--mode", choices=("classic", "alternating"), default="alternating"
    )
    options(pi, "out", "config", "tol")
    pi.set_defaults(func=cmd_invert)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PolyherglotzError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
