"""Stdlib-only stand-ins for eight lint rules on the library modules.

Every name a library module imports is used in that module: a name bound
by an import statement must appear as a name somewhere in the module.  The
package's ``__init__`` is exempt, since its imports are its exports.

No module keeps an unbounded cache: ``functools.cache`` and
``functools.lru_cache`` with ``maxsize=None`` are rejected however they
are spelled (module alias, imported name, ``as`` alias, positional or
keyword ``maxsize``).  Tables built once over a bounded range, such as
those indexed by the dimension up to ``MAX_DIMENSION``, are not caches.

Caller input is checked in ``core`` alone: no other module tests
``isinstance(..., CutPlanePoint)`` or compares an ``.imag`` with zero by
``==`` or ``!=``.  Those are hand-made copies of the point rule, which
every public entry reaches through ``core._point``.

No module but ``core`` compares a value against infinity (``math.inf``,
however it is spelled: an ``inf`` attribute or name, or ``float("inf")``).
Such a comparison is a hand-made copy of a finiteness rule, which every
real parameter reaches through ``core._real`` and every boundary height
through ``core._height``.

No module imports scipy outside a function body: not at module level, in
a class body or under a module-level ``if`` or ``try``, by an import
statement or by ``importlib.import_module``/``__import__``.  scipy is
loaded by the first quadrature or Gaussian density that needs it, so
``import polyherglotz`` and the exact paths never pay for it.

No module but ``core`` and ``cli`` calls ``CutPlanePoint(...)``, however
the class is spelled.  A point is built from caller input, which enters
through ``core._point`` or the CLI's ``--point``, or for a witness that a
check's report returns, which goes through ``core._point`` too; a point
the library makes itself is evaluated as a coordinate tuple.  Naming the
class in a type annotation is not a call.

No module but ``core`` calls ``_real`` inside a loop or a comprehension,
however it is spelled (a name or a ``core._real`` attribute).  Such a loop
is a hand-made copy of the rule for a caller's sequence of reals, which
every constructor reaches through ``core._reals``.

No module tests ``isinstance(..., X)`` with X a measure variant
(``Atomic``, ``LebesgueScaled``, ``ProductDensity``, ``CurvePushforward``,
``MeasureSum``, as a name or an attribute) outside ``measures._measure``
and the variants' own classes.  Each variant owns its operations as
methods, so such a test is a hand-made copy of a dispatch that a new
variant would have to extend.
"""

import ast
from pathlib import Path

import pytest

import polyherglotz

MODULES = sorted(
    p for p in Path(polyherglotz.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports {unused} without using them"


def unbounded_caches(tree) -> list:
    """Line numbers where `tree` imports or names functools.cache, or calls
    functools.lru_cache with maxsize None."""
    modules, lru, bad = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for a in node.names:
                if a.name in ("cache", "*"):
                    bad.append(node.lineno)
                if a.name in ("lru_cache", "*"):
                    lru.add(a.asname or "lru_cache")

    def is_functools(node, attr):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )

    for node in ast.walk(tree):
        if is_functools(node, "cache"):
            bad.append(node.lineno)
        elif isinstance(node, ast.Call) and (
            is_functools(node.func, "lru_cache")
            or isinstance(node.func, ast.Name) and node.func.id in lru
        ):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                bad.append(node.lineno)
    return sorted(bad)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbounded_caches(path):
    lines = unbounded_caches(ast.parse(path.read_text()))
    assert not lines, f"{path.name} keeps an unbounded cache at lines {lines}"


@pytest.mark.parametrize(
    "source",
    [
        "import functools\n@functools.cache\ndef f(x): pass",
        "import functools as ft\ng = ft.cache(len)",
        "from functools import cache\n@cache\ndef f(x): pass",
        "from functools import cache as memo",
        "from functools import *\n@lru_cache(None)\ndef f(x): pass",
        "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): pass",
        "import functools\n@functools.lru_cache(None, typed=True)\ndef f(x): pass",
        "import functools as ft\nf = ft.lru_cache(maxsize=None)(len)",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass",
        "from functools import lru_cache as lc\n@lc(None)\ndef f(x): pass",
    ],
)
def test_unbounded_cache_lint_rejects(source):
    assert unbounded_caches(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "import functools\n@functools.lru_cache\ndef f(x): pass",
        "import functools\n@functools.lru_cache(maxsize=256)\ndef f(x): pass",
        "from functools import lru_cache\n@lru_cache(64, typed=True)\ndef f(x): pass",
        "from functools import partial\ncache = {}\ndef lru_cache(n): pass\nlru_cache(None)",
        "TABLE = [n * n for n in range(9)]",
    ],
)
def test_unbounded_cache_lint_accepts(source):
    assert not unbounded_caches(ast.parse(source))


def _isinstance_of(node, names) -> bool:
    """Whether `node` calls isinstance(..., X) with X one of `names`, as a
    name or an attribute, alone or in a tuple."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(
            isinstance(n, ast.Name) and n.id in names
            or isinstance(n, ast.Attribute) and n.attr in names
            for n in ast.walk(node.args[1])
        )
    )


def input_rule_copies(tree) -> list:
    """Line numbers where `tree` calls isinstance(..., CutPlanePoint), however
    the class is spelled, or compares an `.imag` with 0 by == or !=."""
    bad = []
    for node in ast.walk(tree):
        if _isinstance_of(node, {"CutPlanePoint"}):
            bad.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "imag" for o in operands) and any(
                isinstance(o, ast.Constant) and type(o.value) in (int, float) and o.value == 0
                for o in operands
            ):
                bad.append(node.lineno)
    return sorted(bad)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_input_rules_live_in_core(path):
    lines = input_rule_copies(ast.parse(path.read_text()))
    assert not lines, f"{path.name} checks a point by hand at lines {lines}; use core._point"


@pytest.mark.parametrize(
    "source",
    [
        "p = z if isinstance(z, CutPlanePoint) else CutPlanePoint(z)",
        "if not isinstance(z, core.CutPlanePoint): pass",
        "ok = isinstance(z, (tuple, CutPlanePoint))",
        "if z.imag == 0.0: pass",
        "if 0 != complex(z).imag: pass",
        "bad = any(c.imag == 0 for c in zs)",
    ],
)
def test_input_rule_lint_rejects(source):
    assert input_rule_copies(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "z = _point(z, n)",
        "ok = isinstance(mu, CurvePushforward)",
        "upper = all(c.imag > 0 for c in zs)",
        "if z.imag < 0: pass",
        "if z.real == 0.0: pass",
        "if x.imag == y: pass",
    ],
)
def test_input_rule_lint_accepts(source):
    assert not input_rule_copies(ast.parse(source))


def _is_scipy(name) -> bool:
    return isinstance(name, str) and name.split(".")[0] == "scipy"


def scipy_imports_outside_functions(tree) -> list:
    """Line numbers where `tree` imports scipy or a scipy submodule outside
    a function body, by statement or by importlib.import_module/__import__."""
    bad = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if (
                isinstance(child, ast.Import) and any(_is_scipy(a.name) for a in child.names)
                or isinstance(child, ast.ImportFrom) and not child.level and _is_scipy(child.module)
                or isinstance(child, ast.Call)
                and (
                    isinstance(child.func, ast.Name) and child.func.id == "__import__"
                    or isinstance(child.func, ast.Attribute) and child.func.attr == "import_module"
                )
                and child.args
                and isinstance(child.args[0], ast.Constant)
                and _is_scipy(child.args[0].value)
            ):
                bad.append(child.lineno)
            visit(child)

    visit(tree)
    return sorted(bad)


@pytest.mark.parametrize(
    "path", sorted(Path(polyherglotz.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_scipy_is_imported_inside_functions_only(path):
    lines = scipy_imports_outside_functions(ast.parse(path.read_text()))
    assert not lines, f"{path.name} imports scipy outside a function at lines {lines}"


@pytest.mark.parametrize(
    "source",
    [
        "import scipy",
        "import scipy.special as sp",
        "import numpy, scipy.integrate",
        "from scipy.integrate import quad",
        "from scipy import special",
        "try:\n    from scipy.special import wofz\nexcept ImportError:\n    pass",
        "if True:\n    import scipy.integrate",
        "class C:\n    from scipy.special import wofz",
        "import importlib\nsp = importlib.import_module('scipy.special')",
        "sp = __import__('scipy')",
    ],
)
def test_scipy_import_lint_rejects(source):
    assert scipy_imports_outside_functions(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "def f():\n    from scipy.integrate import quad\n    return quad",
        "def w(z):\n    global w\n    from scipy.special import wofz as w\n    return w(z)",
        "class C:\n    def m(self):\n        import scipy",
        "async def f():\n    import scipy",
        "g = lambda: __import__('scipy')",
        "import numpy as np",
        "import scipyx",
        "from .quadrature import quad",
        "from . import scipy",
    ],
)
def test_scipy_import_lint_accepts(source):
    assert not scipy_imports_outside_functions(ast.parse(source))


def _is_inf(node) -> bool:
    """Whether an expression is infinity: an `inf` attribute or name, or
    float("inf"), with any sign."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_inf(node.operand)
    return (
        isinstance(node, ast.Attribute) and node.attr == "inf"
        or isinstance(node, ast.Name) and node.id == "inf"
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        and node.args[0].value.strip().lstrip("+-").lower() in ("inf", "infinity")
    )


def inf_comparisons(tree) -> list:
    """Line numbers where `tree` compares a value against infinity."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(map(_is_inf, [node.left, *node.comparators]))
    )


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_finiteness_rules_live_in_core(path):
    lines = inf_comparisons(ast.parse(path.read_text()))
    assert not lines, f"{path.name} compares with infinity at lines {lines}; use core._real"


@pytest.mark.parametrize(
    "source",
    [
        "ok = 0 < tol < math.inf",
        "if not 0 <= c < math.inf: pass",
        "if x == -math.inf: pass",
        "ok = x < np.inf",
        "from math import inf\nok = all(0 <= w < inf for w in ws)",
        "ok = x != float('inf')",
        "ok = x > float('-Infinity')",
    ],
)
def test_finiteness_lint_rejects(source):
    assert inf_comparisons(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "_real(tol, 'tolerance', 0, open_lo=True)",
        "ok = math.isfinite(x)",
        "result = GrowthResult(False, math.inf)",
        "if x < math.pi: pass",
        "if stats.inf_count > 3: pass",
        "ok = x < float('nan')",
    ],
)
def test_finiteness_lint_accepts(source):
    assert not inf_comparisons(ast.parse(source))


def point_constructions(tree) -> list:
    """Line numbers where `tree` calls CutPlanePoint, as a name or an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "CutPlanePoint"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "CutPlanePoint"
        )
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("core.py", "cli.py")], ids=lambda p: p.name
)
def test_points_are_built_in_core_and_cli_only(path):
    lines = point_constructions(ast.parse(path.read_text()))
    assert not lines, f"{path.name} builds a CutPlanePoint at lines {lines}; use core._point"


@pytest.mark.parametrize(
    "source",
    [
        "z = CutPlanePoint(coords)",
        "z = core.CutPlanePoint((1j, 2j))",
        "yield CutPlanePoint(tuple(coords))",
        "pts = [CutPlanePoint(c) for c in grid]",
        "g = lambda w: f(CutPlanePoint(w))",
    ],
)
def test_point_construction_lint_rejects(source):
    assert point_constructions(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "def f(z: CutPlanePoint) -> CutPlanePoint: pass",
        "witnesses: list[CutPlanePoint] = []",
        "z = _point(coords)",
        "make = CutPlanePoint",
        "ok = isinstance(z, CutPlanePoint)",
    ],
)
def test_point_construction_lint_accepts(source):
    assert not point_constructions(ast.parse(source))


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def real_checks_in_loops(tree) -> list:
    """Line numbers where `tree` calls `_real`, as a name or an attribute,
    inside a loop or a comprehension."""
    return sorted(
        {
            node.lineno
            for loop in ast.walk(tree)
            if isinstance(loop, _LOOPS)
            for node in ast.walk(loop)
            if isinstance(node, ast.Call)
            and (
                isinstance(node.func, ast.Name) and node.func.id == "_real"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "_real"
            )
        }
    )


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_sequences_of_reals_are_checked_in_core(path):
    lines = real_checks_in_loops(ast.parse(path.read_text()))
    assert not lines, f"{path.name} checks reals in a loop at lines {lines}; use core._reals"


@pytest.mark.parametrize(
    "source",
    [
        "for x in b:\n    _real(x, 'a b component', 0)",
        "for p in points:\n    for x in p:\n        _real(x, 'a coordinate')",
        "ok = [_real(x, 'an entry') for x in seq]",
        "all(core._real(x, 'w') is None for x in ws)",
        "{k: _real(v, k) for k, v in kw.items()}",
        "while seq:\n    _real(seq.pop(), 'an entry')",
        "for x in (*alpha, *beta):\n    if x:\n        _real(x, 'a component')",
    ],
)
def test_real_loop_lint_rejects(source):
    assert real_checks_in_loops(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "_real(self.a, 'a')",
        "b = _reals(self.b, 'b', 'a b component', 0)",
        "points = [_reals(p, 'an atom', 'a coordinate') for p in _sequence(pts, 'atoms')]",
        "for x in xs:\n    _real_vector(x, 2)",
        "for x in xs:\n    y = x.real",
        "ok = all(map(_finite_real, t))",
    ],
)
def test_real_loop_lint_accepts(source):
    assert not real_checks_in_loops(ast.parse(source))


VARIANTS = {"Atomic", "LebesgueScaled", "ProductDensity", "CurvePushforward", "MeasureSum"}


def variant_type_tests(tree) -> list:
    """Line numbers where `tree` calls isinstance(..., X) with X a measure
    variant, however it is spelled, outside a function `_measure` and the
    bodies of the variants' own classes."""
    bad = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            exempt = (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name == "_measure"
                or isinstance(child, ast.ClassDef) and child.name in VARIANTS
            )
            if exempt:
                continue
            if _isinstance_of(child, VARIANTS):
                bad.append(child.lineno)
            visit(child)

    visit(tree)
    return sorted(bad)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_measure_variants_own_their_operations(path):
    lines = variant_type_tests(ast.parse(path.read_text()))
    assert not lines, f"{path.name} tests a measure variant at lines {lines}; call its method"


@pytest.mark.parametrize(
    "source",
    [
        "ok = isinstance(mu, CurvePushforward)",
        "if isinstance(t, measures.MeasureSum): pass",
        "dense = [t for t in terms if isinstance(t, (LebesgueScaled, ProductDensity))]",
        "def integrate(mu, f):\n    return isinstance(mu, Atomic)",
        "class Atomic:\n    pass\ndef f(mu):\n    return isinstance(mu, Atomic)",
        "class HerglotzTriple:\n    def f(self):\n        return isinstance(self.mu, Atomic)",
    ],
)
def test_variant_type_lint_rejects(source):
    assert variant_type_tests(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "ok = isinstance(mu, _Measure)",
        "def _measure(mu):\n    if not isinstance(mu, (Atomic, MeasureSum)): pass",
        "class MeasureSum:\n    def f(self, t):\n        return isinstance(t, MeasureSum)",
        "ok = isinstance(w, DensityDescriptor)",
        "val, err = mu._pair_integral(pairs)",
        "terms = MeasureSum((MU2, LebesgueScaled(1.0, 2)))",
    ],
)
def test_variant_type_lint_accepts(source):
    assert not variant_type_tests(ast.parse(source))
