"""Stdlib-only stand-ins for two lint rules on the library modules.

Every name a library module imports is used in that module: a name bound
by an import statement must appear as a name somewhere in the module.  The
package's ``__init__`` is exempt, since its imports are its exports.

No module keeps an unbounded cache: ``functools.cache`` and
``functools.lru_cache`` with ``maxsize=None`` are rejected however they
are spelled (module alias, imported name, ``as`` alias, positional or
keyword ``maxsize``).  Tables built once over a bounded range, such as
those indexed by the dimension up to ``MAX_DIMENSION``, are not caches.
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
