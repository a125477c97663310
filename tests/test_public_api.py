"""The README lists exactly the exported names and the accepted --config keys."""

import dataclasses
import re
import types
from pathlib import Path

import polyherglotz
from polyherglotz import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_api_names():
    section = _readme_section("Public API")
    # backticked identifiers only: paths and dotted names are prose
    return re.findall(r"`([A-Za-z_]\w*)`", section)


def test_readme_lists_the_public_api():
    listed = _readme_api_names()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    exported = {
        name
        for name, value in vars(polyherglotz).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(listed) == exported


def test_readme_lists_the_config_keys():
    # one line per section: "- `section`: `key`, `key`, ..."
    listed = {
        name: re.findall(r"`(\w+)`", keys)
        for name, keys in re.findall(r"^- `(\w+)`: (.*)$", _readme_section("Configuration"), re.M)
    }
    assert listed == {
        "limits": [f.name for f in dataclasses.fields(polyherglotz.LimitConfig)],
        "quadrature": [f.name for f in dataclasses.fields(polyherglotz.QuadratureConfig)],
    }
    assert list(listed) == list(cli._CONFIG_TYPES)
