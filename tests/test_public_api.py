"""The README's "Public API" section lists exactly the exported names."""

import re
import types
from pathlib import Path

import polyherglotz

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_api_names():
    text = README.read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
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
