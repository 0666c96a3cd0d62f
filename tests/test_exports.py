"""Every name emdsteg exports must exist, and README must describe it.

`__all__` is a list of strings, so a deleted or renamed function would
otherwise linger there until a star import fails.
"""

import re
from pathlib import Path

import emdsteg


def test_star_import():
    # the star import raises AttributeError for a name that does not resolve
    namespace = {}
    exec("from emdsteg import *", namespace)
    assert set(emdsteg.__all__) <= namespace.keys()


def _readme_entries() -> set[str]:
    """The name each code span of README's prose begins with: `name`, `name(...)`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    prose = re.sub(r"```.*?```", "", readme, flags=re.DOTALL)
    spans = re.findall(r"`([^`]+)`", prose)
    return {m.group() for span in spans if (m := re.match(r"[A-Za-z_]\w*", span))}


def test_readme_names_every_export():
    assert sorted(set(emdsteg.__all__) - _readme_entries()) == []
