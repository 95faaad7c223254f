"""The package's top level exports exactly the entry points that README's
"Library entry points" section imports; everything else comes from its
module."""
import ast
import re
from pathlib import Path

import qverify

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_entry_points() -> set[str]:
    text = README.read_text()
    section = text.split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names: set[str] = set()
    for node in ast.parse(code).body:
        if isinstance(node, ast.ImportFrom) and node.module == "qverify":
            names.update(alias.name for alias in node.names)
    return names


def test_top_level_exports_match_readme():
    names = _readme_entry_points()
    assert names
    assert names == set(qverify.__all__)
    assert all(callable(getattr(qverify, name)) for name in names)
