"""Every module of the package uses each name it imports (`__init__` re-exports them)."""

import ast
from pathlib import Path

import pytest

import aggrestab

MODULES = sorted(p for p in Path(aggrestab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """The names the source imports, at any depth, and never reads; __future__ excepted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport scipy.linalg\nfrom functools import cached_property\n"
        "def f(x: np.ndarray):\n    from math import pi, tau\n    return scipy.linalg.norm(x) * pi\n"
    )
    assert _unused_imports(source) == ["cached_property", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
