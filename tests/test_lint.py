"""Static checks on the package source that need no installed linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blinddelegate"
# __init__.py imports names to re-export them, not to use them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The package's standing size limit: `wc -l src/blinddelegate/*.py` total.
SOURCE_LINE_LIMIT = 2704


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, in import order. A dotted
    `import a.b` binds `a`; `from __future__` imports are compiler flags."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_detects_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import a.b\n"
        "from .errors import Used, Unused\n"
        "def f(x: Used) -> np.ndarray:\n"
        "    return a.b.c(x)\n"
    )
    assert unused_imports(source) == ["os", "Unused"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_source_stays_within_its_line_limit():
    lines = {p.name: p.read_text().count("\n") for p in PACKAGE.glob("*.py")}
    assert sum(lines.values()) <= SOURCE_LINE_LIMIT, lines
