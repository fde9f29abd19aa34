"""Static checks on the package source that need no installed linter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blinddelegate"
# __init__.py binds the layer modules as package attributes; it reads none.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Code outside the unit tests: the benchmark, the acceptance criteria and the
# golden pins.
TESTS = Path(__file__).resolve().parent
READERS = [*sorted(TESTS.parent.glob("bench/*.py")),
           TESTS / "test_acceptance.py", TESTS / "test_golden.py"]
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


def open_calls(source: str) -> list:
    """(innermost enclosing function, callee) for each `open(...)` or
    `os.open(...)` call, outer call first; "<module>" at top level."""
    calls = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                calls.append((where, "open"))
            elif (isinstance(func, ast.Attribute) and func.attr == "open"
                  and isinstance(func.value, ast.Name) and func.value.id == "os"):
                calls.append((where, "os.open"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return calls


def test_open_calls_detects_what_it_should():
    source = (
        "import os\n"
        "LOG = open('log.txt', 'a')\n"
        "def save(path, text):\n"
        "    with open(os.open(path, os.O_WRONLY), 'w') as fh:\n"
        "        fh.write(text)\n"
        "class Sink:\n"
        "    def flush(self):\n"
        "        def inner():\n"
        "            return open(self.path)\n"
        "        return inner, self.fh.open(), os.fdopen(3)\n"
    )
    assert open_calls(source) == [
        ("<module>", "open"), ("save", "open"), ("save", "os.open"), ("inner", "open"),
    ]


def test_cli_write_is_the_one_place_that_opens_a_file():
    # `cli.main` writes every artifact through `cli._write`; the one other
    # open is `_run` reading its circuit file.
    found = {path.stem: open_calls(path.read_text()) for path in PACKAGE.glob("*.py")}
    found = {module: calls for module, calls in found.items() if calls}
    assert found == {"cli": [("_write", "open"), ("_write", "os.open"), ("_run", "open")]}


def close_calls(source: str) -> list:
    """(line, name) for each call of `allclose` or `isclose`, bare or as an
    attribute such as `np.allclose`, in source order."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("allclose", "isclose"):
                calls.append((node.lineno, name))
    return sorted(calls)


def test_close_calls_detects_what_it_should():
    source = (
        "import numpy as np\n"
        "from numpy import isclose\n"
        "ok = np.allclose(a, b, atol=1e-12)\n"
        "def f(a, b):\n"
        "    return isclose(a, b).all() and numpy.testing.assert_allclose(a, b)\n"
        "close = np.abs(a - b) <= 1e-12  # allclose's test, spelled out\n"
    )
    assert close_calls(source) == [(3, "allclose"), (5, "isclose")]


def test_package_calls_no_generic_closeness_helper():
    # np.allclose and np.isclose check argument types and broadcast shapes on
    # every call; a certification path states its tolerance test instead
    # (blindness._close). Tests keep using them.
    found = {path.name: close_calls(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_package_source_stays_within_its_line_limit():
    lines = {p.name: p.read_text().count("\n") for p in PACKAGE.glob("*.py")}
    assert sum(lines.values()) <= SOURCE_LINE_LIMIT, lines


def read_names(source: str, bare: bool) -> set:
    """Names `source` reads: each attribute `x.name`, each `from ... import
    name` and, with `bare`, each bare name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif bare and isinstance(node, ast.Name):
                names.add(node.id)
    return names


def unread_definitions(package: dict, others: list) -> list:
    """`module.name` for each public module-level function or class of
    `package` (module name -> source) that no package module reads in any
    form and no source in `others` reads as an attribute or an import. Bare
    names elsewhere do not count: they may be local definitions."""
    read = set().union(*(read_names(src, True) for src in package.values()),
                       *(read_names(src, False) for src in others))
    return sorted(
        f"{module}.{node.name}" for module, src in package.items()
        for node in ast.parse(src).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in read
    )


def test_unread_definitions_detects_what_it_should():
    package = {
        "core": (
            "def called(): pass\n"
            "def by_attribute(): pass\n"
            "def by_import(): pass\n"
            "def bare_elsewhere(): pass\n"
            "class Imported: pass\n"
            "class Stored: pass\n"
            "def _private(): pass\n"
        ),
        "user": "from .core import Imported\ndef run():\n    return called(), Imported\n",
    }
    others = [
        "import core\ncore.by_attribute()\nbare_elsewhere()\ncore.Stored = None\n",
        "from core import by_import\n",
    ]
    assert unread_definitions(package, others) == [
        "core.Stored", "core.bare_elsewhere", "user.run"]


def test_every_public_definition_is_read_outside_the_unit_tests():
    # __init__.py only binds the layer modules; binding one is not a read.
    package = {path.stem: path.read_text() for path in MODULES}
    assert unread_definitions(package, [path.read_text() for path in READERS]) == []


def test_package_root_binds_only_its_modules():
    # Every name is reached through its layer module; the root re-exports none.
    # A fresh process, so no other test's imports add to the package's names.
    pythonpath = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import blinddelegate as bd; print(*sorted(vars(bd)))"],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    public = [name for name in proc.stdout.split() if not name.startswith("_")]
    assert public == ["adversaries", "blindness", "cli", "errors", "graphs", "pauli",
                      "protocols", "qsim"]
