"""Source hygiene: no module of the package imports a name it never uses,
only table.py handles the per-ring memo, no module calls argwhere, since
table._first picks every witness, no module calls ix_, since an outer
gather is two 1-D takes, no module calls ElementSet.from_iterable, since
every producer of a subset hands over its mask, and no nested function
calls itself.

__init__.py is skipped by the import check, since its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finring"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
NOT_TABLE = sorted(p for p in SRC.glob("*.py") if p.name != "table.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom typing import Callable, Sequence\n\nx: Sequence = os.sep\n"
    assert unused_imports(source) == [(2, "Callable")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def memo_handling(source: str) -> list:
    """(line, what) for each .setflags( call and each ._cache access.

    The one allowed access is presentation's build record, set at build time
    rather than derived on demand: R._cache["presentation_build"] or
    R._cache.get("presentation_build").
    """
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Subscript):
            key, cache = node.slice, node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
        ):
            key, cache = node.args[0], node.func.value
        if isinstance(key, ast.Constant) and key.value == "presentation_build":
            allowed.add(id(cache))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in allowed:
            if node.attr == "_cache":
                found.append((node.lineno, "._cache"))
            elif node.attr == "setflags":
                found.append((node.lineno, ".setflags("))
    return sorted(found)


def test_the_check_finds_memo_handling():
    source = (
        "def f(R, a):\n"
        "    a.setflags(write=False)\n"
        "    R._cache['x'] = a\n"
        "    R._cache['presentation_build'] = a\n"
        "    return R._cache.get('presentation_build')\n"
    )
    assert memo_handling(source) == [(2, ".setflags("), (3, "._cache")]


@pytest.mark.parametrize("path", NOT_TABLE, ids=lambda p: p.name)
def test_only_table_handles_the_memo(path):
    assert memo_handling(path.read_text()) == []


def argwhere_calls(source: str) -> list:
    """Line of each call of argwhere, as np.argwhere(...) or a bare argwhere(...)."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "argwhere")
            or (isinstance(node.func, ast.Name) and node.func.id == "argwhere")
        )
    )


def test_the_check_finds_argwhere():
    source = (
        "import numpy as np\n"
        "from numpy import argwhere\n"
        "def f(bad):\n"
        "    i = np.argwhere(bad)[0]\n"
        "    return argwhere(bad), np.flatnonzero(bad)\n"
    )
    assert argwhere_calls(source) == [4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_argwhere(path):
    assert argwhere_calls(path.read_text()) == []


def ix_calls(source: str) -> list:
    """Line of each call of ix_, as np.ix_(...) or a bare ix_(...)."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "ix_")
            or (isinstance(node.func, ast.Name) and node.func.id == "ix_")
        )
    )


def test_the_check_finds_ix_():
    source = (
        "import numpy as np\n"
        "from numpy import ix_\n"
        "def f(T, rows, cols):\n"
        "    a = T[np.ix_(rows, cols)]\n"
        "    return a, T[ix_(rows, cols)], T.take(rows, axis=0).take(cols, axis=1)\n"
    )
    assert ix_calls(source) == [4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_ix_(path):
    assert ix_calls(path.read_text()) == []


def from_iterable_calls(source: str) -> list:
    """Line of each call of a from_iterable attribute, such as
    ElementSet.from_iterable(R, ...)."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "from_iterable"
    )


def test_the_check_finds_from_iterable():
    source = (
        "from .table import ElementSet\n"
        "class S:\n"
        "    @classmethod\n"
        "    def from_iterable(cls, ring, it):\n"
        "        return cls(ring, it)\n"
        "def f(R, mask):\n"
        "    a = ElementSet(R, mask)\n"
        "    return a, ElementSet.from_iterable(R, np.flatnonzero(mask))\n"
    )
    assert from_iterable_calls(source) == [8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_from_iterable(path):
    assert from_iterable_calls(path.read_text()) == []


def self_referencing_closures(source: str) -> list:
    """(line, name) of each function defined inside another that refers to its
    own name.  Its closure cell then holds the function itself, a reference
    cycle that keeps every variable it closes over (a ring's tables, say)
    alive until the next full garbage collection."""
    tree = ast.parse(source)
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(node, ast.Name) and node.id == inner.name for node in ast.walk(inner)):
                found.add((inner.lineno, inner.name))
    return sorted(found)


def test_the_check_finds_a_self_referencing_closure():
    source = (
        "def outer(n):\n"
        "    def rec(k):\n"
        "        return rec(k - 1) if k else 0\n"
        "    def leaf(k):\n"
        "        return k\n"
        "    return rec(n) + leaf(n)\n"
        "def top(k):\n"
        "    return top(k - 1) if k else 0\n"
    )
    assert self_referencing_closures(source) == [(2, "rec")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_nested_function_refers_to_itself(path):
    assert self_referencing_closures(path.read_text()) == []
