"""Import hygiene: no module of ``repro`` imports a name it never uses.

An AST scan, so no linter is needed. A name an ``import`` binds must be
read somewhere in its module: as a name (an attribute chain's base
included), inside a string annotation, or by being listed in ``__all__``.
``__init__.py`` files are skipped, since their imports are the package's
re-exports, and so is an import statement marked ``# noqa: F401``.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def unused_imports(source):
    """``(line, name)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for annotation in filter(None, annotations):
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                expr = ast.parse(c.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_what_a_module_uses():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from typing import TYPE_CHECKING, List\n"
        "from re import compile  # noqa: F401\n"
        "from math import pi, tau\n"
        "if TYPE_CHECKING:\n"
        "    from collections import Counter\n"
        "__all__ = ['pi']\n"
        "def f(x: 'List[Counter]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(3, "json"), (6, "tau")]


def test_no_unused_imports_in_the_package():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
