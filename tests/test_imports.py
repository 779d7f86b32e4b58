"""Every module of the package uses each name it imports, so a deletion
cannot leave a dead import behind.  The package's ``__init__.py`` exists to
re-export, and an import marked ``# noqa: F401`` is kept on purpose."""

import ast
from pathlib import Path

import pytest

import stackycones

MODULES = sorted(p for p in Path(stackycones.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    # bound name -> line, for the imports not marked # noqa: F401
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if any("# noqa: F401" in lines[k - 1] for k in (node.lineno, alias.lineno)):
                    continue
                names[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    imported = _imported(tree, source.splitlines())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_a_stray_import():
    source = ("from fractions import Fraction\n"
              "from typing import Sequence\n"
              "from .linalg import dot  # noqa: F401\n"
              "def f(x: Sequence[int]):\n"
              "    return x\n")
    assert unused_imports(source) == [("Fraction", 1)]
