"""Every module of the package and every test module uses each name it
imports, so a deletion cannot leave a dead import behind.  The package's
``__init__.py`` exists to re-export, and an import marked ``# noqa: F401``
is kept on purpose.  Every module-level private function or class is
referenced somewhere in the package (of a test module: somewhere in the
tests) outside its own body, so a deletion cannot leave a dead helper
behind either.  And importing the CLI loads a pinned set of modules, none
of them dataclasses, inspect or orbcones, so import creep fails here
before it shows in a process's start-up time."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import GOLDEN_DIR, fixture_path

import stackycones

SOURCES = sorted(Path(stackycones.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"] + TESTS


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


def _referenced(node: ast.AST) -> set[str]:
    # names, attributes and imported names that a statement mentions
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def unreferenced_private_defs(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level def or class named _x that no
    module-level statement of any source mentions, its own excepted."""
    defined, referenced = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = _referenced(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    node.name.startswith("_") and not node.name.startswith("__"):
                defined.append((module, node.name))
                names.discard(node.name)
            referenced |= names
    return sorted((module, name) for module, name in defined if name not in referenced)


def test_every_private_def_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_private_defs(sources) == []


def test_every_private_test_helper_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in TESTS}
    assert unreferenced_private_defs(sources) == []


def test_detects_a_dead_private_def():
    sources = {"a.py": ("def _used():\n    return 1\n"
                        "def _dead():\n    return _dead()\n"
                        "class _Gone:\n    pass\n"),
               "b.py": "from .a import _used\nx = _used()\n"}
    assert unreferenced_private_defs(sources) == [("a.py", "_Gone"), ("a.py", "_dead")]


def caller_less_names(sources: dict[str, str]) -> list[str]:
    """module.name of each public module-level function, and module.Class.name
    of each non-dunder method, that no statement of any source mentions
    outside its own body; a mention from inside such a name does not count."""
    bodies, live = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                bodies[f"{module}.{node.name}"] = node
                continue
            rest = [node]
            if isinstance(node, ast.ClassDef):
                rest = [*node.decorator_list, *node.bases, *node.keywords]
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        bodies[f"{module}.{node.name}.{sub.name}"] = sub
                    else:
                        rest.append(sub)
            for sub in rest:
                live |= _referenced(sub)
    mentions = {q: _referenced(node) - {node.name} for q, node in bodies.items()}
    dead = set(bodies)
    while True:
        # dead only shrinks: a name is live once a live statement mentions it
        heard = live.union(*(mentions[q] for q in bodies if q not in dead))
        now = {q for q, node in bodies.items() if node.name not in heard}
        if now == dead:
            return sorted(dead)
        dead = now


TRACER = "perfbench/tracing.py wraps it (SPANNED or COUNTED)"
CALLER_LESS_KEEPERS = {
    "boxes.cone_parallelepiped_points": TRACER,
    "boxes.minimal_cone_coeffs": TRACER,
    "boxes.q_reduce": TRACER,
    "cli._Parser.error": "argparse calls it on a usage error",
    "cones.Cone.equals": TRACER,
    "cones.Cone.intersect_with_subspace": TRACER,
    "cones.intersect": TRACER,
    "fanfile.fan_to_dict": "the fan format's writer",
    "linalg.det": TRACER,
    "linalg.inverse": TRACER,
    "linalg.mat_vec": TRACER,
    "linalg.rref": TRACER,
    "linalg.solve_square": TRACER,
    "orbcones.mov_cone": TRACER,
}


def test_every_caller_less_name_has_a_keeper():
    # the package's __init__ re-exports, so it calls nothing
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in SOURCES if p.name != "__init__.py"}
    assert caller_less_names(sources) == sorted(CALLER_LESS_KEEPERS)


def test_detects_a_caller_less_name():
    sources = {"a": ("def used():\n    return helper()\n"
                     "def helper():\n    return 1\n"
                     "def dead():\n    return ghost()\n"
                     "def ghost():\n    return ghost() + dead()\n"
                     "def _private():\n    return K().go()\n"
                     "class K:\n    def __init__(self):\n        self.n = 1\n"
                     "    def go(self):\n        return 1\n"
                     "    def idle(self):\n        return self.idle()\n"),
               "b": "from .a import used\nx = used()\n"}
    assert caller_less_names(sources) == ["a.K.idle", "a.dead", "a.ghost"]


# the modules outside the package that its modules import at module level,
# and the package's own modules, all of which the CLI loads
STDLIB_IMPORTS = ("__future__", "argparse", "bisect", "collections", "fractions",
                  "functools", "importlib", "itertools", "json", "math", "operator",
                  "os", "pathlib", "sys", "typing")
PACKAGE_MODULES = {"stackycones", "stackycones.analysis", "stackycones.boxes",
                   "stackycones.cli", "stackycones.cones", "stackycones.fan",
                   "stackycones.fanfile", "stackycones.linalg",
                   "stackycones.neron_severi"}
# what the Xi-free commands never load: dataclasses alone brings in inspect,
# ast, dis and tokenize, and orbcones brings in dataclasses
NOT_LOADED = {"dataclasses", "inspect", "stackycones.orbcones"}
SRC = str(Path(stackycones.__file__).parent.parent)


def _fresh_python(code: str) -> str:
    # stdout of code run in a fresh interpreter: isolated, without site,
    # writing no bytecode, with src on its path
    return subprocess.run([sys.executable, "-I", "-S", "-B", "-c",
                           f"import sys; sys.path.insert(0, {SRC!r}); {code}"],
                          capture_output=True, text=True, check=True).stdout


def modules_added_by(statement: str) -> set[str]:
    """The modules that one import statement adds to a fresh interpreter."""
    return set(_fresh_python(f"before = set(sys.modules); {statement}; "
                             "print(*sorted(set(sys.modules) - before))").split())


def test_cli_import_adds_only_the_pinned_modules():
    # the standard library part is whatever the pinned imports load on this
    # Python; a new module-level import in src/ that loads more fails here
    added = modules_added_by("import stackycones.cli")
    assert {m for m in added if m.partition(".")[0] == "stackycones"} == PACKAGE_MODULES
    assert added - PACKAGE_MODULES == modules_added_by("import " + ", ".join(STDLIB_IMPORTS))
    assert not added & NOT_LOADED


def test_xi_loads_orbcones_on_first_use():
    # a fresh process: the CLI comes up without orbcones, and the xi command
    # loads it and prints the golden output
    out = _fresh_python(
        "from stackycones import cli; "
        "print('stackycones.orbcones' in sys.modules); "
        f"code = cli.main(['xi', {str(fixture_path('football'))!r}]); "
        "print('stackycones.orbcones' in sys.modules, code)")
    before, *printed, after = out.splitlines(keepends=True)
    assert (before, after) == ("False\n", "True 0\n")
    assert "".join(printed) == (GOLDEN_DIR / "football__xi.txt").read_text(encoding="utf-8")
