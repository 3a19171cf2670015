"""Static checks on the package source that no installed linter makes."""

import ast
from pathlib import Path

import pytest

import fermigas

MODULES = sorted(Path(fermigas.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read, nor listed in __all__."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                         and node.module == "__future__"):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level private functions, classes and constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in a module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _unreferenced_private(trees: dict[str, ast.Module]) -> list[str]:
    """Private module-level names that no module of the package refers to."""
    refs = set().union(*(_references(t) for t in trees.values()))
    return [f"{mod}:{name}" for mod, tree in sorted(trees.items())
            for name in _private_definitions(tree) if name not in refs]


def _private_imports(tree: ast.Module) -> list[str]:
    """Underscore names imported from another module of the package."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("fermigas"))
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nfrom a import b, c as d\n"
                     "from __future__ import annotations\n"
                     "__all__ = ['b']\nprint(d)\n")
    assert _unused_imports(tree) == ["os (line 1)"]


def test_no_unreferenced_private_definitions():
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    assert _unreferenced_private(trees) == []


def test_unreferenced_private_definition_is_found():
    trees = {"a.py": ast.parse("_USED = 1\n_DEAD = 2\n_T: int = 3\n"
                               "def _f():\n    return _USED\n"
                               "class _Gone:\n    pass\n"
                               "def public():\n    pass\n"),
             "b.py": ast.parse("from .a import _f\n")}
    assert _unreferenced_private(trees) == ["a.py:_DEAD", "a.py:_T",
                                            "a.py:_Gone"]


def _unread_definitions(trees: dict[str, ast.Module],
                        exported: set[str]) -> list[str]:
    """Top-level functions and classes, private ones included, that no
    module of the package reads outside their own definition, and that
    it does not export.  Reads from tests do not count, so a helper
    whose last caller left the package is caught here and moves to the
    tests' oracles."""
    parts = [(mod, node, _references(node))
             for mod, tree in sorted(trees.items()) for node in tree.body]
    return [f"{mod}:{node.name}" for mod, node, _ in parts
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name not in exported
            and not any(node.name in refs for _, other, refs in parts
                        if other is not node)]


def _unreferenced_public(trees: dict[str, ast.Module],
                         exported: set[str]) -> list[str]:
    """The public names among ``_unread_definitions``."""
    return [name for name in _unread_definitions(trees, exported)
            if not name.split(":")[1].startswith("_")]


def test_no_unreferenced_public_definitions():
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    assert _unreferenced_public(trees, set(fermigas.__all__)) == []


def test_unreferenced_public_definition_is_found():
    trees = {"a.py": ast.parse("def used():\n    pass\n"
                               "def dead(n):\n    return dead(n - 1)\n"
                               "class Exported:\n    pass\n"
                               "class Gone:\n    pass\n"
                               "def _private():\n    pass\n"
                               "def local():\n    pass\n"
                               "TABLE = {'f': local}\n"),
             "b.py": ast.parse("from .a import used\n")}
    assert _unreferenced_public(trees, {"Exported"}) == ["a.py:dead",
                                                         "a.py:Gone"]


def test_no_unread_definitions():
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    assert _unread_definitions(trees, set(fermigas.__all__)) == []


def test_unread_definition_is_found():
    trees = {"a.py": ast.parse("def _loop(n):\n    return _loop(n - 1)\n"
                               "class _Gone:\n    pass\n"
                               "def _helper():\n    pass\n"
                               "def public():\n    return _helper()\n"
                               "def cmd_dead(args):\n    pass\n"
                               "def cmd_wired(args):\n    pass\n"
                               "HANDLERS = [cmd_wired]\n"),
             "b.py": ast.parse("from .a import public\n")}
    assert _unread_definitions(trees, set()) == ["a.py:_loop", "a.py:_Gone",
                                                 "a.py:cmd_dead"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_imports_across_modules(path):
    assert _private_imports(ast.parse(path.read_text())) == []


def test_private_import_is_found():
    tree = ast.parse("from .momentum import _exchange_term, n_point\n"
                     "from fermigas.lattice import _OCTAHEDRAL_PERMS\n"
                     "from . import __version__\n"
                     "from numpy.linalg import _umath_linalg\n"
                     "from __future__ import annotations\n")
    assert _private_imports(tree) == ["_exchange_term (line 1)",
                                      "_OCTAHEDRAL_PERMS (line 2)"]


# the lune mask, its gaps and the gap histogram are built only by the
# lattice and by the mode-block layer that every k-sum runs on
BLOCK_OWNERS = {"lattice.py", "quasiboson.py"}


def _block_calls(tree: ast.Module) -> list[str]:
    """Calls of lune_kernel, gap_counts or gap_classes, by name or as an attribute."""
    calls = [(node.lineno, name) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (name := getattr(node.func, "id",
                                  getattr(node.func, "attr", None)))
             in ("lune_kernel", "gap_counts", "gap_classes")]
    return [f"{name} (line {line})" for line, name in sorted(calls)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_lune_kernel_only_in_block_layer(path):
    if path.name not in BLOCK_OWNERS:
        assert _block_calls(ast.parse(path.read_text())) == []


def test_block_call_is_found():
    tree = ast.parse("from .lattice import lune_kernel\n"
                     "mask, lam = lune_kernel(k, cfg)\n"
                     "g, counts = lattice.gap_counts(mask, lam)\n"
                     "print(lune_kernel, gap_counts_of(mask))\n"
                     "classes = gap_classes(mask, lam)\n")
    assert _block_calls(tree) == ["lune_kernel (line 2)",
                                  "gap_counts (line 3)",
                                  "gap_classes (line 5)"]
