"""Every name a module of the package imports is used in that module, and no private helper is dead.

``__init__.py`` is left out of the import check: its imports are the public
re-exports.  Every private function, class and method defined in the
package is referenced by name somewhere in it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polyproper"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, those inside string annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _used_names(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from typing import Sequence\nimport numpy as np\n\ndef f(x: 'Sequence[int]'):\n    return x\n"
    assert unused_imports(source) == ["np (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def _private_definitions(tree: ast.AST) -> dict[str, int]:
    """Private (single-underscore) functions, classes and methods defined in ``tree``, by line."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, kinds) and node.name.startswith("_") and not node.name.endswith("__")
    }


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """The private definitions of the modules ``sources`` (name -> text) that none of them references."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    return sorted(
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in referenced
    )


def test_the_check_sees_a_dead_private_helper():
    sources = {
        "a.py": "def _used():\n    return 1\n\n\ndef _dead():\n    return _used()\n",
        "b.py": "from a import _used\n\n\nclass C:\n    def _spare(self):\n        pass\n\n"
        "    def run(self):\n        return _used()\n",
    }
    assert dead_private_helpers(sources) == ["a.py: _dead (line 5)", "b.py: _spare (line 5)"]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_helpers(sources) == []
