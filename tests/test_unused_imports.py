"""No ``src/`` module imports a name it never uses.

An AST walk, so CI needs no linter: each module's top-level imports
(including those under a top-level ``if`` or ``try``, such as
``if TYPE_CHECKING:``) are checked against the names the module reads,
the names inside string annotations and the names its ``__all__``
re-exports.  Package ``__init__`` modules are skipped: they import to
re-export.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _top_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.Module) -> Set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= {element.value for element in node.value.elts}
    return names


def unused_imports(source: str) -> List[str]:
    """The top-level imported names ``source`` never reads, in import order."""
    tree = ast.parse(source)
    read = _names_read(tree)
    unused = []
    for node in _top_level_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(name)
    return unused


def test_every_module_uses_every_name_it_imports():
    modules = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")
    assert len(modules) > 50
    unused = {str(path.relative_to(SRC)): unused_imports(path.read_text()) for path in modules}
    assert {module: names for module, names in unused.items() if names} == {}


def test_the_scan_finds_what_it_should():
    source = '''
from __future__ import annotations
import os.path
import json as js
from typing import TYPE_CHECKING, Dict, List, Optional
if TYPE_CHECKING:
    from numpy import ndarray, dtype
try:
    import pickle
except ImportError:
    pickle = None
__all__ = ["Dict"]

def f(x: "Optional[ndarray]") -> None:
    return os.path.join(x)
'''
    assert unused_imports(source) == ["js", "List", "dtype"]
