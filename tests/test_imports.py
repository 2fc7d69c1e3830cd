"""No module of the package imports another module's private names: what one
module shares with another is public, so it is found and kept in one place.
And no module imports a name it does not use, so an import left behind by
a change shows up here."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "archive_rank"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(source: str) -> list[str]:
    """Each ``_``-prefixed name imported from an ``archive_rank`` module
    (relative imports included), then each ``module._name`` read, where
    ``module`` is an ``archive_rank`` module imported by name."""
    tree = ast.parse(source)
    found = []
    modules = set()  # the names bound to archive_rank modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                alias.asname for alias in node.names if alias.asname and alias.name.startswith("archive_rank.")
            )
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("archive_rank"):
            continue
        found.extend(alias.name for alias in node.names if _is_private(alias.name))
        if module in ("", "archive_rank"):
            modules.update(
                alias.asname or alias.name for alias in node.names if (PACKAGE / f"{alias.name}.py").is_file()
            )
    found.extend(
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and _is_private(node.attr)
    )
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_private_imports():
    source = (
        "from .ingest import ContentLink, _escape\n"
        "from archive_rank.urls import _TOKEN_SPLIT\n"
        "from . import _private\n"
        "from os import _exit\n"
        "from __future__ import annotations\n"
        "from . import tables, ingest as ing\n"
        "from archive_rank import graph, RevisionRecord\n"
        "import archive_rank.forest as fo\n"
        "import os\n"
        "tables._ExternalSort(tables.__name__, ing._parse_arc_header, graph._edges, fo._Tree)\n"
        "RevisionRecord._fields, os._exit, tables.read\n"
    )
    assert private_imports(source) == [
        "_escape", "_TOKEN_SPLIT", "_private",
        "tables._ExternalSort", "ing._parse_arc_header", "graph._edges", "fo._Tree",
    ]


def _imports(body: list[ast.stmt]) -> list[str]:
    """The names bound by the imports of ``body``, and of its ``if
    TYPE_CHECKING:`` blocks; ``from __future__`` binds none."""
    names = []
    for node in body:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            names.extend(_imports(node.body))
        elif isinstance(node, ast.Import):
            names.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(alias.asname or alias.name for alias in node.names)
    return names


def unused_imports(source: str) -> list[str]:
    """Each name a top-level or ``TYPE_CHECKING`` import binds that no name
    in the module uses. A name listed in ``__all__`` is used, and so is one
    in an annotation written as a string."""
    tree = ast.parse(source)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name))
    return [name for name in _imports(tree.body) if name not in used]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_does_not_use(path):
    """``__init__.py`` is left out: its imports are the package's re-exports."""
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from collections.abc import Callable, Iterable, Iterator\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .graph import Graph\n"
        "    from .forest import Forest\n"
        "__all__ = ['walk']\n"
        "from itertools import groupby as walk\n"
        "def run(f: Callable, g: 'Graph') -> Iterator[int]:\n"
        "    return os.getcwd()\n"
    )
    assert unused_imports(source) == ["np", "Iterable", "Forest"]
