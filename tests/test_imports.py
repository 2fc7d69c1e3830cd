"""No module of the package imports another module's private names: what one
module shares with another is public, so it is found and kept in one place."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "archive_rank"


def private_imports(source: str) -> list[str]:
    """Each ``_``-prefixed name imported from an ``archive_rank`` module
    (relative imports included)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("archive_rank"):
            continue
        found.extend(alias.name for alias in node.names if alias.name.startswith("_"))
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
    )
    assert private_imports(source) == ["_escape", "_TOKEN_SPLIT", "_private"]
