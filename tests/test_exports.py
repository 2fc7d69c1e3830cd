"""Each module's ``__all__`` names only what the module has, and lists every
public function and class the module defines, so a stale export or a new
public helper that nothing declares shows up here."""
import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "archive_rank"


def export_problems(source: str, namespace: dict) -> tuple[list[str], list[str]]:
    """The names in ``__all__`` that ``namespace`` lacks, and the public
    functions and classes ``source`` defines at top level but does not list."""
    exported = namespace.get("__all__", [])
    missing = [name for name in exported if name not in namespace]
    unlisted = [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported
    ]
    return missing, unlisted


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_all_lists_exactly_what_the_module_has(path):
    name = "archive_rank" if path.stem == "__init__" else f"archive_rank.{path.stem}"
    module = importlib.import_module(name)
    assert export_problems(path.read_text(encoding="utf-8"), vars(module)) == ([], [])


def test_the_guard_sees_stale_and_missing_exports():
    source = (
        '__all__ = ["Graph", "write_graph"]\n'
        "class Graph: pass\n"
        "def write_edges(g, fh): pass\n"
        "def _helper(): pass\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    assert export_problems(source, namespace) == (["write_graph"], ["write_edges"])
