"""The line format of the pipeline's text tables and word lists.

A table holds one row per line, its fields split by tabs. Empty lines are
skipped; hand-written resource files may also hold ``#`` comment lines. A
free-text field is written through :func:`escape`, so it holds no tab or
line break.
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator

__all__ = ["escape", "unescape", "rows", "entries"]

_UNESCAPE = re.compile(r"\\([\\tnr])")
_UNESCAPE_MAP = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def escape(text: str) -> str:
    """``text`` with backslash, tab, newline and carriage return written as
    ``\\\\``, ``\\t``, ``\\n`` and ``\\r``."""
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


def unescape(text: str) -> str:
    """The inverse of :func:`escape`."""
    return _UNESCAPE.sub(lambda m: _UNESCAPE_MAP[m.group(1)], text)


def rows(lines: Iterable[str], comments: bool = False) -> Iterator[list[str]]:
    """The tab-split fields of each non-empty line; with ``comments``, lines
    starting with ``#`` are skipped too."""
    for line in lines:
        line = line.rstrip("\n")
        if line and not (comments and line.startswith("#")):
            yield line.split("\t")


def entries(lines: Iterable[str]) -> Iterator[str]:
    """Each stripped line that is neither blank nor a ``#`` comment."""
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            yield line
