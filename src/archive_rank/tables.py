"""The line format of the pipeline's text tables and word lists, and the
one place a table file is opened for reading.

A table holds one row per line, its fields split by tabs. Empty lines are
skipped; hand-written resource files may also hold ``#`` comment lines. A
free-text field is written through :func:`escape`, so it holds no tab or
line break.
"""
from __future__ import annotations

import re
from contextlib import ExitStack
from typing import Callable, Iterable, Iterator

__all__ = ["escape", "unescape", "rows", "entries", "read"]

_UNESCAPE = re.compile(r"\\([\\tnr])")
_UNESCAPE_MAP = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def escape(text: str) -> str:
    """``text`` with backslash, tab, newline and carriage return written as
    ``\\\\``, ``\\t``, ``\\n`` and ``\\r``."""
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


def unescape(text: str) -> str:
    """The inverse of :func:`escape`."""
    if "\\" not in text:  # most anchors hold no escape
        return text
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


class _Lines:
    """The lines of an open file; ``line_no`` is that of the last taken."""

    def __init__(self, fh):
        self.name, self.line_no, self.started, self._fh = fh.name, 0, False, fh

    def __iter__(self) -> Iterator[str]:
        self.started = True
        for self.line_no, line in enumerate(self._fh, self.line_no + 1):
            yield line


def read(parse: Callable, *paths):
    """``parse`` of the lines of each path, read as UTF-8 text in the order
    given; it must return materialized data, not a generator. A ValueError
    or LookupError it raises becomes one naming the file read last and its
    line; a byte that is not UTF-8 is met where its chunk is decoded, so it
    is reported "after" the last line taken."""
    with ExitStack() as stack:
        files = [_Lines(stack.enter_context(open(path, encoding="utf-8"))) for path in paths]
        try:
            return parse(*files)
        except (ValueError, LookupError) as exc:
            last = ([f for f in files if f.started] or files)[-1]
            where = "after line" if isinstance(exc, UnicodeDecodeError) else "line"
            raise ValueError(f"{last.name}: {where} {last.line_no}: {exc}") from exc
