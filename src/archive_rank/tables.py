"""The line format of the pipeline's text tables and word lists, the
one place a table file is opened for reading, and the external sort that
orders a table's rows in bounded memory.

A table holds one row per line, its fields split by tabs. Empty lines are
skipped; hand-written resource files may also hold ``#`` comment lines. A
free-text field is written through :func:`escape`, so it holds no tab or
line break.
"""
from __future__ import annotations

import heapq
import marshal
import os
import re
import tempfile
from contextlib import ExitStack
from itertools import islice
from typing import Callable, Iterable, Iterator

__all__ = ["escape", "unescape", "rows", "entries", "read", "ExternalSort"]

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
    line, if it gave one; a byte that is not UTF-8 is met where its chunk
    is decoded, so it is reported "after" the last line taken (line 0 in
    the first chunk)."""
    with ExitStack() as stack:
        files = [_Lines(stack.enter_context(open(path, encoding="utf-8"))) for path in paths]
        try:
            return parse(*files)
        except (ValueError, LookupError) as exc:
            last = ([f for f in files if f.started] or files)[-1]
            if isinstance(exc, UnicodeDecodeError):
                raise ValueError(f"{last.name}: after line {last.line_no}: {exc}") from exc
            where = f"line {last.line_no}: " if last.line_no else ""
            raise ValueError(f"{last.name}: {where}{exc}") from exc


# the sorts of ingest and index hold runs of at most this many records,
# and spill each full run to disk: a bound on a stage's memory, not a
# setting
_RUN_RECORDS = 1 << 15
_FAN_IN = 32  # runs merged at once; a merge holds one block of each


class ExternalSort:
    """Tuples in ascending order, by the external merge sort of Knuth, TAOCP
    vol. 3, §5.4. :meth:`add` collects runs of at most ``_RUN_RECORDS``;
    each full run is sorted and appended in marshal blocks to a spill file
    in ``directory``, opened at the first full run. The spill is anonymous
    (it has no name in the directory) and leaving the ``with`` block closes
    it. Iterating merges the spilled runs, at most ``_FAN_IN`` at a time,
    and holds one block of each, so a merge holds one run's worth of
    records. Records that fit in one run are sorted in memory and never
    spilled."""

    def __init__(self, directory) -> None:
        self.directory = directory
        self.spill = None
        self.run: list[tuple] = []
        self.spilled: list[tuple[int, int]] = []  # each run's (start, end) offsets

    def __enter__(self) -> ExternalSort:
        return self

    def __exit__(self, *_exc) -> None:
        if self.spill is not None:
            self.spill.close()

    def add(self, record: tuple) -> None:
        self.run.append(record)
        if len(self.run) >= _RUN_RECORDS:
            self._spill_run()

    def extend(self, records: Iterable[tuple]) -> None:
        """:meth:`add` each of ``records``, a run's room at a time."""
        records = iter(records)
        while True:
            self.run.extend(islice(records, _RUN_RECORDS - len(self.run)))
            if len(self.run) < _RUN_RECORDS:
                return
            self._spill_run()

    def _spill_run(self) -> None:
        run, self.run = self.run, []
        run.sort()
        if self.spill is None:
            self.spill = tempfile.TemporaryFile(dir=self.directory)
        self.spilled.append(self._append(iter(run)))

    def _append(self, records: Iterator[tuple]) -> tuple[int, int]:
        """Append the sorted ``records`` to the spill as one run of
        size-prefixed blocks; its (start, end) offsets."""
        start = end = self.spill.seek(0, os.SEEK_END)
        while block := list(islice(records, max(1, _RUN_RECORDS // _FAN_IN))):
            data = marshal.dumps(block)
            self.spill.seek(end)  # reading records may have moved it
            end += self.spill.write(len(data).to_bytes(8, "little")) + self.spill.write(data)
        return start, end

    def _replay(self, run: tuple[int, int]) -> Iterator[tuple]:
        position, end = run
        while position < end:
            self.spill.seek(position)
            size = int.from_bytes(self.spill.read(8), "little")
            position += 8 + size
            yield from marshal.loads(self.spill.read(size))

    def __iter__(self) -> Iterator[tuple]:
        if not self.spilled:
            run, self.run = self.run, []
            run.sort()
            return iter(run)
        if self.run:
            self._spill_run()
        runs, self.spilled = self.spilled, []
        while len(runs) > _FAN_IN:
            runs = runs[_FAN_IN:] + [self._append(heapq.merge(*map(self._replay, runs[:_FAN_IN])))]
        return heapq.merge(*map(self._replay, runs))
