"""The shared line format: escaping, and how every table and list reader
treats blank lines, ``#`` comments and damaged rows."""
import io
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from archive_rank import anchor_index, graph, ingest, pipeline, tables
from archive_rank.features import load_entity_types, load_queries, load_wiki_citations, load_word_table
from archive_rank.labeling import load_judgments
from archive_rank.tables import entries, escape, rows, unescape
from archive_rank.urls import SuffixTable


@given(st.text())
def test_escape_round_trip(text):
    escaped = escape(text)
    assert unescape(escaped) == text
    assert not set(escaped) & {"\t", "\n", "\r"}


@given(st.text(alphabet="\\\t\n\rtnrx "))
def test_escape_round_trip_through_backslashes(text):
    """Text made of backslashes, the characters escape writes and the
    letters of its escapes, so most draws hold a backslash."""
    assert unescape(escape(text)) == text


@given(st.text())
def test_unescape_of_text_without_a_backslash_is_the_text(text):
    text = text.replace("\\", "")
    assert unescape(text) == text


def test_rows_and_entries():
    lines = ["a\tb\n", "\n", "#c\td\n", "  \n", "e\n"]
    assert list(rows(lines)) == [["a", "b"], ["#c", "d"], ["  "], ["e"]]
    assert list(rows(lines, comments=True)) == [["a", "b"], ["  "], ["e"]]
    assert list(entries([" x \n", "\n", "  \n", "# y\n", "z"])) == ["x", "z"]


def _index(docs: str, postings: str, instances: str):
    return anchor_index.read_index(io.StringIO(docs), io.StringIO(postings), io.StringIO(instances))


_DOCS = "http://t.de/\t2\t1\n"
_POSTINGS = "alpha\t1\thttp://t.de/:1\nbeta\t1\thttp://t.de/:1\n"
_INSTANCES = "http://t.de/\t5\talpha\\tbeta\n"


def _stream(read):
    def reader(path):
        with open(path, encoding="utf-8") as fh:
            return read(fh)

    return reader


# id -> (reader of a file, valid file text, a hand-written resource file?)
READERS = {
    "revisions.tsv": (
        _stream(lambda fh: list(ingest.read_revisions_tsv(fh))),
        "http://a.de/\thttp://a.de/?x\t5\ta.de\n",
        False,
    ),
    "links.tsv": (
        _stream(lambda fh: list(ingest.read_links_tsv(fh))),
        "http://s.de/\t5\thttp://t.de/\tA/href\tx\\ty\n",
        False,
    ),
    "content_links.tsv": (
        _stream(lambda fh: list(ingest.read_content_links_tsv(fh))),
        "http://s.de/\thttp://t.de/\t5\t1\ts.de\tt.de\tx\n",
        False,
    ),
    "docs.tsv": (_stream(lambda fh: _index(fh.read(), _POSTINGS, _INSTANCES)), _DOCS, False),
    "postings.tsv": (_stream(lambda fh: _index(_DOCS, fh.read(), _INSTANCES)), _POSTINGS, False),
    "instances.tsv": (_stream(lambda fh: _index(_DOCS, _POSTINGS, fh.read())), _INSTANCES, False),
    "nodes.tsv": (_stream(graph.read_nodes), "0\thttp://a.de/\n1\thttp://b.de/\n", False),
    "labels.tsv": (
        lambda path: tables.read(pipeline._labels, path),
        "1\thttp://a.de/\t0.5\t-\n1\thttp://b.de/\t0.0\t1.0\n",
        False,
    ),
    "sample.tsv": (
        lambda path: tables.read(pipeline._pool, path),
        "1\thttp://a.de/\tsample\n2\thttp://b.de/\tpositive\n",
        False,
    ),
    "queries": (load_queries, "1\tAda Lovelace\tscientist\n2\tBerlin\tlocation\n", True),
    "wiki_citations": (load_wiki_citations, "1\ta.de\t3\n1\tb.de\t1\n", True),
    "news_domains": (load_word_table, "Spiegel.de\nsuche=\n", True),
    "entity_types": (load_entity_types, "scientist\nlocation\n", True),
    "judgments": (load_judgments, "1\thttp://a.de/\tann\t2\n1\thttp://a.de/\tbob\t1\n", True),
    # a suffix the built-in table lacks, so the answer shows the entry was read
    "suffixes": (lambda path: SuffixTable.from_file(path).registrable_domain("a.b.zz.yy"), "zz.yy\n", True),
}
HAND_WRITTEN = [name for name, (_read, _text, hand_written) in READERS.items() if hand_written]
RUN_TABLES = [name for name in READERS if name not in HAND_WRITTEN]


def _read(directory, name: str, text: str):
    directory.mkdir()
    path = directory / "table"
    path.write_text(text, encoding="utf-8")
    return READERS[name][0](path)


def _interleave(text: str, line: str) -> str:
    """``line`` before, between and after the rows of ``text``."""
    return line + "".join(row + line for row in text.splitlines(keepends=True))


@pytest.mark.parametrize("name", READERS)
def test_blank_lines_are_skipped(tmp_path, name):
    text = READERS[name][1]
    assert _read(tmp_path / "blank", name, _interleave(text, "\n")) == _read(tmp_path / "plain", name, text)


@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_comment_lines_are_skipped_in_resource_files(tmp_path, name):
    text = READERS[name][1]
    commented = _interleave(text, "# a comment\n")
    assert _read(tmp_path / "comments", name, commented) == _read(tmp_path / "plain", name, text)


@pytest.mark.parametrize("name", RUN_TABLES)
@pytest.mark.parametrize("damage", ["comment", "extra-field"])
def test_run_tables_take_no_comments_or_odd_rows(tmp_path, name, damage):
    text = READERS[name][1]
    damaged = "# a comment\n" + text if damage == "comment" else text.replace("\n", "\tx\n", 1)
    with pytest.raises(ValueError):
        _read(tmp_path / "damaged", name, damaged)


def test_read_names_the_file_read_last_and_the_line_taken(tmp_path):
    counts, empty = tmp_path / "counts.tsv", tmp_path / "empty.tsv"
    counts.write_text("1\n2\n", encoding="utf-8")
    empty.write_text("", encoding="utf-8")

    def parse(numbers, rest):
        total = sum(map(int, numbers))
        if not list(rest):
            raise ValueError(f"{total} counted, then nothing")
        return total

    assert tables.read(parse, counts, counts) == 3
    # the empty file, started after the other, is the one named
    with pytest.raises(ValueError, match=f"^{re.escape(str(empty))}: line 0: 3 counted, then nothing$"):
        tables.read(parse, counts, empty)
    counts.write_text("1\n?\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(counts))}: line 2: invalid literal"):
        tables.read(parse, counts, empty)
