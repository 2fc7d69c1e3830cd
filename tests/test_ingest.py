import codecs
import gzip
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from archive_rank import ingest, pipeline, tables, urls
from archive_rank.cli import main
from archive_rank.ingest import (
    ANCHOR_TEXT_CAP,
    LINK_PATTERNS,
    STRATEGY_ALL,
    STRATEGY_UNIQUE_PER_REVISION,
    ContentLink,
    LinkRecord,
    ParseStats,
    content_links,
    counted_links,
    extract_links,
    parse_arc_stream,
    parse_warc_stream,
    read_content_links_tsv,
    read_links_tsv,
    read_revisions_tsv,
    revision_from_record,
    write_content_links_tsv,
    write_links_tsv,
    write_revisions_tsv,
    UrlEnds,
    UrlResolver,
)
from archive_rank.synthetic import (
    arc_file_bytes,
    arc_record_bytes,
    make_synthetic_archive,
    warc_file_bytes,
    warc_record_bytes,
)
from conftest import PATTERN_TOKENS


def parse_warc(data: bytes):
    stats = ParseStats()
    records = list(parse_warc_stream(io.BytesIO(data), stats))
    return records, stats


def parse_arc(data: bytes):
    stats = ParseStats()
    records = list(parse_arc_stream(io.BytesIO(data), stats))
    return records, stats


class TestWarc:
    def test_response_fields(self):
        data = warc_file_bytes(
            [warc_record_bytes("http://a.de/x?q=1", "2009-03-02T11:00:00Z", b"<html></html>")]
        )
        records, stats = parse_warc(data)
        assert len(records) == 1
        rec = records[0]
        assert rec.target_uri == "http://a.de/x?q=1"
        assert rec.capture_time == 1235991600  # 2009-03-02T11:00:00Z
        assert rec.http_status == 200
        assert stats.emitted == 1 and stats.skipped == 0 and stats.corrupt == 0

    def test_non_response_skipped(self):
        data = warc_file_bytes(
            [warc_record_bytes("http://a.de/", "2009-03-02T11:00:00Z", b"x", warc_type="request")]
        )
        records, stats = parse_warc(data)
        assert records == []
        assert stats.skipped == 1

    def test_gzip_members_in_file_order(self):
        # three independent gzip members: response, metadata, response
        members = [
            warc_record_bytes("http://a.de/1", "2009-01-01T00:00:00Z", b"one"),
            warc_record_bytes("http://a.de/m", "2009-01-02T00:00:00Z", b"m", warc_type="metadata"),
            warc_record_bytes("http://a.de/2", "2009-01-03T00:00:00Z", b"two"),
        ]
        data = b"".join(gzip.compress(m, mtime=0) for m in members)
        # independent decompression confirms the member count
        assert len(self._gzip_members(data)) == 3
        records, stats = parse_warc(data)
        assert [r.target_uri for r in records] == ["http://a.de/1", "http://a.de/2"]
        assert stats.emitted == 2 and stats.skipped == 1

    @staticmethod
    def _gzip_members(data: bytes) -> list[bytes]:
        import zlib

        members = []
        rest = data
        while rest:
            decomp = zlib.decompressobj(wbits=31)
            members.append(decomp.decompress(rest))
            rest = decomp.unused_data
        return members

    def test_malformed_header_line_skips_record_and_continues(self):
        good = warc_record_bytes("http://a.de/ok", "2009-01-01T00:00:00Z", b"fine")
        bad = b"WARC/1.0\r\nTHIS LINE HAS NO COLON\r\n\r\njunk\r\n\r\n"
        records, stats = parse_warc(warc_file_bytes([bad, good], per_record_gzip=False))
        assert [r.target_uri for r in records] == ["http://a.de/ok"]
        assert stats.corrupt == 1 and stats.emitted == 1

    def test_negative_content_length_is_corrupt(self):
        good = warc_record_bytes("http://a.de/", "2009-03-02T11:00:00Z", b"<p>x</p>")
        bad = good.replace(b"Content-Length: ", b"Content-Length: -", 1)
        records, stats = parse_warc(warc_file_bytes([bad, good]))
        assert [r.target_uri for r in records] == ["http://a.de/"]
        assert stats.corrupt == 1

    def test_truncated_final_record_ends_cleanly(self):
        good = warc_record_bytes("http://a.de/ok", "2009-01-01T00:00:00Z", b"fine")
        truncated = warc_record_bytes("http://a.de/cut", "2009-01-01T00:00:00Z", b"payload")[:-20]
        records, stats = parse_warc(good + truncated)
        assert [r.target_uri for r in records] == ["http://a.de/ok"]
        assert stats.corrupt == 1

    def test_accounting_equation(self):
        records = [
            warc_record_bytes(f"http://a.de/{i}", "2009-01-01T00:00:00Z", b"x") for i in range(4)
        ]
        records.insert(2, b"WARC/1.0\r\nBROKEN\r\n\r\n")
        records.append(
            warc_record_bytes("http://a.de/m", "2009-01-01T00:00:00Z", b"m", warc_type="metadata")
        )
        _, stats = parse_warc(warc_file_bytes(records, per_record_gzip=False))
        assert stats.total == 6
        assert (stats.emitted, stats.skipped, stats.corrupt) == (4, 1, 1)


# ---------------------------------------------------------------------------
# reference WARC reader: a line reader with one line of pushback, and after
# each corrupt count a resync that skips to the next marker and pushes it
# back; parse_warc_stream must match it record for record and count for count


class _LineReader:
    def __init__(self, fh):
        self._fh = fh
        self._pushed = None

    def readline(self) -> bytes:
        if self._pushed is not None:
            line, self._pushed = self._pushed, None
            return line
        return self._fh.readline()

    def pushback(self, line: bytes) -> None:
        self._pushed = line

    def read(self, n: int) -> bytes:
        assert self._pushed is None
        return self._fh.read(n)


def _reference_headers(reader):
    headers = {}
    while True:
        line = reader.readline()
        if not line:
            return headers, False
        if not line.strip():
            return headers, True
        if b":" not in line:
            return headers, False
        name, value = line.split(b":", 1)
        headers[name.strip().decode("latin-1").lower()] = value.strip().decode("latin-1")


def _resync(reader) -> bool:
    while True:
        line = reader.readline()
        if not line:
            return False
        if line.strip().startswith(b"WARC/"):
            reader.pushback(line)
            return True


def reference_warc_records(reader, stats):
    while True:
        line = reader.readline()
        if not line:
            return
        marker = line.strip()
        if not marker:
            continue
        if not marker.startswith(b"WARC/"):
            stats.corrupt += 1
            if not _resync(reader):
                return
            continue
        headers, ok = _reference_headers(reader)
        if not ok:
            stats.corrupt += 1
            if not _resync(reader):
                return
            continue
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            length = -1
        if length < 0:
            stats.corrupt += 1
            if not _resync(reader):
                return
            continue
        block = reader.read(length)
        if len(block) < length:
            stats.corrupt += 1
            return
        kind = headers.get("warc-type", "").strip().lower()
        if kind != "response":
            stats.skipped += 1
            continue
        target = headers.get("warc-target-uri", "").strip()
        capture = ingest._parse_warc_date(headers.get("warc-date", ""))
        if not target or capture is None:
            stats.corrupt += 1
            continue
        status, mime, body = ingest._split_http_payload(block)
        stats.emitted += 1
        yield ingest.ArchiveRecord(target, capture, mime, status, body)


def reference_parse_warc(data: bytes):
    stats = ParseStats()
    records = []
    try:
        for record in reference_warc_records(_LineReader(ingest._open_stream(io.BytesIO(data))), stats):
            records.append(record)
    except ingest._DAMAGED_GZIP:
        stats.corrupt += 1
    return records, stats


FUZZ_RECORDS = [
    warc_record_bytes("http://a.de/1", "2009-01-01T00:00:00Z", b"<a href='/x'>one</a>"),
    warc_record_bytes("http://a.de/m", "2009-01-02T00:00:00Z", b"k: v\r\n", warc_type="metadata"),
    warc_record_bytes("http://a.de/2", "2009-01-03T00:00:00Z", b"two\r\n\r\nWARC/1.0 in a payload"),
    warc_record_bytes("http://a.de/3", "2009-01-04T00:00:00Z", b""),
]
_FUZZ_LINES = st.sampled_from(
    [b"junk\r\n", b"\r\n", b"WARC/1.0\r\n", b"  WARC/0.9  \n", b"no colon\r\n", b"Content-Length: 3\r\n", b"WARC-Type: response\r\n"]
)


@st.composite
def damaged_warcs(draw) -> bytes:
    """FUZZ_RECORDS after a few inserted lines or bytes, deleted spans,
    flipped bytes and rewritten Content-Length digits, written plain or as
    one gzip member per record, and maybe cut."""
    members = [bytearray(record) for record in FUZZ_RECORDS]
    for _ in range(draw(st.integers(0, 4))):
        member = members[draw(st.integers(0, len(members) - 1))]
        at = draw(st.integers(0, len(member)))
        op = draw(st.sampled_from(["line", "bytes", "delete", "flip", "length"]))
        if op == "line":
            member[at:at] = draw(_FUZZ_LINES)
        elif op == "bytes":
            member[at:at] = draw(st.binary(min_size=1, max_size=12))
        elif op == "delete":
            del member[at : draw(st.integers(at, min(len(member), at + 40)))]
        elif op == "flip" and at < len(member):
            member[at] ^= draw(st.integers(1, 255))
        elif op == "length":
            digits = draw(st.sampled_from(["", "-1", "0", "x", "9999", "+12", " 5 "]) | st.integers(0, 200).map(str))
            member[:] = re.sub(rb"(?<=Content-Length:)[^\r\n]*", f" {digits}".encode(), bytes(member), count=1)
    data = b"".join(gzip.compress(bytes(m), mtime=0) if draw(st.booleans()) else bytes(m) for m in members)
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


class TestDamagedRegion:
    """``parse_warc_stream`` counts a damaged region once and resumes at
    the next ``WARC/`` marker, as the pushback reader did."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=300)
    @given(damaged_warcs())
    def test_equals_the_pushback_reader(self, data):
        assert parse_warc(data) == reference_parse_warc(data)

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_garbage_run_between_records_counts_once(self, gz):
        first, second = FUZZ_RECORDS[0], FUZZ_RECORDS[2]
        data = warc_file_bytes([first, b"junk\r\nmore junk\r\n\r\nand more\r\n", second], per_record_gzip=gz)
        records, stats = parse_warc(data)
        assert [r.target_uri for r in records] == ["http://a.de/1", "http://a.de/2"]
        assert (stats.emitted, stats.corrupt) == (2, 1)

    @pytest.mark.parametrize(
        "damaged_marker",
        [b"WARC/1.0\r\nNO COLON\r\n\r\n", b"WARC/1.0\r\nWARC-Type: response\r\n\r\n", b"WARC/1.0\r\nContent-Length: x\r\n\r\n"],
        ids=["headers-end-early", "no-length", "bad-length"],
    )
    def test_marker_after_a_garbage_run_counts_its_own_damage(self, damaged_marker):
        data = FUZZ_RECORDS[0] + b"junk\r\nmore junk\r\n" + damaged_marker + b"after\r\n" + FUZZ_RECORDS[2]
        records, stats = parse_warc(data)
        assert [r.target_uri for r in records] == ["http://a.de/1", "http://a.de/2"]
        assert (stats.emitted, stats.corrupt) == (2, 2)
        assert (records, stats) == reference_parse_warc(data)

    @pytest.mark.parametrize("parser", [parse_warc_stream, parse_arc_stream])
    def test_nothing_is_read_before_the_first_next(self, parser):
        class Untouched(io.RawIOBase):
            def readable(self):
                return True

            def readinto(self, buffer):
                raise AssertionError("read before the first next")

        stats = ParseStats()
        records = parser(Untouched(), stats)
        with pytest.raises(AssertionError, match="before the first next"):
            next(records)


class TestArc:
    @pytest.mark.parametrize("damaged", [b"giledesc://", b"f\nledesc://"])
    def test_damaged_file_description_is_not_a_document(self, damaged):
        record = arc_record_bytes("http://a.de/", "20051122093000", b"<html></html>")
        data = arc_file_bytes([record], per_record_gzip=False).replace(b"filedesc://", damaged, 1)
        records, stats = parse_arc(data)
        assert [r.target_uri for r in records] == ["http://a.de/"]
        assert stats.skipped == 1

    def test_header_fields(self):
        data = arc_file_bytes([arc_record_bytes("http://a.de/", "20051122093000", b"<html></html>")])
        records, stats = parse_arc(data)
        assert len(records) == 1
        assert records[0].target_uri == "http://a.de/"
        assert records[0].capture_time == 1132651800  # 2005-11-22T09:30:00Z
        assert stats.skipped == 1  # the filedesc header record

    def test_short_header_is_corrupt_and_stream_recovers(self):
        good1 = arc_record_bytes("http://a.de/1", "20051122093000", b"<html>one</html>")
        bad = b"http://bad.de/ 1.2.3.4 20051122093000\n<html>body</html>\n\nmore junk\n\n"
        good2 = arc_record_bytes("http://a.de/2", "20051122093100", b"<html>two</html>")
        records, stats = parse_arc(arc_file_bytes([good1, bad, good2], per_record_gzip=False))
        assert [r.target_uri for r in records] == ["http://a.de/1", "http://a.de/2"]
        assert stats.corrupt == 1
        assert stats.total == 4  # filedesc + 2 good + 1 corrupt

    def test_length_mismatch_skips_record_and_resumes(self):
        good1 = arc_record_bytes("http://a.de/1", "20051122093000", b"<html>one</html>")
        # declared length shorter than the actual block: the boundary check
        # fails and the reader resynchronizes on the next well-formed header
        payload = b"HTTP/1.1 200 OK\r\n\r\n<html>liar</html>"
        bad = f"http://bad.de/x 1.2.3.4 20051122093000 text/html {len(payload) - 12}\n".encode()
        bad += payload + b"\n"
        good2 = arc_record_bytes("http://a.de/2", "20051122093100", b"<html>two</html>")
        records, stats = parse_arc(arc_file_bytes([good1, bad, good2], per_record_gzip=False))
        assert [r.target_uri for r in records] == ["http://a.de/1", "http://a.de/2"]
        assert stats.corrupt == 1
        assert stats.total == 4

    def test_gzip_per_record_members(self):
        recs = [arc_record_bytes(f"http://a.de/{i}", "20051122093000", b"y") for i in range(3)]
        records, stats = parse_arc(arc_file_bytes(recs, per_record_gzip=True))
        assert len(records) == 3
        assert stats.total == 4


def complete_members(data: bytes) -> bytes:
    """The leading gzip members of ``data`` that inflate to their end."""
    end = 0
    while end < len(data):
        decomp = zlib.decompressobj(wbits=31)
        try:
            decomp.decompress(data[end:])
        except zlib.error:
            break
        if not decomp.eof:
            break
        end = len(data) - len(decomp.unused_data)
    return data[:end]


BOGUS_MEMBERS = {
    "no-magic": b"this is not a gzip member\n",
    "garbage-deflate": b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff" + b"\xff" * 40,
}


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    return make_synthetic_archive(
        tmp_path_factory.mktemp("mini-corpus"),
        num_queries=6,
        good_per_query=5,
        chaff_per_query=8,
        spam_per_query=2,
        boosted_per_query=2,
        sources=40,
        feeder_inlinks=25,
        filler_docs=60,
        rf_num_trees=4,
        per_partition=(1, 3),
        seed=3,
    )


class TestDamagedGzip:
    """A container cut mid-member or ending in a garbage member: the damaged
    tail counts as one corrupt record and every record before it is kept."""

    def test_halved_warc_keeps_complete_members(self, mini_corpus):
        data = (mini_corpus.root / "archives" / "part-a.warc.gz").read_bytes()
        cut = data[: len(data) // 2]
        intact = complete_members(cut)
        assert 0 < len(intact) < len(cut)
        records, stats = parse_warc(cut)
        expected, expected_stats = parse_warc(intact)
        assert expected
        assert [(r.target_uri, r.capture_time) for r in records] == [
            (r.target_uri, r.capture_time) for r in expected
        ]
        assert stats.corrupt == expected_stats.corrupt + 1
        assert stats.skipped == expected_stats.skipped

    @pytest.mark.parametrize("bogus", sorted(BOGUS_MEMBERS))
    def test_bogus_member_after_arc_keeps_every_record(self, mini_corpus, bogus):
        data = (mini_corpus.root / "archives" / "part-c.arc.gz").read_bytes()
        records, stats = parse_arc(data + BOGUS_MEMBERS[bogus])
        expected, expected_stats = parse_arc(data)
        assert expected
        assert [r.target_uri for r in records] == [r.target_uri for r in expected]
        assert stats.corrupt == expected_stats.corrupt + 1

    def test_ingest_exits_zero_and_counts_the_tails(self, mini_corpus, tmp_path, capsys):
        damaged = tmp_path / "corpus"
        shutil.copytree(mini_corpus.root, damaged)
        part_a = damaged / "archives" / "part-a.warc.gz"
        part_a.write_bytes(part_a.read_bytes()[: part_a.stat().st_size // 2])
        part_c = damaged / "archives" / "part-c.arc.gz"
        part_c.write_bytes(part_c.read_bytes() + BOGUS_MEMBERS["garbage-deflate"])
        counts = {}
        for name, root in (("intact", mini_corpus.root), ("damaged", damaged)):
            run_dir = tmp_path / name
            rc = main(["ingest", "--config", str(root / "config.txt"), "--run-dir", str(run_dir)])
            assert rc == 0, capsys.readouterr().err
            manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
            counts[name] = manifest["stages"][-1]["row_counts"]
        assert counts["damaged"]["corrupt"] == counts["intact"]["corrupt"] + 2
        assert 0 < counts["damaged"]["revisions"] < counts["intact"]["revisions"]


def _small_containers() -> dict[str, bytes]:
    def page(i: int) -> bytes:
        return f'<a href="http://t.de/{i}">Seite {i}</a> <img src="/b{i}.png">'.encode()

    warc = [warc_record_bytes(f"http://s.de/{i}", "2009-01-01T00:00:00Z", page(i)) for i in range(3)]
    warc.insert(1, warc_record_bytes("http://s.de/0", "2009-01-01T00:00:00Z", b"GET /", warc_type="request"))
    arc = [arc_record_bytes(f"http://s.de/{i}", "20090101000000", page(i)) for i in range(3)]
    return {
        "part.warc.gz": warc_file_bytes(warc),
        "part.arc": arc_file_bytes(arc, per_record_gzip=False),
    }


SMALL_CONTAINERS = _small_containers()


def _parse_container(name: str, data: bytes):
    parser = parse_arc_stream if ".arc" in name else parse_warc_stream
    stats = ParseStats()
    records = list(parser(io.BytesIO(data), stats))
    return records, stats


@pytest.mark.parametrize("name", sorted(SMALL_CONTAINERS))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hostile_container_keeps_the_failure_contract(name, data):
    """Cut at any offset, with or without one flipped byte: the parser never
    raises nor invents records, and ``archive-rank ingest`` exits 0."""
    intact = SMALL_CONTAINERS[name]
    _records, intact_stats = _parse_container(name, intact)
    assert intact_stats.emitted == 3 and intact_stats.corrupt == 0
    damaged = bytearray(intact)
    if data.draw(st.booleans(), label="flip"):
        at = data.draw(st.integers(0, len(damaged) - 1), label="flip offset")
        damaged[at] ^= data.draw(st.integers(1, 255), label="xor mask")
    damaged = bytes(damaged[: data.draw(st.integers(0, len(damaged)), label="cut")])

    records, stats = _parse_container(name, damaged)
    assert stats.emitted == len(records) <= intact_stats.emitted

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "archives").mkdir()
        (root / "archives" / name).write_bytes(damaged)
        (root / "config.txt").write_text("seed=1\npaths.archives=archives\n", encoding="utf-8")
        assert main(["ingest", "--config", str(root / "config.txt"), "--run-dir", str(root / "run")]) == 0


FOURTEEN_PATTERN_HTML = b"""
<html><body background="body.png">
<a href="/page">Ein Link</a>
<img src="logo.png">
<map><area href="/map-target"></map>
<embed src="movie.swf">
<frameset><frame src="frame.html"></frameset>
<input src="button.png" type="image">
<iframe src="inner.html"></iframe>
<form action="/submit"></form>
<table background="table.png">
<tr background="row.png"><td background="cell.png">x</td></tr>
</table>
<object codebase="code/"></object>
<fb:login-button background="fb.png"></fb:login-button>
</body></html>
"""


class TestExtractLinks:
    def test_anchor_text_resolution_and_whitespace(self):
        result = extract_links(b'<a href="/x">Angela  Merkel</a>', "http://s.de/p/", 7)
        assert result.links == [
            LinkRecord("http://s.de/p/", 7, "http://s.de/x", "A/href", "Angela Merkel")
        ]

    def test_img_pattern_has_no_anchor_text(self):
        result = extract_links(b'<img src="logo.png">', "http://a.de/", 7)
        assert result.links[0].tag_pattern == "IMG/src"
        assert result.links[0].anchor_text == ""

    def test_all_fourteen_patterns_extracted_once(self):
        result = extract_links(FOURTEEN_PATTERN_HTML, "http://a.de/", 7)
        patterns = sorted(l.tag_pattern for l in result.links)
        assert patterns == sorted(PATTERN_TOKENS)
        assert len(PATTERN_TOKENS) == 14 == len(LINK_PATTERNS)

    def test_unclosed_anchor_closes_at_next_anchor(self):
        html = b'<a href="/1">first <a href="/2">second</a>'
        result = extract_links(html, "http://a.de/", 7)
        texts = [(l.target_url, l.anchor_text) for l in result.links]
        assert texts == [("http://a.de/1", "first"), ("http://a.de/2", "second")]

    def test_unclosed_anchor_closes_at_document_end(self):
        result = extract_links(b'<a href="/1">tail text', "http://a.de/", 7)
        assert result.links[0].anchor_text == "tail text"

    def test_inner_markup_stripped_from_anchor_text(self):
        html = b'<a href="/1">bold <b>words</b> here</a>'
        result = extract_links(html, "http://a.de/", 7)
        assert result.links[0].anchor_text == "bold words here"

    def test_anchor_cap_counts_truncation(self):
        html = b'<a href="/1">' + b"x" * (ANCHOR_TEXT_CAP + 100) + b"</a>"
        result = extract_links(html, "http://a.de/", 7)
        assert len(result.links[0].anchor_text) == ANCHOR_TEXT_CAP
        assert result.truncated_anchors == 1

    def test_meta_charset_controls_decoding(self):
        text = '<meta charset="iso-8859-1"><a href="/u">Müller</a>'
        payload = text.encode("latin-1")
        result = extract_links(payload, "http://a.de/", 7)
        assert result.links[0].anchor_text == "Müller"

    @pytest.mark.parametrize("label", ["utf-16", "UTF-16LE", "utf16"])
    @pytest.mark.parametrize("tail", [b"", b" "])
    def test_declared_utf16_ignored(self, label, tail):
        # a declaration the byte pattern reads as ASCII means the page is not
        # UTF-16, whatever the parity of its length
        payload = f'<meta charset="{label}"><a href="/x">one</a>'.encode("ascii") + tail
        assert extract_links(payload, "http://a.de/", 1).links == [
            LinkRecord("http://a.de/", 1, "http://a.de/x", "A/href", "one")
        ]

    def test_undecodable_bytes_still_tolerated(self):
        payload = b'<a href="/x">\xff\xfe broken</a>'
        result = extract_links(payload, "http://a.de/", 7)
        assert len(result.links) == 1

    def test_non_http_targets_dropped(self):
        html = b'<a href="mailto:x@y.de">mail</a><a href="javascript:f()">js</a>'
        assert extract_links(html, "http://a.de/", 7).links == []

    def test_malformed_tags_do_not_abort(self):
        html = b'<a href="/1">ok</a><a <<<>< href=>><img src="x.png">'
        result = extract_links(html, "http://a.de/", 7)
        assert any(l.tag_pattern == "A/href" for l in result.links)
        assert any(l.tag_pattern == "IMG/src" for l in result.links)

    @given(
        st.lists(
            st.sampled_from(
                [
                    '<a href="/x">text</a>',
                    "<a href='y.html'>",
                    "</a>",
                    '<img src="i.png">',
                    '<table background="t.gif"><tr background="r.gif">',
                    '<td background=cell.gif>',
                    '<form action="/go">',
                    "<object codebase=lib/>",
                    '<fb:login-button background="f.png">',
                    "<div> plain <b>words</b> & entities &amp;",
                    "<<<>< broken <a href=>",
                    '<iframe src="deep.html"></iframe>',
                    '<frame src="f.html"><input src="b.png"><embed src="e.swf">',
                    '<area href="/map">',
                    '<body background="bg.jpg">',
                ]
            ),
            max_size=25,
        )
    )
    def test_random_soups_only_emit_known_patterns(self, fragments):
        html = "".join(fragments).encode("utf-8")
        result = extract_links(html, "http://soup.de/base/", 3)
        for item in result.links:
            assert item.tag_pattern in PATTERN_TOKENS
            assert item.target_url.startswith("http")
            if item.tag_pattern != "A/href":
                assert item.anchor_text == ""


# ---------------------------------------------------------------------------
# reference link extractor: extract_links and _decode_payload, with the
# patterns and the attribute reader they use, as they were when LinkRecord
# became a NamedTuple; extract_links must match it link for link and count
# for count

_REF_META_CHARSET = re.compile(rb"charset\s*=\s*[\"']?([A-Za-z0-9_-]+)", re.IGNORECASE)
_REF_TAG = re.compile(r"<\s*(/?)([a-zA-Z][a-zA-Z0-9:_-]*)((?:\"[^\"]*\"|'[^']*'|[^>\"'])*)>")
_REF_INNER_MARKUP = re.compile(r"<[^>]*>")
_REF_ATTR_RES = {
    attr: re.compile(
        rf"""\b{attr}\s*=\s*("([^"]*)"|'([^']*)'|([^\s>]+))""", re.IGNORECASE
    )
    for attr in ("href", "src", "action", "background", "codebase")
}


@dataclass
class _ReferenceExtraction:
    links: list[LinkRecord] = field(default_factory=list)
    decode_failed: bool = False
    truncated_anchors: int = 0


def reference_decode_payload(payload: bytes) -> str | None:
    declared = _REF_META_CHARSET.search(payload[:4096])
    if declared:
        try:
            return payload.decode(declared.group(1).decode("ascii"))
        except (LookupError, UnicodeDecodeError, ValueError):
            pass
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError:
        pass
    try:
        return payload.decode("latin-1", errors="replace")
    except Exception:  # pragma: no cover - latin-1 accepts any byte string
        return None


def _reference_attr_value(attrs: str, name: str) -> str | None:
    m = _REF_ATTR_RES[name].search(attrs)
    if not m:
        return None
    value = m.group(2) if m.group(2) is not None else m.group(3)
    if value is None:
        value = m.group(4)
    return value.strip() if value else None


def reference_extract_links(
    payload: bytes, base_url: str, source_time: int, resolver: UrlResolver | None = None
) -> _ReferenceExtraction:
    result = _ReferenceExtraction()
    text = reference_decode_payload(payload)
    if text is None:
        result.decode_failed = True
        return result
    resolver = resolver if resolver is not None else UrlResolver()
    ends = resolver.ends(base_url)
    base = ends.full if ends is not None else base_url
    open_target: str | None = None
    open_start = 0

    def close_anchor(end: int) -> None:
        nonlocal open_target
        if open_target is None:
            return
        raw = _REF_INNER_MARKUP.sub(" ", text[open_start:end])
        anchor = " ".join(raw.split())
        if len(anchor) > ANCHOR_TEXT_CAP:
            anchor = anchor[:ANCHOR_TEXT_CAP]
            result.truncated_anchors += 1
        result.links.append(
            LinkRecord(base, source_time, open_target, "A/href", anchor)
        )
        open_target = None

    for m in _REF_TAG.finditer(text):
        closing, name, attrs = m.group(1), m.group(2).lower(), m.group(3)
        if closing:
            if name == "a":
                close_anchor(m.start())
            continue
        attr = LINK_PATTERNS.get(name)
        if attr is None:
            continue
        if name == "a":
            close_anchor(m.start())
            target = _reference_attr_value(attrs, "href")
            resolved = resolver.href(base, target) if target else None
            if resolved is not None:
                open_target = resolved
                open_start = m.end()
            continue
        target = _reference_attr_value(attrs, attr)
        resolved = resolver.href(base, target) if target else None
        if resolved is not None:
            result.links.append(
                LinkRecord(base, source_time, resolved, f"{name.upper()}/{attr}")
            )
    close_anchor(len(text))
    return result


def _mixed_case(word: str):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper))
    )


EXTRACTION_HREFS = st.one_of(
    st.sampled_from(
        [
            "/x", "y.html", "../up/z.html", "?q=1", "#top", "#", "//t.de/p", "//T.DE:80/p?q#f", "HTTP://T.de/",
            "https://t.de/p?q=1#f", "http://t.de/a b", " /padded ", "http://[broken/", "http://a.de:99999/",
            "http://t.de/%zz", "http://müller.de/", "javascript:f()", "mailto:x@y.de", "data:text/html,x",
            "ftp://t.de/", "&amp;x=1", "/a?b=&lt;c&gt;", "",
        ]
    ),
    st.builds(
        str.__add__,
        st.sampled_from(["", "/", "//", "http://", "https:", "#", "?", "../"]),
        st.text(alphabet="aZ.:/?#[]@%&;=ü -", max_size=12),
    ),
)


@st.composite
def _link_tags(draw) -> str:
    """A tag of one of the link patterns, or of none, with its link
    attribute (or another) in mixed case, quoted three ways."""
    tag = draw(st.just("a") | st.sampled_from(sorted(LINK_PATTERNS) + ["div", "span", "b"]))
    attr = LINK_PATTERNS.get(tag, "href")
    attr = draw(st.just(attr) | st.sampled_from([attr, "href", "src", "class"]))
    quote = draw(st.sampled_from(['"', "'", ""]))
    space = draw(st.sampled_from(["", " ", "\n"]))
    other = draw(st.sampled_from(["", ' class="c"', " id=x", ' title="a > b"', " data-q='\"'"]))
    value = draw(EXTRACTION_HREFS)
    return (
        f"<{space}{draw(_mixed_case(tag))}{other} {draw(_mixed_case(attr))}{space}={space}{quote}{value}{quote}"
        f"{draw(st.sampled_from(['', ' /', ' alt=x']))}>"
    )


_EXTRACTION_FRAGMENTS = st.one_of(
    _link_tags(),
    st.sampled_from(
        [
            "</a>", "</A>", "</ a>", "< / a>", "<b>", "</b>", "<I>bold</I>", "<br/>", "<span class='x'>", "</span>",
            "<!-- <a href='/c'>comment</a> -->", "<script>var s = '<a href=/s>';</script>", "&amp;", "&lt;b&gt;",
            "&#x41;", "&#228;", "&nbsp;", "&bogus;", "<<", "<>", "< a", ">", "<a", '<a href="unterminated',
            "x" * (ANCHOR_TEXT_CAP + 3), "<a href=/long>" + "y " * (ANCHOR_TEXT_CAP // 2 + 1),
        ]
    ),
    st.text(alphabet="abc XYZ\t\nüé€<>&;", max_size=16),
)


@st.composite
def extraction_payloads(draw) -> bytes:
    """Markup of link tags, nested and unclosed anchors, entities and text,
    with an optional charset declaration (valid, unknown, or not that of
    the encoding) before or after it, encoded one of three ways, with maybe
    a few raw bytes put in."""
    body = "".join(draw(st.lists(_EXTRACTION_FRAGMENTS, max_size=30)))
    charset = draw(
        st.sampled_from(["utf-8", "ISO-8859-1", "windows-1252", "utf-16", "koi8-r", "no-such-set", "ascii"])
    )
    head = draw(st.sampled_from(["", f'<meta charset="{charset}">', f"<META CONTENT='text/html; charset={charset}'>"]))
    text = head + body if draw(st.booleans()) else body + head  # maybe past the first 4 KiB
    data = bytearray(text.encode(draw(st.sampled_from(["utf-8", "latin-1", "cp1252"])), errors="replace"))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.binary(min_size=1, max_size=3))
    return bytes(data)


EXTRACTION_BASES = st.sampled_from(
    [
        "http://a.de/x/y.html", "HTTP://A.DE:80/x/", "https://b.de", "http://a.de/?q=1#f", "ftp://f.de/d/",
        "http://[broken/", "no url",
    ]
)


def _declares_utf16(payload: bytes) -> bool:
    declared = _REF_META_CHARSET.search(payload[:4096])
    try:
        return declared is not None and codecs.lookup(declared.group(1).decode("ascii")).name in (
            "utf-16", "utf-16-le", "utf-16-be"
        )
    except LookupError:
        return False


class TestExtractionReference:
    """``extract_links`` finds what the reference extractor finds, link for
    link, and truncates as many anchors. The one deliberate difference is
    the decoding of a page that declares UTF-16: the declaration is ignored,
    so the page is read as UTF-8, else latin-1, and its links are those the
    reference finds in that text."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=300)
    @given(extraction_payloads(), EXTRACTION_BASES)
    def test_equals_the_reference_extractor(self, payload, base):
        if _declares_utf16(payload):
            try:
                text = payload.decode("utf-8")
            except UnicodeDecodeError:
                text = payload.decode("latin-1")
            with mock.patch.dict(globals(), reference_decode_payload=lambda _payload: text):
                expected = reference_extract_links(payload, base, 7)
        else:
            text = reference_decode_payload(payload)
            expected = reference_extract_links(payload, base, 7)
        assert not expected.decode_failed
        assert ingest._decode_payload(payload) == text
        result = extract_links(payload, base, 7)
        assert (result.links, result.truncated_anchors) == (expected.links, expected.truncated_anchors)


_URL_CHUNKS = st.one_of(
    st.sampled_from(
        [
            "http://", "https://", "HTTP://", "ftp://", "//", "/", "\\", "[", "]", "[::1]", "[v1.x]", "[2001:db8::]",
            "@", "user:pw@", "%", "%2F", "%zz", "%C3%BC", "%00", ":", ":80", ":443", ":8080", ":99999", ":-1", " ",
            "\t", "\n", "xn--", "xn--mller-kva", "xn--zz", "müller", "ü", "日本", "ß", ".", "..", "?", "#", "a.de",
            "t.co.uk", "WWW.", "&", "=",
        ]
    ),
    st.text(max_size=3),
)
URLISH = st.lists(_URL_CHUNKS, max_size=8).map("".join)
URL_BASES = st.one_of(st.builds(str.__add__, st.sampled_from(["http://", "https://"]), URLISH), URLISH)


class TestResolvedEndsParse:
    """Both ends of every link ``extract_links`` emits are ``ends(...).full``
    results, and those resolve again to themselves: no such link has an
    end that ``content_links`` cannot parse."""

    @settings(deadline=None, max_examples=500)
    @given(URL_BASES, URLISH)
    def test_a_resolved_href_resolves_to_itself(self, base, href):
        resolved = UrlResolver().href(base, href)
        if resolved is not None:
            ends = UrlResolver().ends(resolved)
            assert ends is not None and ends.full == resolved

    @settings(deadline=None, max_examples=500)
    @given(URL_BASES)
    def test_resolved_ends_resolve_to_themselves(self, url):
        ends = UrlResolver().ends(url)
        if ends is not None:
            assert UrlResolver().ends(ends.full) == ends


class TestContentLinks:
    def test_empty(self):
        assert content_links([]) == []
        for strategy in (STRATEGY_ALL, STRATEGY_UNIQUE_PER_REVISION):
            assert list(counted_links([], strategy)) == []

    def test_fourteen_pattern_document_keeps_only_the_anchor(self):
        links = extract_links(FOURTEEN_PATTERN_HTML, "http://a.de/", 7).links
        assert len(links) == 14
        assert content_links(links) == [
            ContentLink("http://a.de/", "http://a.de/page", 7, True, "a.de", "a.de", "Ein Link")
        ]

    def test_order_preserved(self):
        records = [
            LinkRecord("http://s.de/", 1, f"http://t.de/{i}", "A/href", str(i)) for i in range(3)
        ] + [LinkRecord("http://s.de/", 1, "http://t.de/img", "IMG/src", "")] * 2
        for strategy in (STRATEGY_ALL, STRATEGY_UNIQUE_PER_REVISION):
            assert [l.anchor_text for l in counted_links(content_links(records), strategy)] == ["0", "1", "2"]

    def test_keeps_anchor_links_with_both_ends_resolved(self):
        records = [
            LinkRecord("http://S.de:80/a?r=1", 5, "http://www.T.co.uk/p?q=2#top", "A/href", "t"),
            LinkRecord("http://s.de/", 5, "http://t.de/logo.png", "IMG/src", ""),
        ]
        assert content_links(records) == [
            ContentLink("http://s.de/a", "http://www.t.co.uk/p", 5, True, "s.de", "t.co.uk", "t")
        ]

    def test_links_with_an_unparseable_end_dropped(self):
        records = [
            LinkRecord("http://s.de/", 1, "mailto:x@t.de", "A/href", "a"),
            LinkRecord("", 1, "http://t.de/", "A/href", "b"),
            LinkRecord("http://s.de/", 1, "http://[broken/", "A/href", "c"),
            LinkRecord("http://s.de/", 1, "http://t.de/", "A/href", "d"),
        ]
        assert [l.anchor_text for l in content_links(records)] == ["d"]

    def test_unique_per_revision_key(self):
        """One link per (source full URL, capture time, target core URL,
        anchor text); the first occurrence is flagged, in input order."""
        base = LinkRecord("http://s.de/?r=1", 1, "http://t.de/?a", "A/href", "x")
        records = [
            base,
            base._replace(target_url="http://t.de/?b"),  # same target core URL
            base._replace(source_capture_time=2),
            base._replace(source_full_url="http://s.de/?r=2"),
            base._replace(target_url="http://u.de/"),
            base._replace(anchor_text="y"),
            base,
        ]
        content = content_links(records)
        assert [l.first for l in content] == [True, False, True, True, True, True, False]
        unique = list(counted_links(content, STRATEGY_UNIQUE_PER_REVISION))
        assert len(unique) == 5 and unique[0] == content_links([base])[0]
        assert list(counted_links(content, STRATEGY_ALL)) == content

    def test_flag_survives_interleaving_and_other_patterns(self):
        """A repeat is flagged by its key alone: links in between, and
        links of other tag patterns, do not reset it."""
        a = LinkRecord("http://s.de/", 1, "http://t.de/", "A/href", "x")
        b = LinkRecord("http://s.de/", 1, "http://u.de/", "A/href", "x")
        img = LinkRecord("http://s.de/", 1, "http://t.de/", "IMG/src", "")
        content = content_links([a, b, img, a, b, a])
        assert [(l.target, l.first) for l in content] == [
            ("http://t.de/", True), ("http://u.de/", True),
            ("http://t.de/", False), ("http://u.de/", False), ("http://t.de/", False),
        ]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            counted_links([], "per_source")

    def test_each_distinct_url_resolved_once(self, monkeypatch):
        calls = []
        original = urls.normalize
        monkeypatch.setattr(ingest, "normalize", lambda raw: calls.append(raw) or original(raw))
        records = [
            LinkRecord(f"http://s{i % 2}.de/", i, f"http://t.de/{i % 3}", "A/href", str(i))
            for i in range(60)
        ]
        assert len(content_links(records)) == 60
        assert sorted(calls) == sorted({u for r in records for u in (r.source_full_url, r.target_url)})

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["http", "https", "HTTP"]),
                st.lists(st.sampled_from(["www", "a", "B", "co", "uk", "de", "com", "x-y"]), min_size=1, max_size=4),
                st.sampled_from(["", ":80", ":8080", ":443"]),
                st.sampled_from(["", "/", "/p", "/p/q.html"]),
                st.sampled_from(["", "?r=1", "#f"]),
            ).map(lambda t: f"{t[0]}://{'.'.join(t[1])}{t[2]}{t[3]}{t[4]}")
            | st.sampled_from(["http://10.0.0.1/x", "http://[::1]:8080/", "http://localhost/", "mailto:a@b.de"]),
            min_size=2,
            max_size=12,
        ),
        st.sampled_from([None, ("de",), ("co.uk", "uk", "de"), ("com", "x-y.com")]),
    )
    def test_domains_are_those_of_each_core_url(self, raw_urls, suffixes):
        table = urls.SuffixTable(suffixes) if suffixes else None
        records = [
            LinkRecord(source, i, target, "A/href", "x")
            for i, (source, target) in enumerate(zip(raw_urls, raw_urls[1:]))
        ]
        content = content_links(records, UrlResolver(table))
        for link in content:
            for core, domain in ((link.source, link.source_domain), (link.target, link.target_domain)):
                assert domain == urls.domain_of(urls.normalize(core), table)
        resolvable = [r for r in records if _parses(r.source_full_url) and _parses(r.target_url)]
        assert [(l.source, l.target) for l in content] == [
            (urls.core_url_str(r.source_full_url), urls.core_url_str(r.target_url)) for r in resolvable
        ]


def _parses(url: str) -> bool:
    try:
        urls.core_url_str(url)
    except urls.UrlError:
        return False
    return True


BASE = "http://a.de/dir/page.html"
SECURE_BASE = "https://s.de/dir/"

# (base, href, resolved): hrefs with and without their own authority, and bases
# of several schemes, which the memo keys by
RESOLUTION_TABLE = [
    (BASE, "x/y.html", "http://a.de/dir/x/y.html"),
    (BASE, "//host.de/p", "http://host.de/p"),
    (SECURE_BASE, "//host.de/p", "https://host.de/p"),
    (BASE, "HTTP://A.DE/x", "http://a.de/x"),
    (BASE, "https://b.de/s", "https://b.de/s"),
    (SECURE_BASE, "http://b.de/s", "http://b.de/s"),
    (BASE, "http:foo", "http://a.de/dir/foo"),  # a scheme without authority
    (SECURE_BASE, "http:foo", None),
    (BASE, "?q", "http://a.de/dir/page.html?q"),
    (SECURE_BASE, "?q", "https://s.de/dir/?q"),
    (BASE, "#f", None),
    (BASE, "javascript:void(0)", None),
    (BASE, "/a\tb", "http://a.de/ab"),
    (BASE, "//ho\tst.de/p", "http://host.de/p"),
    (BASE, "http://[::1/x", None),
    (BASE, "ftp://f.de/x", None),
    # bases that do not normalize, as extract_links passes them on
    ("dns:example.com", "//h.de/p", "http://h.de/p"),
    ("dns:example.com", "p.html", "http://p.html/"),
    ("", "//h.de/p?", "http://h.de/p"),
    ("http://[::1/", "//h.de/p", None),
    ("http://[::1/", "x", None),
]


RESOLUTION_BASES = st.one_of(
    st.sampled_from(sorted({base for base, _h, _r in RESOLUTION_TABLE})), st.text(max_size=24)
)
RESOLUTION_HREFS = st.one_of(
    st.sampled_from([href for _b, href, _r in RESOLUTION_TABLE]),
    st.builds(
        str.__add__,
        st.sampled_from(["", "/", "//", "http:", "HTTP://", "https://", "ftp://", "?", "#", "mailto:"]),
        st.text(alphabet="aAhz.:/?#[]@%20\t -", max_size=16),
    ),
)


class TestHrefResolver:
    """``UrlResolver.href``; a fresh resolver per call is the reference."""

    @pytest.mark.parametrize("base, href, resolved", RESOLUTION_TABLE)
    def test_direct_resolution(self, base, href, resolved):
        assert UrlResolver().href(base, href) == resolved

    def test_shared_resolver_matches_the_table_in_any_order(self):
        resolver = UrlResolver()
        for base, href, resolved in RESOLUTION_TABLE + RESOLUTION_TABLE[::-1]:
            assert resolver.href(base, href) == resolved, (base, href)

    @given(st.lists(st.tuples(RESOLUTION_BASES, RESOLUTION_HREFS), max_size=40))
    def test_shared_resolver_equals_direct_resolution(self, pairs):
        resolver = UrlResolver()
        for base, href in pairs + pairs:
            assert resolver.href(base, href) == UrlResolver().href(base, href)

    def test_absolute_href_joined_once_per_ingest(self, tmp_path, monkeypatch):
        joined = []
        original = ingest.urljoin
        monkeypatch.setattr(ingest, "urljoin", lambda base, href: joined.append(href) or original(base, href))
        root = tmp_path / "corpus"
        (root / "archives").mkdir(parents=True)
        pages = [
            warc_record_bytes(
                f"http://s{i}.de/p", "2009-01-01T00:00:00Z",
                b'<a href="http://t.de/shared">x</a> <a href="own">y</a>',
            )
            for i in range(4)
        ]
        (root / "archives" / "part.warc.gz").write_bytes(warc_file_bytes(pages))
        (root / "config.txt").write_text("seed=1\npaths.archives=archives\n", encoding="utf-8")
        assert main(["ingest", "--config", str(root / "config.txt"), "--run-dir", str(tmp_path / "run")]) == 0
        assert joined.count("http://t.de/shared") == 1
        assert joined.count("own") == 4  # relative: one join per base
        links = (tmp_path / "run" / "links.tsv").read_text(encoding="utf-8").splitlines()
        assert len(links) == 8

    def test_shared_resolver_extracts_what_a_fresh_one_does(self):
        resolver = UrlResolver()
        for base in ("http://a.de/x/", "https://b.de/", "HTTP://A.DE/x/", "http://a.de/x/"):
            expected = extract_links(FOURTEEN_PATTERN_HTML, base, 5)
            assert extract_links(FOURTEEN_PATTERN_HTML, base, 5, resolver) == expected
            assert {link.source_full_url for link in expected.links} == {str(urls.normalize(base))}


class TestUrlEnds:
    def test_full_core_and_domain(self):
        table = urls.SuffixTable(("co.uk",))
        assert UrlResolver(table).ends("HTTP://www.B.co.uk:80/p?q=1#f") == UrlEnds(
            "http://www.b.co.uk/p?q=1", "http://www.b.co.uk/p", "b.co.uk"
        )
        assert UrlResolver().ends("http://[broken/") is None

    def test_ingest_normalizes_each_distinct_url_string_once(self, tmp_path, monkeypatch):
        calls = []
        original = urls.normalize
        monkeypatch.setattr(ingest, "normalize", lambda raw: calls.append(raw) or original(raw))
        page = b'<a href="http://t.de/shared">x</a> <a href="own">y</a>'
        root = tmp_path / "corpus"
        (root / "archives").mkdir(parents=True)
        records = [
            warc_record_bytes("http://a.de/p", "2009-01-01T00:00:00Z", page),
            warc_record_bytes("http://a.de/p", "2009-02-01T00:00:00Z", page),  # captured twice
            warc_record_bytes("HTTP://A.DE/x", "2009-01-01T00:00:00Z", page),  # not canonical
        ]
        (root / "archives" / "part.warc.gz").write_bytes(warc_file_bytes(records))
        (root / "config.txt").write_text("seed=1\npaths.archives=archives\n", encoding="utf-8")
        assert main(["ingest", "--config", str(root / "config.txt"), "--run-dir", str(tmp_path / "run")]) == 0
        # the record URLs, the joined hrefs, and the canonical form of the
        # one record URL that is not canonical, which content_links reads
        assert sorted(calls) == sorted(
            {"http://a.de/p", "HTTP://A.DE/x", "http://t.de/shared", "http://a.de/own", "http://a.de/x"}
        )
        assert len((tmp_path / "run" / "content_links.tsv").read_text(encoding="utf-8").splitlines()) == 6


class TestTsvRoundTrip:
    def test_revisions_identity(self):
        data = warc_file_bytes(
            [warc_record_bytes("http://WWW.A.de/x?q=1", "2009-03-02T11:00:00Z", b"")]
        )
        records, _ = parse_warc(data)
        revision = revision_from_record(records[0])
        assert revision.core_url == "http://www.a.de/x"
        assert revision.full_url == "http://www.a.de/x?q=1"
        assert revision.domain == "a.de"
        buf = io.StringIO()
        write_revisions_tsv([revision], buf)
        buf.seek(0)
        assert list(read_revisions_tsv(buf)) == [revision]

    def test_links_with_escapes(self):
        tricky = LinkRecord("http://s.de/", 5, "http://t.de/", "A/href", "a\tb\nc\\d\re")
        buf = io.StringIO()
        write_links_tsv([tricky], buf)
        assert "\\t" in buf.getvalue() and "\\n" in buf.getvalue()
        buf.seek(0)
        assert list(read_links_tsv(buf)) == [tricky]

    def test_content_links_with_escapes(self):
        rows = [
            ContentLink("http://s.de/", "http://t.de/", 5, True, "s.de", "t.de", "a\tb\nc\\d\re"),
            ContentLink("http://s.de/", "http://t.de/", 5, False, "s.de", "t.de", "\\t is not a tab"),
            ContentLink("http://s.de/x", "http://u.co.uk/", 6, True, "s.de", "u.co.uk", ""),
        ]
        buf = io.StringIO()
        assert write_content_links_tsv(rows, buf) == 3
        assert buf.getvalue().count("\n") == 3 and buf.getvalue().count("\t") == 3 * 6
        buf.seek(0)
        assert list(read_content_links_tsv(buf)) == rows


def test_bounded_memory_parse():
    """Peak allocation must track record size, not record count."""

    def peak_for(count: int) -> int:
        payload = b"<html>" + b"y" * 2000 + b"</html>"
        data = warc_file_bytes(
            [
                warc_record_bytes(f"http://a.de/{i}", "2009-01-01T00:00:00Z", payload)
                for i in range(count)
            ],
            per_record_gzip=False,
        )
        stream = io.BytesIO(data)
        tracemalloc.start()
        for _ in parse_warc_stream(stream):
            pass
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    small = peak_for(20)
    large = peak_for(200)
    assert large < small * 3 + 100_000


# ---------------------------------------------------------------------------
# capture dates: the WARC fixed-form fast path against the strptime parser
# it sits in front of, and the ARC fixed form, the header's only date
# parser, against the strptime parser it replaced


def reference_warc_date(value: str) -> int | None:
    value = value.strip()
    value = re.sub(r"\.\d+Z$", "Z", value)
    for fmt in ("%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%dT%H:%M:%S%z"):
        try:
            dt = datetime.strptime(value, fmt)
        except ValueError:
            continue
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    return None


def reference_arc_date(value: str) -> int | None:
    if len(value) != 14 or not value.isdigit():
        return None
    try:
        dt = datetime.strptime(value, "%Y%m%d%H%M%S").replace(tzinfo=timezone.utc)
    except ValueError:
        return None
    return int(dt.timestamp())


# other scripts' digits, which \d and isdigit accept: Arabic-Indic, Devanagari, fullwidth
_DIGIT_SCRIPTS = (0x0660, 0x0966, 0xFF10)


@st.composite
def date_fields(draw) -> list[str]:
    """Year, month, day, hour, minute and second, zero-padded, each drawn
    a little beyond its range (Feb 30, hour 24, second 60 and so on); at
    times one digit is written in another script."""
    fields = [
        f"{draw(st.integers(0, 9999)):04d}",
        *(f"{draw(st.integers(0, hi)):02d}" for hi in (13, 32, 25, 61, 62)),
    ]
    if draw(st.booleans()):
        i = draw(st.integers(0, 5))
        j = draw(st.integers(0, len(fields[i]) - 1))
        digit = chr(draw(st.sampled_from(_DIGIT_SCRIPTS)) + int(fields[i][j]))
        fields[i] = fields[i][:j] + digit + fields[i][j + 1 :]
    return fields


@st.composite
def warc_dates(draw) -> str:
    year, month, day, hour, minute, second = draw(date_fields())
    fraction = draw(st.sampled_from(["", ".5", ".123456", ".", ".x"]))
    zone = draw(st.sampled_from(["Z", "Z", "Z", "+01:00", "-0530", "+00:00", "", "z", "ZZ", "Z0"]))
    pad = draw(st.sampled_from(["", " ", "\t", "\u3000"]))
    return f"{pad}{year}-{month}-{day}T{hour}:{minute}:{second}{fraction}{zone}{pad}"


# a piece of an ARC date field: an ASCII digit, a latin-1 superscript
# digit (which isdigit accepts and strptime's \d does not), the UTF-8 of
# an Arabic-Indic digit, or any other byte but a space, which would end
# the field
_SUPERSCRIPTS = b"\xb2\xb3\xb9"
_FIELD_PIECE = st.one_of(
    st.sampled_from([bytes([b]) for b in b"0123456789" + _SUPERSCRIPTS] + [chr(0x0660 + d).encode() for d in range(10)]),
    st.integers(0, 255).filter(lambda b: b != 0x20).map(lambda b: bytes([b])),
)


@st.composite
def arc_date_fields(draw) -> bytes:
    """An ARC date field: the UTF-8 of a date drawn by date_fields (whose
    other-script digits hold Arabic-Indic ones), cut short, lengthened, or
    with one byte replaced by a drawn piece."""
    field = "".join(draw(date_fields())).encode()
    i = draw(st.integers(0, len(field) - 1))
    return draw(
        st.sampled_from([field, field[:-1], field + b"0", field[:i] + draw(_FIELD_PIECE) + field[i + 1 :]])
    )


def arc_header_date(field: bytes) -> int | None:
    """The capture time that ``_parse_arc_header`` reads from a header line
    whose date field is ``field``; None when it rejects the line."""
    parsed = ingest._parse_arc_header(b"http://a.de/x 10.0.0.1 " + field + b" text/html 10\n")
    return None if parsed is None else parsed[1]


DATE_EDGES = [
    "2009-02-28T23:59:59Z", "2008-02-29T12:00:00Z", "2009-02-29T12:00:00Z", "2009-02-30T00:00:00Z",
    "2009-01-01T24:00:00Z", "2009-01-01T00:60:00Z", "2009-01-01T00:00:60Z", "2009-01-01T00:00:61Z",
    "2009-13-01T00:00:00Z", "0000-01-01T00:00:00Z", "2009-01-01T00:00:00.25Z", "2009-01-01T01:00:00+01:00",
    "2009-01-01T00:00:00", "2009-1-1T0:0:0Z", "\u0662009-01-01T00:00:00Z", "２００９-01-01T00:00:00Z",
]


class TestCaptureDates:
    @pytest.mark.parametrize("value", DATE_EDGES)
    def test_warc_edges_match_the_strptime_parser(self, value):
        assert ingest._parse_warc_date(value) == reference_warc_date(value)

    @pytest.mark.parametrize(
        "value", [v.replace("-", "").replace("T", "").replace(":", "").removesuffix("Z") for v in DATE_EDGES]
    )
    def test_arc_edges_match_the_strptime_parser(self, value):
        field = value.encode()
        assert arc_header_date(field) == reference_arc_date(field.decode("latin-1"))

    def test_fixed_forms(self):
        assert ingest._parse_warc_date("2009-03-02T11:00:00Z") == 1235991600
        assert arc_header_date(b"20090302110000") == 1235991600
        assert ingest._parse_warc_date("2009-02-30T00:00:00Z") is None
        assert arc_header_date(b"20090101240000") is None
        for digit in _SUPERSCRIPTS:  # isdigit accepts them, \d does not
            assert arc_header_date(b"2009030211000" + bytes([digit])) is None

    @settings(max_examples=400)
    @given(st.one_of(warc_dates(), st.text(max_size=30)))
    def test_warc_matches_the_strptime_parser(self, value):
        assert ingest._parse_warc_date(value) == reference_warc_date(value)

    @settings(max_examples=400)
    @given(st.one_of(arc_date_fields(), st.lists(_FIELD_PIECE, max_size=16).map(b"".join)))
    def test_arc_matches_the_strptime_parser(self, field):
        assert arc_header_date(field) == reference_arc_date(field.decode("latin-1"))


# ---------------------------------------------------------------------------
# ingest's external sort: spilled runs change no byte and leave no file


def _ingest_outputs(config: Path, run_dir: Path) -> tuple[dict[str, bytes], dict[str, int]]:
    assert main(["ingest", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    counts = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["stages"][-1]["row_counts"]
    return {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "manifest.json"}, counts


INGEST_WRITES = {"revisions.tsv", "links.tsv", "content_links.tsv"}


def test_spilled_runs_give_the_same_bytes_and_counts(mini_corpus, tmp_path, monkeypatch):
    config = mini_corpus.root / "config.txt"
    runs = {}
    for run_records in (10**9, 1, 50):
        monkeypatch.setattr(tables, "_RUN_RECORDS", run_records)
        runs[run_records] = _ingest_outputs(config, tmp_path / str(run_records))
        assert {p.name for p in (tmp_path / str(run_records)).iterdir()} == INGEST_WRITES | {"manifest.json"}
    in_memory = runs[10**9]
    assert in_memory[1]["links"] > 50 * tables._FAN_IN  # 50 spills more runs than one merge takes
    assert runs[1] == in_memory and runs[50] == in_memory


def test_a_page_captured_in_two_containers_is_one_group_across_runs(tmp_path, monkeypatch):
    """One page captured at one second in a WARC file and in an ARC file,
    each copy linking the same target with the same anchor. The two links
    are spilled in different runs, and the merge brings them back into one
    (source full URL, capture time) group: the second is flagged a repeat,
    as in a run that never spills."""
    root = tmp_path / "corpus"
    (root / "archives").mkdir(parents=True)
    link = b'<a href="http://t.de/">same</a>'
    (root / "archives" / "a.warc").write_bytes(
        warc_file_bytes(
            [warc_record_bytes("http://s.de/p", "2009-01-01T00:00:00Z", link + b' <img src="http://t.de/i.png">')],
            per_record_gzip=False,
        )
    )
    (root / "archives" / "b.arc").write_bytes(
        arc_file_bytes([arc_record_bytes("http://s.de/p", "20090101000000", link)], per_record_gzip=False)
    )
    config = root / "config.txt"
    config.write_text("seed=1\npaths.archives=archives\n", encoding="utf-8")
    runs = []
    spill_run = tables.ExternalSort._spill_run

    def recorded(sort):
        runs.append(sorted(sort.run))
        spill_run(sort)

    monkeypatch.setattr(tables.ExternalSort, "_spill_run", recorded)
    monkeypatch.setattr(tables, "_RUN_RECORDS", 2)  # the WARC copy's two links fill the first run
    spilled, counts = _ingest_outputs(config, tmp_path / "spilled")
    anchor_link = ("http://s.de/p", 1230768000, "http://t.de/", "A/href", "same")
    image_link = ("http://s.de/p", 1230768000, "http://t.de/i.png", "IMG/src", "")
    assert [run for run in runs if len(run[0]) == 5] == [[anchor_link, image_link], [anchor_link]]
    assert spilled["links.tsv"].decode().splitlines() == [
        "\t".join(map(str, link)) for link in (anchor_link, anchor_link, image_link)
    ]
    assert [row.split("\t")[3] for row in spilled["content_links.tsv"].decode().splitlines()] == ["1", "0"]
    monkeypatch.setattr(tables, "_RUN_RECORDS", 10**9)
    assert _ingest_outputs(config, tmp_path / "in-memory") == (spilled, counts)


@pytest.mark.parametrize("failing", ["extract_links", "content_links"])
def test_a_failed_ingest_leaves_no_spill(mini_corpus, tmp_path, monkeypatch, capsys, failing):
    """A data error while the runs are spilled (in extract_links) or merged
    (in content_links) leaves the outputs of the last ingest, and no
    temporary file, in the run directory."""
    config = mini_corpus.root / "config.txt"
    run_dir = tmp_path / "run"
    before, _counts = _ingest_outputs(config, run_dir)
    monkeypatch.setattr(tables, "_RUN_RECORDS", 5)
    calls = 0
    real = getattr(ingest, failing)

    def fails_late(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 20:
            raise ValueError("damaged")
        return real(*args, **kwargs)

    monkeypatch.setattr(ingest, failing, fails_late)
    assert main(["ingest", "--config", str(config), "--run-dir", str(run_dir)]) == 2
    assert "damaged" in capsys.readouterr().err
    assert {p.name for p in run_dir.iterdir()} == INGEST_WRITES | {"manifest.json"}
    assert {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "manifest.json"} == before


def test_an_ingest_of_a_container_cut_inside_a_member_leaves_no_spill(mini_corpus, tmp_path, monkeypatch):
    damaged = tmp_path / "corpus"
    shutil.copytree(mini_corpus.root, damaged)
    part_a = damaged / "archives" / "part-a.warc.gz"
    data = part_a.read_bytes()
    members = [m.start() for m in re.finditer(b"\x1f\x8b\x08", data)]
    cut = (members[len(members) // 2] + members[len(members) // 2 + 1]) // 2  # inside a member
    part_a.write_bytes(data[:cut])
    monkeypatch.setattr(tables, "_RUN_RECORDS", 7)
    cut_outputs, cut_counts = _ingest_outputs(damaged / "config.txt", tmp_path / "cut")
    monkeypatch.setattr(tables, "_RUN_RECORDS", 10**9)
    assert _ingest_outputs(damaged / "config.txt", tmp_path / "in-memory") == (cut_outputs, cut_counts)
    _intact, intact_counts = _ingest_outputs(mini_corpus.root / "config.txt", tmp_path / "intact")
    assert cut_counts["corrupt"] == intact_counts["corrupt"] + 1
    assert {p.name for p in (tmp_path / "cut").iterdir()} == INGEST_WRITES | {"manifest.json"}


def test_ingest_memory_tracks_the_run_not_the_link_count(tmp_path):
    """With small runs, the peak allocation of an ingest over 4N link-heavy
    records stays within a fixed factor of that over N. Each ingest runs in
    a fresh process, as the table of interned strings, which the readers
    grow, is the process's."""
    code = (
        "import sys, tracemalloc\n"
        "from archive_rank import pipeline, tables\n"
        "tables._RUN_RECORDS = 256\n"
        "tracemalloc.start()\n"
        "counts = pipeline.run_stage('ingest', pipeline.load_config(sys.argv[1]), sys.argv[2])\n"
        "print(tracemalloc.get_traced_memory()[1], counts['links'])\n"
    )

    def peak_for(count: int) -> int:
        root = tmp_path / str(count)
        (root / "archives").mkdir(parents=True)
        page = " ".join(f'<a href="http://t.de/{j % 40}">anchor {j} of page</a>' for j in range(100)).encode()
        (root / "archives" / "part.warc").write_bytes(
            warc_file_bytes(
                [warc_record_bytes(f"http://s.de/{i}", "2009-01-01T00:00:00Z", page) for i in range(count)],
                per_record_gzip=False,
            )
        )
        (root / "config.txt").write_text("seed=1\npaths.archives=archives\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(root / "config.txt"), str(root / "run")],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        peak, links = map(int, proc.stdout.split())
        assert links == 100 * count
        return peak

    small = peak_for(30)
    large = peak_for(120)
    assert large < small * 1.5
