import gzip
import io
import json
import shutil
import tempfile
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from archive_rank import ingest, urls
from archive_rank.cli import main
from archive_rank.ingest import (
    ANCHOR_TEXT_CAP,
    LINK_PATTERNS,
    PATTERN_TOKENS,
    STRATEGY_ALL,
    STRATEGY_UNIQUE_PER_REVISION,
    ContentLink,
    HrefResolver,
    LinkRecord,
    ParseStats,
    content_links,
    extract_links,
    filter_content_links,
    parse_arc_stream,
    parse_warc_stream,
    read_links_tsv,
    read_revisions_tsv,
    revision_from_record,
    write_links_tsv,
    write_revisions_tsv,
    _resolve,
)
from archive_rank.synthetic import (
    arc_file_bytes,
    arc_record_bytes,
    make_synthetic_archive,
    warc_file_bytes,
    warc_record_bytes,
)


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
        assert rec.record_kind == "response"
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
        assert not result.decode_failed

    def test_undecodable_bytes_still_tolerated(self):
        payload = b'<a href="/x">\xff\xfe broken</a>'
        result = extract_links(payload, "http://a.de/", 7)
        assert len(result.links) == 1
        assert not result.decode_failed

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


class TestFilterContentLinks:
    def test_empty(self):
        assert filter_content_links([]) == []

    def test_fourteen_pattern_document_keeps_only_the_anchor(self):
        links = extract_links(FOURTEEN_PATTERN_HTML, "http://a.de/", 7).links
        kept = filter_content_links(links)
        assert len(kept) == 1 and kept[0].tag_pattern == "A/href"

    def test_order_preserved(self):
        records = [
            LinkRecord("http://s.de/", 1, f"http://t.de/{i}", "A/href", str(i)) for i in range(3)
        ] + [LinkRecord("http://s.de/", 1, "http://t.de/img", "IMG/src", "")] * 2
        kept = filter_content_links(records)
        assert [l.anchor_text for l in kept] == ["0", "1", "2"]


class TestContentLinks:
    def test_keeps_anchor_links_with_both_ends_resolved(self):
        records = [
            LinkRecord("http://S.de:80/a?r=1", 5, "http://T.de/p?q=2#top", "A/href", "t"),
            LinkRecord("http://s.de/", 5, "http://t.de/logo.png", "IMG/src", ""),
        ]
        for strategy in (STRATEGY_ALL, STRATEGY_UNIQUE_PER_REVISION):
            assert content_links(records, strategy) == [
                ContentLink("http://s.de/a", "http://t.de/p", 5, "t")
            ]

    def test_links_with_an_unparseable_end_dropped(self):
        records = [
            LinkRecord("http://s.de/", 1, "mailto:x@t.de", "A/href", "a"),
            LinkRecord("", 1, "http://t.de/", "A/href", "b"),
            LinkRecord("http://s.de/", 1, "http://[broken/", "A/href", "c"),
            LinkRecord("http://s.de/", 1, "http://t.de/", "A/href", "d"),
        ]
        assert [l.anchor_text for l in content_links(records, STRATEGY_ALL)] == ["d"]

    def test_unique_per_revision_key(self):
        """One link per (source full URL, capture time, target core URL,
        anchor text); the first occurrence is kept, in input order."""
        base = LinkRecord("http://s.de/?r=1", 1, "http://t.de/?a", "A/href", "x")
        records = [
            base,
            replace(base, target_url="http://t.de/?b"),  # same target core URL
            replace(base, source_capture_time=2),
            replace(base, source_full_url="http://s.de/?r=2"),
            replace(base, target_url="http://u.de/"),
            replace(base, anchor_text="y"),
            base,
        ]
        unique = content_links(records, STRATEGY_UNIQUE_PER_REVISION)
        assert len(unique) == 5 and unique[0] == content_links([base], STRATEGY_ALL)[0]
        assert len(content_links(records, STRATEGY_ALL)) == 7

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            content_links([], "per_source")

    def test_each_distinct_url_resolved_once(self, monkeypatch):
        calls = []
        original = urls.normalize
        monkeypatch.setattr(urls, "normalize", lambda raw: calls.append(raw) or original(raw))
        records = [
            LinkRecord(f"http://s{i % 2}.de/", i, f"http://t.de/{i % 3}", "A/href", str(i))
            for i in range(60)
        ]
        assert len(content_links(records, STRATEGY_ALL)) == 60
        assert sorted(calls) == sorted({u for r in records for u in (r.source_full_url, r.target_url)})


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
    @pytest.mark.parametrize("base, href, resolved", RESOLUTION_TABLE)
    def test_direct_resolution(self, base, href, resolved):
        assert _resolve(base, href) == resolved

    def test_shared_resolver_matches_the_table_in_any_order(self):
        resolver = HrefResolver()
        for base, href, resolved in RESOLUTION_TABLE + RESOLUTION_TABLE[::-1]:
            assert resolver.resolve(base, href) == resolved, (base, href)

    @given(st.lists(st.tuples(RESOLUTION_BASES, RESOLUTION_HREFS), max_size=40))
    def test_shared_resolver_equals_direct_resolution(self, pairs):
        resolver = HrefResolver()
        for base, href in pairs + pairs:
            assert resolver.resolve(base, href) == _resolve(base, href)

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
        resolver = HrefResolver()
        for base in ("http://a.de/x/", "https://b.de/", "HTTP://A.DE/x/", "http://a.de/x/"):
            expected = extract_links(FOURTEEN_PATTERN_HTML, base, 5)
            assert extract_links(FOURTEEN_PATTERN_HTML, base, 5, resolver) == expected
            assert {link.source_full_url for link in expected.links} == {str(urls.normalize(base))}


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
