"""Streaming readers for WARC and ARC containers plus hyperlink extraction.

The readers are single-pass generators: peak memory is bounded by the
largest individual record, never by container size. Damaged records are
counted and skipped; the stream always continues (or ends cleanly on a
truncated tail). Emitted values are immutable and safe to share across
threads; independent files may be read by independent readers concurrently.
"""
from __future__ import annotations

import codecs
import gzip
import io
import re
import struct
import sys
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple
from urllib.parse import urljoin, urlsplit

from .tables import escape, rows, unescape
from .urls import SuffixTable, UrlError, core_url, domain_of, normalize

__all__ = [
    "ArchiveRecord",
    "RevisionRecord",
    "LinkRecord",
    "ContentLink",
    "STRATEGY_UNIQUE_PER_REVISION",
    "STRATEGY_ALL",
    "STRATEGIES",
    "ParseStats",
    "LinkExtraction",
    "UrlEnds",
    "UrlResolver",
    "LINK_PATTERNS",
    "ANCHOR_TEXT_CAP",
    "parse_warc_stream",
    "parse_arc_stream",
    "extract_links",
    "content_links",
    "counted_links",
    "revision_from_record",
    "write_revisions_tsv",
    "read_revisions_tsv",
    "revisions_by_core",
    "write_links_tsv",
    "read_links_tsv",
    "write_link_tables",
    "write_content_links_tsv",
    "read_content_links_tsv",
]

# lowercase tag -> attribute carrying the link target; one row per link type
LINK_PATTERNS = {
    "a": "href",
    "img": "src",
    "area": "href",
    "embed": "src",
    "frame": "src",
    "input": "src",
    "iframe": "src",
    "form": "action",
    "td": "background",
    "tr": "background",
    "body": "background",
    "object": "codebase",
    "table": "background",
    "fb:login-button": "background",
}

# Per-anchor cap; pathological anchors exist in archived markup.
ANCHOR_TEXT_CAP = 8192

# builds a NamedTuple from a tuple of its fields, as its ``_make`` does,
# without the Python frame of its ``__new__``
_new = tuple.__new__


@dataclass(frozen=True)
class ArchiveRecord:
    """One capture from a WARC or ARC container. The payload is transient:
    it exists for link extraction during streaming and is never persisted."""

    target_uri: str
    capture_time: int  # epoch seconds, UTC
    mime_type: str
    http_status: int | None
    payload: bytes


class RevisionRecord(NamedTuple):
    """One archived capture of a document, keyed by its core URL. Its field
    order is the sort order of ``revisions.tsv``, so a revision is its own
    sort key."""

    core_url: str
    capture_time: int
    full_url: str
    domain: str


class LinkRecord(NamedTuple):
    """One extracted hyperlink occurrence. Its field order is the sort
    order of ``links.tsv``, so a link is its own sort key."""

    source_full_url: str
    source_capture_time: int
    target_url: str
    tag_pattern: str
    anchor_text: str = ""


# Link dedup strategies: keep one link per (source revision, target core
# URL, anchor text), or keep every link.
STRATEGY_UNIQUE_PER_REVISION = "unique_per_revision"
STRATEGY_ALL = "all"
STRATEGIES = (STRATEGY_UNIQUE_PER_REVISION, STRATEGY_ALL)


class ContentLink(NamedTuple):
    """A content link with both ends resolved to core URLs and their
    registrable domains. ``first`` marks the first of the links that share
    one (source revision, target core URL, anchor text)."""

    source: str
    target: str
    capture_time: int
    first: bool
    source_domain: str
    target_domain: str
    anchor_text: str


def content_links(links: Iterable[LinkRecord], resolver: UrlResolver | None = None) -> list[ContentLink]:
    """The ``A/href`` links, in order, with both ends resolved to core URLs
    and their registrable domains by ``resolver`` (a fresh
    :class:`UrlResolver` when omitted). Each link is unpacked in the field
    order of :class:`LinkRecord`, so plain 5-tuples in that order serve too.

    A link with an end that does not parse is dropped. No link that
    :func:`extract_links` finds on a page whose URL parses, as every page of
    ``ingest`` has, is: both its ends are ``UrlResolver.ends`` results, which
    resolve again to themselves. Of the links sharing one (source full URL,
    capture time, target core URL, anchor text), the first is flagged
    ``first``.
    """
    resolver = resolver if resolver is not None else UrlResolver()
    return [
        _new(ContentLink, (source.core, target.core, when, first, source.domain, target.domain, anchor))
        for _url, when, _target_url, _pattern, anchor, source, target, first in _resolved_links(links, resolver)
        if first is not None
    ]


def _resolved_links(links: Iterable[LinkRecord], resolver: UrlResolver) -> Iterator[tuple]:
    """Each of ``links`` as its five fields and, when it is a content link
    (see :func:`content_links`), the :class:`UrlEnds` of its source and
    target and its ``first`` flag; else None for each of the three. A
    source URL is resolved once for each run of links that share it."""
    seen: set[tuple[str, int, str, str]] = set()
    page = source = None
    for source_url, when, target_url, pattern, anchor in links:
        if pattern == "A/href":
            if source_url != page:
                page, source = source_url, resolver.ends(source_url)
            target = resolver.ends(target_url)
            if source is not None and target is not None:
                key = (source_url, when, target.core, anchor)
                yield source_url, when, target_url, pattern, anchor, source, target, key not in seen
                seen.add(key)
                continue
        yield source_url, when, target_url, pattern, anchor, None, None, None


def counted_links(content: Iterable[ContentLink], strategy: str) -> Iterator[ContentLink]:
    """The content links a dedup ``strategy`` counts, as ``content`` is
    read: every one under ``all``, the ``first`` of each repeat under
    ``unique_per_revision``. An unknown strategy raises at the call."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy!r}")
    return (link for link in content if strategy == STRATEGY_ALL or link.first)


@dataclass
class ParseStats:
    """Per-stream record accounting: emitted + skipped + corrupt = total."""

    emitted: int = 0
    skipped: int = 0
    corrupt: int = 0

    @property
    def total(self) -> int:
        return self.emitted + self.skipped + self.corrupt


@dataclass
class LinkExtraction:
    """Result of scanning one payload."""

    links: list[LinkRecord] = field(default_factory=list)
    truncated_anchors: int = 0


# ---------------------------------------------------------------------------
# container plumbing


def _open_stream(stream: BinaryIO) -> BinaryIO:
    """Wrap a byte stream, transparently inflating gzip (including files
    made of concatenated per-record members)."""
    buffered = stream if isinstance(stream, io.BufferedReader) else io.BufferedReader(stream)  # type: ignore[arg-type]
    head = buffered.peek(2)[:2]
    if head == b"\x1f\x8b":
        return io.BufferedReader(_GzipMembers(buffered))  # type: ignore[return-value]
    return buffered


# GzipFile's compressed read size, and the gzip header flags (RFC 1952)
_CHUNK = io.DEFAULT_BUFFER_SIZE
_FHCRC, _FEXTRA, _FNAME, _FCOMMENT = 2, 4, 8, 16
_SHORT = "Compressed file ended before the end-of-stream marker was reached"


class _GzipMembers(io.RawIOBase):
    """The inflated bytes of a stream of gzip members, read under the rules
    of ``gzip.GzipFile``: the same header fields are skipped, each member's
    CRC and length are checked when the read after its last byte begins,
    zero padding between members is skipped, and ``BadGzipFile`` or
    ``EOFError`` is raised by the same read. A read returns what one
    ``decompress`` call gives from the next ``_CHUNK`` compressed bytes, so
    it never crosses a member end, and the reads of a buffered reader over
    it are those it makes over a ``GzipFile``. ``_pending`` holds the
    compressed bytes read ahead of ``stream``'s position."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self._pending = b""
        self._inflate = None  # the open member's decompressor
        self._crc = self._size = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = self._read(len(buffer))
        buffer[: len(data)] = data
        return len(data)

    def _read(self, size: int) -> bytes:
        if not size:
            return b""
        while True:
            inflate = self._inflate
            if inflate is None or inflate.eof:
                if inflate is not None:
                    self._end_member()
                    self._inflate = None
                if not self._start_member():
                    return b""
                inflate = self._inflate = zlib.decompressobj(-zlib.MAX_WBITS)
                self._crc = self._size = 0
            chunk = self._take(_CHUNK)
            data = inflate.decompress(chunk, size)
            self._pending = (inflate.unconsumed_tail or inflate.unused_data) + self._pending
            if data:
                self._crc = zlib.crc32(data, self._crc)
                self._size += len(data)
                return data
            if not chunk:
                raise EOFError(_SHORT)

    def _take(self, n: int) -> bytes:
        """Up to ``n`` bytes from the front of the compressed stream."""
        pending = self._pending
        if len(pending) >= n:
            self._pending = pending[n:]
            return pending[:n]
        self._pending = b""
        return pending + self._stream.read(n - len(pending))

    def _take_exact(self, n: int) -> bytes:
        data = self._take(n)
        if len(data) < n:
            raise EOFError(_SHORT)
        return data

    def _skip_past(self, byte: bytes) -> None:
        """Drop the stream up to and including the next ``byte``, or to its
        end."""
        while (at := self._pending.find(byte)) < 0:
            self._pending = self._stream.read(_CHUNK)
            if not self._pending:
                return
        self._pending = self._pending[at + 1:]

    def _start_member(self) -> bool:
        """Skip a member's header; False at the end of the stream."""
        if self._pending.startswith(b"\x1f\x8b\x08\x00") and len(self._pending) >= 10:  # no optional fields
            self._pending = self._pending[10:]
            return True
        magic = self._take(2)
        if not magic:
            return False
        if magic != b"\x1f\x8b":
            raise gzip.BadGzipFile(f"Not a gzipped file ({magic!r})")
        method, flags = self._take_exact(8)[:2]
        if method != 8:
            raise gzip.BadGzipFile("Unknown compression method")
        if flags & _FEXTRA:
            self._take_exact(int.from_bytes(self._take_exact(2), "little"))
        for field_flag in (_FNAME, _FCOMMENT):  # zero-terminated; may run to the end
            if flags & field_flag:
                self._skip_past(b"\x00")
        if flags & _FHCRC:
            self._take_exact(2)
        return True

    def _end_member(self) -> None:
        """Check the trailer of the member just inflated, then skip zero
        padding."""
        crc, size = struct.unpack("<II", self._take_exact(8))
        if crc != self._crc:
            raise gzip.BadGzipFile(f"CRC check failed {hex(crc)} != {hex(self._crc)}")
        if size != self._size & 0xFFFFFFFF:
            raise gzip.BadGzipFile("Incorrect length of data produced")
        while not (pending := self._pending.lstrip(b"\x00")):
            self._pending = self._stream.read(_CHUNK)
            if not self._pending:
                break
        self._pending = pending


# What a gzip reader raises on a member cut short or a garbage member.
_DAMAGED_GZIP = (EOFError, gzip.BadGzipFile, zlib.error)


def _read_container(records: Callable, stream: BinaryIO, stats: ParseStats | None) -> Iterator[ArchiveRecord]:
    """Run the record loop ``records`` over ``stream``, opened on the first
    ``next``; a damaged gzip tail ends the stream as one corrupt record."""
    stats = stats if stats is not None else ParseStats()
    try:
        yield from records(_open_stream(stream), stats)
    except _DAMAGED_GZIP:
        stats.corrupt += 1


# The fixed forms that containers write: ASCII digits only, no fraction or offset.
_WARC_DATE = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)
_ARC_DATE = re.compile(r"(\d{4})(\d\d)(\d\d)(\d\d)(\d\d)(\d\d)", re.ASCII)


def _fixed_form_epoch(form: re.Pattern, value: str) -> int | None:
    """Epoch seconds of ``value`` when it is all of ``form`` and a valid UTC
    time; otherwise None. An ARC date is read in this form only; a WARC
    date that is not falls back to ``strptime``."""
    m = form.fullmatch(value)
    if m is None:
        return None
    try:
        return int(datetime(*map(int, m.groups()), tzinfo=timezone.utc).timestamp())
    except ValueError:
        return None


def _parse_warc_date(value: str) -> int | None:
    fast = _fixed_form_epoch(_WARC_DATE, value)
    if fast is not None:
        return fast
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


def _split_http_payload(block: bytes) -> tuple[int | None, str, bytes]:
    """Split an HTTP response message into (status, content-type, body).
    Blocks that do not start with an HTTP status line pass through whole."""
    if not block.startswith(b"HTTP/"):
        return None, "", block
    # the head ends at its first blank line, whether CRLF or bare LF
    ends = [(idx, sep) for sep in (b"\r\n\r\n", b"\n\n") if (idx := block.find(sep)) != -1]
    idx, sep = min(ends, default=(len(block), b""))
    head, body = block[:idx], block[idx + len(sep):]
    lines = head.replace(b"\r\n", b"\n").split(b"\n")
    status: int | None = None
    parts = lines[0].split()
    if len(parts) >= 2 and parts[1].isdigit():
        status = int(parts[1])
    mime = ""
    for line in lines[1:]:
        if line.lower().startswith(b"content-type:"):
            mime = line.split(b":", 1)[1].strip().split(b";")[0].decode("latin-1").strip().lower()
            break
    return status, mime, body


def parse_warc_stream(stream: BinaryIO, stats: ParseStats | None = None) -> Iterator[ArchiveRecord]:
    """Yield one :class:`ArchiveRecord` per WARC *response* record.

    Other record kinds (request, metadata, revisit, ...) are counted in
    ``stats.skipped``. A non-blank line that is not a ``WARC/`` marker
    opens a damaged region, counted once in ``stats.corrupt``, up to the
    next marker. A marker whose header block ends early (end of file, or a
    line without a colon) or whose ``Content-Length`` is missing, not an
    integer or negative is one corrupt record and opens a region. A
    truncated last block and a damaged gzip tail end the stream as one
    corrupt record. Single pass, memory bounded by the largest record;
    nothing is read before the first ``next``.
    """
    return _read_container(_warc_records, stream, stats)


def _warc_records(fh: BinaryIO, stats: ParseStats) -> Iterator[ArchiveRecord]:
    in_bad_run = False
    while True:
        line = fh.readline()
        if not line:
            return
        marker = line.strip()
        if not marker.startswith(b"WARC/"):
            if marker and not in_bad_run:
                stats.corrupt += 1
                in_bad_run = True
            continue
        headers = _read_warc_headers(fh)
        try:
            length = int(headers.get("content-length", "")) if headers is not None else -1
        except ValueError:
            length = -1
        # A marker closes any damaged region; its own damage opens one.
        in_bad_run = length < 0
        if in_bad_run:
            stats.corrupt += 1
            continue
        block = fh.read(length)
        if len(block) < length:
            stats.corrupt += 1  # truncated final record; end cleanly
            return
        kind = headers.get("warc-type", "").strip().lower()
        if kind != "response":
            stats.skipped += 1
            continue
        target = headers.get("warc-target-uri", "").strip()
        capture = _parse_warc_date(headers.get("warc-date", ""))
        if not target or capture is None:
            stats.corrupt += 1
            continue
        status, mime, body = _split_http_payload(block)
        stats.emitted += 1
        yield ArchiveRecord(target, capture, mime, status, body)


def _read_warc_headers(fh: BinaryIO) -> dict[str, str] | None:
    """The header block after a record marker, names lowercased; None when
    it ends at end of file or at a non-blank line without a colon."""
    headers: dict[str, str] = {}
    while True:
        line = fh.readline()
        if not line.strip():
            return headers if line else None
        if b":" not in line:
            return None
        name, value = line.split(b":", 1)
        headers[name.strip().decode("latin-1").lower()] = value.strip().decode("latin-1")


def _parse_arc_header(line: bytes) -> tuple[str, int, str, int] | None:
    fields = line.strip().decode("latin-1").split(" ")
    if len(fields) < 5:
        return None
    url, _ip, date_s, mime = fields[0], fields[1], fields[2], fields[3]
    when = _fixed_form_epoch(_ARC_DATE, date_s)
    if when is None or "://" not in url:
        return None
    try:
        length = int(fields[-1])
    except ValueError:
        return None
    if length < 0:
        return None
    return url, when, mime.lower(), length


def parse_arc_stream(stream: BinaryIO, stats: ParseStats | None = None) -> Iterator[ArchiveRecord]:
    """Yield one :class:`ArchiveRecord` per ARC v1 document record.

    The first well-formed header opens the file description, whose URL
    reads ``filedesc://`` unless damaged; that record and any later
    ``filedesc`` record are counted as skipped (so a file description
    header damaged beyond parsing costs the record after it). A non-blank
    line that is not a well-formed header (five or more fields, a URL, a
    14-digit date and a length that is a non-negative integer) opens a
    damaged region, counted once in ``stats.corrupt``, that runs to the
    next well-formed header; so does a record whose length does not land
    on the record boundary. A truncated last block and a damaged gzip tail
    end the stream as one corrupt record.
    """
    return _read_container(_arc_records, stream, stats)


def _arc_records(fh: BinaryIO, stats: ParseStats) -> Iterator[ArchiveRecord]:
    in_bad_run = False
    first = True
    while True:
        line = fh.readline()
        if not line:
            return
        if not line.strip():
            continue
        parsed = _parse_arc_header(line)
        if parsed is None:
            # One corrupt count per damaged region; the bad run only ends
            # at the next well-formed header, however many lines it spans.
            if not in_bad_run:
                stats.corrupt += 1
                in_bad_run = True
            continue
        in_bad_run = False
        is_file_description, first = first, False
        url, when, mime, length = parsed
        block = fh.read(length)
        if len(block) < length:
            stats.corrupt += 1
            return
        # The declared length must land exactly on the record separator; any
        # residue before the next newline means the length field lied.
        separator = fh.readline()
        if separator.strip():
            stats.corrupt += 1
            in_bad_run = True
            continue
        if is_file_description or url.startswith("filedesc"):
            stats.skipped += 1
            continue
        status, payload_mime, body = _split_http_payload(block)
        stats.emitted += 1
        yield ArchiveRecord(url, when, payload_mime or mime, status, body)


# ---------------------------------------------------------------------------
# link extraction

_META_CHARSET = re.compile(rb"charset\s*=\s*[\"']?([A-Za-z0-9_-]+)", re.IGNORECASE)
_TAG = re.compile(r"<\s*(/?)([a-zA-Z][a-zA-Z0-9:_-]*)((?:\"[^\"]*\"|'[^']*'|[^>\"'])*)>")
_INNER_MARKUP = re.compile(r"<[^>]*>")
_ATTR_RES = {
    attr: re.compile(
        rf"""\b{attr}\s*=\s*("([^"]*)"|'([^']*)'|([^\s>]+))""", re.IGNORECASE
    )
    for attr in ("href", "src", "action", "background", "codebase")
}


def _decode_payload(payload: bytes) -> str:
    """``payload`` in its declared charset, else UTF-8, else latin-1, which
    maps every byte: decoding cannot fail. A declared UTF-16 is ignored, as
    in the HTML Standard's prescan: a declaration readable as ASCII bytes
    means the page is not UTF-16."""
    declared = _META_CHARSET.search(payload[:4096])
    if declared:
        try:
            label = declared.group(1).decode("ascii")
            if codecs.lookup(label).name not in ("utf-16", "utf-16-le", "utf-16-be"):
                return payload.decode(label)
        except (LookupError, UnicodeDecodeError, ValueError):
            pass
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError:
        return payload.decode("latin-1")


def _attr_value(attrs: str, name: str) -> str | None:
    m = _ATTR_RES[name].search(attrs)
    if not m:
        return None
    _quoted, double, single, bare = m.groups()
    value = double if double is not None else single if single is not None else bare
    return value.strip() if value else None


def _scheme_of(url: str) -> str | None:
    """The scheme ``urljoin`` reads from ``url`` as a base; None when it
    reads more (an empty base) or raises (an unparseable one)."""
    if not url:
        return None
    try:
        return urlsplit(url).scheme
    except ValueError:
        return None


def _has_authority(href: str) -> bool:
    try:
        return bool(urlsplit(href).netloc)
    except ValueError:
        return False


class UrlEnds(NamedTuple):
    """A URL's canonical string, its core URL and its registrable domain."""

    full: str
    core: str
    domain: str


class UrlResolver:
    """The one place ingest normalizes URLs, memoized per distinct string.

    :meth:`ends` normalizes each distinct URL string once, under the
    registrable-domain ``suffixes`` (the built-in table when None).
    :meth:`href` resolves a link target against its page's URL; ``urljoin``
    reads only the base's scheme when the href carries its own authority
    (``//host``), so such an href is joined once per (base scheme, href).
    One resolver may serve every record of a run.
    """

    def __init__(self, suffixes: SuffixTable | None = None) -> None:
        self._suffixes = suffixes
        self._ends: dict[str, UrlEnds | None] = {}
        self._hrefs: dict[tuple[str, str], str | None] = {}

    def ends(self, url: str) -> UrlEnds | None:
        """``url``'s ends, or None when it does not parse."""
        if url not in self._ends:
            try:
                n = normalize(url)
            except UrlError:
                self._ends[url] = None
            else:
                # one string object per distinct value: a canonical URL is
                # its own full and core URL, and many URLs share a domain
                full = str(n)
                full = url if full == url else full
                core = str(core_url(n))
                core = full if core == full else core
                self._ends[url] = UrlEnds(full, core, sys.intern(domain_of(n, self._suffixes)))
        return self._ends[url]

    def href(self, base: str, href: str) -> str | None:
        """The canonical http(s) URL ``href`` names on the page at ``base``;
        None for fragment, ``javascript:``, ``mailto:`` and ``data:`` hrefs
        and for results that do not parse."""
        if not href or href.startswith(("#", "javascript:", "mailto:", "data:")):
            return None
        scheme = _scheme_of(base)
        key = (scheme, href)
        if key in self._hrefs:
            return self._hrefs[key]
        try:
            ends = self.ends(urljoin(base, href))
        except ValueError:  # an unparseable base
            ends = None
        resolved = ends.full if ends is not None and ends.full.startswith(("http://", "https://")) else None
        if scheme is not None and _has_authority(href):
            self._hrefs[key] = resolved
        return resolved


def extract_links(
    payload: bytes, base_url: str, source_time: int, resolver: UrlResolver | None = None
) -> LinkExtraction:
    """Scan an HTML payload for the fourteen tag/attribute link patterns.

    The scanner is a tolerant linear pass, not a conforming DOM parser:
    malformed markup never aborts extraction, and an unclosed ``<a>``
    closes at the next ``<a>`` or end of document. Anchor text is the
    visible text of the element with inner markup stripped and whitespace
    collapsed, capped at ``ANCHOR_TEXT_CAP`` characters.

    Links are resolved against ``base_url`` normalized, by ``resolver``
    (a fresh :class:`UrlResolver` when omitted); one resolver shared by
    the records of a run normalizes each distinct URL string once.
    """
    result = LinkExtraction()
    links = result.links
    text = _decode_payload(payload)
    resolver = resolver if resolver is not None else UrlResolver()
    ends = resolver.ends(base_url)
    base = ends.full if ends is not None else base_url
    open_target: str | None = None
    open_start = 0
    for m in _TAG.finditer(text):
        closing, name, attrs = m.groups()
        name = name.lower()
        if name == "a":
            if open_target is not None:  # an <a> or </a> closes the open anchor
                anchor = _anchor_text(text[open_start : m.start()], result)
                links.append(_new(LinkRecord, (base, source_time, open_target, "A/href", anchor)))
                open_target = None
            if not closing:
                target = _attr_value(attrs, "href")
                open_target = resolver.href(base, target) if target else None
                open_start = m.end()
            continue
        attr = None if closing else LINK_PATTERNS.get(name)
        if attr is None:
            continue
        target = _attr_value(attrs, attr)
        resolved = resolver.href(base, target) if target else None
        if resolved is not None:
            links.append(_new(LinkRecord, (base, source_time, resolved, f"{name.upper()}/{attr}", "")))
    if open_target is not None:  # the end of the document closes it too
        anchor = _anchor_text(text[open_start:], result)
        links.append(_new(LinkRecord, (base, source_time, open_target, "A/href", anchor)))
    return result


def _anchor_text(markup: str, result: LinkExtraction) -> str:
    """The visible text of an anchor's ``markup``: inner markup stripped and
    whitespace collapsed, capped at ``ANCHOR_TEXT_CAP`` characters; a capped
    anchor counts in ``result.truncated_anchors``."""
    if "<" in markup:  # most anchor text holds no markup
        markup = _INNER_MARKUP.sub(" ", markup)
    anchor = " ".join(markup.split())
    if len(anchor) > ANCHOR_TEXT_CAP:
        result.truncated_anchors += 1
        return anchor[:ANCHOR_TEXT_CAP]
    return anchor


def revision_from_record(record: ArchiveRecord, resolver: UrlResolver | None = None) -> RevisionRecord:
    """Project an archive record onto its revision metadata; raises
    :class:`~archive_rank.urls.UrlError` when its URL does not parse."""
    ends = (resolver if resolver is not None else UrlResolver()).ends(record.target_uri)
    if ends is None:
        raise UrlError(f"not a URL: {record.target_uri!r}")
    return RevisionRecord(core_url=ends.core, full_url=ends.full, capture_time=record.capture_time, domain=ends.domain)


# ---------------------------------------------------------------------------
# TSV persistence (UTF-8, LF line endings; see archive_rank.tables)


def write_revisions_tsv(revisions: Iterable[RevisionRecord], fh) -> int:
    """Write ``revisions``, each unpacked in the field order of
    :class:`RevisionRecord` (plain 4-tuples in that order serve too)."""
    count = 0
    for core, when, full, domain in revisions:
        fh.write(f"{core}\t{full}\t{when}\t{domain}\n")
        count += 1
    return count


def read_revisions_tsv(fh) -> Iterator[RevisionRecord]:
    for core, full, when, domain in rows(fh):
        yield RevisionRecord(core, int(when), full, domain)


def revisions_by_core(revisions: Iterable[RevisionRecord]) -> Iterator[tuple[str, list[RevisionRecord]]]:
    """Each core URL with its revisions, from revisions in the order of
    ``revisions.tsv`` (sorted by core URL). A core URL after a greater one
    raises ValueError: the table is damaged."""
    last = None
    for core, group in groupby(revisions, attrgetter("core_url")):
        if last is not None and core <= last:
            raise ValueError(f"core URL {core!r} after {last!r}: not sorted by core URL")
        last = core
        yield core, list(group)


def write_links_tsv(links: Iterable[LinkRecord], fh) -> int:
    """Write ``links``, each unpacked in the field order of
    :class:`LinkRecord` (plain 5-tuples in that order serve too)."""
    count = 0
    for source_url, when, target_url, pattern, anchor in links:
        fh.write(f"{source_url}\t{when}\t{target_url}\t{pattern}\t{escape(anchor)}\n")
        count += 1
    return count


def read_links_tsv(fh) -> Iterator[LinkRecord]:
    for source, when, target, pattern, anchor in rows(fh):
        yield LinkRecord(source, int(when), target, pattern, unescape(anchor))


def write_link_tables(links: Iterable[LinkRecord], resolver: UrlResolver, links_fh, content_fh) -> tuple[int, int]:
    """Write ``links``, grouped by (source full URL, capture time) as in
    ``links.tsv``, to ``links_fh`` as :func:`write_links_tsv` does, and
    the :func:`content_links` of each group, resolved by ``resolver``, to
    ``content_fh`` as :func:`write_content_links_tsv` does: one pass that
    escapes each anchor once. Returns the two row counts."""
    written = content_written = 0
    for _page, group in groupby(links, itemgetter(0, 1)):
        for source_url, when, target_url, pattern, anchor, source, target, first in _resolved_links(group, resolver):
            anchor = escape(anchor)
            links_fh.write(f"{source_url}\t{when}\t{target_url}\t{pattern}\t{anchor}\n")
            written += 1
            if first is not None:
                content_fh.write(
                    f"{source.core}\t{target.core}\t{when}\t{first:d}\t{source.domain}\t{target.domain}\t{anchor}\n"
                )
                content_written += 1
    return written, content_written


def write_content_links_tsv(links: Iterable[ContentLink], fh) -> int:
    count = 0
    for link in links:
        fh.write(
            f"{link.source}\t{link.target}\t{link.capture_time}\t{int(link.first)}"
            f"\t{link.source_domain}\t{link.target_domain}\t{escape(link.anchor_text)}\n"
        )
        count += 1
    return count


_FLAG = {"0": False, "1": True}


def read_content_links_tsv(fh) -> Iterator[ContentLink]:
    """Rows of :func:`write_content_links_tsv`, with blank lines skipped as
    :func:`~archive_rank.tables.rows` skips them; a row that is not seven
    fields, an integer time and a ``0`` or ``1`` flag raises ValueError or
    KeyError. The table repeats each core URL, domain and anchor text many
    times; each is read into one shared string."""
    share = sys.intern
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            continue
        source, target, when, first, source_domain, target_domain, anchor = line.split("\t")
        yield _new(ContentLink, (
            share(source), share(target), int(when), _FLAG[first],
            share(source_domain), share(target_domain), share(unescape(anchor)),
        ))
