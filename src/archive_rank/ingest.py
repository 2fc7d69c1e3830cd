"""Streaming readers for WARC and ARC containers plus hyperlink extraction.

The readers are single-pass generators: peak memory is bounded by the
largest individual record, never by container size. Damaged records are
counted and skipped; the stream always continues (or ends cleanly on a
truncated tail). Emitted values are immutable and safe to share across
threads; independent files may be read by independent readers concurrently.
"""
from __future__ import annotations

import gzip
import io
import re
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import BinaryIO, Iterable, Iterator, NamedTuple
from urllib.parse import urljoin, urlsplit

from .urls import SuffixTable, UrlError, core_url, core_url_str, domain_of, normalize

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
    "HrefResolver",
    "LINK_PATTERNS",
    "PATTERN_TOKENS",
    "ANCHOR_TEXT_CAP",
    "parse_warc_stream",
    "parse_arc_stream",
    "extract_links",
    "filter_content_links",
    "content_links",
    "revision_from_record",
    "write_revisions_tsv",
    "read_revisions_tsv",
    "write_links_tsv",
    "read_links_tsv",
]

RESPONSE = "response"
OTHER = "other"

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
PATTERN_TOKENS = frozenset(f"{tag.upper()}/{attr}" for tag, attr in LINK_PATTERNS.items())

# Per-anchor cap; pathological anchors exist in archived markup.
ANCHOR_TEXT_CAP = 8192


@dataclass(frozen=True)
class ArchiveRecord:
    """One capture from a WARC or ARC container. The payload is transient:
    it exists for link extraction during streaming and is never persisted."""

    target_uri: str
    capture_time: int  # epoch seconds, UTC
    record_kind: str  # RESPONSE or OTHER
    mime_type: str
    http_status: int | None
    payload: bytes
    container_format: str  # "warc" or "arc"


@dataclass(frozen=True)
class RevisionRecord:
    """One archived capture of a document, keyed by its core URL."""

    core_url: str
    full_url: str
    capture_time: int
    domain: str


@dataclass(frozen=True)
class LinkRecord:
    """One extracted hyperlink occurrence."""

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
    """A content link with both ends resolved to core URLs."""

    source: str
    target: str
    capture_time: int
    anchor_text: str


def content_links(links: Iterable[LinkRecord], strategy: str) -> list[ContentLink]:
    """The ``A/href`` links, in order, with both ends resolved to core URLs.

    Each distinct URL string is resolved once per call; a link with an end
    that does not parse is dropped. Under ``unique_per_revision`` repeats of
    one (source revision, target core URL, anchor text) keep the first.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy!r}")
    cores: dict[str, str | None] = {}

    def resolve(url: str) -> str | None:
        if url not in cores:
            try:
                cores[url] = core_url_str(url)
            except UrlError:
                cores[url] = None
        return cores[url]

    out: list[ContentLink] = []
    seen: set[tuple[str, int, str, str]] = set()
    for link in filter_content_links(links):
        source, target = resolve(link.source_full_url), resolve(link.target_url)
        if source is None or target is None:
            continue
        if strategy == STRATEGY_UNIQUE_PER_REVISION:
            key = (link.source_full_url, link.source_capture_time, target, link.anchor_text)
            if key in seen:
                continue
            seen.add(key)
        out.append(ContentLink(source, target, link.source_capture_time, link.anchor_text))
    return out


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
    decode_failed: bool = False
    truncated_anchors: int = 0


# ---------------------------------------------------------------------------
# container plumbing


def _open_stream(stream: BinaryIO) -> BinaryIO:
    """Wrap a byte stream, transparently inflating gzip (including files
    made of concatenated per-record members)."""
    buffered = stream if isinstance(stream, io.BufferedReader) else io.BufferedReader(stream)  # type: ignore[arg-type]
    head = buffered.peek(2)[:2]
    if head == b"\x1f\x8b":
        return gzip.GzipFile(fileobj=buffered)  # type: ignore[return-value]
    return buffered


# What a gzip reader raises on a member cut short or a garbage member.
_DAMAGED_GZIP = (EOFError, gzip.BadGzipFile, zlib.error)


class _LineReader:
    """Line reader with single-line pushback, for header resynchronization."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._pushed: bytes | None = None

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


def _parse_warc_date(value: str) -> int | None:
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


def _parse_arc_date(value: str) -> int | None:
    if len(value) != 14 or not value.isdigit():
        return None
    try:
        dt = datetime.strptime(value, "%Y%m%d%H%M%S").replace(tzinfo=timezone.utc)
    except ValueError:
        return None
    return int(dt.timestamp())


def _split_http_payload(block: bytes) -> tuple[int | None, str, bytes]:
    """Split an HTTP response message into (status, content-type, body).
    Blocks that do not start with an HTTP status line pass through whole."""
    if not block.startswith(b"HTTP/"):
        return None, "", block
    for sep in (b"\r\n\r\n", b"\n\n"):
        idx = block.find(sep)
        if idx != -1:
            head, body = block[:idx], block[idx + len(sep):]
            break
    else:
        head, body = block, b""
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
    ``stats.skipped``. Malformed or truncated records increment
    ``stats.corrupt`` and the stream resynchronizes on the next record
    marker. A damaged gzip tail ends the stream as one corrupt record.
    Single pass; memory bounded by the largest record.
    """
    stats = stats if stats is not None else ParseStats()
    try:
        yield from _warc_records(_LineReader(_open_stream(stream)), stats)
    except _DAMAGED_GZIP:
        stats.corrupt += 1


def _warc_records(reader: _LineReader, stats: ParseStats) -> Iterator[ArchiveRecord]:
    while True:
        line = reader.readline()
        if not line:
            return
        marker = line.strip()
        if not marker:
            continue
        if not marker.startswith(b"WARC/"):
            stats.corrupt += 1
            if not _resync(reader, _is_warc_marker):
                return
            continue
        headers, ok = _read_warc_headers(reader)
        if not ok:
            stats.corrupt += 1
            if not _resync(reader, _is_warc_marker):
                return
            continue
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            length = -1
        if length < 0:
            stats.corrupt += 1
            if not _resync(reader, _is_warc_marker):
                return
            continue
        block = reader.read(length)
        if len(block) < length:
            stats.corrupt += 1  # truncated final record; end cleanly
            return
        kind = headers.get("warc-type", "").strip().lower()
        if kind != RESPONSE:
            stats.skipped += 1
            continue
        target = headers.get("warc-target-uri", "").strip()
        capture = _parse_warc_date(headers.get("warc-date", ""))
        if not target or capture is None:
            stats.corrupt += 1
            continue
        status, mime, body = _split_http_payload(block)
        stats.emitted += 1
        yield ArchiveRecord(target, capture, RESPONSE, mime, status, body, "warc")


def _is_warc_marker(line: bytes) -> bool:
    return line.strip().startswith(b"WARC/")


def _read_warc_headers(reader: _LineReader) -> tuple[dict[str, str], bool]:
    headers: dict[str, str] = {}
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


def _resync(reader: _LineReader, is_marker) -> bool:
    """Skip forward to the next record marker; False when the stream ends."""
    while True:
        line = reader.readline()
        if not line:
            return False
        if is_marker(line):
            reader.pushback(line)
            return True


def _parse_arc_header(line: bytes) -> tuple[str, int, str, int] | None:
    fields = line.strip().decode("latin-1").split(" ")
    if len(fields) < 5:
        return None
    url, _ip, date_s, mime = fields[0], fields[1], fields[2], fields[3]
    when = _parse_arc_date(date_s)
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
    header damaged beyond parsing costs the record after it). A header
    with fewer than five fields, or a length field that disagrees with the
    actual record boundary, marks the record corrupt and the reader
    resumes at the next well-formed header line. A damaged gzip tail ends
    the stream as one corrupt record.
    """
    stats = stats if stats is not None else ParseStats()
    try:
        yield from _arc_records(_LineReader(_open_stream(stream)), stats)
    except _DAMAGED_GZIP:
        stats.corrupt += 1


def _arc_records(reader: _LineReader, stats: ParseStats) -> Iterator[ArchiveRecord]:
    in_bad_run = False
    first = True
    while True:
        line = reader.readline()
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
        block = reader.read(length)
        if len(block) < length:
            stats.corrupt += 1
            return
        # The declared length must land exactly on the record separator; any
        # residue before the next newline means the length field lied.
        separator = reader.readline()
        if separator.strip():
            stats.corrupt += 1
            in_bad_run = True
            continue
        if is_file_description or url.startswith("filedesc"):
            stats.skipped += 1
            continue
        status, payload_mime, body = _split_http_payload(block)
        stats.emitted += 1
        yield ArchiveRecord(url, when, RESPONSE, payload_mime or mime, status, body, "arc")


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


def _decode_payload(payload: bytes) -> str | None:
    declared = _META_CHARSET.search(payload[:4096])
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


def _attr_value(attrs: str, name: str) -> str | None:
    m = _ATTR_RES[name].search(attrs)
    if not m:
        return None
    value = m.group(2) if m.group(2) is not None else m.group(3)
    if value is None:
        value = m.group(4)
    return value.strip() if value else None


def _resolve(base: str, href: str) -> str | None:
    if not href or href.startswith(("#", "javascript:", "mailto:", "data:")):
        return None
    try:
        joined = urljoin(base, href)
        n = normalize(joined)
    except (UrlError, ValueError):
        return None
    if n.scheme not in ("http", "https"):
        return None
    return str(n)


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


class HrefResolver:
    """Memo of href resolution, equal to :func:`_resolve` on every
    (base, href), ``None`` results included.

    ``urljoin`` reads only the base's scheme when the href carries its own
    authority (``//host``), so such an href is keyed by (base scheme, href)
    and is joined once however many records link to it. Any other href is
    resolved directly each time.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple[str, str], str | None] = {}

    def resolve(self, base: str, href: str) -> str | None:
        scheme = _scheme_of(base)
        key = (scheme, href)
        if key in self._memo:
            return self._memo[key]
        resolved = _resolve(base, href)
        if scheme is not None and _has_authority(href):
            self._memo[key] = resolved
        return resolved


def extract_links(
    payload: bytes, base_url: str, source_time: int, resolver: HrefResolver | None = None
) -> LinkExtraction:
    """Scan an HTML payload for the fourteen tag/attribute link patterns.

    The scanner is a tolerant linear pass, not a conforming DOM parser:
    malformed markup never aborts extraction, and an unclosed ``<a>``
    closes at the next ``<a>`` or end of document. Anchor text is the
    visible text of the element with inner markup stripped and whitespace
    collapsed, capped at ``ANCHOR_TEXT_CAP`` characters.

    Links are resolved against ``base_url`` normalized. A ``resolver``
    shared across the records of a run resolves each distinct href with
    its own authority once.
    """
    result = LinkExtraction()
    text = _decode_payload(payload)
    if text is None:
        result.decode_failed = True
        return result
    try:
        base = str(normalize(base_url))
    except UrlError:
        base = base_url
    if resolver is None:
        resolver = HrefResolver()
    open_target: str | None = None
    open_start = 0

    def close_anchor(end: int) -> None:
        nonlocal open_target
        if open_target is None:
            return
        raw = _INNER_MARKUP.sub(" ", text[open_start:end])
        anchor = " ".join(raw.split())
        if len(anchor) > ANCHOR_TEXT_CAP:
            anchor = anchor[:ANCHOR_TEXT_CAP]
            result.truncated_anchors += 1
        result.links.append(
            LinkRecord(base, source_time, open_target, "A/href", anchor)
        )
        open_target = None

    for m in _TAG.finditer(text):
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
            target = _attr_value(attrs, "href")
            resolved = resolver.resolve(base, target) if target else None
            if resolved is not None:
                open_target = resolved
                open_start = m.end()
            continue
        target = _attr_value(attrs, attr)
        resolved = resolver.resolve(base, target) if target else None
        if resolved is not None:
            result.links.append(
                LinkRecord(base, source_time, resolved, f"{name.upper()}/{attr}")
            )
    close_anchor(len(text))
    return result


def filter_content_links(links: Iterable[LinkRecord]) -> list[LinkRecord]:
    """Keep only links to content pages (the ``A/href`` pattern), in order."""
    return [link for link in links if link.tag_pattern == "A/href"]


def revision_from_record(record: ArchiveRecord, suffixes: SuffixTable | None = None) -> RevisionRecord:
    """Project an archive record onto its revision metadata."""
    n = normalize(record.target_uri)
    return RevisionRecord(
        core_url=str(core_url(n)),
        full_url=str(n),
        capture_time=record.capture_time,
        domain=domain_of(n, suffixes),
    )


# ---------------------------------------------------------------------------
# TSV persistence (UTF-8, LF line endings)

_UNESCAPE = re.compile(r"\\([\\tnr])")
_UNESCAPE_MAP = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
    )


def _unescape(text: str) -> str:
    return _UNESCAPE.sub(lambda m: _UNESCAPE_MAP[m.group(1)], text)


def write_revisions_tsv(revisions: Iterable[RevisionRecord], fh) -> int:
    count = 0
    for r in revisions:
        fh.write(f"{r.core_url}\t{r.full_url}\t{r.capture_time}\t{r.domain}\n")
        count += 1
    return count


def read_revisions_tsv(fh) -> Iterator[RevisionRecord]:
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            continue
        core, full, when, domain = line.split("\t")
        yield RevisionRecord(core, full, int(when), domain)


def write_links_tsv(links: Iterable[LinkRecord], fh) -> int:
    count = 0
    for link in links:
        fh.write(
            f"{link.source_full_url}\t{link.source_capture_time}\t{link.target_url}"
            f"\t{link.tag_pattern}\t{_escape(link.anchor_text)}\n"
        )
        count += 1
    return count


def read_links_tsv(fh) -> Iterator[LinkRecord]:
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            continue
        source, when, target, pattern, anchor = line.split("\t")
        yield LinkRecord(source, int(when), target, pattern, _unescape(anchor))
