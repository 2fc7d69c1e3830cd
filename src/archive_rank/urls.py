"""URL canonicalization, tokenization and registrable-domain helpers.

Every downstream structure keys documents by "core URL": the canonical form
of a URL with its query string removed. All functions here are pure and
safe to call concurrently.
"""
from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass, replace
from urllib.parse import urlsplit

from . import tables

__all__ = [
    "UrlError",
    "NormalizedUrl",
    "SuffixTable",
    "normalize",
    "core_url",
    "core_url_str",
    "tokenize_url",
    "url_depth",
    "domain_of",
    "TOKEN_DELIMITERS",
    "DEFAULT_SUFFIXES",
]

# Delimiters cover path syntax plus query-string syntax so that tokens inside
# query strings are visible to URL-keyword features.
TOKEN_DELIMITERS = "/.-_?&=+%~:"

# Registrable-domain suffixes; the corpus is .de-centric so a small built-in
# table suffices. Extend via SuffixTable.from_file for other collections.
DEFAULT_SUFFIXES = ("de", "com", "org", "net", "co.uk")

_DEFAULT_PORTS = {"http": "80", "https": "443", "ftp": "21"}
_UNRESERVED = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)
_TOKEN_SPLIT = re.compile("[" + re.escape(TOKEN_DELIMITERS) + "]+")
_PCT_ESCAPE = re.compile("%([0-9A-Fa-f]{2})")


class UrlError(ValueError):
    """Raised for strings that cannot be interpreted as an absolute URL."""


@dataclass(frozen=True)
class NormalizedUrl:
    """Canonical URL form: lowercase host, default port dropped, unreserved
    percent-escapes decoded, empty path rewritten to "/"."""

    scheme: str
    authority: str
    path: str
    query: str | None = None

    def __str__(self) -> str:
        base = f"{self.scheme}://{self.authority}{self.path}"
        if self.query is None:
            return base
        return f"{base}?{self.query}"

    @property
    def host(self) -> str:
        auth = self.authority
        if auth.startswith("["):  # IPv6 or IPvFuture literal
            return auth[1 : auth.index("]")]
        return auth.rsplit(":", 1)[0] if ":" in auth else auth


_RAW_WHITESPACE = re.compile(r"\s")  # what str.isspace() and so str.strip() take


def _canonical_component(component: str) -> str:
    def repl(m: re.Match[str]) -> str:
        ch = chr(int(m.group(1), 16))
        return ch if ch in _UNRESERVED else m.group(0)

    decoded = _PCT_ESCAPE.sub(repl, component)
    # raw whitespace cannot survive a parse round-trip; encode its UTF-8 bytes
    return _RAW_WHITESPACE.sub(lambda m: "".join(f"%{b:02X}" for b in m.group(0).encode("utf-8")), decoded)


def normalize(raw: str) -> NormalizedUrl:
    """Parse ``raw`` into its canonical form.

    Scheme-less strings such as ``spiegel.de/thema/x`` are read as http URLs.
    Fragments are discarded. Raises :class:`UrlError` for inputs without a
    usable host.
    """
    if not isinstance(raw, str) or not raw.strip():
        raise UrlError(f"not a URL: {raw!r}")
    text = raw.strip()
    try:
        parts = urlsplit(text)
        if not parts.scheme:
            parts = urlsplit("http://" + text.lstrip("/"))
    except ValueError as exc:  # e.g. an unclosed IPv6 bracket
        raise UrlError(f"unparseable URL: {raw!r}") from exc
    if parts.scheme.lower() not in ("http", "https", "ftp"):
        raise UrlError(f"unsupported scheme in URL: {raw!r}")
    try:
        host = parts.hostname
    except ValueError as exc:
        raise UrlError(f"unparseable authority in URL: {raw!r}") from exc
    if not host:
        raise UrlError(f"missing host in URL: {raw!r}")
    scheme = parts.scheme.lower()
    host = host.lower()
    authority = host
    if "[" in parts.netloc:
        # urlsplit checks the netloc's first bracketed part, which may lie in
        # the userinfo; the host must pass that check on its own
        hostinfo = parts.netloc.rpartition("@")[2]
        try:
            urlsplit("//" + hostinfo)
        except ValueError as exc:
            raise UrlError(f"unparseable authority in URL: {raw!r}") from exc
        if "[" in hostinfo:  # urlsplit strips the brackets of an IPv6 or IPvFuture literal
            authority = f"[{host}]"
    try:
        port = parts.port
    except ValueError as exc:
        raise UrlError(f"invalid port in URL: {raw!r}") from exc
    if port is not None and str(port) != _DEFAULT_PORTS.get(scheme):
        authority = f"{authority}:{port}"
    path = _canonical_component(parts.path) or "/"
    query = _canonical_component(parts.query) if parts.query else None
    return NormalizedUrl(scheme, authority, path, query)


def core_url(u: NormalizedUrl) -> NormalizedUrl:
    """Drop the query string; everything else is unchanged."""
    if u.query is None:
        return u
    return replace(u, query=None)


def core_url_str(raw: str) -> str:
    """Canonical core-URL string for a raw URL."""
    return str(core_url(normalize(raw)))


def tokenize_url(u: NormalizedUrl) -> list[str]:
    """Lowercase tokens of authority + path (+ query), split on the
    delimiter set; empty tokens are dropped."""
    text = u.authority + u.path
    if u.query is not None:
        text += "?" + u.query
    return [t.lower() for t in _TOKEN_SPLIT.split(text) if t]


def url_depth(u: NormalizedUrl) -> int:
    """Number of non-empty path segments; a trailing file name counts as one."""
    return sum(1 for seg in u.path.split("/") if seg)


class SuffixTable:
    """Public-suffix lookup over a small configurable table."""

    def __init__(self, suffixes: tuple[str, ...] | list[str] = DEFAULT_SUFFIXES):
        self._suffixes = {tuple(s.lower().strip(".").split(".")) for s in suffixes if s.strip()}
        self._max_labels = max((len(s) for s in self._suffixes), default=0)

    @classmethod
    def from_file(cls, path) -> "SuffixTable":
        """Load one suffix per line; blank lines and '#' comments ignored."""
        return tables.read(lambda lines: cls(tuple(tables.entries(lines)) or DEFAULT_SUFFIXES), path)

    def registrable_domain(self, host: str) -> str:
        host = host.lower().strip(".")
        try:
            ipaddress.ip_address(host)
            return host
        except ValueError:
            pass
        labels = host.split(".")
        for take in range(min(self._max_labels, len(labels) - 1), 0, -1):
            if tuple(labels[-take:]) in self._suffixes:
                return ".".join(labels[-(take + 1):])
        if len(labels) >= 2:
            return ".".join(labels[-2:])
        return host


_DEFAULT_TABLE = SuffixTable()


def domain_of(u: NormalizedUrl, suffixes: SuffixTable | None = None) -> str:
    """Registrable domain of the URL host; IP literals map to themselves."""
    table = suffixes if suffixes is not None else _DEFAULT_TABLE
    return table.registrable_domain(u.host)
