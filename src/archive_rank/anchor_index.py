"""Anchor-text surrogate documents and the retrieval statistics over them.

A document never contributes its own body text: its searchable surrogate is
the concatenation of the anchor texts of links pointing at its core URL.
Two aggregation strategies are supported: keep one unique anchor per
(source revision, target) pair, or keep every anchor occurrence across
revisions. After building, all structures are read-only and scoring is
freely concurrent.
"""
from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .ingest import STRATEGY_UNIQUE_PER_REVISION, ContentLink, RevisionRecord, counted_links
from .tables import escape, rows, unescape

__all__ = [
    "SURROGATE_TOKEN_CAP",
    "SurrogateDocument",
    "IndexStats",
    "TermStats",
    "tokenize_text",
    "build_surrogates",
    "build_stats",
    "bm25_score",
    "term_stats",
    "anchor_distribution",
    "write_docs",
    "write_postings",
    "write_instances",
    "read_index",
]

# Surrogates for very popular targets can explode; cap mirrors the indexing
# storage limit the anchor representation has to live under.
SURROGATE_TOKEN_CAP = 1_000_000

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize_text(text: str) -> list[str]:
    """Lowercase tokens split on whitespace/punctuation; no stemming or
    stopword removal, so entity names survive intact."""
    return _TOKEN.findall(text.lower())


@dataclass
class SurrogateDocument:
    """Searchable stand-in for one core URL, built purely from anchors."""

    doc_id: str
    term_freqs: dict[str, int] = field(default_factory=dict)
    length: int = 0
    anchor_instances: list[tuple[str, int]] = field(default_factory=list)
    revision_times: list[int] = field(default_factory=list)
    truncated_tokens: int = 0


@dataclass(frozen=True)
class IndexStats:
    """Collection-level statistics for scoring."""

    num_docs: int
    avg_doc_length: float
    doc_freq: dict[str, int]


class TermStats(NamedTuple):
    max_term_freq: float
    inverse_doc_freq: float
    length_norm: float
    doc_len: int


def build_surrogates(
    links: Iterable[ContentLink],
    revisions: Iterable[RevisionRecord],
    strategy: str = STRATEGY_UNIQUE_PER_REVISION,
) -> dict[str, SurrogateDocument]:
    """Group content-link anchors by target core URL.

    Only archived targets (those with at least one revision) are indexed,
    and targets without a single anchor instance are excluded; they stay
    reachable through the revision records themselves. Links are
    deduplicated by ``strategy`` (see :func:`archive_rank.ingest.counted_links`).
    """
    links = counted_links(links, strategy)
    times: dict[str, set[int]] = defaultdict(set)
    for rev in revisions:
        times[rev.core_url].add(rev.capture_time)

    instances: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for link in links:
        if link.target in times:
            instances[link.target].append((link.anchor_text, link.capture_time))

    surrogates: dict[str, SurrogateDocument] = {}
    for target in sorted(instances):
        doc = SurrogateDocument(doc_id=target, revision_times=sorted(times[target]))
        doc.anchor_instances = sorted(instances[target], key=lambda it: (it[1], it[0]))
        freqs: Counter[str] = Counter()
        total = 0
        for anchor, _when in doc.anchor_instances:
            for token in tokenize_text(anchor):
                if total >= SURROGATE_TOKEN_CAP:
                    doc.truncated_tokens += 1
                    continue
                freqs[token] += 1
                total += 1
        doc.term_freqs = dict(freqs)
        doc.length = total
        surrogates[target] = doc
    return surrogates


def build_stats(surrogates: dict[str, SurrogateDocument]) -> IndexStats:
    df: Counter[str] = Counter()
    for doc in surrogates.values():
        df.update(doc.term_freqs.keys())
    n = len(surrogates)
    avg = sum(d.length for d in surrogates.values()) / n if n else 0.0
    return IndexStats(num_docs=n, avg_doc_length=avg, doc_freq=dict(df))


def bm25_score(
    query: Iterable[str],
    doc: SurrogateDocument | None,
    stats: IndexStats,
    k1: float = 1.2,
    b: float = 0.75,
) -> float:
    """Okapi BM25 over the anchor surrogate; terms absent from the document
    contribute nothing, so unindexed documents score zero."""
    if doc is None or stats.num_docs == 0 or stats.avg_doc_length == 0:
        return 0.0
    score = 0.0
    for term in query:
        tf = doc.term_freqs.get(term, 0)
        if tf == 0:
            continue
        df = stats.doc_freq.get(term, 0)
        idf = math.log(1.0 + (stats.num_docs - df + 0.5) / (df + 0.5))
        norm = k1 * (1.0 - b + b * doc.length / stats.avg_doc_length)
        score += idf * tf * (k1 + 1.0) / (tf + norm)
    return score


def term_stats(
    doc: SurrogateDocument | None,
    stats: IndexStats,
    query: Iterable[str],
) -> TermStats:
    """Classic-similarity building blocks: sqrt term frequency, summed
    1+ln(N/(df+1)) document rarity, 1/sqrt(length) field normalization."""
    terms = list(query)
    length = doc.length if doc is not None else 0
    max_tf = 0.0
    for term in terms:
        tf = doc.term_freqs.get(term, 0) if doc is not None else 0
        max_tf = max(max_tf, math.sqrt(tf))
    idf = 0.0
    if stats.num_docs > 0:
        for term in terms:
            df = stats.doc_freq.get(term, 0)
            idf += 1.0 + math.log(stats.num_docs / (df + 1.0))
    norm = 1.0 / math.sqrt(length) if length > 0 else 0.0
    return TermStats(max_tf, idf, norm, length)


def anchor_distribution(
    links: Iterable[ContentLink],
    group_by_year: bool = False,
    top_n_domains: int | None = None,
) -> list[tuple[int, int, int]]:
    """Frequency-of-frequency table of anchor-text spread.

    For each distinct anchor text, count how many distinct target core URLs
    it labels (k); report how many anchor texts share each k. Rows are
    (year, k, count): year 0 counts every link, and ``group_by_year`` adds
    one block per capture year after it. ``top_n_domains`` restricts to
    targets in the N domains holding the most member core URLs (ties broken
    lexicographically).
    """
    pairs: set[tuple[int, str, str, str]] = set()  # distinct (year-or-0, anchor, target, domain)
    members: dict[str, set[str]] = defaultdict(set)
    years: dict[int, int] = {}  # by capture time, which every link of a revision shares
    for link in links:
        members[link.target_domain].add(link.target)
        year = 0
        if group_by_year:
            if link.capture_time not in years:
                years[link.capture_time] = _year_of(link.capture_time)
            year = years[link.capture_time]
        pairs.add((year, link.anchor_text, link.target, link.target_domain))

    keep: set[str] | None = None
    if top_n_domains is not None:
        ranked = sorted(members.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        keep = {domain for domain, _ in ranked[:top_n_domains]}

    by_year: dict[int, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
    for year, anchor, target, domain in pairs:
        if keep is not None and domain not in keep:
            continue
        by_year[0][anchor].add(target)
        if group_by_year:
            by_year[year][anchor].add(target)

    rows: list[tuple[int, int, int]] = []
    for year in sorted(by_year):
        histogram: Counter[int] = Counter(len(targets) for targets in by_year[year].values())
        rows.extend((year, k, histogram[k]) for k in sorted(histogram))
    return rows


def _year_of(epoch: int) -> int:
    from datetime import datetime, timezone

    return datetime.fromtimestamp(epoch, tz=timezone.utc).year


# ---------------------------------------------------------------------------
# persistence: docs.tsv, postings.tsv, instances.tsv


def write_docs(surrogates: dict[str, SurrogateDocument], fh) -> None:
    for doc_id in sorted(surrogates):
        doc = surrogates[doc_id]
        fh.write(f"{doc_id}\t{doc.length}\t{len(doc.revision_times)}\n")


def write_postings(surrogates: dict[str, SurrogateDocument], fh) -> None:
    postings: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for doc_id in sorted(surrogates):
        for term, tf in surrogates[doc_id].term_freqs.items():
            postings[term].append((doc_id, tf))
    for term in sorted(postings):
        entries = "\t".join(f"{doc_id}:{tf}" for doc_id, tf in postings[term])
        fh.write(f"{term}\t{len(postings[term])}\t{entries}\n")


def write_instances(surrogates: dict[str, SurrogateDocument], fh) -> None:
    for doc_id in sorted(surrogates):
        for anchor, when in surrogates[doc_id].anchor_instances:
            fh.write(f"{doc_id}\t{when}\t{escape(anchor)}\n")


def read_index(docs, postings, instances) -> tuple[dict[str, SurrogateDocument], IndexStats]:
    """Rebuild surrogates (without revision timestamps, which live in the
    revisions table) and their :func:`build_stats` from the lines of the
    persisted files. Raises ValueError, naming the term, when a posting
    list's count is not its number of entries or it lists a document
    twice, and naming the document when it is not in docs.tsv."""
    surrogates: dict[str, SurrogateDocument] = {}
    for doc_id, length, _revs in rows(docs):
        surrogates[doc_id] = SurrogateDocument(doc_id=doc_id, length=int(length))
    try:
        for term, count, *entries in rows(postings):
            if int(count) != len(entries):
                raise ValueError(f"term {term!r} counts {count} postings but lists {len(entries)}")
            for entry in entries:
                doc_id, tf = entry.rsplit(":", 1)
                term_freqs = surrogates[doc_id].term_freqs
                if term in term_freqs:
                    raise ValueError(f"term {term!r} lists document {doc_id!r} twice")
                term_freqs[term] = int(tf)
        for doc_id, when, anchor in rows(instances):
            surrogates[doc_id].anchor_instances.append((unescape(anchor), int(when)))
    except KeyError as exc:  # only a surrogates lookup raises it
        raise ValueError(f"document {exc.args[0]!r} is not in docs.tsv") from None
    return surrogates, build_stats(surrogates)
