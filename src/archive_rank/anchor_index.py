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
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, NamedTuple

from .ingest import STRATEGY_UNIQUE_PER_REVISION, ContentLink, RevisionRecord, counted_links, revisions_by_core
from .tables import escape, rows, unescape

__all__ = [
    "SURROGATE_TOKEN_CAP",
    "SurrogateDocument",
    "IndexStats",
    "TermStats",
    "tokenize_text",
    "surrogates_of",
    "build_surrogates",
    "build_stats",
    "bm25_score",
    "term_stats",
    "anchor_distribution",
    "write_index",
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


def _surrogate(doc_id: str, instances: list[tuple[str, int]], revision_times: list[int]) -> SurrogateDocument:
    """The surrogate of ``doc_id`` from its anchor instances, sorted by
    (capture time, anchor text), and its distinct capture times, sorted.
    Tokens past ``SURROGATE_TOKEN_CAP`` are counted, not kept."""
    freqs: Counter[str] = Counter()
    total = truncated = 0
    for anchor, _when in instances:
        for token in tokenize_text(anchor):
            if total >= SURROGATE_TOKEN_CAP:
                truncated += 1
                continue
            freqs[token] += 1
            total += 1
    return SurrogateDocument(doc_id, dict(freqs), total, instances, revision_times, truncated)


def surrogates_of(
    instances: Iterable[tuple[str, int, str]], revisions: Iterable[RevisionRecord]
) -> Iterator[SurrogateDocument]:
    """The surrogates in document order, by a merge join of two sorted
    streams: ``instances``, the counted content links as (target core URL,
    capture time, anchor text) tuples in ascending order, and
    ``revisions``, sorted by core URL as in ``revisions.tsv``. A target
    without a revision is not indexed. Every revision is read, to the last
    (see :func:`archive_rank.ingest.revisions_by_core`)."""
    cores = revisions_by_core(revisions)
    core, captures = next(cores, (None, []))
    for target, group in groupby(instances, itemgetter(0)):
        while core is not None and core < target:
            core, captures = next(cores, (None, []))
        if core == target:
            anchors = [(anchor, when) for _target, when, anchor in group]
            yield _surrogate(target, anchors, sorted({r.capture_time for r in captures}))
    deque(cores, maxlen=0)


def build_surrogates(
    links: Iterable[ContentLink],
    revisions: Iterable[RevisionRecord],
    strategy: str = STRATEGY_UNIQUE_PER_REVISION,
) -> dict[str, SurrogateDocument]:
    """Group content-link anchors by target core URL: :func:`surrogates_of`
    over the links and revisions sorted in memory.

    Only archived targets (those with at least one revision) are indexed,
    and targets without a single anchor instance are excluded; they stay
    reachable through the revision records themselves. Links are
    deduplicated by ``strategy`` (see :func:`archive_rank.ingest.counted_links`).
    """
    instances = sorted((link.target, link.capture_time, link.anchor_text) for link in counted_links(links, strategy))
    return {doc.doc_id: doc for doc in surrogates_of(instances, sorted(revisions))}


def build_stats(surrogates: dict[str, SurrogateDocument]) -> IndexStats:
    df: Counter[str] = Counter()
    for doc in surrogates.values():
        df.update(doc.term_freqs.keys())
    return _index_stats([doc.length for doc in surrogates.values()], df)


def _index_stats(lengths: Collection[int], doc_freq: dict[str, int]) -> IndexStats:
    """The statistics of documents of ``lengths``, without the terms no document holds."""
    n = len(lengths)
    avg = sum(lengths) / n if n else 0.0
    return IndexStats(num_docs=n, avg_doc_length=avg, doc_freq={t: df for t, df in doc_freq.items() if df})


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


def write_index(surrogates: Iterable[SurrogateDocument], docs, postings, instances) -> dict[str, int]:
    """Write ``surrogates``, in document order, to the lines of docs.tsv,
    postings.tsv and instances.tsv: each document's rows as it comes, and
    the postings by term at the end, so only they are held. Returns the
    row counts of the index."""
    by_term: dict[str, list[str]] = defaultdict(list)
    indexed = instance_rows = truncated = 0
    for doc in surrogates:
        docs.write(f"{doc.doc_id}\t{doc.length}\t{len(doc.revision_times)}\n")
        for anchor, when in doc.anchor_instances:
            instances.write(f"{doc.doc_id}\t{when}\t{escape(anchor)}\n")
        for term, tf in doc.term_freqs.items():
            by_term[term].append(f"{doc.doc_id}:{tf}")
        indexed += 1
        instance_rows += len(doc.anchor_instances)
        truncated += doc.truncated_tokens
    for term in sorted(by_term):
        entries = by_term[term]
        postings.write(f"{term}\t{len(entries)}\t" + "\t".join(entries) + "\n")
    return {"indexed_docs": indexed, "terms": len(by_term), "instances": instance_rows, "truncated_tokens": truncated}


def read_index(
    docs, postings, instances=None, terms: Collection[str] | None = None, documents: Callable[[str], bool] | None = None
) -> tuple[dict[str, SurrogateDocument], IndexStats]:
    """Surrogates (without revision timestamps, which live in the revisions
    table) and the :func:`build_stats` of the whole index, from the lines
    of the persisted files; without ``instances``, the surrogates hold no
    anchor instances.

    With ``terms``, a surrogate keeps only those terms' frequencies; with
    ``documents``, a predicate on the document id, only the documents it
    holds true of and the ones a kept posting lists get a surrogate. Every
    row is checked all the same. ValueError is raised for a field that is
    not a number; naming the term, for a posting list whose count is not
    its number of entries or that lists a document twice, and for a term
    with a second posting list; and naming the document, for one that
    docs.tsv lists twice or lacks, one whose term frequencies over all
    posting lists do not sum to its docs.tsv length (both count its kept
    tokens), and, with ``instances``, one of positive length without an
    instance (its length counts the tokens of its instances)."""
    lengths: dict[str, int] = {}
    surrogates: dict[str, SurrogateDocument] = {}
    for doc_id, length, revs in rows(docs):
        if doc_id in lengths:
            raise ValueError(f"docs.tsv lists document {doc_id!r} twice")
        lengths[doc_id] = int(length)
        int(revs)  # checked, not kept
        if documents is None or documents(doc_id):
            surrogates[doc_id] = SurrogateDocument(doc_id=doc_id, length=lengths[doc_id])

    def missing(doc_id: str) -> ValueError:
        return ValueError(f"document {doc_id!r} is not in docs.tsv")

    unposted = dict(lengths)  # each document's tokens no posting has counted yet
    doc_freq: dict[str, int] = {}
    for term, count, *entries in rows(postings):
        if int(count) != len(entries):
            raise ValueError(f"term {term!r} counts {count} postings but lists {len(entries)}")
        if term in doc_freq:
            raise ValueError(f"term {term!r} has a second posting list")
        doc_freq[term] = len(entries)
        listed: set[str] = set()
        for entry in entries:
            doc_id, tf = entry.rsplit(":", 1)
            if doc_id not in lengths:
                raise missing(doc_id)
            if doc_id in listed:
                raise ValueError(f"term {term!r} lists document {doc_id!r} twice")
            listed.add(doc_id)
            tf = int(tf)
            unposted[doc_id] -= tf
            if terms is None or term in terms:
                if doc_id not in surrogates:
                    surrogates[doc_id] = SurrogateDocument(doc_id=doc_id, length=lengths[doc_id])
                surrogates[doc_id].term_freqs[term] = tf
    for doc_id, length in lengths.items():
        if unposted[doc_id]:
            posted = length - unposted[doc_id]
            raise ValueError(f"document {doc_id!r}: term frequencies sum to {posted}, not its docs.tsv length {length}")
    if instances is not None:
        uninstanced = {doc_id for doc_id, length in lengths.items() if length}
        for doc_id, when, anchor in rows(instances):
            if doc_id not in lengths:
                raise missing(doc_id)
            when = int(when)
            uninstanced.discard(doc_id)
            if doc_id in surrogates:
                surrogates[doc_id].anchor_instances.append((unescape(anchor), when))
        if uninstanced:
            raise ValueError(f"document {min(uninstanced)!r} has a positive docs.tsv length but no instance")
    return surrogates, _index_stats(lengths.values(), doc_freq)
