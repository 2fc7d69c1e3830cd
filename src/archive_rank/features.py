"""Per-(query, document) feature extraction over non-content evidence.

Thirty-three features: eighteen spanning four evidence sources (the URL
string, the link graph, the anchor texts and the capture metadata) plus a
fifteen-column one-hot block for the query's entity type. Extraction is
deterministic and reads only frozen context structures, so (query,
document) pairs can be processed in parallel without coordination.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Iterator, NamedTuple

from .anchor_index import (
    IndexStats,
    SurrogateDocument,
    term_stats,
    tokenize_text,
)
from .ingest import RevisionRecord, revisions_by_core
from . import tables
from .urls import normalize, tokenize_url, url_depth

__all__ = [
    "ENTITY_TYPES",
    "BASE_FEATURES",
    "FEATURE_NAMES",
    "WEEK_SECONDS",
    "DEFAULT_SEARCH_WORDS",
    "DEFAULT_SEARCH_SUBSTRINGS",
    "QueryRecord",
    "FeatureVector",
    "FeatureContext",
    "EvidenceSummary",
    "UnknownDocument",
    "extract_features",
    "anchor_time_spans",
    "rev_duration",
    "per_query_evidence_summary",
    "candidate_docs",
    "in_url_scope",
    "serialize_vectors",
    "deserialize_vectors",
    "group_by_query",
    "load_queries",
    "load_wiki_citations",
    "load_word_table",
    "load_entity_types",
]

# Closed list of coarse entity categories a query can carry.
ENTITY_TYPES = (
    "politician",
    "scientist",
    "artist",
    "sport_player",
    "author",
    "entrepreneur",
    "organisation",
    "product",
    "location",
    "works",
    "event",
    "biology",
    "music",
    "astrology",
    "abstract_concept",
)

BASE_FEATURES = (
    "url_depth",
    "query_string_flag",
    "search_word_flag",
    "query_in_url",
    "news_url_flag",
    "wikipedia_url_count",
    "inlink_count",
    "pagerank_core",
    "pagerank_domain",
    "anchor_freq",
    "anchor_time_spans",
    "max_term_freq",
    "doc_len",
    "length_norm",
    "inverse_doc_freq",
    "revision_count",
    "rev_duration",
    "domain_size",
)
FEATURE_NAMES = BASE_FEATURES + tuple(f"entity_type={t}" for t in ENTITY_TYPES)

WEEK_SECONDS = 7 * 24 * 3600

DEFAULT_SEARCH_WORDS = frozenset({"such", "suche", "suchergebnis", "search", "query", "q"})
DEFAULT_SEARCH_SUBSTRINGS = ("query=",)


class UnknownDocument(ValueError):
    """Raised when features are requested for a document the archive never
    captured."""


@dataclass(frozen=True)
class QueryRecord:
    """An entity query. Queries with commas or round brackets are flagged
    invalid (ambiguous entity names) and excluded from runs."""

    query_id: int
    text: str
    entity_type: str
    wiki_citation_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.entity_type not in ENTITY_TYPES:
            raise ValueError(f"unknown entity type: {self.entity_type!r}")

    @property
    def valid(self) -> bool:
        return not any(ch in self.text for ch in ",()")

    @property
    def tokens(self) -> list[str]:
        return tokenize_text(self.text)


@dataclass(frozen=True)
class FeatureVector:
    query_id: int
    doc_id: str
    label: float
    values: tuple[float, ...]

    def __getitem__(self, name: str) -> float:
        return self.values[FEATURE_NAMES.index(name)]


class EvidenceSummary(NamedTuple):
    mean: float
    median: float
    q1: float
    q3: float


class _Document(NamedTuple):
    """What the revisions of one archived document say about it."""

    domain: str  # the registrable domain of its last revision
    url_tokens: tuple[str, ...]
    revisions: int
    rev_duration: int
    has_query: bool  # a revision's full URL holds a query component


@dataclass
class FeatureContext:
    """Frozen lookup structures shared by every extraction call."""

    surrogates: dict[str, SurrogateDocument]
    stats: IndexStats
    page_rank: dict[str, float]
    domain_rank: dict[str, float]
    documents: dict[str, _Document]  # by core URL
    domain_sizes: dict[str, int]
    # archived documents by anchor term and by URL token
    term_docs: dict[str, set[str]]
    url_token_docs: dict[str, set[str]]
    news_domains: frozenset[str] = frozenset()
    search_words: frozenset[str] = DEFAULT_SEARCH_WORDS
    search_substrings: tuple[str, ...] = DEFAULT_SEARCH_SUBSTRINGS

    @classmethod
    def build(
        cls,
        revisions: Iterable[RevisionRecord],
        surrogates: dict[str, SurrogateDocument],
        stats: IndexStats,
        page_rank: dict[str, float] | None = None,
        domain_rank: dict[str, float] | None = None,
        news_domains: Iterable[str] = (),
        search_words: Iterable[str] | None = None,
        tokens: AbstractSet[str] | None = None,
        *,
        _url_tokens: dict[str, tuple[str, ...]] | None = None,
    ) -> "FeatureContext":
        """The context of the documents of ``revisions``, which must be
        sorted by core URL, as ``revisions.tsv`` is (a core URL after a
        greater one raises ValueError). With ``tokens``, it keeps only the
        documents that have a surrogate or are in :func:`in_url_scope`;
        ``domain_size`` still counts the core URLs of every revision. The
        rank maps are kept as given, not copied.

        ``_url_tokens`` holds the URL tokens of core URLs a caller has
        already tokenized; each is taken from it (and removed) instead of
        tokenized again."""
        known = {} if _url_tokens is None else _url_tokens
        documents: dict[str, _Document] = {}
        domain_sizes: Counter[str] = Counter()
        url_token_docs: dict[str, set[str]] = defaultdict(set)
        term_docs: dict[str, set[str]] = defaultdict(set)
        for core, group in revisions_by_core(revisions):
            domain_sizes.update({rev.domain for rev in group})
            core_tokens = known.pop(core) if core in known else tuple(tokenize_url(normalize(core)))
            doc = surrogates.get(core)
            if doc is None and not in_url_scope(core_tokens, tokens):
                continue
            documents[core] = _Document(
                group[-1].domain,
                core_tokens,
                len(group),
                rev_duration(rev.capture_time for rev in group),
                any("?" in rev.full_url for rev in group),
            )
            for token in core_tokens:
                url_token_docs[token].add(core)
            for term in doc.term_freqs if doc is not None else ():
                term_docs[term].add(core)

        if search_words is None:
            plain = DEFAULT_SEARCH_WORDS
            substrings = DEFAULT_SEARCH_SUBSTRINGS
        else:
            words = frozenset(search_words)
            substrings = tuple(sorted(w for w in words if w.endswith("=")))
            plain = frozenset(w for w in words if not w.endswith("="))
        return cls(
            surrogates=surrogates,
            stats=stats,
            page_rank=page_rank or {},
            domain_rank=domain_rank or {},
            documents=documents,
            domain_sizes=dict(domain_sizes),
            term_docs=dict(term_docs),
            url_token_docs=dict(url_token_docs),
            news_domains=frozenset(news_domains),
            search_words=plain,
            search_substrings=substrings,
        )


def in_url_scope(url_tokens: Iterable[str], tokens: AbstractSet[str] | None) -> bool:
    """Whether URL tokens hold one of the query ``tokens``; with ``tokens`` None, any do."""
    return tokens is None or not tokens.isdisjoint(url_tokens)


def anchor_time_spans(instants: Iterable[int]) -> int:
    """Consecutive-gap count with a strict one-week threshold: anchors
    arriving within a week of each other are not separate endorsements."""
    ordered = sorted(instants)
    return sum(1 for a, b in zip(ordered, ordered[1:]) if b - a > WEEK_SECONDS)


def rev_duration(revision_times: Iterable[int]) -> int:
    """Consecutive-gap count with an inclusive at-least-one-week threshold."""
    ordered = sorted(revision_times)
    return sum(1 for a, b in zip(ordered, ordered[1:]) if b - a >= WEEK_SECONDS)


def _anchor_query_hits(doc: SurrogateDocument | None, query_tokens: list[str]) -> tuple[int, int]:
    """(instances containing every query token, total instances)."""
    if doc is None or not doc.anchor_instances:
        return 0, 0
    needed = set(query_tokens)
    hits = 0
    for anchor, _when in doc.anchor_instances:
        if needed and needed.issubset(tokenize_text(anchor)):
            hits += 1
    return hits, len(doc.anchor_instances)


def extract_features(query: QueryRecord, doc_id: str, ctx: FeatureContext) -> FeatureVector:
    """Build the full feature vector for one (query, document) pair.

    ``doc_id`` must be a core URL with at least one capture; anchor
    presence is optional (anchorless documents score zero on the
    anchor-derived features).
    """
    if doc_id not in ctx.documents:
        raise UnknownDocument(doc_id)
    q_tokens = query.tokens
    q_set = set(q_tokens)
    n = normalize(doc_id)
    archived = ctx.documents[doc_id]
    domain = archived.domain
    doc = ctx.surrogates.get(doc_id)

    hits, total = _anchor_query_hits(doc, q_tokens)
    anchor_freq = hits / total if total else 0.0
    ts = term_stats(doc, ctx.stats, q_tokens)
    instants = [when for _anchor, when in doc.anchor_instances] if doc else []

    values = [
        float(url_depth(n)),
        1.0 if archived.has_query else 0.0,
        1.0
        if any(t in ctx.search_words for t in archived.url_tokens)
        or any(sub in doc_id.lower() for sub in ctx.search_substrings)
        else 0.0,
        float(sum(1 for t in archived.url_tokens if t in q_set)),
        1.0 if domain in ctx.news_domains else 0.0,
        float(query.wiki_citation_counts.get(domain, 0)),
        float(total),  # inlink_count: one anchor instance per deduplicated content link
        float(ctx.page_rank.get(doc_id, 0.0)),
        float(ctx.domain_rank.get(domain, 0.0)),
        anchor_freq,
        float(anchor_time_spans(instants)),
        ts.max_term_freq,
        float(ts.doc_len),
        ts.length_norm,
        ts.inverse_doc_freq,
        float(archived.revisions),
        float(archived.rev_duration),
        float(ctx.domain_sizes.get(domain, 0)),
    ]
    values.extend(1.0 if query.entity_type == t else 0.0 for t in ENTITY_TYPES)
    return FeatureVector(query.query_id, doc_id, 0.0, tuple(values))


def per_query_evidence_summary(values: Iterable[float]) -> EvidenceSummary:
    """Mean, median and quartiles of one evidence over a query's result
    set, one value per document, as Python floats. Quartiles use linear
    interpolation."""
    import numpy as np

    arr = np.fromiter(values, dtype=np.float64)
    if not len(arr):
        raise ValueError("empty result set")
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0], method="linear").tolist()
    return EvidenceSummary(float(arr.mean()), med, q1, q3)


def _docs_with_all(docs_by_token: dict[str, set[str]], tokens: set[str]) -> set[str]:
    """The documents listed under every token, intersected from the
    shortest list up."""
    first, *rest = sorted(tokens, key=lambda t: len(docs_by_token.get(t, ())))
    return set(docs_by_token.get(first, ())).intersection(*(docs_by_token.get(t, ()) for t in rest))


def candidate_docs(query: QueryRecord, ctx: FeatureContext) -> list[str]:
    """The query's result set: archived documents carrying every query
    token in their anchor surrogate or in their tokenized URL."""
    needed = set(query.tokens)
    if not needed:
        return []
    return sorted(_docs_with_all(ctx.term_docs, needed) | _docs_with_all(ctx.url_token_docs, needed))


# ---------------------------------------------------------------------------
# serialization: "<label> qid:<id> 1:<v> ... # <doc_id>" lines


def serialize_vectors(vectors: Iterable[FeatureVector], fh) -> int:
    count = 0
    for vec in vectors:
        feats = " ".join(f"{i + 1}:{v!r}" for i, v in enumerate(vec.values))
        fh.write(f"{vec.label!r} qid:{vec.query_id} {feats} # {vec.doc_id}\n")
        count += 1
    return count


# deserialize_vectors gives equal number texts one shared float, for at
# most this many distinct texts per file: most values repeat (0.0, 1.0,
# small counts), and the cap bounds the table on a file of distinct values
_SHARED_NUMBERS = 1 << 12


def deserialize_vectors(lines) -> Iterator[FeatureVector]:
    """The vectors of :func:`serialize_vectors` lines; a malformed line, or
    one whose value count is not ``len(FEATURE_NAMES)``, raises ValueError
    or IndexError. Equal number texts share one float object."""
    shared: dict[str, float] = {}

    def number(text: str) -> float:
        value = shared.get(text)
        if value is None:
            value = float(text)
            if len(shared) < _SHARED_NUMBERS:
                shared[text] = value
        return value

    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        body, doc_id = line.rsplit(" # ", 1)
        parts = body.split(" ")
        if len(parts) - 2 != len(FEATURE_NAMES):
            raise ValueError(f"{len(parts) - 2} feature values, not {len(FEATURE_NAMES)}")
        label = number(parts[0])
        if not parts[1].startswith("qid:"):
            raise ValueError("missing qid")
        qid = int(parts[1][4:])
        values = []
        for i, item in enumerate(parts[2:], start=1):
            idx, value = item.split(":", 1)
            if int(idx) != i:
                raise ValueError(f"feature index {idx} out of order")
            values.append(number(value))
        yield FeatureVector(qid, doc_id, label, tuple(values))


def group_by_query(vectors: Iterable[FeatureVector]) -> dict[int, list[FeatureVector]]:
    groups: dict[int, list[FeatureVector]] = defaultdict(list)
    for vec in vectors:
        groups[vec.query_id].append(vec)
    return dict(groups)


# ---------------------------------------------------------------------------
# resource tables


def load_queries(path, citations: dict[int, dict[str, int]] | None = None) -> list[QueryRecord]:
    """queries.tsv: query_id <TAB> text <TAB> entity_type; each id once."""

    def parse(lines) -> list[QueryRecord]:
        queries: dict[int, QueryRecord] = {}
        for qid_text, text, etype in tables.rows(lines, comments=True):
            qid = int(qid_text)
            if qid in queries:
                raise ValueError(f"query id {qid} appears more than once")
            queries[qid] = QueryRecord(qid, text, etype, dict((citations or {}).get(qid, {})))
        return list(queries.values())

    return tables.read(parse, path)


def load_wiki_citations(path) -> dict[int, dict[str, int]]:
    """wiki citation counts: query_id <TAB> domain <TAB> count."""
    table = tables.read(
        lambda lines: [(int(qid), domain, int(count)) for qid, domain, count in tables.rows(lines, comments=True)], path
    )
    out: dict[int, dict[str, int]] = defaultdict(dict)
    for qid, domain, count in table:
        out[qid][domain] = count
    return dict(out)


def load_word_table(path) -> frozenset[str]:
    """One entry per line; entries ending in '=' act as raw substring
    patterns against the unsplit URL, everything else matches whole tokens."""
    return tables.read(lambda lines: frozenset(entry.lower() for entry in tables.entries(lines)), path)


def load_entity_types(path) -> tuple[str, ...]:
    """Entity-type list, one per line. The one-hot block is pinned to the
    closed built-in category list, so a loaded table may only name types
    from that list (it exists to validate query files against a run's
    configuration)."""

    def known(name: str) -> str:
        if name not in ENTITY_TYPES:
            raise ValueError(f"unknown entity type: {name!r}")
        return name

    return tables.read(lambda lines: tuple(known(name) for name in tables.entries(lines)), path)
