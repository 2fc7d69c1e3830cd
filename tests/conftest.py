"""Shared builders for small in-memory fixtures."""
from __future__ import annotations

from archive_rank.anchor_index import build_stats, build_surrogates
from archive_rank.features import FeatureContext, QueryRecord
from archive_rank.ingest import LinkRecord, RevisionRecord, content_links

DAY = 24 * 3600
T0 = 1_200_000_000  # 2008-01-10T21:20:00Z


def rev(core: str, when: int, full: str | None = None, domain: str | None = None) -> RevisionRecord:
    if domain is None:
        host = core.split("//", 1)[1].split("/", 1)[0]
        parts = host.split(".")
        domain = ".".join(parts[-2:]) if len(parts) >= 2 else host
    return RevisionRecord(core, full if full is not None else core, when, domain)


def link(source: str, target: str, anchor: str = "", when: int = T0, pattern: str = "A/href") -> LinkRecord:
    return LinkRecord(source, when, target, pattern, anchor)


def make_context(
    revisions,
    links,
    strategy: str = "unique_per_revision",
    page_rank: dict[str, float] | None = None,
    domain_rank: dict[str, float] | None = None,
    news_domains=(),
    search_words=None,
) -> FeatureContext:
    surrogates = build_surrogates(content_links(links), revisions, strategy)
    stats = build_stats(surrogates)
    return FeatureContext.build(
        revisions,
        surrogates,
        stats,
        page_rank=page_rank,
        domain_rank=domain_rank,
        news_domains=news_domains,
        search_words=search_words,
    )


def candidates_by_scan(q: QueryRecord, ctx: FeatureContext) -> list[str]:
    """The result set by its definition: every archived document tested for
    the query tokens in its anchor terms, then in its URL tokens."""
    needed = set(q.tokens)
    if not needed:
        return []
    return sorted(
        doc_id
        for doc_id in ctx.revision_counts
        if (doc_id in ctx.surrogates and needed <= ctx.surrogates[doc_id].term_freqs.keys())
        or needed <= set(ctx.url_tokens[doc_id])
    )
