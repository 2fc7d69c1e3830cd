"""Shared builders for small in-memory fixtures, and one finished run on
the benchmark's smoke corpus."""
from __future__ import annotations

import pytest

from archive_rank.anchor_index import build_stats, build_surrogates
from archive_rank.features import FeatureContext, QueryRecord
from archive_rank.ingest import LINK_PATTERNS, STRATEGY_ALL, LinkRecord, RevisionRecord, content_links, counted_links
from archive_rank.pipeline import STAGE_ORDER, load_config, run_stage
from archive_rank.synthetic import make_synthetic_archive
from archive_rank.urls import core_url_str

DAY = 24 * 3600
T0 = 1_200_000_000  # 2008-01-10T21:20:00Z

# the tag patterns extract_links writes, one per LINK_PATTERNS row
PATTERN_TOKENS = frozenset(f"{tag.upper()}/{attr}" for tag, attr in LINK_PATTERNS.items())


def rev(core: str, when: int, full: str | None = None, domain: str | None = None) -> RevisionRecord:
    if domain is None:
        host = core.split("//", 1)[1].split("/", 1)[0]
        parts = host.split(".")
        domain = ".".join(parts[-2:]) if len(parts) >= 2 else host
    return RevisionRecord(core, when, full if full is not None else core, domain)


def link(source: str, target: str, anchor: str = "", when: int = T0, pattern: str = "A/href") -> LinkRecord:
    return LinkRecord(source, when, target, pattern, anchor)


def inlink_count(links, doc: str, dedup: str = STRATEGY_ALL) -> int:
    """Reference count: the content links pointing at ``doc`` (a core URL)
    that the ``dedup`` strategy counts, resolved from the raw links."""
    target = core_url_str(doc)
    return sum(1 for link in counted_links(content_links(links), dedup) if link.target == target)


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
        sorted(revisions),  # the order of revisions.tsv
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
        for doc_id, archived in ctx.documents.items()
        if (doc_id in ctx.surrogates and needed <= ctx.surrogates[doc_id].term_freqs.keys())
        or needed <= set(archived.url_tokens)
    )


# the make_synthetic_archive arguments of the benchmark's smoke corpus
SMOKE = dict(
    num_queries=6,
    chaff_per_query=15,
    spam_per_query=5,
    boosted_per_query=3,
    sources=80,
    feeder_inlinks=20,
    filler_docs=40,
    rf_num_trees=4,
)


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    """(config path, run directory) of every stage run on the seed-1 smoke
    corpus; a test that changes the run works on a copy."""
    corpus = make_synthetic_archive(tmp_path_factory.mktemp("smoke-corpus"), seed=1, **SMOKE)
    run_dir = tmp_path_factory.mktemp("smoke-run")
    cfg = load_config(corpus.config_path)
    for stage in STAGE_ORDER:
        run_stage(stage, cfg, run_dir)
    return corpus.config_path, run_dir
