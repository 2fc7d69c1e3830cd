"""archive_rank: rank web-archive documents for entity queries using only
non-content evidence (URL strings, capture metadata, hyperlinks and anchor
texts).

The package splits into small composable layers:

- :mod:`archive_rank.ingest` streams WARC/ARC containers into revision and
  link records;
- :mod:`archive_rank.urls` canonicalizes URLs and derives core URLs,
  tokens, depth and registrable domains;
- :mod:`archive_rank.graph` builds page/domain link graphs and PageRank;
- :mod:`archive_rank.anchor_index` aggregates anchor texts into surrogate
  documents with BM25 and classic term statistics;
- :mod:`archive_rank.features` computes the per-(query, document) feature
  vectors; :mod:`archive_rank.labeling` produces soft and manual labels
  plus the stratified evaluation sample;
- :mod:`archive_rank.forest` trains the bagged regression-tree ranker;
  :mod:`archive_rank.metrics` evaluates it;
- :mod:`archive_rank.pipeline` / :mod:`archive_rank.cli` tie the stages
  together over a run directory; :mod:`archive_rank.tables` reads the
  lines of its text tables.

No module imports numpy when it is imported: the functions that use it
import it themselves, so the stages that need none (``ingest``, ``index``,
``stats``, ``features``) run without it.
"""

from .anchor_index import (
    IndexStats,
    SurrogateDocument,
    anchor_distribution,
    bm25_score,
    build_stats,
    build_surrogates,
    term_stats,
    tokenize_text,
)
from .features import (
    ENTITY_TYPES,
    FEATURE_NAMES,
    FeatureContext,
    FeatureVector,
    QueryRecord,
    anchor_time_spans,
    candidate_docs,
    extract_features,
    per_query_evidence_summary,
    rev_duration,
)
from .forest import (
    Forest,
    ForestParams,
    cross_validate,
    information_gain_ranking,
    train_forest,
)
from .graph import Graph, RankVector, build_page_graph, pagerank, project_domain_graph
from .ingest import (
    ArchiveRecord,
    ContentLink,
    LinkRecord,
    ParseStats,
    RevisionRecord,
    content_links,
    extract_links,
    parse_arc_stream,
    parse_warc_stream,
)
from .labeling import (
    ResultSnapshot,
    average_pairwise_kappa,
    cohen_kappa,
    intersect_with_index,
    merge_snapshots,
    pool_with_positives,
    soft_label,
    stratified_sample,
)
from .metrics import (
    RankedRun,
    average_precision,
    ndcg_at_k,
    paired_significance,
    precision_at_k,
)
from .urls import NormalizedUrl, SuffixTable, core_url, domain_of, normalize, tokenize_url, url_depth

__version__ = "0.1.0"
