"""Training labels: search-engine soft labels, manual grades with agreement
statistics, and the stratified evaluation sample.

Soft labels come from merged snapshots of an external engine's top results:
a document found there is labeled by the inverse of its best rank,
everything else zero. Manual grades use the 0/1/2 scale (irrelevant,
relevant, relevant and important). All randomness is seeded and the sample
is invariant to input order.
"""
from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

from . import tables
from .urls import UrlError, core_url_str

__all__ = [
    "ResultSnapshot",
    "ManualJudgment",
    "merge_snapshots",
    "intersect_with_index",
    "soft_label",
    "cohen_kappa",
    "pairwise_kappas",
    "average_pairwise_kappa",
    "stratified_sample",
    "pool_with_positives",
    "load_snapshots",
    "load_judgments",
    "PROVENANCE_SAMPLED",
    "PROVENANCE_FROM_B",
    "PROVENANCE_BOTH",
]

SNAPSHOT_LIMIT = 100

PROVENANCE_SAMPLED = "sampled"
PROVENANCE_FROM_B = "from_b"
PROVENANCE_BOTH = "both"

_SNAPSHOT_NAME = re.compile(r"^(\d+)_(.+)\.txt$")


@dataclass(frozen=True)
class ResultSnapshot:
    """One fetch of an external engine's ranked results for a query.
    Ranks are 1-based positions; duplicates within a snapshot are dropped
    at load time, keeping the best position."""

    query_id: int
    fetched_at: str
    ranked_urls: tuple[str, ...]


@dataclass(frozen=True)
class ManualJudgment:
    query_id: int
    doc_id: str
    assessor_id: str
    grade: int

    def __post_init__(self):
        if self.grade not in (0, 1, 2):
            raise ValueError(f"grade must be 0, 1 or 2, got {self.grade}")


def merge_snapshots(snapshots: Sequence[ResultSnapshot]) -> dict[str, int]:
    """Union the snapshots of one query into core URL -> best (minimum) rank."""
    if not snapshots:
        return {}
    qids = {s.query_id for s in snapshots}
    if len(qids) > 1:
        raise ValueError(f"snapshots span multiple queries: {sorted(qids)}")
    best: dict[str, int] = {}
    for snap in snapshots:
        for rank, url in enumerate(snap.ranked_urls, start=1):
            try:
                core = core_url_str(url)
            except UrlError:
                continue
            if core not in best or rank < best[core]:
                best[core] = rank
    return best


def intersect_with_index(merged: Mapping[str, int], retrievable: Iterable[str]) -> dict[str, int]:
    """Dataset B: externally ranked URLs that the archive can actually
    return, with their original best ranks."""
    keep = set(retrievable)
    return {doc: rank for doc, rank in merged.items() if doc in keep}


def soft_label(doc_id: str, merged: Mapping[str, int]) -> float:
    """Inverse best rank when present, else zero."""
    rank = merged.get(doc_id)
    return 1.0 / rank if rank else 0.0


def cohen_kappa(a: Mapping[Hashable, int], b: Mapping[Hashable, int]) -> float:
    """Chance-corrected agreement between two assessors over the same items,
    given as two mappings item -> grade. Defined as one when expected
    agreement is total (both assessors constant on the same grade).
    """
    if a.keys() != b.keys():
        raise ValueError("judged item sets differ")
    grades_a, grades_b = list(a.values()), [b[i] for i in a]
    n = len(grades_a)
    if n == 0:
        raise ValueError("no judged items")
    observed = sum(1 for x, y in zip(grades_a, grades_b) if x == y) / n
    levels = set(grades_a) | set(grades_b)
    expected = sum(
        (grades_a.count(g) / n) * (grades_b.count(g) / n) for g in levels
    )
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


def pairwise_kappas(judgments: Mapping[str, Mapping[str, int]]) -> dict[tuple[str, str], float]:
    """Cohen's kappa of each assessor pair (in sorted order) on their common
    items; a pair with no common item is left out."""
    kappas = {}
    for left, right in combinations(sorted(judgments), 2):
        common = sorted(set(judgments[left]) & set(judgments[right]))
        if common:
            kappas[(left, right)] = cohen_kappa(
                {i: judgments[left][i] for i in common},
                {i: judgments[right][i] for i in common},
            )
    return kappas


def average_pairwise_kappa(kappas: Mapping[tuple[str, str], float]) -> float:
    """Unweighted mean of the kappas of :func:`pairwise_kappas`, over the
    assessor pairs that share an item."""
    import numpy as np

    if not kappas:
        raise ValueError("no two assessors share an item")
    return float(np.mean(list(kappas.values())))


def stratified_sample(
    docs: Sequence[str],
    feature_matrix,
    per_partition: tuple[int, int],
    seed: int,
) -> list[str]:
    """Feature-stratified random sample of result documents.

    Per feature dimension: min-max normalize, order by (score, doc_id),
    split into three near-equal partitions (remainder to the earlier ones)
    and draw a seeded count in ``per_partition`` from each without
    replacement. The union over features is the sample; any feature pair
    with disjoint draws is topped up from the same seeded stream so every
    pair overlaps.
    """
    docs_sorted, per_feature = _per_feature_draws(docs, feature_matrix, per_partition, seed)
    union = sorted({i for chosen in per_feature for i in chosen})
    return [docs_sorted[i] for i in union]


def _per_feature_draws(
    docs: Sequence[str],
    feature_matrix,
    per_partition: tuple[int, int],
    seed: int,
) -> tuple[list[str], list[set[int]]]:
    """Sorted documents plus the (overlap-repaired) draw set per feature."""
    import numpy as np

    order = np.argsort(np.asarray(docs, dtype=object), kind="stable")
    docs_sorted = [docs[i] for i in order]
    matrix = np.asarray(feature_matrix, dtype=np.float64)[order]
    n = len(docs_sorted)
    if n < 3:
        raise ValueError("need at least three documents to stratify")
    if matrix.shape[0] != n:
        raise ValueError("feature matrix does not align with documents")
    lo, hi = per_partition
    if lo < 1 or hi < lo:
        raise ValueError(f"bad per-partition range: {per_partition}")

    rng = np.random.default_rng(seed)
    n_features = matrix.shape[1]
    per_feature: list[set[int]] = []
    base, rem = divmod(n, 3)
    sizes = [base + (1 if i < rem else 0) for i in range(3)]
    for f in range(n_features):
        col = matrix[:, f]
        span = col.max() - col.min()
        norm = (col - col.min()) / span if span > 0 else np.zeros(n)
        # ties broken by doc id: docs_sorted is lexicographic, stable sort keeps it
        ranked = np.argsort(norm, kind="stable")
        chosen: set[int] = set()
        start = 0
        for size in sizes:
            part = ranked[start : start + size]
            start += size
            count = min(int(rng.integers(lo, hi + 1)), size)
            picks = rng.choice(size, size=count, replace=False)
            chosen.update(int(part[p]) for p in picks)
        per_feature.append(chosen)

    for f, g in combinations(range(n_features), 2):
        if per_feature[f] & per_feature[g]:
            continue
        extra = int(rng.integers(n))
        per_feature[f].add(extra)
        per_feature[g].add(extra)
    return docs_sorted, per_feature


def pool_with_positives(sample: Iterable[str], dataset_b: Iterable[str]) -> dict[str, str]:
    """Candidate pool: the stratified sample plus every externally endorsed
    document, with per-document provenance."""
    sampled = set(sample)
    positives = set(dataset_b)
    pool = {}
    for doc in sorted(sampled | positives):
        if doc in sampled and doc in positives:
            pool[doc] = PROVENANCE_BOTH
        elif doc in sampled:
            pool[doc] = PROVENANCE_SAMPLED
        else:
            pool[doc] = PROVENANCE_FROM_B
    return pool


# ---------------------------------------------------------------------------
# file ingestion


def load_snapshots(serp_dir, counts: dict[str, int] | None = None) -> dict[int, list[ResultSnapshot]]:
    """Read ``<query_id>_<date>.txt`` files (one URL per line, rank = line
    number, top-100 kept) grouped by query. Any other entry of ``serp_dir``
    is skipped, and counted under ``misnamed_snapshots`` in ``counts`` when
    given."""
    out: dict[int, list[ResultSnapshot]] = defaultdict(list)
    for path in sorted(Path(serp_dir).iterdir()):
        m = _SNAPSHOT_NAME.match(path.name)
        if not m:
            if counts is not None:
                counts["misnamed_snapshots"] = counts.get("misnamed_snapshots", 0) + 1
            continue
        qid, fetched_at = int(m.group(1)), m.group(2)
        urls = tables.read(lambda lines: tuple(dict.fromkeys(filter(None, map(str.strip, lines)))), path)
        out[qid].append(ResultSnapshot(qid, fetched_at, urls[:SNAPSHOT_LIMIT]))
    return dict(out)


def load_judgments(path) -> dict[str, dict[tuple[int, str], int]]:
    """judgments.tsv (query_id <TAB> doc_id <TAB> assessor_id <TAB> grade)
    as grades by assessor, then by (query_id, doc_id), the form
    :func:`pairwise_kappas` takes. Rows are folded as they are read, and an
    item graded by several assessors is one key object among them. A second
    grade by one assessor for one item raises ValueError."""

    def fold(lines) -> dict[str, dict[tuple[int, str], int]]:
        by_assessor: dict[str, dict[tuple[int, str], int]] = {}
        items: dict[tuple[int, str], tuple[int, str]] = {}
        for qid, doc_id, assessor, grade in tables.rows(lines, comments=True):
            j = ManualJudgment(int(qid), doc_id, assessor, int(grade))
            item = (j.query_id, j.doc_id)
            item = items.setdefault(item, item)
            graded = by_assessor.setdefault(j.assessor_id, {})
            if item in graded:
                raise ValueError(f"assessor {j.assessor_id} grades query {j.query_id}, document {j.doc_id} twice")
            graded[item] = j.grade
        return by_assessor

    return tables.read(fold, path)
