"""Ranked-retrieval quality metrics and paired significance testing.

Rankings order by descending system score with ascending doc_id as the tie
break, so results are identical across platforms. A document is relevant
when its label is positive; gains are 2^label - 1, which serves graded,
binary and fractional (inverse-rank) labels alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "RankedRun",
    "PairedTTest",
    "precision_at_k",
    "ndcg_at_k",
    "average_precision",
    "mean_average_precision",
    "paired_significance",
    "permutation_pvalue",
]


@dataclass(frozen=True)
class RankedRun:
    """One system's ranking for one query, with per-document labels."""

    query_id: int
    doc_ids: tuple[str, ...]
    labels: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_scores(
        cls,
        query_id: int,
        scores: Mapping[str, float],
        labels: Mapping[str, float],
    ) -> "RankedRun":
        ordered = sorted(scores, key=lambda d: (-scores[d], d))
        return cls(query_id, tuple(ordered), {d: float(labels.get(d, 0.0)) for d in ordered})

    def label_at(self, i: int) -> float:
        return self.labels.get(self.doc_ids[i], 0.0)


def precision_at_k(run: RankedRun, k: int) -> float:
    """Fraction of the top-k slots holding a relevant document; k stays in
    the denominator even when the run is shorter."""
    if k < 1:
        raise ValueError("k must be at least 1")
    hits = sum(1 for i in range(min(k, len(run.doc_ids))) if run.label_at(i) > 0)
    return hits / k


def _dcg(gains: Sequence[float], k: int) -> float:
    return sum(
        (2.0 ** g - 1.0) / math.log2(i + 2) for i, g in enumerate(gains[:k])
    )


def ndcg_at_k(run: RankedRun, k: int) -> float:
    """Normalized discounted cumulative gain; zero when no document in the
    run carries a positive label."""
    if k < 1:
        raise ValueError("k must be at least 1")
    gains = [run.label_at(i) for i in range(len(run.doc_ids))]
    ideal = sorted(gains, reverse=True)
    idcg = _dcg(ideal, k)
    if idcg == 0.0:
        return 0.0
    return _dcg(gains, k) / idcg


def average_precision(run: RankedRun) -> float:
    """Mean over relevant ranks r of (relevant count up to r) / r, across
    the full ranking; zero when nothing relevant was retrieved."""
    hits = 0
    total = 0.0
    for i in range(len(run.doc_ids)):
        if run.label_at(i) > 0:
            hits += 1
            total += hits / (i + 1)
    return total / hits if hits else 0.0


def mean_average_precision(runs: Iterable[RankedRun]) -> float:
    values = [average_precision(run) for run in runs]
    if not values:
        raise ValueError("no runs")
    return float(np.mean(values))


@dataclass(frozen=True)
class PairedTTest:
    t_statistic: float
    p_value: float
    degenerate_variance: bool = False


def paired_significance(metric_a: Sequence[float], metric_b: Sequence[float]) -> PairedTTest:
    """Two-sided paired t-test on per-query metric differences.

    All-zero differences give (t=0, p=1). Zero variance with a nonzero mean
    is reported as p=0 with the degenerate-variance flag set.
    """
    from scipy import special  # deferred: only the eval stage pays for importing scipy

    a = np.asarray(metric_a, dtype=np.float64)
    b = np.asarray(metric_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired metric vectors must have equal length")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two paired observations")
    diff = a - b
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return PairedTTest(0.0, 1.0)
        return PairedTTest(math.copysign(math.inf, mean), 0.0, degenerate_variance=True)
    t = mean / (sd / math.sqrt(n))
    dof = n - 1
    # two-sided p via the regularized incomplete beta function
    p = float(special.betainc(dof / 2.0, 0.5, dof / (dof + t * t)))
    return PairedTTest(t, p)


def permutation_pvalue(
    metric_a: Sequence[float],
    metric_b: Sequence[float],
    draws: int = 10000,
    seed: int = 0,
) -> float:
    """Sign-flip permutation test over the same paired differences; a
    distribution-free cross-check for :func:`paired_significance`."""
    diff = np.asarray(metric_a, dtype=np.float64) - np.asarray(metric_b, dtype=np.float64)
    if diff.ndim != 1 or len(diff) < 2:
        raise ValueError("need at least two paired observations")
    observed = abs(diff.mean())
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), size=(draws, len(diff)))
    stats = np.abs((signs * diff).mean(axis=1))
    return float((np.sum(stats >= observed) + 1.0) / (draws + 1.0))
