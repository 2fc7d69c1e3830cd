"""Ranked-retrieval quality metrics and paired significance testing.

Rankings order by descending system score with ascending doc_id as the tie
break, so results are identical across platforms. A document is relevant
when its label is positive; gains are 2^label - 1, which serves graded,
binary and fractional (inverse-rank) labels alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = [
    "RankedRun",
    "PairedTTest",
    "precision_at_k",
    "ndcg_at_k",
    "average_precision",
    "paired_significance",
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
    import numpy as np

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
    return PairedTTest(t, _betainc(dof / 2.0, 0.5, dof / (dof + t * t)))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by its continued fraction,
    evaluated with the modified Lentz method (Press et al., Numerical
    Recipes, 6.4). Above the mean a / (a + b) it is taken as
    1 - I_{1-x}(b, a): the fraction converges faster there, and the
    subtraction loses little."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    flip = x > a / (a + b)
    if flip:
        a, b, x = b, a, 1.0 - x
    tiny = 1e-300  # stands in for a zero denominator
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0) or tiny)
    frac = d
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for num in (even, odd):
            d = 1.0 / (1.0 + num * d or tiny)
            c = 1.0 + num / c or tiny
            frac *= d * c
        if abs(d * c - 1.0) < 3e-16:
            break
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    value = math.exp(log_front) * frac / a
    return 1.0 - value if flip else value
