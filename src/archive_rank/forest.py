"""Bagged regression trees for pointwise rank learning, grouped
cross-validation with top-10 NDCG model selection, and information-gain
feature ranking.

Training is deterministic: every tree derives its own generator from the
master seed and its tree index. Examples are canonically pre-sorted by
(query_id, doc_id) before fitting, making training invariant to input order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .features import FEATURE_NAMES, FeatureVector
from .metrics import RankedRun, ndcg_at_k

__all__ = [
    "ForestParams",
    "Forest",
    "CvReport",
    "train_forest",
    "cross_validate",
    "information_gain_ranking",
    "write_forest",
    "read_forest",
]

_FOREST_MAGIC = "archive-rank-forest v1"


@dataclass(frozen=True)
class ForestParams:
    num_trees: int = 300
    bootstrap_fraction: float = 1.0
    features_per_split: int | str = "sqrt"  # "sqrt", "third" or an int
    min_leaf: int = 1
    max_depth: int | None = None
    seed: int = 0

    def resolve_features_per_split(self, n_features: int) -> int:
        if self.features_per_split == "sqrt":
            return max(1, math.ceil(math.sqrt(n_features)))
        if self.features_per_split == "third":
            return max(1, math.ceil(n_features / 3))
        m = int(self.features_per_split)
        if not 1 <= m <= n_features:
            raise ValueError(f"features_per_split {m} out of range 1..{n_features}")
        return m


@dataclass
class _Tree:
    """Axis-aligned regression tree stored as parallel arrays. Leaves carry
    feature -1; internal nodes also record their mean for inspection."""

    feature: np.ndarray  # int32, -1 for leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32, -1 for leaves
    right: np.ndarray  # int32
    value: np.ndarray  # float64 node mean

    def predict_one(self, x: np.ndarray) -> float:
        """Leaf value for one row; the reference for :meth:`leaf_values`."""
        node = 0
        feature = self.feature
        while feature[node] >= 0:
            if x[feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return float(self.value[node])

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value for every row of X, descending one level per step."""
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.flatnonzero(self.feature[node] >= 0)
        while len(rows):
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
            rows = rows[self.feature[node[rows]] >= 0]
        return self.value[node]


@dataclass
class Forest:
    trees: list[_Tree]
    params: ForestParams
    feature_names: tuple[str, ...]
    importances: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def predict(self, vector) -> float:
        """Score one feature vector (or bare value sequence)."""
        x = np.asarray(
            vector.values if isinstance(vector, FeatureVector) else vector,
            dtype=np.float64,
        )
        if x.shape != (self.n_features,):
            raise ValueError(
                f"expected {self.n_features} features, got {x.shape}"
            )
        return float(self.predict_matrix(x[None, :])[0])

    def predict_matrix(self, X) -> np.ndarray:
        """Scores for the rows of X: the mean of the trees' leaf values."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected rows of {self.n_features} features, got {X.shape}"
            )
        # rows x trees: a row's mean then sums its trees in the same order,
        # and so to the same bits, as np.mean over the per-tree values
        leaves = np.empty((len(X), len(self.trees)))
        for k, tree in enumerate(self.trees):
            leaves[:, k] = tree.leaf_values(X)
        return leaves.mean(axis=1)

    def feature_importances(self) -> dict[str, float]:
        """Normalized variance-reduction totals accumulated while training."""
        total = self.importances.sum()
        shares = self.importances / total if total > 0 else self.importances
        return dict(zip(self.feature_names, shares.tolist()))


class _TreeBuilder:
    """Stateless over builds: every call returns the tree plus its own
    importance tally."""

    def __init__(self, X: np.ndarray, y: np.ndarray, params: ForestParams, m_features: int):
        self.X = X
        self.y = y
        self.params = params
        self.m = m_features

    def build(self, rng: np.random.Generator) -> tuple[_Tree, np.ndarray]:
        importance = np.zeros(self.X.shape[1])
        n = self.X.shape[0]
        size = max(1, int(round(self.params.bootstrap_fraction * n)))
        sample = rng.integers(0, n, size=size)
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        # stack of (row indices, depth, parent slot, is_left)
        stack: list[tuple[np.ndarray, int, int, bool]] = [(np.asarray(sample), 0, -1, False)]
        while stack:
            idx, depth, parent, is_left = stack.pop()
            node_id = len(feature)
            if parent >= 0:
                if is_left:
                    left[parent] = node_id
                else:
                    right[parent] = node_id
            ys = self.y[idx]
            mean = float(ys.sum()) / len(idx)
            split = self._find_split(idx, ys, depth, rng)
            if split is None:
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                value.append(mean)
                continue
            f, thr, mask, gain = split
            importance[f] += gain
            feature.append(f)
            threshold.append(thr)
            left.append(-1)
            right.append(-1)
            value.append(mean)
            # push right first so the left child is built (and numbered) first
            stack.append((idx[~mask], depth + 1, node_id, False))
            stack.append((idx[mask], depth + 1, node_id, True))
        tree = _Tree(
            np.asarray(feature, dtype=np.int32),
            np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.int32),
            np.asarray(right, dtype=np.int32),
            np.asarray(value, dtype=np.float64),
        )
        return tree, importance

    def _find_split(
        self, idx: np.ndarray, ys: np.ndarray, depth: int, rng: np.random.Generator
    ) -> tuple[int, float, np.ndarray, float] | None:
        """Best variance-reduction cut over a random feature subset, scored
        for all candidates at once. Ties go to the first cut within a
        feature, then to the first candidate in draw order."""
        n = len(idx)
        min_leaf = self.params.min_leaf
        if n < 2 * min_leaf:
            return None
        if self.params.max_depth is not None and depth >= self.params.max_depth:
            return None
        if (ys == ys[0]).all():
            return None
        n_features = self.X.shape[1]
        candidates = rng.choice(n_features, size=min(self.m, n_features), replace=False)
        total_sum = ys.sum()
        total_sq = float(ys @ ys)
        parent_sse = total_sq - total_sum * total_sum / n
        xs = self.X[idx[:, None], candidates]  # rows x candidates
        order = xs.argsort(axis=0, kind="stable")
        xs_sorted = xs[order, np.arange(len(candidates))]
        ys_sorted = ys[order]
        csum = ys_sorted.cumsum(axis=0)
        csq = (ys_sorted * ys_sorted).cumsum(axis=0)
        # a cut at position p puts the p smallest rows left, min_leaf <= p <= n - min_leaf
        left_n = np.arange(min_leaf, n - min_leaf + 1, dtype=np.float64)[:, None]
        left_sum = csum[min_leaf - 1 : n - min_leaf]
        left_sq = csq[min_leaf - 1 : n - min_leaf]
        sse = (
            left_sq
            - left_sum * left_sum / left_n
            + (total_sq - left_sq)
            - (total_sum - left_sum) ** 2 / (n - left_n)
        )
        upper = xs_sorted[min_leaf : n - min_leaf + 1]
        lower = xs_sorted[min_leaf - 1 : n - min_leaf]
        sse[~(upper > lower)] = np.inf  # no cut between equal values
        column_sse = sse.min(axis=0)
        j = int(column_sse.argmin())
        if column_sse[j] == np.inf:
            return None
        gain = parent_sse - float(column_sse[j])
        if gain <= 0.0:
            return None
        cut = int(sse[:, j].argmin())
        thr = float((lower[cut, j] + upper[cut, j]) / 2.0)
        mask = xs[:, j] <= thr
        if not mask.any() or mask.all():
            return None
        return int(candidates[j]), thr, mask, gain


def _canonical_order(vectors: Sequence[FeatureVector]) -> list[FeatureVector]:
    return sorted(vectors, key=lambda v: (v.query_id, v.doc_id))


def _as_arrays(vectors: Sequence[FeatureVector]) -> tuple[np.ndarray, np.ndarray]:
    X = np.array([v.values for v in vectors], dtype=np.float64)
    y = np.array([v.label for v in vectors], dtype=np.float64)
    return X, y


def _default_names(width: int, feature_names: tuple[str, ...] | None) -> tuple[str, ...]:
    if feature_names is not None:
        if len(feature_names) != width:
            raise ValueError(f"{len(feature_names)} feature names for {width} columns")
        return tuple(feature_names)
    if width == len(FEATURE_NAMES):
        return FEATURE_NAMES
    return tuple(f"f{i + 1}" for i in range(width))


def train_forest(
    examples: Sequence[FeatureVector],
    params: ForestParams = ForestParams(),
    feature_names: tuple[str, ...] | None = None,
) -> Forest:
    """Fit bagged regression trees on (feature vector, label) examples.

    Each tree sees its own bootstrap sample and considers a per-node random
    feature subset, choosing the best variance-reduction split. Per-tree
    seeds derive from (master seed, tree index).
    """
    if len(examples) < 2:
        raise ValueError("need at least two training examples")
    ordered = _canonical_order(examples)
    X, y = _as_arrays(ordered)
    names = _default_names(X.shape[1], feature_names)
    m = params.resolve_features_per_split(X.shape[1])
    builder = _TreeBuilder(X, y, params, m)

    trees = []
    importance = np.zeros(X.shape[1])
    for tree_index in range(params.num_trees):
        rng = np.random.default_rng(np.random.SeedSequence((params.seed, tree_index)))
        tree, imp = builder.build(rng)
        trees.append(tree)
        importance += imp
    return Forest(trees, params, names, importance)


@dataclass
class CvReport:
    """Grouped cross-validation outcome: one NDCG@10 row per (grid point,
    fold), the winning parameters and their mean score."""

    rows: list[dict]
    selected: ForestParams
    mean_ndcg: float
    fold_of_query: dict[int, int]

    def as_dict(self) -> dict:
        return {
            "rows": self.rows,
            "selected": vars(self.selected) | {},
            "mean_ndcg": self.mean_ndcg,
            "fold_of_query": {str(k): v for k, v in sorted(self.fold_of_query.items())},
        }


def cross_validate(
    examples: Sequence[FeatureVector],
    param_grid: Sequence[ForestParams],
    k_folds: int = 5,
    seed: int = 0,
    ndcg_cutoff: int = 10,
) -> tuple[Forest, CvReport]:
    """Select parameters by held-out NDCG@10 over query-grouped folds.

    Folds partition queries, never rows, so no query leaks across its own
    fold boundary. Ties between grid points resolve to the earlier entry.
    The returned forest is retrained on all examples with the winner.
    """
    grid = list(param_grid)
    if not grid:
        raise ValueError("empty parameter grid")
    ordered = _canonical_order(examples)
    query_ids = sorted({v.query_id for v in ordered})
    if len(query_ids) < k_folds:
        raise ValueError(f"{len(query_ids)} queries cannot fill {k_folds} folds")
    rng = np.random.default_rng(seed)
    shuffled = list(query_ids)
    rng.shuffle(shuffled)
    fold_of_query = {
        int(qid): fold
        for fold, chunk in enumerate(np.array_split(np.asarray(shuffled), k_folds))
        for qid in chunk
    }

    rows: list[dict] = []
    means: list[float] = []
    for grid_index, params in enumerate(grid):
        per_query_scores: list[float] = []
        for fold in range(k_folds):
            train = [v for v in ordered if fold_of_query[v.query_id] != fold]
            held = [v for v in ordered if fold_of_query[v.query_id] == fold]
            model = train_forest(train, params)
            fold_scores = _ndcg_by_query(model, held, ndcg_cutoff)
            per_query_scores.extend(fold_scores.values())
            rows.append(
                {
                    "grid_index": grid_index,
                    "min_leaf": params.min_leaf,
                    "features_per_split": params.features_per_split,
                    "fold": fold,
                    "ndcg": float(np.mean(list(fold_scores.values()))) if fold_scores else 0.0,
                }
            )
        means.append(float(np.mean(per_query_scores)) if per_query_scores else 0.0)
    best = int(np.argmax(means))  # argmax keeps the first of tied entries
    selected = grid[best]
    final = train_forest(ordered, selected)
    return final, CvReport(rows, selected, means[best], fold_of_query)


def _ndcg_by_query(model: Forest, held: Sequence[FeatureVector], cutoff: int) -> dict[int, float]:
    by_query: dict[int, list[FeatureVector]] = {}
    for vec in held:
        by_query.setdefault(vec.query_id, []).append(vec)
    out = {}
    for qid, vecs in by_query.items():
        predicted = model.predict_matrix([v.values for v in vecs]).tolist()
        scores = {v.doc_id: score for v, score in zip(vecs, predicted)}
        labels = {v.doc_id: v.label for v in vecs}
        run = RankedRun.from_scores(qid, scores, labels)
        out[qid] = ndcg_at_k(run, cutoff)
    return out


# ---------------------------------------------------------------------------
# information gain


def _entropy_bits(labels: np.ndarray) -> float:
    if len(labels) == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def information_gain_ranking(
    examples: Sequence[FeatureVector],
    feature_names: tuple[str, ...] = FEATURE_NAMES,
    bins: int = 10,
) -> list[tuple[str, float]]:
    """Rank features by information gain against the binarized label
    (relevant iff label > 0), after equal-frequency discretization into at
    most ``bins`` bins (duplicate cut points merged). Ties keep the
    declared feature order.
    """
    if len(examples) < 2:
        raise ValueError("need at least two examples")
    X = np.array([v.values for v in examples], dtype=np.float64)
    y = np.array([1 if v.label > 0 else 0 for v in examples], dtype=np.int64)
    h_y = _entropy_bits(y)
    gains = []
    quantiles = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    for f, name in enumerate(feature_names):
        col = X[:, f]
        cuts = np.unique(np.quantile(col, quantiles, method="linear"))
        assigned = np.searchsorted(cuts, col, side="left")
        h_cond = 0.0
        for bin_id in np.unique(assigned):
            mask = assigned == bin_id
            h_cond += mask.sum() / len(y) * _entropy_bits(y[mask])
        gains.append((name, max(0.0, h_y - h_cond)))
    order = sorted(range(len(gains)), key=lambda i: (-gains[i][1], i))
    return [gains[i] for i in order]


# ---------------------------------------------------------------------------
# persistence: versioned flat file with exact decimal round-trip


def write_forest(forest: Forest, fh) -> None:
    p = forest.params
    fh.write(_FOREST_MAGIC + "\n")
    fh.write(
        "params"
        f" num_trees={p.num_trees}"
        f" bootstrap_fraction={p.bootstrap_fraction!r}"
        f" features_per_split={p.features_per_split}"
        f" min_leaf={p.min_leaf}"
        f" max_depth={'none' if p.max_depth is None else p.max_depth}"
        f" seed={p.seed}\n"
    )
    fh.write(f"features {forest.n_features}\n")
    fh.write("names\t" + "\t".join(forest.feature_names) + "\n")
    fh.write("importances\t" + "\t".join(repr(float(v)) for v in forest.importances) + "\n")
    for k, tree in enumerate(forest.trees):
        fh.write(f"tree {k} {len(tree.feature)}\n")
        thresholds = tree.threshold.tolist()
        values = tree.value.tolist()
        for i in range(len(tree.feature)):
            fh.write(
                f"{i} {tree.feature[i]} {thresholds[i]!r}"
                f" {tree.left[i]} {tree.right[i]} {values[i]!r}\n"
            )


def read_forest(fh) -> Forest:
    magic = fh.readline().strip()
    if magic != _FOREST_MAGIC:
        raise ValueError(f"not a forest file (header {magic!r})")
    raw = dict(item.split("=", 1) for item in fh.readline().split()[1:])
    fps: int | str = raw["features_per_split"]
    if fps not in ("sqrt", "third"):
        fps = int(fps)
    params = ForestParams(
        num_trees=int(raw["num_trees"]),
        bootstrap_fraction=float(raw["bootstrap_fraction"]),
        features_per_split=fps,
        min_leaf=int(raw["min_leaf"]),
        max_depth=None if raw["max_depth"] == "none" else int(raw["max_depth"]),
        seed=int(raw["seed"]),
    )
    n_features = int(fh.readline().split()[1])
    names = tuple(fh.readline().rstrip("\n").split("\t")[1:])
    importances = np.array(
        [float(v) for v in fh.readline().rstrip("\n").split("\t")[1:]], dtype=np.float64
    )
    if len(names) != n_features:
        raise ValueError("feature name count disagrees with header")
    trees = []
    for _ in range(params.num_trees):
        header = fh.readline().split()
        n_nodes = int(header[2])
        feature = np.empty(n_nodes, dtype=np.int32)
        threshold = np.empty(n_nodes, dtype=np.float64)
        left = np.empty(n_nodes, dtype=np.int32)
        right = np.empty(n_nodes, dtype=np.int32)
        value = np.empty(n_nodes, dtype=np.float64)
        for _row in range(n_nodes):
            (i, f, thr, lo, hi, val) = fh.readline().split()
            i = int(i)
            feature[i] = int(f)
            threshold[i] = float(thr)
            left[i] = int(lo)
            right[i] = int(hi)
            value[i] = float(val)
        trees.append(_Tree(feature, threshold, left, right, value))
    return Forest(trees, params, names, importances)
