"""Bagged regression trees for pointwise rank learning, grouped
cross-validation with top-10 NDCG model selection, and information-gain
feature ranking.

Training is deterministic: every tree derives its own generator from the
master seed and its tree index. Examples are canonically pre-sorted by
(query_id, doc_id) before fitting, making training invariant to input order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ._arrays import sorted_distinct
from .features import FEATURE_NAMES, FeatureVector
from .metrics import RankedRun, ndcg_at_k

if TYPE_CHECKING:  # numpy is imported inside the functions that use it
    import numpy as np

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


@dataclass
class Forest:
    trees: list[_Tree]
    params: ForestParams
    feature_names: tuple[str, ...]
    importances: np.ndarray

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def predict(self, rows) -> np.ndarray:
        """Scores for ``rows``, a sequence of feature value rows: the mean
        of the trees' leaf values."""
        import numpy as np

        X = np.asarray(rows, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected rows of {self.n_features} features, got {X.shape}"
            )
        # All trees descend together over their concatenated nodes, in runs of
        # at most _BATCH_ELEMENTS rows x trees. The leaves form a rows x trees
        # matrix, so a row's mean sums its trees in the same order, and so to
        # the same bits, as np.mean over the per-tree values.
        n_trees = len(self.trees)
        sizes = [len(tree.feature) for tree in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        shift = np.repeat(roots, sizes)  # a leaf's -1 children are never read
        feature = np.concatenate([tree.feature for tree in self.trees])
        threshold = np.concatenate([tree.threshold for tree in self.trees])
        left = np.concatenate([tree.left for tree in self.trees]) + shift
        right = np.concatenate([tree.right for tree in self.trees]) + shift
        value = np.concatenate([tree.value for tree in self.trees])
        step = max(1, _BATCH_ELEMENTS // n_trees)
        out = np.empty(len(X))
        for first in range(0, len(X), step):
            part = X[first : first + step]
            node = np.tile(roots, len(part))  # (row, tree) in row-major order
            live = np.flatnonzero(feature[node] >= 0)
            while len(live):
                at = node[live]
                go_left = part[live // n_trees, feature[at]] <= threshold[at]
                node[live] = np.where(go_left, left[at], right[at])
                live = live[feature[node[live]] >= 0]
            out[first : first + len(part)] = value[node].reshape(len(part), n_trees).mean(axis=1)
        return out

    def feature_importances(self) -> dict[str, float]:
        """Normalized variance-reduction totals accumulated while training."""
        total = self.importances.sum()
        shares = self.importances / total if total > 0 else self.importances
        return dict(zip(self.feature_names, shares.tolist()))


# Bounds the memory of training and prediction: the bootstrap rows of one
# batch of trees, the rows x candidate features of one split search (the
# sort key array), and the rows x trees of one prediction run. A batch has
# at least one tree, and a search at least one node.
_BATCH_ELEMENTS = 65_536
# Bounds the padded bins of the segments one step of a split search scans
# together (at least one segment).
_SCAN_ELEMENTS = 8_192


def _value_codes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's dense rank within its column, in the narrowest unsigned
    dtype that holds the widest column; the columns' sorted distinct values,
    one after another; and where each column's values start among them."""
    import numpy as np

    tables = [sorted_distinct(X[:, f].copy()) for f in range(X.shape[1])]
    widths = [len(table) for table in tables]
    codes = np.empty(X.shape, dtype=np.min_scalar_type(max(widths) - 1))
    for f, table in enumerate(tables):
        codes[:, f] = np.searchsorted(table, X[:, f])
    return codes, np.concatenate(tables), np.cumsum([0] + widths[:-1])


def _best_cuts(
    codes: np.ndarray,
    values: np.ndarray,
    starts: np.ndarray,
    width: int,
    rows: np.ndarray,
    node: np.ndarray,
    cand: np.ndarray,
    y_rows: np.ndarray,
    count: np.ndarray,
    total: np.ndarray,
    total_sq: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squared error over every cut of every candidate of each node,
    with the candidate slot and the threshold of that cut.

    ``codes``, ``values`` and ``starts`` are those of :func:`_value_codes`,
    and ``width`` is the widest column's count of values. ``rows`` with
    ``node`` and ``y_rows`` are the live rows, ``cand`` is (nodes x
    candidates) and ``count``/``total``/``total_sq`` are per node. One sort
    of the (node, slot, code) keys groups the rows into bins; a cut falls
    between two adjacent distinct values of the node. Ties go to the first
    cut within a candidate, then to the first candidate drawn.
    """
    import numpy as np

    n_nodes, m = cand.shape
    # Sort keys (node, slot, code) with the row's position in the low bits:
    # every key is then distinct, so one plain sort keeps the rows of a bin
    # in row order, and that fixes the order in which each bin is summed.
    # Each array of one entry per (row, candidate) is made once, in place
    # where it can be, and dropped after its last reader.
    shift = max(len(rows) - 1, 1).bit_length()
    if (n_nodes * m * width) >> (62 - shift):
        raise OverflowError("too many nodes and values for one split search")
    # int32 holds the gather index and the (node, slot, code) keys unless
    # either is too large
    index = np.int32 if max(codes.size, n_nodes * m * width) <= np.iinfo(np.int32).max else np.int64
    at = cand.astype(index)[node]
    at += (rows * codes.shape[1]).astype(index)[:, None]
    keys = codes.ravel().take(at).astype(np.int64)
    del at
    keys <<= shift
    keys += (((node * (m * width)) << shift) + np.arange(len(rows)))[:, None]
    keys += (np.arange(m) * width) << shift
    keys = keys.ravel()
    keys.sort()
    # split each key into its (node, slot, code) and the row position
    bin_keys = np.right_shift(keys, shift, out=np.empty(len(keys), dtype=index), casting="unsafe")
    keys &= (1 << shift) - 1
    weights = y_rows.take(keys)
    del keys
    change = np.empty(len(bin_keys), dtype=bool)
    change[0] = True
    np.not_equal(bin_keys[1:], bin_keys[:-1], out=change[1:])
    first = np.flatnonzero(change)
    del change
    bins = bin_keys[first]
    n = len(first)
    # one more bin, empty: the padding of the scan below reads it
    bin_n = np.diff(first, append=[len(bin_keys), len(bin_keys)])
    del first, bin_keys
    bin_of = np.repeat(np.arange(n), bin_n[:n])
    bin_sum = np.bincount(bin_of, weights=weights, minlength=n + 1)
    weights *= weights
    bin_sq = np.bincount(bin_of, weights=weights, minlength=n + 1)
    del bin_of, weights
    n_bins = np.bincount(bins // width, minlength=n_nodes * m)
    start = np.cumsum(n_bins) - n_bins
    seg_sse = np.full(n_nodes * m, np.inf)
    seg_cut = np.zeros(n_nodes * m, dtype=np.int64)
    # Segments are scanned in rows of 2**scale: their bin count padded to the
    # next power of two, and to at least 8. Each running sum then starts from
    # zero in its own segment, so a cut's statistics do not depend on where
    # its segment lies in the search.
    scale = np.maximum(np.frexp(n_bins - 1)[1], 3)
    for e in sorted_distinct(scale[n_bins > 1]).tolist():
        group = np.flatnonzero((scale == e) & (n_bins > 1))
        offset = np.arange(1 << e)
        step = max(1, _SCAN_ELEMENTS >> e)
        for seg in (group[i : i + step] for i in range(0, len(group), step)):
            at = start[seg, None] + offset
            at[offset >= n_bins[seg, None]] = n
            left_n, left_sum, left_sq = (per_bin.take(at) for per_bin in (bin_n, bin_sum, bin_sq))
            del at
            for running in (left_n, left_sum, left_sq):
                np.cumsum(running, axis=1, out=running)
            nd = seg[:, None] // m
            right_n = count[nd] - left_n
            ok = (offset < n_bins[seg, None] - 1) & (left_n >= min_leaf) & (right_n >= min_leaf)
            # sse = left_sq - left_sum**2 / left_n + (total_sq - left_sq)
            #       - (total - left_sum)**2 / max(right_n, 1), one operation at a
            # time in that order, in place
            sse = left_sum * left_sum
            sse /= left_n
            del left_n
            np.subtract(left_sq, sse, out=sse)
            np.subtract(total_sq[nd], left_sq, out=left_sq)
            sse += left_sq
            del left_sq
            np.subtract(total[nd], left_sum, out=left_sum)
            np.square(left_sum, out=left_sum)
            left_sum /= np.maximum(right_n, 1, out=right_n)
            del right_n
            sse -= left_sum
            del left_sum
            sse[~ok] = np.inf
            cut = sse.argmin(axis=1)
            seg_sse[seg] = sse[np.arange(len(seg)), cut]
            seg_cut[seg] = start[seg] + cut
    sse = seg_sse.reshape(n_nodes, m)
    slot = sse.argmin(axis=1)
    best = sse[np.arange(n_nodes), slot]
    feature = cand[np.arange(n_nodes), slot]
    b = seg_cut[np.arange(n_nodes) * m + slot]
    # A node without a cut (best infinite) may pair its feature with another
    # segment's codes; clipping keeps that unused threshold in bounds.
    lower = values.take(starts[feature] + bins[b] % width, mode="clip")
    upper = values.take(starts[feature] + bins[np.minimum(b + 1, n - 1)] % width, mode="clip")
    mid = (lower + upper) / 2.0
    # a midpoint that rounds up to the upper value would send it left too
    return best, feature, np.where(mid < upper, mid, lower)


def _search_runs(elements: np.ndarray) -> list[int]:
    """Bounds of runs of consecutive nodes, given each node's rows x
    candidates: each run holds at most ``_BATCH_ELEMENTS`` of them, or one
    node."""
    import numpy as np

    ends = np.cumsum(elements)
    bounds = [0]
    while bounds[-1] < len(ends):
        done = int(ends[bounds[-1] - 1]) if bounds[-1] else 0
        fit = int(np.searchsorted(ends, done + _BATCH_ELEMENTS, side="right"))
        bounds.append(max(bounds[-1] + 1, fit))
    return bounds


def _grow_batch(
    X: np.ndarray,
    y: np.ndarray,
    codes: np.ndarray,
    values: np.ndarray,
    starts: np.ndarray,
    params: ForestParams,
    m: int,
    tree_indices: range,
) -> list[tuple[_Tree, np.ndarray]]:
    """Grow the trees ``tree_indices`` together, one level at a time; each
    tree comes with its own importance tally.

    Tree k draws from ``SeedSequence((seed, k))``: first its bootstrap
    sample, then at each level one candidate matrix for all of its nodes
    that are searched there, in node order. So a tree does not depend on
    the batch it grows in. Nodes are numbered breadth-first. The searched
    nodes of a level are scored in runs of at most ``_BATCH_ELEMENTS`` rows
    x candidates; nodes are scored independently, so the runs change no cut.
    """
    import numpy as np

    n, n_features = X.shape
    n_trees = len(tree_indices)
    width = int(np.diff(starts, append=len(values)).max())
    rngs = [np.random.default_rng(np.random.SeedSequence((params.seed, k))) for k in tree_indices]
    size = max(1, int(round(params.bootstrap_fraction * n)))
    rows = np.concatenate([rng.integers(0, n, size=size) for rng in rngs])
    node = np.repeat(np.arange(n_trees), size)  # each row's open node
    tree = np.arange(n_trees)  # each open node's tree, in (tree, node id) order
    next_id = np.ones(n_trees, dtype=np.int64)
    importance = np.zeros((n_trees, n_features))
    levels: list[tuple[np.ndarray, ...]] = []
    depth = 0
    while len(tree):
        n_open = len(tree)
        y_rows = y[rows]
        count = np.bincount(node, minlength=n_open)
        total = np.bincount(node, weights=y_rows, minlength=n_open)
        total_sq = np.bincount(node, weights=y_rows * y_rows, minlength=n_open)
        low = np.full(n_open, np.inf)
        high = np.full(n_open, -np.inf)
        np.minimum.at(low, node, y_rows)
        np.maximum.at(high, node, y_rows)
        searched = (count >= 2 * params.min_leaf) & (low < high)
        searched &= params.max_depth is None or depth < params.max_depth
        feature = np.full(n_open, -1, dtype=np.int32)
        threshold = np.zeros(n_open)
        split = np.zeros(n_open, dtype=bool)
        at = np.flatnonzero(searched)
        if len(at):
            per_tree = np.bincount(tree[at], minlength=n_trees)
            draws = [rngs[t].random((k, n_features)) for t, k in enumerate(per_tree.tolist()) if k]
            cand = np.concatenate(draws).argsort(axis=1)[:, :m]
            position = np.cumsum(searched) - 1
            bounds = _search_runs(count[at] * m)
            run = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
            live = np.flatnonzero(searched[node])
            # the live rows grouped by run; a stable sort keeps each node's
            # rows in row order
            live = live[np.argsort(run[position[node[live]]], kind="stable")]
            row_bounds = np.cumsum(count[at])[np.array(bounds[1:]) - 1].tolist()
            best = np.empty(len(at))
            f = np.empty(len(at), dtype=cand.dtype)
            thr = np.empty(len(at))
            for lo, hi, row_lo, row_hi in zip(bounds, bounds[1:], [0] + row_bounds, row_bounds):
                part = live[row_lo:row_hi]
                best[lo:hi], f[lo:hi], thr[lo:hi] = _best_cuts(
                    codes, values, starts, width, rows[part], position[node[part]] - lo,
                    cand[lo:hi], y_rows[part], count[at[lo:hi]], total[at[lo:hi]],
                    total_sq[at[lo:hi]], params.min_leaf,
                )
            gain = total_sq[at] - total[at] * total[at] / count[at] - best
            won = gain > 0.0  # an infinite best leaves the node a leaf
            split[at[won]] = True
            feature[at[won]] = f[won]
            threshold[at[won]] = thr[won]
            np.add.at(importance, (tree[at[won]], f[won]), gain[won])
        parents = tree[split]
        splits = np.bincount(parents, minlength=n_trees)
        rank = np.arange(len(parents)) - (np.cumsum(splits) - splits)[parents]
        left = np.full(n_open, -1, dtype=np.int32)
        right = np.full(n_open, -1, dtype=np.int32)
        left[split] = next_id[parents] + 2 * rank
        right[split] = left[split] + 1
        next_id += 2 * splits
        levels.append((tree, feature, threshold, left, right, total / count))
        child = np.full(n_open, -1)
        child[split] = 2 * np.arange(len(parents))
        live = split[node]
        rows, node = rows[live], node[live]
        go_right = X[rows, feature[node]] > threshold[node]
        node = child[node]
        node += go_right
        tree = np.repeat(parents, 2)
        depth += 1
    columns = [np.concatenate(c) for c in zip(*levels)]
    order = np.argsort(columns[0], kind="stable")
    ends = np.cumsum(next_id)
    out = []
    for k in range(n_trees):
        part = order[ends[k] - next_id[k] : ends[k]]
        _, f, thr, lo, hi, val = (c[part] for c in columns)
        out.append((_Tree(f, thr, lo, hi, val), importance[k]))
    return out


def _canonical_order(vectors: Sequence[FeatureVector]) -> list[FeatureVector]:
    return sorted(vectors, key=lambda v: (v.query_id, v.doc_id))


def _as_arrays(vectors: Sequence[FeatureVector]) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

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
    seeds derive from (master seed, tree index). Trees grow in batches of
    at most ``_BATCH_ELEMENTS`` bootstrap rows (and at least one tree); the
    batching does not change the forest.
    """
    import numpy as np

    if len(examples) < 2:
        raise ValueError("need at least two training examples")
    ordered = _canonical_order(examples)
    X, y = _as_arrays(ordered)
    names = _default_names(X.shape[1], feature_names)
    m = params.resolve_features_per_split(X.shape[1])
    codes, values, starts = _value_codes(X)
    size = max(1, int(round(params.bootstrap_fraction * len(X))))
    per_batch = max(1, _BATCH_ELEMENTS // size)
    trees = []
    importance = np.zeros(X.shape[1])
    for first in range(0, params.num_trees, per_batch):
        batch = range(first, min(first + per_batch, params.num_trees))
        for tree, imp in _grow_batch(X, y, codes, values, starts, params, m, batch):
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
) -> tuple[Forest, CvReport]:
    """Select parameters by held-out NDCG@10 over query-grouped folds.

    Folds partition queries, never rows, so no query leaks across its own
    fold boundary. Ties between grid points resolve to the earlier entry.
    The returned forest is retrained on all examples with the winner.
    """
    import numpy as np

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
            fold_scores = _ndcg_by_query(model, held)
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


def _ndcg_by_query(model: Forest, held: Sequence[FeatureVector]) -> dict[int, float]:
    # one prediction over the whole held-out fold: a row's score does not
    # depend on the rows scored with it
    predicted = model.predict([v.values for v in held]).tolist()
    by_query: dict[int, list[tuple[FeatureVector, float]]] = {}
    for vec, score in zip(held, predicted):
        by_query.setdefault(vec.query_id, []).append((vec, score))
    out = {}
    for qid, scored in by_query.items():
        scores = {v.doc_id: score for v, score in scored}
        labels = {v.doc_id: v.label for v, _ in scored}
        run = RankedRun.from_scores(qid, scores, labels)
        out[qid] = ndcg_at_k(run, 10)
    return out


# ---------------------------------------------------------------------------
# information gain


def _entropy_bits(labels: np.ndarray) -> float:
    import numpy as np

    if len(labels) == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def information_gain_ranking(
    examples: Sequence[FeatureVector],
    feature_names: tuple[str, ...] = FEATURE_NAMES,
) -> list[tuple[str, float]]:
    """Rank features by information gain against the binarized label
    (relevant iff label > 0), after equal-frequency discretization into at
    most ten bins (duplicate cut points merged). Ties keep the
    declared feature order.
    """
    import numpy as np

    if len(examples) < 2:
        raise ValueError("need at least two examples")
    X = np.array([v.values for v in examples], dtype=np.float64)
    y = np.array([1 if v.label > 0 else 0 for v in examples], dtype=np.int64)
    h_y = _entropy_bits(y)
    gains = []
    quantiles = np.linspace(0.0, 1.0, 11)[1:-1]  # the inner cut points of ten bins
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


_PARAM_KEYS = ("num_trees", "bootstrap_fraction", "features_per_split", "min_leaf", "max_depth", "seed")


def _params(items: list[str]) -> ForestParams:
    raw = dict(item.partition("=")[::2] for item in items)
    if len(items) != len(_PARAM_KEYS) or raw.keys() != set(_PARAM_KEYS):
        raise ValueError(f"expected the six items {'=, '.join(_PARAM_KEYS)}=")
    fps = raw["features_per_split"]
    return ForestParams(
        num_trees=int(raw["num_trees"]),
        bootstrap_fraction=float(raw["bootstrap_fraction"]),
        features_per_split=fps if fps in ("sqrt", "third") else int(fps),
        min_leaf=int(raw["min_leaf"]),
        max_depth=None if raw["max_depth"] == "none" else int(raw["max_depth"]),
        seed=int(raw["seed"]),
    )


def _single_int(fields: list[str]) -> int:
    (value,) = fields  # a ValueError unless there is exactly one
    return int(value)


def _header_line(lines, key: str, parse, sep: str | None = None):
    """``parse`` of the fields after ``key`` on the next line of a forest
    file."""
    line = next(lines, "").rstrip("\n")
    fields = line.split(sep)
    if fields[:1] != [key]:
        raise ValueError(f"expected a {key!r} line, got {line!r}")
    return parse(fields[1:])


def read_forest(lines) -> Forest:
    """The forest :func:`write_forest` wrote, from the lines of its file.
    Raises ValueError unless the header holds the six parameters, the
    feature count, the names and the importances, the trees are numbered
    0..num_trees-1 with nothing after the last, each numbers its nodes
    0..n-1 in order, every node is a leaf (feature and both children -1)
    or a split on one of the features whose children come after it, and
    there is one importance per feature."""
    import numpy as np

    lines = iter(lines)
    magic = next(lines, "").strip()
    if magic != _FOREST_MAGIC:
        raise ValueError(f"not a forest file (header {magic!r})")
    params = _header_line(lines, "params", _params)
    n_features = _header_line(lines, "features", _single_int)
    names = _header_line(lines, "names", tuple, "\t")
    importances = _header_line(
        lines, "importances", lambda fields: np.array([float(v) for v in fields], dtype=np.float64), "\t"
    )
    if len(names) != n_features:
        raise ValueError("feature name count disagrees with header")
    if len(importances) != n_features:
        raise ValueError(f"{len(importances)} importances for {n_features} features")
    if params.num_trees < 1:
        raise ValueError(f"a forest of {params.num_trees} trees")
    trees = []
    for k in range(params.num_trees):
        header = next(lines, "").split()
        if len(header) != 3 or header[:2] != ["tree", str(k)] or not header[2].isdigit() or header[2] == "0":
            raise ValueError(f"expected tree {k} and its node count, got {header}")
        n_nodes = int(header[2])
        nodes = []
        for i in range(n_nodes):
            fields = next(lines, "").split()
            if len(fields) != 6 or fields[0] != str(i):
                raise ValueError(f"tree {k}: expected node {i}, got {fields}")
            f, lo, hi = int(fields[1]), int(fields[3]), int(fields[4])
            # children after their parent: every descent ends, within its tree
            if not (f == lo == hi == -1 or (0 <= f < n_features and i < lo < n_nodes and i < hi < n_nodes)):
                raise ValueError(
                    f"tree {k} node {i}: feature {f} and children {lo}, {hi} make neither"
                    f" a leaf (-1, -1, -1) nor a split (feature 0..{n_features - 1},"
                    f" children {i + 1}..{n_nodes - 1})"
                )
            nodes.append((f, float(fields[2]), lo, hi, float(fields[5])))
        feature, threshold, left, right, value = zip(*nodes)
        trees.append(
            _Tree(
                np.array(feature, dtype=np.int32),
                np.array(threshold, dtype=np.float64),
                np.array(left, dtype=np.int32),
                np.array(right, dtype=np.int32),
                np.array(value, dtype=np.float64),
            )
        )
    if next(lines, ""):
        raise ValueError(f"text after the last of {params.num_trees} trees")
    return Forest(trees, params, names, importances)
