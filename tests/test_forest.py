import hashlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from archive_rank import forest as forest_module
from archive_rank import tables
from archive_rank.features import FeatureVector
from archive_rank.forest import (
    Forest,
    ForestParams,
    cross_validate,
    information_gain_ranking,
    read_forest,
    train_forest,
    write_forest,
)
from archive_rank.metrics import RankedRun, ndcg_at_k


def vec(qid, doc, label, values):
    return FeatureVector(qid, doc, float(label), tuple(float(v) for v in values))


def one_dim_vectors(n=60, threshold=5.0, seed=0, n_queries=6):
    """label 1 iff x > threshold; the classes keep a margin around the
    threshold so bootstrap resampling cannot blur the boundary."""
    rng = np.random.default_rng(seed)
    below = rng.uniform(0, threshold - 0.8, size=n // 2)
    above = rng.uniform(threshold + 0.8, 10, size=n - n // 2)
    xs = np.concatenate([below, above])
    rng.shuffle(xs)
    out = []
    for i, x in enumerate(xs):
        out.append(vec(i % n_queries + 1, f"http://d{i:03d}.de/", 1.0 if x > threshold else 0.0, [x]))
    return out


def golden_vectors():
    """Four features with many duplicate values; the first two columns are
    equal, so their splits tie on squared error."""
    rng = np.random.default_rng(2024)
    out = []
    for i in range(48):
        a = float(i % 5)
        b = float((i * 7) % 3)
        c = float(np.round(rng.uniform(0, 2), 1))
        label = float((i % 5 in (0, 4)) + 0.5 * (i % 3 == 0))
        out.append(vec(i % 6 + 1, f"http://d{i:02d}.de/", label, [a, a, b, c]))
    return out


def soft_golden_vectors():
    """The golden vectors with labels whose sums round, so that a cut's
    statistics depend on the order and grouping of its additions."""
    return [
        vec(v.query_id, v.doc_id, 1.0 / (1 + int(v.values[0]) + int(v.values[2])) + 0.1 * v.values[3], v.values)
        for v in golden_vectors()
    ]


def reference_cut(xs, ys, total, total_sq, min_leaf):
    """Least squared error of a cut of one feature within one node, and the
    cut's threshold: the bins are the node's distinct values, summed in row
    order, and a cut lies between two adjacent bins."""
    values, code = np.unique(xs, return_inverse=True)
    if len(values) < 2:
        return np.inf, None
    left_n = np.cumsum(np.bincount(code))[:-1]
    left_sum = np.cumsum(np.bincount(code, weights=ys))[:-1]
    left_sq = np.cumsum(np.bincount(code, weights=ys * ys))[:-1]
    n = len(ys)
    sse = (
        left_sq
        - left_sum * left_sum / left_n
        + (total_sq - left_sq)
        - (total - left_sum) ** 2 / (n - left_n)
    )
    sse[(left_n < min_leaf) | (n - left_n < min_leaf)] = np.inf
    cut = int(sse.argmin())
    mid = (values[cut] + values[cut + 1]) / 2.0
    return sse[cut], (mid if mid < values[cut + 1] else values[cut])


def reference_forest(vectors, params):
    """Grow each tree on its own, node by node in breadth-first order,
    consuming the draws ``train_forest`` documents: the bootstrap sample,
    then per level one candidate matrix for the nodes searched there.

    Returns the trees as dicts of node lists (with each node's candidates,
    or None) and the summed importances."""
    ordered = sorted(vectors, key=lambda v: (v.query_id, v.doc_id))
    X = np.array([v.values for v in ordered])
    y = np.array([v.label for v in ordered])
    n, n_features = X.shape
    m = params.resolve_features_per_split(n_features)
    size = max(1, int(round(params.bootstrap_fraction * n)))
    trees, importance = [], np.zeros(n_features)
    for k in range(params.num_trees):
        rng = np.random.default_rng(np.random.SeedSequence((params.seed, k)))
        level = [rng.integers(0, n, size=size)]
        tree = {key: [] for key in ("feature", "threshold", "left", "right", "value", "candidates")}
        tree_importance = np.zeros(n_features)
        next_id, depth = 1, 0
        while level:
            searched = [
                len(idx) >= 2 * params.min_leaf
                and (y[idx] != y[idx][0]).any()
                and (params.max_depth is None or depth < params.max_depth)
                for idx in level
            ]
            if any(searched):
                draws = iter(rng.random((sum(searched), n_features)).argsort(axis=1)[:, :m])
            next_level = []
            for idx, search in zip(level, searched):
                ys = y[idx]
                total, total_sq = np.cumsum(ys)[-1], np.cumsum(ys * ys)[-1]
                feature, threshold, left, right = -1, 0.0, -1, -1
                candidates = next(draws) if search else None
                if search:
                    best, best_f, best_thr = np.inf, None, None
                    for f in candidates:
                        sse, thr = reference_cut(X[idx, f], ys, total, total_sq, params.min_leaf)
                        if sse < best:
                            best, best_f, best_thr = sse, int(f), thr
                    gain = total_sq - total * total / len(idx) - best
                    if gain > 0.0:
                        feature, threshold, left, right = best_f, best_thr, next_id, next_id + 1
                        next_id += 2
                        tree_importance[feature] += gain
                        go_left = X[idx, feature] <= threshold
                        next_level += [idx[go_left], idx[~go_left]]
                for key, value in zip(
                    tree, (feature, threshold, left, right, total / len(idx), candidates)
                ):
                    tree[key].append(value)
            level, depth = next_level, depth + 1
        trees.append(tree)
        importance += tree_importance
    return trees, importance


def predict_one(tree, x):
    """Leaf value for one row, one node at a time: the reference for
    ``Forest.predict``."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return float(tree.value[node])


def forest_bytes(forest):
    buf = io.StringIO()
    write_forest(forest, buf)
    return buf.getvalue().encode("utf-8")


GOLDEN_NAMES = ("a", "a_copy", "b", "c")


def stump_oracle(vectors):
    """Exhaustive best single split by squared error over the one feature."""
    xs = np.array([v.values[0] for v in vectors])
    ys = np.array([v.label for v in vectors])
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    best = (np.inf, None)
    for i in range(1, len(xs)):
        if xs[i] == xs[i - 1]:
            continue
        left, right = ys[:i], ys[i:]
        sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
        if sse < best[0]:
            best = (sse, (xs[i - 1] + xs[i]) / 2, left.mean(), right.mean())
    return best


class TestTrainForest:
    def test_constant_labels_predict_the_constant(self):
        vectors = [vec(1, f"d{i}", 0.7, [float(i), 1.0]) for i in range(10)]
        forest = train_forest(vectors, ForestParams(num_trees=20, seed=1), ("a", "b"))
        assert forest.predict([v.values for v in vectors]).tolist() == pytest.approx([0.7] * len(vectors))

    def test_threshold_separable_data_close_to_labels(self):
        vectors = one_dim_vectors()
        sse, thr, left_mean, right_mean = stump_oracle(vectors)
        assert sse == pytest.approx(0.0)  # perfectly separable by one cut
        assert left_mean == 0.0 and right_mean == 1.0
        forest = train_forest(vectors, ForestParams(num_trees=50, seed=3), ("x",))
        for v, score in zip(vectors, forest.predict([v.values for v in vectors])):
            assert abs(score - v.label) < 0.05

    def test_fixed_seed_bit_identical(self):
        vectors = one_dim_vectors(seed=5)
        params = ForestParams(num_trees=15, seed=42)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_forest(train_forest(vectors, params, ("x",)), buf_a)
        write_forest(train_forest(vectors, params, ("x",)), buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    @pytest.mark.parametrize(
        "params, digest",
        [
            (
                ForestParams(num_trees=12, seed=7),
                "7284106463032a712955c848c222c826c8c89515da070fec21cda93c98eafbc0",
            ),
            (
                ForestParams(
                    num_trees=12,
                    seed=8,
                    min_leaf=3,
                    features_per_split="third",
                    bootstrap_fraction=0.75,
                    max_depth=4,
                ),
                "6a3c702edb21a56b5da18fbe2faeba481711dae7b8fd3d213c6ee223a9ec631a",
            ),
        ],
        ids=["defaults", "shallow-third"],
    )
    def test_golden_forest_bytes(self, params, digest):
        """Pins the serialized forest, split tie-breaks included: the first
        cut within a feature, then the first candidate feature drawn. The
        digests were taken from ``reference_forest``, the per-node builder,
        written out with ``write_forest``."""
        buf = io.StringIO()
        write_forest(train_forest(golden_vectors(), params, ("a", "a_copy", "b", "c")), buf)
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest

    def test_training_invariant_to_example_order(self):
        vectors = one_dim_vectors(seed=7)
        params = ForestParams(num_trees=10, seed=2)
        shuffled = list(reversed(vectors))
        a, b = io.StringIO(), io.StringIO()
        write_forest(train_forest(vectors, params, ("x",)), a)
        write_forest(train_forest(shuffled, params, ("x",)), b)
        assert a.getvalue() == b.getvalue()

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValueError):
            train_forest([vec(1, "d", 1.0, [1.0])], ForestParams(num_trees=2))

    def test_mse_non_increasing_in_tree_count_on_average(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 10, size=80)
        noise = rng.normal(0, 0.3, size=80)
        vectors = [
            vec(i % 5 + 1, f"d{i:03d}", math.sin(x) + e, [x])
            for i, (x, e) in enumerate(zip(xs, noise))
        ]

        def mean_mse(num_trees):
            values = []
            for seed in range(20):
                f = train_forest(vectors, ForestParams(num_trees=num_trees, seed=seed), ("x",))
                preds = f.predict([v.values for v in vectors])
                labels = np.array([v.label for v in vectors])
                values.append(((preds - labels) ** 2).mean())
            return float(np.mean(values))

        assert mean_mse(24) <= mean_mse(3)


BUILDER_PARAMS = [
    ForestParams(num_trees=12, seed=7),
    ForestParams(num_trees=12, seed=8, min_leaf=3, features_per_split="third",
                 bootstrap_fraction=0.75, max_depth=4),
    ForestParams(num_trees=8, seed=9, features_per_split=2, bootstrap_fraction=1.5),
]


class TestLevelBuilder:
    """``train_forest`` grows the trees of a batch together, level by level;
    a plain per-node builder is its reference."""

    @pytest.mark.parametrize("params", BUILDER_PARAMS, ids=["defaults", "shallow-third", "two-oversampled"])
    @pytest.mark.parametrize("data", [golden_vectors, soft_golden_vectors], ids=["golden", "soft"])
    def test_equals_per_node_reference(self, params, data):
        vectors = data()
        forest = train_forest(vectors, params, GOLDEN_NAMES)
        trees, importance = reference_forest(vectors, params)
        assert len(forest.trees) == len(trees)
        for tree, ref in zip(forest.trees, trees):
            for key in ("feature", "threshold", "left", "right"):
                assert getattr(tree, key).tolist() == ref[key], key
            np.testing.assert_allclose(tree.value, ref["value"], rtol=1e-12, atol=0)
        np.testing.assert_allclose(forest.importances, importance, rtol=1e-12, atol=0)
        assert sum(int((t.feature >= 0).sum()) for t in forest.trees) > len(forest.trees)

    @pytest.mark.parametrize(
        "cap", [1, 48 * 2, 10**9], ids=["one-tree", "one-node-search", "all-trees"]
    )
    @pytest.mark.parametrize("data", [golden_vectors, soft_golden_vectors], ids=["golden", "soft"])
    def test_output_does_not_depend_on_batch_cap(self, cap, data, monkeypatch):
        """The cap bounds a batch's bootstrap rows and each split search's
        rows x candidates (a larger node is searched alone); the default
        grows these 12 trees in one batch and searches each level at once.
        ``48 * 2`` is one root's rows x candidates."""
        params = ForestParams(num_trees=12, seed=7)
        default = forest_bytes(train_forest(data(), params, GOLDEN_NAMES))
        searches = []
        best_cuts = forest_module._best_cuts

        def recorded(*args):
            rows, cand = args[4], args[6]
            searches.append((len(rows) * cand.shape[1], len(cand)))
            return best_cuts(*args)

        monkeypatch.setattr(forest_module, "_best_cuts", recorded)
        monkeypatch.setattr(forest_module, "_BATCH_ELEMENTS", cap)
        assert forest_bytes(train_forest(data(), params, GOLDEN_NAMES)) == default
        assert all(elements <= cap or nodes == 1 for elements, nodes in searches)
        if cap > 1:
            assert any(nodes > 1 for _, nodes in searches)

    @pytest.mark.parametrize(
        "cap, fraction, per_batch", [(48 * 5, 1.0, 5), (48 * 5, 0.75, 6), (47, 1.0, 1)]
    )
    def test_batch_holds_cap_over_bootstrap_rows_trees(self, monkeypatch, cap, fraction, per_batch):
        batches = []
        grow = forest_module._grow_batch
        monkeypatch.setattr(
            forest_module, "_grow_batch", lambda *args: batches.append(args[-1]) or grow(*args)
        )
        monkeypatch.setattr(forest_module, "_BATCH_ELEMENTS", cap)
        params = ForestParams(num_trees=12, seed=7, bootstrap_fraction=fraction)
        train_forest(golden_vectors(), params, GOLDEN_NAMES)
        assert batches == [range(k, min(k + per_batch, 12)) for k in range(0, 12, per_batch)]

    def test_first_trees_equal_a_smaller_forest(self):
        vectors = soft_golden_vectors()
        small = train_forest(vectors, ForestParams(num_trees=5, seed=3), GOLDEN_NAMES)
        large = train_forest(vectors, ForestParams(num_trees=12, seed=3), GOLDEN_NAMES)
        for a, b in zip(small.trees, large.trees[:5]):
            for key in ("feature", "threshold", "left", "right", "value"):
                assert getattr(a, key).tolist() == getattr(b, key).tolist(), key

    @pytest.mark.parametrize("data", [golden_vectors, soft_golden_vectors], ids=["golden", "soft"])
    def test_duplicate_column_ties_go_to_the_first_drawn(self, data):
        """Columns a and a_copy are equal, so wherever both are candidates
        their cuts tie exactly, and the one drawn first must win. Under the
        soft labels, statistics that depended on where a segment lies in
        its batch would break some of these ties the other way."""
        params = ForestParams(num_trees=200, seed=11, features_per_split=3)
        forest = train_forest(data(), params, GOLDEN_NAMES)
        trees, _ = reference_forest(data(), params)
        ties = 0
        for tree, ref in zip(forest.trees, trees):
            for f, candidates in zip(tree.feature.tolist(), ref["candidates"]):
                if f in (0, 1) and candidates is not None and {0, 1} <= set(candidates.tolist()):
                    ties += 1
                    assert f == next(c for c in candidates.tolist() if c in (0, 1))
        assert ties > 10


class TestPredict:
    def test_single_tree_forest_returns_its_leaf(self):
        vectors = [vec(1, "a", 1.0, [0.0]), vec(1, "b", 1.0, [2.0])]
        forest = train_forest(vectors, ForestParams(num_trees=1, seed=0), ("x",))
        assert forest.predict([[1.0]]).tolist() == pytest.approx([1.0])

    def test_mean_of_trees_and_permutation_invariance(self):
        vectors = one_dim_vectors(n=30, seed=8)
        forest = train_forest(vectors, ForestParams(num_trees=9, seed=4), ("x",))
        x = [5.5]
        expected = np.mean([predict_one(t, np.array(x)) for t in forest.trees])
        assert forest.predict([x])[0] == pytest.approx(float(expected))
        permuted = Forest(list(reversed(forest.trees)), forest.params, forest.feature_names, forest.importances)
        assert permuted.predict([x])[0] == pytest.approx(forest.predict([x])[0])

    def test_dimension_mismatch_rejected(self):
        vectors = [vec(1, "a", 0.0, [0.0]), vec(1, "b", 1.0, [2.0])]
        forest = train_forest(vectors, ForestParams(num_trees=2, seed=0), ("x",))
        with pytest.raises(ValueError):
            forest.predict([[1.0, 2.0]])
        with pytest.raises(ValueError):  # a bare row, not a sequence of rows
            forest.predict([1.0])

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_scoring_all_rows_equals_scoring_each_row_alone(self, min_leaf):
        vectors = golden_vectors()
        forest = train_forest(
            vectors, ForestParams(num_trees=25, seed=6, min_leaf=min_leaf), ("a", "a_copy", "b", "c")
        )
        rng = np.random.default_rng(1)
        X = np.vstack([[v.values for v in vectors], rng.uniform(-1, 5, size=(30, 4))])
        scores = forest.predict(X)
        assert scores.shape == (len(X),)
        for i, x in enumerate(X):
            reference = float(np.mean([predict_one(t, x) for t in forest.trees]))
            assert scores[i] == forest.predict([x])[0] == reference

    @pytest.mark.parametrize("cap", [1, 7 * 25], ids=["one-row", "seven-rows"])
    def test_predict_in_runs_equals_the_reference(self, cap, monkeypatch):
        """All trees descend together in runs of at most the cap's rows x
        trees (at least one row); each score is still the mean of the
        trees' leaves, bit for bit."""
        vectors = golden_vectors()
        forest = train_forest(vectors, ForestParams(num_trees=25, seed=6), GOLDEN_NAMES)
        rng = np.random.default_rng(2)
        X = np.vstack([[v.values for v in vectors], rng.uniform(-1, 5, size=(30, 4))])
        monkeypatch.setattr(forest_module, "_BATCH_ELEMENTS", cap)
        reference = [float(np.mean([predict_one(t, x) for t in forest.trees])) for x in X]
        assert forest.predict(X).tolist() == reference


class TestCrossValidate:
    def test_single_grid_point_selected_trivially(self):
        vectors = one_dim_vectors(n=50, n_queries=5)
        grid = [ForestParams(num_trees=10, seed=1)]
        forest, report = cross_validate(vectors, grid, k_folds=5, seed=0)
        assert report.selected == grid[0]
        assert {row["grid_index"] for row in report.rows} == {0}

    def test_separable_data_reaches_perfect_ndcg(self):
        vectors = one_dim_vectors(n=100, n_queries=10, seed=2)
        forest, report = cross_validate(
            vectors, [ForestParams(num_trees=30, seed=1)], k_folds=5, seed=0
        )
        assert report.mean_ndcg == pytest.approx(1.0)

    def test_fold_assignment_reproducible_and_grouped(self):
        vectors = one_dim_vectors(n=60, n_queries=6)
        _, r1 = cross_validate(vectors, [ForestParams(num_trees=4, seed=0)], 5, seed=11)
        _, r2 = cross_validate(vectors, [ForestParams(num_trees=4, seed=0)], 5, seed=11)
        assert r1.fold_of_query == r2.fold_of_query
        # grouping: all rows of one query share that query's fold by construction
        assert set(r1.fold_of_query.values()) <= set(range(5))

    def test_fold_wide_scores_equal_per_query_scores(self):
        """Cross-validation scores a held-out fold in one call; each row's
        score is the same bits as when its query is scored alone."""
        vectors = soft_golden_vectors()
        forest = train_forest(vectors, ForestParams(num_trees=15, seed=4), GOLDEN_NAMES)
        fold_wide = forest.predict([v.values for v in vectors]).tolist()
        by_query = {}
        for v in vectors:
            by_query.setdefault(v.query_id, []).append(v)
        expected_ndcg = {}
        for qid, vecs in by_query.items():
            scores = forest.predict([v.values for v in vecs]).tolist()
            assert scores == [fold_wide[vectors.index(v)] for v in vecs]
            run = RankedRun.from_scores(
                qid, dict(zip((v.doc_id for v in vecs), scores)), {v.doc_id: v.label for v in vecs}
            )
            expected_ndcg[qid] = ndcg_at_k(run, 10)
        assert forest_module._ndcg_by_query(forest, vectors) == expected_ndcg

    def test_fewer_queries_than_folds_rejected(self):
        vectors = one_dim_vectors(n=12, n_queries=3)
        with pytest.raises(ValueError):
            cross_validate(vectors, [ForestParams(num_trees=2)], k_folds=5)


class TestInformationGain:
    def test_constant_feature_has_zero_gain(self):
        vectors = [vec(1, f"d{i}", i % 2, [3.0, float(i % 2)]) for i in range(20)]
        ranking = dict(information_gain_ranking(vectors, ("const", "label_copy")))
        assert ranking["const"] == 0.0

    def test_label_copy_on_balanced_classes_is_one_bit(self):
        vectors = [vec(1, f"d{i}", i % 2, [float(i % 2)]) for i in range(40)]
        ranking = information_gain_ranking(vectors, ("copy",))
        assert ranking[0] == ("copy", pytest.approx(1.0))

    def test_gain_bounded_by_label_entropy(self):
        rng = np.random.default_rng(3)
        vectors = [
            vec(1, f"d{i}", int(rng.integers(2)), rng.normal(size=4).tolist()) for i in range(50)
        ]
        labels = np.array([v.label > 0 for v in vectors])
        p = labels.mean()
        h = -(p * np.log2(p) + (1 - p) * np.log2(1 - p)) if 0 < p < 1 else 0.0
        for _name, gain in information_gain_ranking(vectors, ("a", "b", "c", "d")):
            assert -1e-12 <= gain <= h + 1e-12

    def test_ties_keep_declared_feature_order(self):
        vectors = [vec(1, f"d{i}", i % 2, [float(i % 2), float(i % 2)]) for i in range(20)]
        ranking = information_gain_ranking(vectors, ("first", "second"))
        assert [name for name, _ in ranking] == ["first", "second"]


class TestPersistence:
    def test_round_trip_exact(self):
        vectors = one_dim_vectors(n=40, seed=12)
        forest = train_forest(vectors, ForestParams(num_trees=8, seed=5), ("x",))
        buf = io.StringIO()
        write_forest(forest, buf)
        buf.seek(0)
        loaded = read_forest(buf)
        assert loaded.params == forest.params
        assert loaded.feature_names == forest.feature_names
        X = np.random.default_rng(0).uniform(-1, 11, size=(50, 1))
        assert loaded.predict(X).tolist() == forest.predict(X).tolist()
        buf2 = io.StringIO()
        write_forest(loaded, buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_feature_importances_cover_used_features(self):
        vectors = one_dim_vectors(n=40, seed=1)
        forest = train_forest(vectors, ForestParams(num_trees=6, seed=2), ("x",))
        importances = forest.feature_importances()
        assert importances["x"] == pytest.approx(1.0)


def _node_line(lines, tree, node):
    return next(i for i, line in enumerate(lines) if line.startswith(f"tree {tree} ")) + 1 + node


def _edit_node(lines, tree, node, column, value):
    at = _node_line(lines, tree, node)
    fields = lines[at].split(" ")
    fields[column] = value
    return lines[:at] + [" ".join(fields)] + lines[at + 1 :]


def _edit_first_leaf(lines, column, value):
    root = _node_line(lines, 0, 0)
    leaf = next(i for i, line in enumerate(lines[root:]) if line.split(" ")[1] == "-1")
    return _edit_node(lines, 0, leaf, column, value)


def _swap_first_nodes(lines):
    at = _node_line(lines, 0, 0)
    return lines[:at] + [lines[at + 1], lines[at]] + lines[at + 2 :]


# (id, edit of the lines of a written three-tree forest over four features)
DAMAGED_FORESTS = [
    ("root-left-zero", lambda lines: _edit_node(lines, 0, 0, 3, "0")),
    ("root-right-itself", lambda lines: _edit_node(lines, 1, 0, 4, "0")),
    ("negative-feature", lambda lines: _edit_node(lines, 0, 0, 1, "-5")),
    ("feature-past-the-last", lambda lines: _edit_node(lines, 0, 0, 1, "4")),
    ("child-past-the-end", lambda lines: _edit_node(lines, 2, 0, 4, "9999")),
    ("leaf-with-a-child", lambda lines: _edit_first_leaf(lines, 4, "1")),
    ("leaf-with-a-feature", lambda lines: _edit_first_leaf(lines, 1, "0")),
    ("nodes-out-of-order", _swap_first_nodes),
    ("tree-out-of-order", lambda lines: [line.replace("tree 1 ", "tree 2 ") for line in lines]),
    ("empty-tree", lambda lines: ["tree 0 0" if line.startswith("tree 0 ") else line for line in lines]),
    ("missing-tree", lambda lines: lines[: _node_line(lines, 2, -1)]),
    ("text-after-the-last-tree", lambda lines: lines + ["tree 3 1", "0 -1 0.0 -1 -1 0.5"]),
    ("importances-short", lambda lines: [
        line.rsplit("\t", 1)[0] if line.startswith("importances") else line for line in lines
    ]),
    # the header: line 2 holds the six parameters, line 3 the feature count
    ("params-missing", lambda lines: lines[:1] + lines[2:]),
    ("params-seventh-item", lambda lines: [lines[0], lines[1] + " extra=1", *lines[2:]]),
    ("params-item-without-value", lambda lines: [lines[0], lines[1].replace("seed=", "seed"), *lines[2:]]),
    ("params-repeated-key", lambda lines: [lines[0], lines[1].replace("seed=", "min_leaf="), *lines[2:]]),
    ("num-trees-not-an-int", lambda lines: [lines[0], re.sub(r"num_trees=\d+", "num_trees=x", lines[1]), *lines[2:]]),
    ("bootstrap-not-a-float", lambda lines: [lines[0], re.sub(r"bootstrap_fraction=\S+", "bootstrap_fraction=a", lines[1]), *lines[2:]]),
    ("features-count-missing", lambda lines: [*lines[:2], "features", *lines[3:]]),
    ("features-count-not-an-int", lambda lines: [*lines[:2], "features 4.5", *lines[3:]]),
    ("features-line-renamed", lambda lines: [*lines[:2], lines[2].replace("features", "feature"), *lines[3:]]),
    ("names-line-missing", lambda lines: lines[:3] + lines[4:]),
    ("importance-not-a-float", lambda lines: lines[:4] + [lines[4] + "\tnan?"] + lines[5:]),
    # node lines: a field that is not a number, and a node count that
    # str.isdigit accepts but int rejects
    ("node-field-not-a-number", lambda lines: [
        *lines[: _node_line(lines, 0, -1)], "tree 0 1", "0 x 0.0 -1 -1 0.5", *lines[_node_line(lines, 1, -1) :]
    ]),
    ("node-count-superscript", lambda lines: [
        "tree 0 \u00b2" if line.startswith("tree 0 ") else line for line in lines
    ]),
]


class TestDamagedForest:
    """A forest that ``read_forest`` accepts descends to a leaf of its own
    tree from every row: children come after their parent and within the
    tree, and features are in range."""

    @pytest.mark.parametrize("edit", [e for _, e in DAMAGED_FORESTS], ids=[i for i, _ in DAMAGED_FORESTS])
    def test_read_forest_names_the_file(self, edit, tmp_path):
        forest = train_forest(golden_vectors(), ForestParams(num_trees=3, seed=7), GOLDEN_NAMES)
        lines = forest_bytes(forest).decode("utf-8").splitlines()
        path = tmp_path / "forest.txt"
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"forest\.txt: line \d+: "):
            tables.read(read_forest, path)


_SPLIT_SEARCH_PEAK = """
import sys, tracemalloc
import numpy as np
from archive_rank import forest

# one search over the root node of a tree: continuous values, so most
# rows hold a value of their own, and rows x candidates = _BATCH_ELEMENTS
n, n_features, m = 4096, 16, 4
rng = np.random.default_rng(0)
X = rng.random((n, n_features))
y = rng.random(n)
codes, values, starts = forest._value_codes(X)
width = int(np.diff(starts, append=len(values)).max())
rows = rng.integers(0, n, forest._BATCH_ELEMENTS // m)
node = np.zeros(len(rows), dtype=np.int64)
cand = rng.permutation(n_features)[None, :m]
y_rows = y[rows]
args = (codes, values, starts, width, rows, node, cand, y_rows, np.array([len(rows)]),
        np.array([y_rows.sum()]), np.array([(y_rows * y_rows).sum()]), 1)
forest._best_cuts(*args)  # numpy's lazy imports and caches, outside the measure
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
forest._best_cuts(*args)
print((tracemalloc.get_traced_memory()[1] - base) / forest._BATCH_ELEMENTS)
"""


def test_a_split_search_allocates_at_most_40_bytes_per_element():
    """One search of _BATCH_ELEMENTS rows x candidates allocates at its peak
    at most 40 bytes per element: a few narrow arrays, sorted and shifted in
    place, not one int64 temporary per step. Measured in a fresh process,
    whose heap no earlier test has grown."""
    proc = subprocess.run(
        [sys.executable, "-c", _SPLIT_SEARCH_PEAK],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 40.0
