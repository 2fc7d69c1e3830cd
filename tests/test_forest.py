import hashlib
import io
import math

import numpy as np
import pytest

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
        for v in vectors:
            assert forest.predict(v) == pytest.approx(0.7)

    def test_threshold_separable_data_close_to_labels(self):
        vectors = one_dim_vectors()
        sse, thr, left_mean, right_mean = stump_oracle(vectors)
        assert sse == pytest.approx(0.0)  # perfectly separable by one cut
        assert left_mean == 0.0 and right_mean == 1.0
        forest = train_forest(vectors, ForestParams(num_trees=50, seed=3), ("x",))
        for v in vectors:
            assert abs(forest.predict(v) - v.label) < 0.05

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
                "4ccad010d8da4051964e198e63efa8cab66f3dae29ea4682bbc32b2c5c9999d5",
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
                "fb713264c583d0e6e999ecbd2de4377ff7793421573a63b70fd092f769234a66",
            ),
        ],
        ids=["defaults", "shallow-third"],
    )
    def test_golden_forest_bytes(self, params, digest):
        """Pins the serialized forest, split tie-breaks included: the first
        cut within a feature, then the first candidate feature drawn. The
        digests were taken from the per-feature loop implementation."""
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
                preds = np.array([f.predict(v) for v in vectors])
                labels = np.array([v.label for v in vectors])
                values.append(((preds - labels) ** 2).mean())
            return float(np.mean(values))

        assert mean_mse(24) <= mean_mse(3)


class TestPredict:
    def test_single_tree_forest_returns_its_leaf(self):
        vectors = [vec(1, "a", 1.0, [0.0]), vec(1, "b", 1.0, [2.0])]
        forest = train_forest(vectors, ForestParams(num_trees=1, seed=0), ("x",))
        assert forest.predict([1.0]) == pytest.approx(1.0)

    def test_mean_of_trees_and_permutation_invariance(self):
        vectors = one_dim_vectors(n=30, seed=8)
        forest = train_forest(vectors, ForestParams(num_trees=9, seed=4), ("x",))
        x = [5.5]
        expected = np.mean([t.predict_one(np.array(x)) for t in forest.trees])
        assert forest.predict(x) == pytest.approx(float(expected))
        permuted = Forest(list(reversed(forest.trees)), forest.params, forest.feature_names)
        assert permuted.predict(x) == pytest.approx(forest.predict(x))

    def test_dimension_mismatch_rejected(self):
        vectors = [vec(1, "a", 0.0, [0.0]), vec(1, "b", 1.0, [2.0])]
        forest = train_forest(vectors, ForestParams(num_trees=2, seed=0), ("x",))
        with pytest.raises(ValueError):
            forest.predict([1.0, 2.0])
        with pytest.raises(ValueError):
            forest.predict_matrix([1.0, 2.0])

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_predict_matrix_equals_row_predictions(self, min_leaf):
        vectors = golden_vectors()
        forest = train_forest(
            vectors, ForestParams(num_trees=25, seed=6, min_leaf=min_leaf), ("a", "a_copy", "b", "c")
        )
        rng = np.random.default_rng(1)
        X = np.vstack([[v.values for v in vectors], rng.uniform(-1, 5, size=(30, 4))])
        scores = forest.predict_matrix(X)
        assert scores.shape == (len(X),)
        for i, x in enumerate(X):
            reference = float(np.mean([t.predict_one(x) for t in forest.trees]))
            assert scores[i] == forest.predict(x) == reference


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
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = [float(rng.uniform(-1, 11))]
            assert loaded.predict(x) == forest.predict(x)
        buf2 = io.StringIO()
        write_forest(loaded, buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_feature_importances_cover_used_features(self):
        vectors = one_dim_vectors(n=40, seed=1)
        forest = train_forest(vectors, ForestParams(num_trees=6, seed=2), ("x",))
        importances = forest.feature_importances()
        assert importances["x"] == pytest.approx(1.0)
