import numpy as np
import pytest

from archive_rank.labeling import (
    ResultSnapshot,
    average_pairwise_kappa,
    cohen_kappa,
    intersect_with_index,
    load_judgments,
    load_snapshots,
    merge_snapshots,
    pairwise_kappas,
    pool_with_positives,
    soft_label,
    stratified_sample,
)


def snap(qid, urls, fetched="2014-01-01"):
    return ResultSnapshot(qid, fetched, tuple(urls))


class TestMergeSnapshots:
    def test_single_snapshot_identity(self):
        merged = merge_snapshots([snap(1, ["http://a.de/1", "http://a.de/2"])])
        assert merged == {"http://a.de/1": 1, "http://a.de/2": 2}

    def test_best_rank_is_minimum(self):
        s1 = snap(1, ["http://x.de/", "http://y.de/", "http://z.de/", "http://w.de/", "http://t.de/"])
        s2 = snap(1, ["http://q.de/", "http://t.de/"])
        merged = merge_snapshots([s1, s2])
        assert merged["http://t.de/"] == 2  # rank 5 in one snapshot, 2 in the other

    def test_disjoint_union(self):
        s1 = snap(1, [f"http://a.de/{i}" for i in range(3)])
        s2 = snap(1, [f"http://b.de/{i}" for i in range(3)])
        assert len(merge_snapshots([s1, s2])) == 6

    def test_urls_normalized_to_core(self):
        merged = merge_snapshots([snap(1, ["HTTP://A.de/x?q=1"])])
        assert merged == {"http://a.de/x": 1}

    def test_mixed_queries_rejected(self):
        with pytest.raises(ValueError):
            merge_snapshots([snap(1, ["http://a.de/"]), snap(2, ["http://b.de/"])])


class TestIntersect:
    def test_no_overlap(self):
        assert intersect_with_index({"http://a.de/": 1}, ["http://b.de/"]) == {}

    def test_full_overlap(self):
        merged = {"http://a.de/": 1, "http://b.de/": 2}
        assert intersect_with_index(merged, merged) == merged

    def test_partial_overlap_keeps_original_ranks(self):
        merged = {f"http://a.de/{i}": i + 1 for i in range(10)}
        indexed = [f"http://a.de/{i}" for i in (0, 3, 5, 8)]
        b = intersect_with_index(merged, indexed)
        assert b == {"http://a.de/0": 1, "http://a.de/3": 4, "http://a.de/5": 6, "http://a.de/8": 9}


class TestSoftLabel:
    def test_rank_one(self):
        assert soft_label("d", {"d": 1}) == 1.0

    def test_rank_ten_inverse(self):
        assert soft_label("d", {"d": 10}) == pytest.approx(0.1)

    def test_absent_is_zero(self):
        assert soft_label("d", {}) == 0.0

    def test_strictly_decreasing_in_rank(self):
        values = [soft_label("d", {"d": r}) for r in range(1, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCohenKappa:
    def test_perfect_agreement(self):
        grades = dict(enumerate([0, 1, 2, 1]))
        assert cohen_kappa(grades, dict(grades)) == 1.0

    def test_hand_computed_zero(self):
        # p_o = 0.5, p_e = 0.5 -> kappa = 0
        assert cohen_kappa(dict(enumerate([0, 0, 1, 1])), dict(enumerate([0, 1, 0, 1]))) == pytest.approx(0.0)

    def test_symmetry(self):
        a, b = dict(enumerate([0, 2, 1, 0, 2])), dict(enumerate([1, 2, 1, 0, 0]))
        assert cohen_kappa(a, b) == pytest.approx(cohen_kappa(b, a))

    def test_mapping_inputs(self):
        a = {"x": 0, "y": 1}
        b = {"y": 1, "x": 0}
        assert cohen_kappa(a, b) == 1.0

    def test_item_set_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cohen_kappa({"x": 0}, {"y": 0})

    def test_sequences_rejected(self):
        # aligned by position, these would agree perfectly
        with pytest.raises(AttributeError):
            cohen_kappa([0, 1, 2], [0, 1, 2])

    def test_range_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            a = dict(enumerate(rng.integers(0, 3, size=n).tolist()))
            b = dict(enumerate(rng.integers(0, 3, size=n).tolist()))
            k = cohen_kappa(a, b)
            assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12


class TestAveragePairwiseKappa:
    def test_two_assessors_equals_plain_kappa(self):
        j = {"a1": {"x": 0, "y": 1}, "a2": {"x": 0, "y": 0}}
        expected = cohen_kappa(j["a1"], j["a2"])
        assert average_pairwise_kappa(pairwise_kappas(j)) == pytest.approx(expected)

    def test_three_identical_assessors(self):
        grades = {"x": 0, "y": 1, "z": 2}
        assert average_pairwise_kappa(pairwise_kappas({"a": grades, "b": grades, "c": grades})) == 1.0

    def test_hand_computed_three_way_mean(self):
        items = ["i0", "i1", "i2", "i3"]
        a = dict(zip(items, [0, 0, 1, 1]))
        b = dict(zip(items, [0, 1, 0, 1]))
        c = dict(zip(items, [0, 0, 1, 0]))
        # kappa(a,b) = 0; kappa(a,c) = 0.5; kappa(b,c) = -0.5 -> mean 0
        assert cohen_kappa(a, b) == pytest.approx(0.0)
        assert cohen_kappa(a, c) == pytest.approx(0.5)
        assert cohen_kappa(b, c) == pytest.approx(-0.5)
        assert average_pairwise_kappa(pairwise_kappas({"a": a, "b": b, "c": c})) == pytest.approx(0.0)

    def test_disjoint_items_rejected(self):
        with pytest.raises(ValueError, match="no two assessors share an item"):
            average_pairwise_kappa(pairwise_kappas({"a": {"x": 0}, "b": {"y": 0}}))


class TestPairwiseKappas:
    def test_pairs_in_sorted_order_on_common_items(self):
        j = {
            "c": {"x": 0, "y": 1, "z": 1},
            "a": {"x": 0, "y": 1},
            "b": {"x": 0, "y": 0, "w": 2},
        }
        kappas = pairwise_kappas(j)
        assert list(kappas) == [("a", "b"), ("a", "c"), ("b", "c")]
        assert kappas[("a", "b")] == cohen_kappa({"x": 0, "y": 1}, {"x": 0, "y": 0})
        assert kappas[("a", "c")] == 1.0
        assert average_pairwise_kappa(kappas) == pytest.approx(sum(kappas.values()) / 3)

    def test_pair_without_common_items_left_out(self):
        j = {"a": {"x": 0, "y": 1}, "b": {"x": 0, "y": 1}, "c": {"z": 2}}
        kappas = pairwise_kappas(j)
        assert list(kappas) == [("a", "b")]
        assert average_pairwise_kappa(kappas) == kappas[("a", "b")] == 1.0

    def test_fewer_than_two_assessors(self):
        assert pairwise_kappas({"a": {"x": 0}}) == {}


class TestStratifiedSample:
    def test_three_docs_one_per_partition(self):
        docs = ["http://a.de/", "http://b.de/", "http://c.de/"]
        matrix = [[1.0], [2.0], [3.0]]
        sample = stratified_sample(docs, matrix, (1, 1), seed=5)
        assert sorted(sample) == sorted(docs)

    def test_constant_feature_partitions_by_doc_id(self):
        docs = [f"http://d{i}.de/" for i in range(6)]
        matrix = [[7.0]] * 6
        sample = stratified_sample(docs, matrix, (1, 1), seed=9)
        # partitions under the lexicographic tie-break are [d0,d1],[d2,d3],[d4,d5]
        assert len(sample) == 3
        assert any(d in sample for d in docs[0:2])
        assert any(d in sample for d in docs[2:4])
        assert any(d in sample for d in docs[4:6])

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(1)
        docs = [f"http://d{i:02d}.de/" for i in range(30)]
        matrix = rng.normal(size=(30, 4))
        a = stratified_sample(docs, matrix, (2, 5), seed=123)
        b = stratified_sample(docs, matrix, (2, 5), seed=123)
        assert a == b
        c = stratified_sample(docs, matrix, (2, 5), seed=124)
        assert a != c or len(docs) == len(a)

    def test_invariant_to_input_order(self):
        rng = np.random.default_rng(2)
        docs = [f"http://d{i:02d}.de/" for i in range(20)]
        matrix = rng.normal(size=(20, 3))
        order = rng.permutation(20)
        shuffled_docs = [docs[i] for i in order]
        shuffled_matrix = matrix[order]
        assert stratified_sample(docs, matrix, (1, 3), seed=7) == stratified_sample(
            shuffled_docs, shuffled_matrix, (1, 3), seed=7
        )

    def test_every_feature_pair_shares_a_doc(self):
        from itertools import combinations

        from archive_rank.labeling import _per_feature_draws

        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(6, 40))
            f = int(rng.integers(2, 8))
            docs = [f"http://d{i:03d}.de/" for i in range(n)]
            matrix = rng.normal(size=(n, f))
            docs_sorted, per_feature = _per_feature_draws(docs, matrix, (1, 2), seed=trial)
            union = {i for draws in per_feature for i in draws}
            assert union <= set(range(len(docs_sorted)))
            for a, b in combinations(range(f), 2):
                assert per_feature[a] & per_feature[b]

    def test_too_few_docs_rejected(self):
        with pytest.raises(ValueError):
            stratified_sample(["http://a.de/", "http://b.de/"], [[1.0], [2.0]], (1, 1), 0)


class TestPooling:
    def test_disjoint_union(self):
        pool = pool_with_positives([f"s{i}" for i in range(5)], [f"b{i}" for i in range(3)])
        assert len(pool) == 8

    def test_b_subset_of_sample_flags_both(self):
        pool = pool_with_positives(["a", "b", "c"], ["b"])
        assert pool == {"a": "sampled", "b": "both", "c": "sampled"}

    def test_provenance_values(self):
        pool = pool_with_positives(["a"], ["z"])
        assert pool == {"a": "sampled", "z": "from_b"}


class TestFileIngestion:
    def test_snapshot_files(self, tmp_path):
        (tmp_path / "3_2014-01-10.txt").write_text(
            "http://a.de/1\nhttp://a.de/2\nhttp://a.de/1\n"
        )
        (tmp_path / "3_2014-02-01.txt").write_text("http://b.de/\n")
        (tmp_path / "ignore.dat").write_text("x")
        snapshots = load_snapshots(tmp_path)
        assert set(snapshots) == {3}
        first = snapshots[3][0]
        assert first.fetched_at == "2014-01-10"
        # duplicate line keeps its first (best) position
        assert first.ranked_urls == ("http://a.de/1", "http://a.de/2")

    def test_snapshot_capped_at_top_100(self, tmp_path):
        (tmp_path / "1_d.txt").write_text("\n".join(f"http://a.de/{i}" for i in range(150)))
        snapshots = load_snapshots(tmp_path)
        assert len(snapshots[1][0].ranked_urls) == 100

    def test_judgments_round_trip(self, tmp_path):
        path = tmp_path / "judgments.tsv"
        path.write_text("1\thttp://a.de/\tann\t2\n1\thttp://a.de/\tbob\t0\n2\thttp://b.de/\tann\t1\n")
        by_assessor = load_judgments(path)
        assert by_assessor == {
            "ann": {(1, "http://a.de/"): 2, (2, "http://b.de/"): 1},
            "bob": {(1, "http://a.de/"): 0},
        }
        # an item graded by two assessors is one key object
        (ann_key, _), (bob_key,) = by_assessor["ann"], by_assessor["bob"]
        assert ann_key is bob_key

    def test_repeated_judgment_names_its_line(self, tmp_path):
        path = tmp_path / "judgments.tsv"
        path.write_text("1\thttp://a.de/\tann\t2\n1\thttp://a.de/\tbob\t0\n1\thttp://a.de/\tann\t2\n")
        with pytest.raises(ValueError, match=r"judgments\.tsv: line 3: assessor ann grades query 1, document http://a\.de/ twice"):
            load_judgments(path)

    def test_judgment_grade_out_of_scale_names_its_line(self, tmp_path):
        path = tmp_path / "judgments.tsv"
        path.write_text("1\thttp://a.de/\tann\t2\n1\thttp://a.de/\tbob\t3\n")
        with pytest.raises(ValueError, match=r"judgments\.tsv: line 2: grade must be 0, 1 or 2, got 3"):
            load_judgments(path)
