import math

import numpy as np
import pytest
from scipy import special

from archive_rank.metrics import (
    RankedRun,
    _betainc,
    average_precision,
    ndcg_at_k,
    paired_significance,
    precision_at_k,
)


def run_from_labels(labels_in_order, qid=1):
    docs = tuple(f"d{i}" for i in range(len(labels_in_order)))
    return RankedRun(qid, docs, dict(zip(docs, map(float, labels_in_order))))


# ---------------------------------------------------------------------------
# independent brute-force reimplementations straight from the definitions


def permutation_pvalue(metric_a, metric_b, draws=10000, seed=0):
    """Sign-flip permutation test over the paired differences: a
    distribution-free cross-check for the t-test."""
    diff = np.asarray(metric_a, dtype=np.float64) - np.asarray(metric_b, dtype=np.float64)
    observed = abs(diff.mean())
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), size=(draws, len(diff)))
    stats = np.abs((signs * diff).mean(axis=1))
    return float((np.sum(stats >= observed) + 1.0) / (draws + 1.0))


def brute_precision(labels, k):
    return sum(1 for l in labels[:k] if l > 0) / k


def brute_ndcg(labels, k):
    def dcg(seq):
        return sum((2.0 ** l - 1.0) / math.log2(i + 2) for i, l in enumerate(seq[:k]))

    ideal = dcg(sorted(labels, reverse=True))
    return dcg(labels) / ideal if ideal > 0 else 0.0


def brute_ap(labels):
    hits, total = 0, 0.0
    for i, l in enumerate(labels):
        if l > 0:
            hits += 1
            total += hits / (i + 1)
    return total / hits if hits else 0.0


class TestPrecision:
    def test_all_relevant(self):
        assert precision_at_k(run_from_labels([1, 1, 1]), 3) == 1.0

    def test_single_hit_at_ten(self):
        assert precision_at_k(run_from_labels([1] + [0] * 11), 10) == pytest.approx(0.1)

    def test_missing_slots_count_as_nonrelevant(self):
        assert precision_at_k(run_from_labels([1, 1, 1, 0, 0]), 10) == pytest.approx(0.3)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k(run_from_labels([1]), 0)

    def test_monotone_when_relevant_doc_enters_topk(self):
        low = run_from_labels([1, 0, 0, 0])
        high = run_from_labels([1, 1, 0, 0])
        for k in (1, 2, 4):
            assert precision_at_k(high, k) >= precision_at_k(low, k)


class TestNdcg:
    def test_ideal_order_is_one(self):
        assert ndcg_at_k(run_from_labels([2, 1, 0]), 3) == pytest.approx(1.0)

    def test_hand_computed_value(self):
        # DCG = 3 + 0 + 1/2 = 3.5; IDCG = 3 + 1/log2(3) = 3.6309
        value = ndcg_at_k(run_from_labels([2, 0, 1]), 10)
        assert value == pytest.approx(0.9639, abs=1e-4)
        assert value == pytest.approx(3.5 / (3.0 + 1.0 / math.log2(3)), abs=1e-12)

    def test_all_zero_labels(self):
        assert ndcg_at_k(run_from_labels([0, 0, 0]), 10) == 0.0

    def test_fractional_soft_labels_allowed(self):
        value = ndcg_at_k(run_from_labels([1.0, 0.5, 0.1]), 3)
        assert 0.0 < value <= 1.0


class TestAveragePrecision:
    def test_hand_computed(self):
        assert average_precision(run_from_labels([1, 0, 1])) == pytest.approx(0.8333, abs=1e-4)

    def test_perfect_ranking(self):
        assert average_precision(run_from_labels([1, 1, 1])) == 1.0

    def test_no_relevant(self):
        assert average_precision(run_from_labels([0, 0])) == 0.0


class TestRankedRunOrdering:
    def test_descending_score_then_ascending_doc_id(self):
        run = RankedRun.from_scores(
            1,
            {"b": 2.0, "a": 2.0, "c": 5.0},
            {"a": 1.0},
        )
        assert run.doc_ids == ("c", "a", "b")

    def test_metrics_invariant_under_doc_relabeling(self):
        labels = [0, 2, 1, 0, 1]
        one = run_from_labels(labels)
        renamed = RankedRun(
            1,
            tuple(f"zz{i}" for i in range(5)),
            {f"zz{i}": float(l) for i, l in enumerate(labels)},
        )
        for k in (1, 3, 5):
            assert precision_at_k(one, k) == precision_at_k(renamed, k)
            assert ndcg_at_k(one, k) == ndcg_at_k(renamed, k)
        assert average_precision(one) == average_precision(renamed)


class TestBruteForceAgreement:
    def test_random_small_runs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            labels = rng.choice([0.0, 0.5, 1.0, 2.0], size=n).tolist()
            run = run_from_labels(labels)
            for k in (1, 3, 8):
                assert precision_at_k(run, k) == pytest.approx(brute_precision(labels, k), abs=1e-12)
                assert ndcg_at_k(run, k) == pytest.approx(brute_ndcg(labels, k), abs=1e-12)
            assert average_precision(run) == pytest.approx(brute_ap(labels), abs=1e-12)


class TestPairedSignificance:
    def test_identical_vectors(self):
        result = paired_significance([0.5, 0.7, 0.2], [0.5, 0.7, 0.2])
        assert result.t_statistic == 0.0 and result.p_value == 1.0
        assert not result.degenerate_variance

    def test_constant_nonzero_difference_is_degenerate(self):
        result = paired_significance([1, 1, 1, 1], [0, 0, 0, 0])
        assert result.p_value == 0.0
        assert result.degenerate_variance
        assert math.isinf(result.t_statistic) and result.t_statistic > 0

    def test_antisymmetric_in_argument_order(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.6, 0.1, size=12)
        b = rng.normal(0.5, 0.1, size=12)
        fwd = paired_significance(a, b)
        rev = paired_significance(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic)
        assert fwd.p_value == pytest.approx(rev.p_value)

    def test_known_textbook_value(self):
        # differences [1, 2, 3, 4]: mean 2.5, sd sqrt(5/3), t = 2.5/sqrt(5/12)
        result = paired_significance([1, 2, 3, 4], [0, 0, 0, 0])
        expected_t = 2.5 / math.sqrt((5 / 3) / 4)
        assert result.t_statistic == pytest.approx(expected_t, abs=1e-12)

    def test_matches_permutation_oracle_on_normal_data(self):
        rng = np.random.default_rng(8)
        for effect in (0.0, 0.15, 0.4):
            a = rng.normal(0.5 + effect, 0.25, size=40)
            b = rng.normal(0.5, 0.25, size=40)
            t_test = paired_significance(a, b)
            perm = permutation_pvalue(a, b, draws=10000, seed=1)
            assert t_test.p_value == pytest.approx(perm, abs=0.02)

    def test_zero_mean_with_spread_gives_p_exactly_one(self):
        result = paired_significance([1, -1], [0, 0])
        assert result.t_statistic == 0.0 and result.p_value == 1.0
        assert not result.degenerate_variance

    def test_p_value_matches_scipy_betainc(self):
        """The two-sided p of dof = n - 1 is I_x(dof/2, 1/2), x = dof/(dof + t^2)."""
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 24, 101):
            for _ in range(20):
                diff = rng.normal(rng.normal(0, 0.3), 1.0, size=n)
                result = paired_significance(diff, np.zeros(n))
                dof = n - 1
                expected = special.betainc(dof / 2, 0.5, dof / (dof + result.t_statistic**2))
                assert result.p_value == pytest.approx(expected, rel=1e-11, abs=0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_significance([1, 2], [1, 2, 3])

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError):
            paired_significance([1.0], [0.0])


class TestBetainc:
    def test_student_t_range_matches_scipy(self):
        """dof 1..1000 and |t| from 1e-3 to 1e4, the p-values a paired
        t-test asks for, within 1e-11 relative."""
        t = np.geomspace(1e-3, 1e4, 60)
        for dof in range(1, 1001):
            x = dof / (dof + t * t)
            expected = special.betainc(dof / 2, 0.5, x)
            got = np.array([_betainc(dof / 2, 0.5, xi) for xi in x.tolist()])
            tiny = expected < 1e-290  # scipy flushes these to zero
            assert np.all(got[tiny] < 1e-290), dof
            np.testing.assert_allclose(got[~tiny], expected[~tiny], rtol=1e-11, atol=0, err_msg=f"dof={dof}")

    def test_ends_are_exact(self):
        assert _betainc(3.0, 0.5, 0.0) == 0.0
        assert _betainc(3.0, 0.5, 1.0) == 1.0
