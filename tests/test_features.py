import io

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from archive_rank import features as features_module, pipeline, tables
from archive_rank.anchor_index import build_stats, build_surrogates
from archive_rank.features import (
    BASE_FEATURES,
    ENTITY_TYPES,
    FEATURE_NAMES,
    FeatureContext,
    QueryRecord,
    UnknownDocument,
    anchor_time_spans,
    candidate_docs,
    deserialize_vectors,
    extract_features,
    group_by_query,
    per_query_evidence_summary,
    rev_duration,
    serialize_vectors,
)
from archive_rank.ingest import content_links
from conftest import DAY, T0, candidates_by_scan, inlink_count, link, make_context, rev

WEEK = 7 * DAY


def query(text="angela merkel", etype="politician", qid=1, citations=None):
    return QueryRecord(qid, text, etype, citations or {})


class TestFeatureLayout:
    def test_nineteen_evidence_features(self):
        # 18 scalar features plus the entity-type block = the full feature set
        assert len(BASE_FEATURES) == 18
        assert len(ENTITY_TYPES) == 15
        assert len(FEATURE_NAMES) == 33

    def test_entity_one_hot(self):
        ctx = make_context([rev("http://a.de/x", T0)], [])
        vec = extract_features(query(etype="scientist"), "http://a.de/x", ctx)
        d = vec.as_dict()
        assert d["entity_type=scientist"] == 1.0
        assert sum(d[f"entity_type={t}"] for t in ENTITY_TYPES) == 1.0


class TestUrlFeatures:
    def test_query_string_flag(self):
        revisions = [
            rev("http://a.de/x", T0, full="http://a.de/x?s=1"),
            rev("http://a.de/y", T0),
        ]
        ctx = make_context(revisions, [])
        q = query()
        assert extract_features(q, "http://a.de/x", ctx)["query_string_flag"] == 1.0
        assert extract_features(q, "http://a.de/y", ctx)["query_string_flag"] == 0.0

    def test_query_in_url_on_topic_page(self):
        ctx = make_context([rev("http://spiegel.de/thema/angela_merkel", T0)], [])
        vec = extract_features(query("angela merkel"), "http://spiegel.de/thema/angela_merkel", ctx)
        assert vec["query_in_url"] == 2.0

    def test_query_in_url_case_invariant(self):
        ctx = make_context([rev("http://a.de/Angela/MERKEL", T0)], [])
        assert extract_features(query(), "http://a.de/Angela/MERKEL", ctx)["query_in_url"] == 2.0

    def test_search_word_flag_token_and_substring(self):
        revisions = [
            rev("http://a.de/suche/treffer", T0),
            rev("http://a.de/find?query=merkel", T0, full="http://a.de/find?query=merkel"),
            rev("http://a.de/artikel", T0),
        ]
        ctx = make_context(revisions, [])
        q = query()
        assert extract_features(q, "http://a.de/suche/treffer", ctx)["search_word_flag"] == 1.0
        assert extract_features(q, "http://a.de/artikel", ctx)["search_word_flag"] == 0.0

    def test_news_domain_flag(self):
        ctx = make_context([rev("http://spiegel.de/x", T0)], [], news_domains={"spiegel.de"})
        assert extract_features(query(), "http://spiegel.de/x", ctx)["news_url_flag"] == 1.0

    def test_wikipedia_citation_count(self):
        ctx = make_context([rev("http://spiegel.de/x", T0)], [])
        q = query(citations={"spiegel.de": 7})
        assert extract_features(q, "http://spiegel.de/x", ctx)["wikipedia_url_count"] == 7.0

    def test_url_depth_feature(self):
        ctx = make_context([rev("http://a.de/x/y/z.html", T0)], [])
        assert extract_features(query(), "http://a.de/x/y/z.html", ctx)["url_depth"] == 3.0


class TestBaselineColumns:
    """The rank stage's pagerank and query_in_url baselines are these columns."""

    def _ctx(self):
        revisions = [rev("http://a.de/angela/merkel", T0), rev("http://b.de/x", T0)]
        return make_context(
            revisions, [], page_rank={"http://a.de/angela/merkel": 0.6, "http://b.de/x": 0.4}
        )

    def test_pagerank_is_query_independent(self):
        ctx = self._ctx()
        doc = "http://a.de/angela/merkel"
        q1, q2 = query(), query("uwe seeler", "sport_player", qid=2)
        assert extract_features(q1, doc, ctx)["pagerank_core"] == 0.6
        assert extract_features(q2, doc, ctx)["pagerank_core"] == 0.6

    def test_query_in_url_monotone_in_hits(self):
        ctx = self._ctx()
        assert extract_features(query(), "http://a.de/angela/merkel", ctx)["query_in_url"] == 2.0
        assert extract_features(query("angela"), "http://a.de/angela/merkel", ctx)["query_in_url"] == 1.0
        assert extract_features(query(), "http://b.de/x", ctx)["query_in_url"] == 0.0


class TestAnchorFeatures:
    def test_anchor_freq_fraction(self):
        target = "http://t.de/"
        revisions = [rev(target, T0)]
        links = []
        for i in range(4):
            links.append(link(f"http://s{i}.de/", target, "Angela Merkel", when=T0 + i * DAY))
        for i in range(6):
            links.append(link(f"http://j{i}.de/", target, "mehr", when=T0 + (i + 4) * DAY))
        ctx = make_context(revisions, links)
        vec = extract_features(query("angela merkel"), target, ctx)
        assert vec["anchor_freq"] == pytest.approx(0.4)
        # brute-force enumeration over the planted instances
        brute = sum(
            1
            for anchor, _t in ctx.surrogates[target].anchor_instances
            if {"angela", "merkel"} <= set(anchor.lower().split())
        )
        assert vec["anchor_freq"] == brute / len(ctx.surrogates[target].anchor_instances)

    def test_anchor_freq_zero_without_instances(self):
        ctx = make_context([rev("http://t.de/", T0)], [])
        assert extract_features(query(), "http://t.de/", ctx)["anchor_freq"] == 0.0

    @pytest.mark.parametrize("strategy", ["unique_per_revision", "all"])
    def test_inlink_count_matches_the_link_graph(self, strategy):
        target, quiet, lost = "http://t.de/", "http://q.de/", "http://lost.de/"
        revisions = [rev(target, T0), rev(quiet, T0), rev("http://s.de/", T0)]
        links = [
            link("http://s.de/", target, "Merkel", when=T0),
            link("http://s.de/", target, "Merkel", when=T0),  # same revision, same anchor
            link("http://s.de/", target, "Merkel", when=T0 + DAY),
            link("http://s.de/", "http://t.de/?v=1", "Merkel", when=T0),
            link("http://s.de/", target, pattern="IMG/src"),
            link("http://s.de/", lost, "Merkel"),  # never archived
        ]
        ctx = make_context(revisions, links, strategy)
        for doc in (target, quiet):
            assert extract_features(query(), doc, ctx)["inlink_count"] == inlink_count(links, doc, strategy)
        assert extract_features(query(), target, ctx)["inlink_count"] == (2.0 if strategy == "unique_per_revision" else 4.0)
        with pytest.raises(UnknownDocument):
            extract_features(query(), lost, ctx)

    def test_unknown_document_raises_with_id(self):
        ctx = make_context([rev("http://t.de/", T0)], [])
        with pytest.raises(UnknownDocument) as err:
            extract_features(query(), "http://missing.de/", ctx)
        assert "http://missing.de/" in str(err.value)


class TestGapCounts:
    def test_anchor_time_spans_strict_threshold(self):
        assert anchor_time_spans([]) == 0
        assert anchor_time_spans([T0]) == 0
        assert anchor_time_spans([T0, T0 + 2 * WEEK, T0 + 2 * WEEK + DAY]) == 1
        assert anchor_time_spans([T0, T0 + 8 * DAY, T0 + 16 * DAY]) == 2
        assert anchor_time_spans([T0, T0 + WEEK]) == 0  # exactly one week is not longer

    def test_rev_duration_inclusive_threshold(self):
        assert rev_duration([T0]) == 0
        assert rev_duration([T0, T0 + WEEK, T0 + WEEK + 3 * DAY]) == 1
        assert rev_duration([T0 + i * DAY for i in range(5)]) == 0

    @given(st.lists(st.integers(0, 10**9), max_size=40))
    def test_permutation_invariant(self, times):
        shuffled = list(reversed(times))
        assert anchor_time_spans(times) == anchor_time_spans(shuffled)
        assert rev_duration(times) == rev_duration(shuffled)

    @given(st.lists(st.integers(0, 10**8), min_size=2, max_size=40))
    def test_matches_bruteforce_gap_count(self, times):
        ordered = sorted(times)
        gaps = [b - a for a, b in zip(ordered, ordered[1:])]
        assert anchor_time_spans(times) == sum(1 for g in gaps if g > WEEK)
        assert rev_duration(times) == sum(1 for g in gaps if g >= WEEK)


class TestEvidenceSummary:
    def test_mean_and_median(self):
        s = per_query_evidence_summary([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.median == pytest.approx(2.0)

    def test_interpolated_median(self):
        s = per_query_evidence_summary([2.0, 2.0, 12.0, 12.0])
        assert s.median == pytest.approx((2 + 12) / 2)

    def test_constant_values_zero_width_quartiles(self):
        s = per_query_evidence_summary([2.0])
        assert s.q1 == s.median == s.q3 == pytest.approx(2.0)

    def test_empty_result_set_rejected(self):
        with pytest.raises(ValueError):
            per_query_evidence_summary([])

    @given(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=300), st.booleans())
    @example([0, 1], False)  # median at t = 0.5, taken from the upper end
    @example([1, 2, 4, 8, 16], True)  # quartiles at whole positions
    def test_equals_numpy_on_integer_values(self, values, as_float):
        """The stage's evidences are integer-valued; on those the summary
        is the float numpy's mean and linear percentile give."""
        sample = [float(v) for v in values] if as_float else values
        arr = np.asarray(values, dtype=np.float64)
        q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0], method="linear")
        expected = (float(arr.mean()), float(med), float(q1), float(q3))
        assert tuple(per_query_evidence_summary(sample)) == expected

    def test_anchor_query_freq_counts_instances(self):
        target = "http://t.de/"
        links = [
            link(f"http://s{i}.de/", target, "Angela Merkel", when=T0 + i) for i in range(3)
        ] + [link("http://s9.de/", target, "mehr", when=T0 + 9)]
        vec = extract_features(query(), target, make_context([rev(target, T0)], links))
        assert round(vec["anchor_freq"] * vec["inlink_count"]) == 3

    @given(st.lists(st.lists(st.sampled_from(["angela", "merkel", "mehr", "kanzlerin"]), max_size=4), max_size=60))
    @example([["angela", "merkel"]] + [["mehr"]] * 48)  # 1 / 49 * 49 != 1.0
    def test_anchor_query_freq_is_the_rounded_product(self, anchors):
        """The features stage reads the anchor query hits of a document off
        its vector as round(anchor_freq * inlink_count); that is the count
        of its anchor instances whose words hold every query token."""
        target = "http://t.de/"
        links = [link(f"http://s{i}.de/", target, " ".join(words), when=T0 + i) for i, words in enumerate(anchors)]
        vec = extract_features(query(), target, make_context([rev(target, T0)], links))
        hits = sum(1 for words in anchors if {"angela", "merkel"} <= set(words))
        assert vec["inlink_count"] == len(anchors)
        assert round(vec["anchor_freq"] * vec["inlink_count"]) == hits
        assert dict(pipeline._EVIDENCE)["anchor_query_freq"](vec) == hits


class TestCandidates:
    def test_anchor_and_url_routes(self):
        revisions = [
            rev("http://anchored.de/x", T0),
            rev("http://spiegel.de/thema/angela_merkel", T0),
            rev("http://other.de/y", T0),
        ]
        links = [link("http://s.de/", "http://anchored.de/x", "Angela Merkel im Interview")]
        ctx = make_context(revisions, links)
        docs = candidate_docs(query("angela merkel"), ctx)
        assert docs == ["http://anchored.de/x", "http://spiegel.de/thema/angela_merkel"]
        assert docs == candidates_by_scan(query("angela merkel"), ctx)

    def test_every_token_on_one_route(self):
        # "merkel" only in the URL and "angela" only in the anchors: neither
        # route holds the whole query
        revisions = [rev("http://merkel.de/", T0), rev("http://angela-merkel.de/", T0)]
        links = [link("http://s.de/", "http://merkel.de/", "Angela")]
        ctx = make_context(revisions, links)
        assert candidate_docs(query("angela merkel"), ctx) == ["http://angela-merkel.de/"]
        assert candidate_docs(query("merkel"), ctx) == ["http://angela-merkel.de/", "http://merkel.de/"]
        assert candidate_docs(query("angela"), ctx) == candidates_by_scan(query("angela"), ctx)

    def test_unarchived_surrogate_is_no_candidate(self):
        archived = rev("http://a.de/x", T0)
        gone = rev("http://b.de/y", T0)
        links = [link("http://s.de/", doc.core_url, "Angela Merkel") for doc in (archived, gone)]
        surrogates = build_surrogates(content_links(links), [archived, gone])
        ctx = FeatureContext.build([archived], surrogates, build_stats(surrogates))
        assert set(ctx.surrogates) == {"http://a.de/x", "http://b.de/y"}
        assert candidate_docs(query("angela merkel"), ctx) == ["http://a.de/x"]
        assert candidate_docs(query("angela merkel"), ctx) == candidates_by_scan(query("angela merkel"), ctx)

    @pytest.mark.parametrize("text", ["", "--", "unbekannt", "angela unbekannt"])
    def test_no_candidates(self, text):
        ctx = make_context(
            [rev("http://a.de/angela", T0)], [link("http://s.de/", "http://a.de/angela", "Angela Merkel")]
        )
        assert candidate_docs(query(text), ctx) == []



class TestSerialization:
    def _vectors(self):
        ctx = make_context(
            [rev("http://a.de/x", T0), rev("http://b.de/y", T0)],
            [link("http://s.de/", "http://a.de/x", "Angela Merkel")],
        )
        v1 = extract_features(query(qid=1), "http://a.de/x", ctx)
        v2 = extract_features(query(qid=1), "http://b.de/y", ctx)
        v3 = extract_features(query("uwe seeler", qid=2, etype="sport_player"), "http://b.de/y", ctx)
        return [v1, v2, v3]

    def test_round_trip_identity(self):
        vectors = self._vectors()
        buf = io.StringIO()
        serialize_vectors(vectors, buf)
        buf.seek(0)
        assert list(deserialize_vectors(buf)) == vectors

    def test_label_leads_the_line(self):
        buf = io.StringIO()
        serialize_vectors([self._vectors()[0]], buf)
        assert buf.getvalue().startswith("0.0 qid:1 1:")

    def test_grouped_reading(self):
        buf = io.StringIO()
        serialize_vectors(self._vectors(), buf)
        buf.seek(0)
        groups = group_by_query(deserialize_vectors(buf))
        assert sorted(len(v) for v in groups.values()) == [1, 2]

    @staticmethod
    def _line(values, label="0.5", qid=1, doc="http://a.de/") -> str:
        feats = " ".join(f"{i}:{v}" for i, v in enumerate(values, start=1))
        return f"{label} qid:{qid} {feats} # {doc}\n"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "features.txt"
        path.write_text(self._line(["0.0"] * len(FEATURE_NAMES)) + "broken line\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            tables.read(lambda lines: list(deserialize_vectors(lines)), path)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("width", [1, len(FEATURE_NAMES) - 1, len(FEATURE_NAMES) + 1])
    def test_row_of_the_wrong_width_reports_line_number(self, tmp_path, width):
        path = tmp_path / "features.txt"
        path.write_text(self._line(["0.0"] * len(FEATURE_NAMES)) + self._line(["1.0"] * width), encoding="utf-8")
        with pytest.raises(ValueError, match=rf"features\.txt: line 2: {width} feature values, not {len(FEATURE_NAMES)}$"):
            tables.read(lambda lines: list(deserialize_vectors(lines)), path)

    def test_equal_number_texts_share_one_float(self):
        values = [str(float(i % 3)) for i in range(len(FEATURE_NAMES))]
        a, b = deserialize_vectors([self._line(values, label="0.0"), self._line(values, label="0.0", qid=2)])
        assert a.values == b.values == tuple(map(float, values))
        assert all(x is y for x, y in zip(a.values, b.values))
        assert a.label is a.values[0]  # "0.0"
        assert len({id(v) for v in a.values}) == 3

    def test_values_past_the_shared_cap_read_the_same(self, monkeypatch):
        monkeypatch.setattr(features_module, "_SHARED_NUMBERS", 5)
        rows = [[repr(i + j / 7) for j in range(len(FEATURE_NAMES))] for i in range(3)]
        vectors = list(deserialize_vectors([self._line(row, qid=i) for i, row in enumerate(rows)]))
        assert [v.values for v in vectors] == [tuple(map(float, row)) for row in rows]
        assert [v.label for v in vectors] == [0.5] * 3

    def test_extraction_deterministic(self):
        a = self._vectors()
        b = self._vectors()
        assert a == b


class TestResourceTables:
    def test_entity_type_list_round_trip(self, tmp_path):
        from archive_rank.features import load_entity_types

        path = tmp_path / "entity_types.txt"
        path.write_text("politician\nscientist\n# comment\n")
        assert load_entity_types(path) == ("politician", "scientist")

    def test_entity_type_outside_closed_list_rejected(self, tmp_path):
        from archive_rank.features import load_entity_types

        path = tmp_path / "entity_types.txt"
        path.write_text("politician\nastronaut\n")
        with pytest.raises(ValueError):
            load_entity_types(path)

    def test_search_word_table_with_substring_entries(self, tmp_path):
        from archive_rank.features import load_word_table

        path = tmp_path / "words.txt"
        path.write_text("Suche\nquery=\n")
        table = load_word_table(path)
        assert table == {"suche", "query="}
