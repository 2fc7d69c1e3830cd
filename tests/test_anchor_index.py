import io
import math
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from archive_rank.anchor_index import (
    IndexStats,
    anchor_distribution,
    bm25_score,
    build_stats,
    build_surrogates,
    read_index,
    term_stats,
    tokenize_text,
    write_index,
)
from archive_rank.ingest import content_links
from conftest import DAY, T0, link, rev


class TestTokenizeText:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize_text("Angela Merkel, Bundeskanzlerin!") == [
            "angela", "merkel", "bundeskanzlerin",
        ]

    def test_underscore_is_a_separator(self):
        assert tokenize_text("angela_merkel") == ["angela", "merkel"]

    def test_no_stemming(self):
        assert tokenize_text("Häuser") == ["häuser"]


class TestBuildSurrogates:
    def test_duplicate_in_same_revision_collapses_under_s1(self):
        revisions = [rev("http://t.de/", T0)]
        links = [
            link("http://s.de/", "http://t.de/", "x", when=T0),
            link("http://s.de/", "http://t.de/", "x", when=T0),
        ]
        s1 = build_surrogates(content_links(links), revisions, "unique_per_revision")
        s2 = build_surrogates(content_links(links), revisions, "all")
        assert len(s1["http://t.de/"].anchor_instances) == 1
        assert len(s2["http://t.de/"].anchor_instances) == 2

    def test_no_links_gives_empty_collection(self):
        assert build_surrogates([], [rev("http://t.de/", T0)]) == {}

    def test_term_freqs_from_two_anchors(self):
        revisions = [rev("http://t.de/", T0)]
        links = [
            link("http://s1.de/", "http://t.de/", "Angela Merkel", when=T0),
            link("http://s2.de/", "http://t.de/", "Merkel", when=T0 + DAY),
        ]
        doc = build_surrogates(content_links(links), revisions)["http://t.de/"]
        assert doc.term_freqs == {"angela": 1, "merkel": 2}
        assert doc.length == 3

    def test_unarchived_targets_not_indexed(self):
        links = [link("http://s.de/", "http://nowhere.de/", "x")]
        assert build_surrogates(content_links(links), [rev("http://t.de/", T0)]) == {}

    def test_zero_anchor_documents_excluded(self):
        revisions = [rev("http://t.de/", T0), rev("http://quiet.de/", T0)]
        links = [link("http://s.de/", "http://t.de/", "x")]
        surrogates = build_surrogates(content_links(links), revisions)
        assert set(surrogates) == {"http://t.de/"}

    def test_revision_times_sorted_unique(self):
        revisions = [rev("http://t.de/", T0 + DAY), rev("http://t.de/", T0), rev("http://t.de/", T0)]
        links = [link("http://s.de/", "http://t.de/", "x")]
        doc = build_surrogates(content_links(links), revisions)["http://t.de/"]
        assert doc.revision_times == [T0, T0 + DAY]

    def test_token_cap_counts_truncation(self, monkeypatch):
        import archive_rank.anchor_index as module

        monkeypatch.setattr(module, "SURROGATE_TOKEN_CAP", 3)
        revisions = [rev("http://t.de/", T0)]
        links = [
            link(f"http://s{i}.de/", "http://t.de/", "angela merkel", when=T0 + i)
            for i in range(3)
        ]
        doc = module.build_surrogates(content_links(links), revisions)["http://t.de/"]
        assert doc.length == 3
        assert doc.truncated_tokens == 3

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)),
            max_size=30,
        )
    )
    def test_s1_never_exceeds_s2(self, raw):
        revisions = [rev(f"http://t{t}.de/", T0) for t in range(3)]
        links = [
            link(f"http://s{s}.de/", f"http://t{t}.de/", f"anchor{a}", when=T0)
            for s, a, t in raw
        ]
        s1 = build_surrogates(content_links(links), revisions, "unique_per_revision")
        s2 = build_surrogates(content_links(links), revisions, "all")
        for doc_id, doc2 in s2.items():
            n1 = len(s1[doc_id].anchor_instances)
            assert n1 <= len(doc2.anchor_instances)
        if len(set((l.source_full_url, l.source_capture_time, l.target_url, l.anchor_text) for l in links)) == len(links):
            for doc_id in s2:
                assert len(s1[doc_id].anchor_instances) == len(s2[doc_id].anchor_instances)


def two_doc_index():
    """N=2, avgdl=2: doc t has tf(angela)=2 within length 3, doc u length 1."""
    revisions = [rev("http://t.de/", T0), rev("http://u.de/", T0)]
    links = [
        link("http://s1.de/", "http://t.de/", "Angela", when=T0),
        link("http://s2.de/", "http://t.de/", "angela merkel", when=T0 + DAY),
        link("http://s3.de/", "http://u.de/", "other", when=T0),
    ]
    surrogates = build_surrogates(content_links(links), revisions)
    return surrogates, build_stats(surrogates)


class TestBm25:
    def test_absent_term_scores_zero(self):
        surrogates, stats = two_doc_index()
        assert bm25_score(["bismarck"], surrogates["http://t.de/"], stats) == 0.0

    def test_hand_computed_value(self):
        surrogates, stats = two_doc_index()
        assert stats.num_docs == 2 and stats.avg_doc_length == 2.0
        doc = surrogates["http://t.de/"]
        assert doc.term_freqs["angela"] == 2 and doc.length == 3
        score = bm25_score(["angela"], doc, stats, k1=1.2, b=0.75)
        # idf = ln(1 + (2-1+0.5)/(1+0.5)) = ln 2; tf part = 2*2.2/(2+1.2*(0.25+1.125))
        assert score == pytest.approx(0.8355, abs=1e-4)
        assert score == pytest.approx(math.log(2.0) * 4.4 / 3.65, abs=1e-12)

    def test_matches_plain_loop_oracle_across_k1(self):
        revisions = [rev(f"http://d{i}.de/", T0) for i in range(10)]
        words = ["alpha", "beta", "gamma", "delta"]
        links = []
        for i in range(10):
            for j in range(i + 1):
                links.append(
                    link(f"http://s{j}.de/", f"http://d{i}.de/", words[j % 4] + " " + words[(j + i) % 4], when=T0 + j)
                )
        surrogates = build_surrogates(content_links(links), revisions)
        stats = build_stats(surrogates)
        query = ["alpha", "gamma"]
        for k1 in (0.6, 1.2, 2.4):
            for doc_id, doc in surrogates.items():
                expected = 0.0
                for term in query:
                    tf = doc.term_freqs.get(term, 0)
                    if tf == 0:
                        continue
                    df = sum(1 for d in surrogates.values() if term in d.term_freqs)
                    idf = math.log(1 + (stats.num_docs - df + 0.5) / (df + 0.5))
                    expected += idf * tf * (k1 + 1) / (
                        tf + k1 * (1 - 0.75 + 0.75 * doc.length / stats.avg_doc_length)
                    )
                assert bm25_score(query, doc, stats, k1=k1) == pytest.approx(expected, abs=1e-12)

    def test_anchorless_document_scores_zero_bm25(self):
        revisions = [rev("http://a.de/angela/merkel", T0), rev("http://b.de/x", T0)]
        links = [link("http://s.de/", "http://a.de/angela/merkel", "Angela Merkel", when=T0)]
        surrogates = build_surrogates(content_links(links), revisions)
        stats = build_stats(surrogates)
        query = tokenize_text("angela merkel")
        assert bm25_score(query, surrogates.get("http://b.de/x"), stats) == 0.0
        assert bm25_score(query, surrogates["http://a.de/angela/merkel"], stats) > 0.0

    def test_empty_query_scores_zero_everywhere(self):
        surrogates, stats = two_doc_index()
        for doc in surrogates.values():
            assert bm25_score([], doc, stats) == 0.0

    def test_monotone_in_tf(self):
        stats = IndexStats(num_docs=10, avg_doc_length=5.0, doc_freq={"a": 4})
        from archive_rank.anchor_index import SurrogateDocument

        previous = -1.0
        for tf in range(0, 30):
            doc = SurrogateDocument("d", {"a": tf} if tf else {}, 5)
            score = bm25_score(["a"], doc, stats)
            assert score >= previous
            previous = score


class TestTermStats:
    def test_sqrt_term_frequency(self):
        surrogates, stats = two_doc_index()
        links_extra = [
            link(f"http://s{i}.de/", "http://v.de/", "angela", when=T0 + i) for i in range(4)
        ]
        revisions = [rev("http://v.de/", T0)]
        doc = build_surrogates(content_links(links_extra), revisions)["http://v.de/"]
        assert term_stats(doc, stats, ["angela"]).max_term_freq == pytest.approx(2.0)

    def test_document_not_in_index(self):
        _, stats = two_doc_index()
        ts = term_stats(None, stats, ["angela"])
        assert ts.length_norm == 0.0 and ts.doc_len == 0 and ts.max_term_freq == 0.0

    def test_idf_hand_value(self):
        stats = IndexStats(num_docs=10, avg_doc_length=3.0, doc_freq={"angela": 4})
        ts = term_stats(None, stats, ["angela"])
        assert ts.inverse_doc_freq == pytest.approx(1.0 + math.log(2.0), abs=1e-4)

    def test_length_norm(self):
        surrogates, stats = two_doc_index()
        doc = surrogates["http://t.de/"]
        assert term_stats(doc, stats, ["angela"]).length_norm == pytest.approx(1 / math.sqrt(3))


class TestAnchorDistribution:
    def test_counting_anchor_spread(self):
        revisions = [rev(u, T0) for u in ("http://x.de/", "http://y.de/")]
        links = [
            link("http://s.de/", "http://x.de/", "a", when=T0),
            link("http://s.de/", "http://y.de/", "a", when=T0),
            link("http://s.de/", "http://x.de/", "b", when=T0),
        ]
        rows = anchor_distribution(content_links(links))
        assert rows == [(0, 1, 1), (0, 2, 1)]

    def test_single_link(self):
        rows = anchor_distribution(content_links([link("http://s.de/", "http://x.de/", "a")]))
        assert rows == [(0, 1, 1)]

    def test_yearly_grouping_matches_bruteforce_recount(self):
        year_2007 = 1_176_000_000  # 2007-04-08
        year_2013 = 1_366_000_000  # 2013-04-15
        links = [
            link("http://s.de/", "http://x.de/", "a", when=year_2007),
            link("http://s.de/", "http://y.de/", "a", when=year_2007),
            link("http://s.de/", "http://x.de/", "b", when=year_2013),
            link("http://s.de/", "http://z.de/", "b", when=year_2013),
            link("http://s2.de/", "http://x.de/", "b", when=year_2013),
        ]
        rows = anchor_distribution(content_links(links), group_by_year=True)
        assert [year for year, _k, _count in rows] == sorted(year for year, _k, _count in rows)
        assert [row for row in rows if row[0] == 0] == anchor_distribution(content_links(links))
        per_year = {}
        for year, k, count in rows:
            per_year.setdefault(year, 0)
            per_year[year] += k * count
        # brute force: distinct (anchor, target) pairs per year, and over all years as year 0
        brute = Counter()
        for l in links:
            year = 2007 if l.source_capture_time == year_2007 else 2013
            brute[year] = len(
                {
                    (x.anchor_text, x.target_url)
                    for x in links
                    if (2007 if x.source_capture_time == year_2007 else 2013) == year
                }
            )
        brute[0] = len({(x.anchor_text, x.target_url) for x in links})
        assert per_year == dict(brute)

    def test_top_domain_restriction(self):
        links = [
            link("http://s.de/", f"http://big.de/{i}", "a", when=T0) for i in range(5)
        ] + [link("http://s.de/", "http://small.de/1", "a", when=T0)]
        unrestricted = anchor_distribution(content_links(links))
        top1 = anchor_distribution(content_links(links), top_n_domains=1)
        assert unrestricted == [(0, 6, 1)]
        assert top1 == [(0, 5, 1)]

    def test_histogram_mass_equals_distinct_pairs(self):
        import numpy as np

        rng = np.random.default_rng(3)
        links = [
            link(
                f"http://s{rng.integers(3)}.de/",
                f"http://t{rng.integers(6)}.de/",
                f"anchor{rng.integers(4)}",
                when=T0 + int(rng.integers(100)),
            )
            for _ in range(60)
        ]
        rows = anchor_distribution(content_links(links))
        mass = sum(k * count for _y, k, count in rows)
        distinct = len({(l.anchor_text, l.target_url) for l in links})
        assert mass == distinct


def written_index(surrogates):
    """The three index files, written and rewound."""
    files = io.StringIO(), io.StringIO(), io.StringIO()
    write_index(surrogates.values(), *files)
    for fh in files:
        fh.seek(0)
    return files


class TestPersistence:
    def test_round_trip(self):
        surrogates, stats = two_doc_index()
        loaded, loaded_stats = read_index(*written_index(surrogates))
        assert set(loaded) == set(surrogates)
        for doc_id, doc in surrogates.items():
            assert loaded[doc_id].term_freqs == doc.term_freqs
            assert loaded[doc_id].length == doc.length
            assert loaded[doc_id].anchor_instances == doc.anchor_instances
        assert loaded_stats.num_docs == stats.num_docs
        assert loaded_stats.avg_doc_length == pytest.approx(stats.avg_doc_length)
        assert loaded_stats.doc_freq == stats.doc_freq

    @pytest.mark.parametrize(
        "table, dropped, doc", [(1, "merkel\t", "http://t.de/"), (2, "http://u.de/\t", "http://u.de/")],
        ids=["postings", "instances"],
    )
    def test_a_row_missing_from_postings_or_instances_names_its_document(self, table, dropped, doc):
        """A document's term frequencies sum to its length, and a document
        of positive length has an instance: all three count its kept tokens."""
        files = [fh.getvalue() for fh in written_index(two_doc_index()[0])]
        files[table] = "".join(line for line in files[table].splitlines(keepends=True) if not line.startswith(dropped))
        with pytest.raises(ValueError, match=re.escape(repr(doc))):
            read_index(*map(io.StringIO, files))

    def test_df_matches_bruteforce_on_loaded_index(self):
        surrogates, _ = two_doc_index()
        _, stats = read_index(*written_index(surrogates))
        for term, df in stats.doc_freq.items():
            brute = sum(1 for d in surrogates.values() if term in d.term_freqs)
            assert df == brute

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5), st.text("ab c", max_size=6)), max_size=25),
        st.none() | st.sets(st.sampled_from(["a", "b", "c", "ab", "ba", "bc"])),
        st.none() | st.sets(st.integers(0, 6).map(lambda t: f"http://t{t}.de/")),
        st.booleans(),
    )
    def test_a_filtered_read_is_the_full_read_restricted(self, raw, terms, documents, with_instances):
        """Kept are the terms ``terms`` names and the documents ``documents``
        names (passed as a predicate) or a kept posting lists; the
        statistics are the whole index's."""
        revisions = [rev(f"http://t{t}.de/", T0) for t in range(5)]
        links = [link(f"http://s{s}.de/", f"http://t{t}.de/", anchor, when=T0 + s) for s, t, anchor in raw]
        surrogates = build_surrogates(content_links(links), revisions, "all")
        docs, postings, instances = written_index(surrogates)
        full, full_stats = read_index(docs, postings, instances)
        for fh in (docs, postings, instances):
            fh.seek(0)
        part, part_stats = read_index(
            docs, postings, instances if with_instances else None, terms=terms,
            documents=None if documents is None else documents.__contains__,
        )
        expected = {}
        for doc_id, doc in full.items():
            freqs = {t: tf for t, tf in doc.term_freqs.items() if terms is None or t in terms}
            if documents is None or doc_id in documents or freqs:
                kept = doc.anchor_instances if with_instances else []
                expected[doc_id] = replace(doc, term_freqs=freqs, anchor_instances=kept)
        assert part == expected
        assert part_stats == full_stats == build_stats(surrogates)
