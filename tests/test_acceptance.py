"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. The end-to-end criteria build a 2,000-document synthetic archive
with planted relevance structure and push it through all nine pipeline
stages twice (the second run feeds the determinism check).
"""
import io
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from archive_rank.anchor_index import build_stats, build_surrogates, bm25_score
from archive_rank.features import (
    QueryRecord,
    anchor_time_spans,
    deserialize_vectors,
    extract_features,
    rev_duration,
)
from archive_rank.forest import information_gain_ranking
from archive_rank.graph import Graph, pagerank
from archive_rank.ingest import (
    ParseStats,
    content_links,
    extract_links,
    parse_arc_stream,
    parse_warc_stream,
)
from archive_rank.labeling import cohen_kappa, soft_label, stratified_sample
from archive_rank.metrics import (
    RankedRun,
    average_precision,
    ndcg_at_k,
    precision_at_k,
)
from archive_rank.pipeline import STAGE_ORDER, load_config, run_stage
from archive_rank.synthetic import (
    arc_file_bytes,
    arc_record_bytes,
    make_synthetic_archive,
    warc_file_bytes,
    warc_record_bytes,
)
from conftest import DAY, PATTERN_TOKENS, T0, link, make_context, rev

WEEK = 7 * DAY
PLANTED_FEATURES = {"inlink_count", "url_depth", "revision_count", "anchor_freq"}


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


# ---------------------------------------------------------------------------
# criterion 1: parser conformance


def build_warc_fixture() -> bytes:
    """50 WARC records: 38 responses, 9 other kinds, 3 corrupt."""
    records = []
    for i in range(38):
        html = f'<a href="/l{i}">text {i}</a><img src="p{i}.png">'.encode()
        records.append(warc_record_bytes(f"http://w{i % 7}.de/p/{i}", "2009-03-02T11:00:00Z", html))
    for i, kind in enumerate(["request", "metadata", "revisit"] * 3):
        records.append(
            warc_record_bytes(f"http://w.de/other{i}", "2009-03-02T11:00:00Z", b"x", warc_type=kind)
        )
    # corrupt: header line without a colon
    records.insert(10, b"WARC/1.0\r\nBROKEN HEADER LINE\r\n\r\npayload\r\n\r\n")
    # corrupt: non-numeric length
    records.insert(
        25,
        b"WARC/1.0\r\nWARC-Type: response\r\nWARC-Target-URI: http://w.de/bad\r\n"
        b"WARC-Date: 2009-03-02T11:00:00Z\r\nContent-Length: NaN\r\n\r\n",
    )
    data = warc_file_bytes(records, per_record_gzip=False)
    # corrupt: truncated final record
    data += warc_record_bytes("http://w.de/cut", "2009-03-02T11:00:00Z", b"0123456789")[:-14]
    return data


def build_arc_fixture() -> bytes:
    """20 ARC records: filedesc, 17 documents, 2 corrupt."""
    records = []
    for i in range(9):
        html = f'<a href="/a{i}">anker {i}</a>'.encode()
        records.append(arc_record_bytes(f"http://a{i % 5}.de/d/{i}", "20051122093000", html))
    # corrupt: header with four fields only
    records.append(b"http://bad.de/ 1.2.3.4 20051122093000\n<html>lost</html>\n\n")
    for i in range(9, 13):
        records.append(arc_record_bytes(f"http://a{i % 5}.de/d/{i}", "20060101120000", b"<p>x</p>"))
    # corrupt: declared length disagrees with the record boundary
    payload = b"HTTP/1.1 200 OK\r\n\r\n<html>wrong length</html>"
    records.append(
        f"http://liar.de/x 1.2.3.4 20051122093000 text/html {len(payload) - 11}\n".encode()
        + payload
        + b"\n"
    )
    for i in range(13, 17):
        records.append(arc_record_bytes(f"http://a{i % 5}.de/d/{i}", "20070101120000", b"<p>y</p>"))
    return arc_file_bytes(records, per_record_gzip=False)


def test_criterion_1_parser_conformance():
    started = time.perf_counter()
    warc_stats = ParseStats()
    warc_records = list(parse_warc_stream(io.BytesIO(build_warc_fixture()), warc_stats))
    assert warc_stats.total == 50
    assert (warc_stats.emitted, warc_stats.skipped, warc_stats.corrupt) == (38, 9, 3)

    arc_stats = ParseStats()
    arc_records = list(parse_arc_stream(io.BytesIO(build_arc_fixture()), arc_stats))
    assert arc_stats.total == 20
    assert (arc_stats.emitted, arc_stats.skipped, arc_stats.corrupt) == (17, 1, 2)

    for record in warc_records + arc_records:
        extraction = extract_links(record.payload, record.target_uri, record.capture_time)
        for item in extraction.links:
            assert item.tag_pattern in PATTERN_TOKENS
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"parser conformance took {elapsed:.2f}s"
    report(1, "parser conformance")


# ---------------------------------------------------------------------------
# criterion 2: PageRank against the dense oracle


def dense_pagerank(n: int, edges, damping: float) -> np.ndarray:
    M = np.zeros((n, n))
    outdeg = np.zeros(n)
    for s, _t in edges:
        outdeg[s] += 1
    for s, t in edges:
        M[t, s] = 1.0 / outdeg[s]
    for j in range(n):
        if outdeg[j] == 0:
            M[:, j] = 1.0 / n
    v = np.full(n, 1.0 / n)
    for _ in range(5000):
        nxt = damping * (M @ v) + (1.0 - damping) / n
        if np.abs(nxt - v).sum() < 1e-13:
            return nxt
        v = nxt
    return v


def test_criterion_2_pagerank_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 3 * n))
        edges = sorted(
            {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)} - {(i, i) for i in range(n)}
        )
        if not edges:
            continue
        names = [f"node{i:02d}" for i in range(n)]
        g = Graph.from_edges([(names[s], names[t]) for s, t in edges])
        id_edges = [(g.ids[names[s]], g.ids[names[t]]) for s, t in edges]
        rv = pagerank(g, damping=0.85, tolerance=1e-13, max_iterations=2000)
        assert abs(rv.scores.sum() - 1.0) < 1e-9
        oracle = dense_pagerank(g.node_count, id_edges, 0.85)
        assert np.abs(rv.scores - oracle).sum() < 1e-9
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"200 PageRank oracle checks took {elapsed:.2f}s"
    report(2, "pagerank oracle")


# ---------------------------------------------------------------------------
# criterion 3: BM25 and collection statistics against exhaustive evaluation


def test_criterion_3_bm25_and_term_stats_oracle():
    rng = np.random.default_rng(303)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    for _corpus in range(100):
        n_docs = int(rng.integers(2, 101))
        revisions = [rev(f"http://d{i:03d}.de/", T0) for i in range(n_docs)]
        links = []
        token_lists: dict[str, list[str]] = {}
        for i in range(n_docs):
            doc_id = f"http://d{i:03d}.de/"
            n_anchors = int(rng.integers(1, 5))
            tokens: list[str] = []
            for a in range(n_anchors):
                words = [vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(1, 4)))]
                tokens.extend(words)
                links.append(link(f"http://s{i}-{a}.de/", doc_id, " ".join(words), when=T0 + a))
            token_lists[doc_id] = tokens
        surrogates = build_surrogates(content_links(links), revisions, "all")
        stats = build_stats(surrogates)

        # brute-force df and average length from the raw token lists
        brute_df = {
            term: sum(1 for tokens in token_lists.values() if term in tokens) for term in vocab
        }
        brute_avg = sum(len(t) for t in token_lists.values()) / n_docs
        for term in vocab:
            assert stats.doc_freq.get(term, 0) == brute_df[term]
        assert stats.avg_doc_length == pytest.approx(brute_avg, abs=0)

        query = [vocab[int(rng.integers(len(vocab)))] for _ in range(2)]
        for doc_id, doc in surrogates.items():
            expected = 0.0
            for term in query:
                tf = token_lists[doc_id].count(term)
                if tf == 0:
                    continue
                df = brute_df[term]
                idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
                expected += idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * len(token_lists[doc_id]) / brute_avg))
            assert bm25_score(query, doc, stats) == pytest.approx(expected, abs=1e-9)
    report(3, "bm25/term-stats oracle")


# ---------------------------------------------------------------------------
# criterion 4: ranked-retrieval metrics against brute force


def test_criterion_4_metric_oracle():
    rng = np.random.default_rng(404)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        labels = rng.choice([0.0, 0.5, 1.0, 2.0], size=n).tolist()
        docs = tuple(f"d{i}" for i in range(n))
        run = RankedRun(1, docs, dict(zip(docs, labels)))
        for k in (1, 5, 8):
            brute_p = sum(1 for l in labels[:k] if l > 0) / k
            assert precision_at_k(run, k) == pytest.approx(brute_p, abs=1e-12)

            def dcg(seq):
                return sum((2.0 ** l - 1.0) / math.log2(i + 2) for i, l in enumerate(seq[:k]))

            ideal = dcg(sorted(labels, reverse=True))
            brute_n = dcg(labels) / ideal if ideal > 0 else 0.0
            assert ndcg_at_k(run, k) == pytest.approx(brute_n, abs=1e-12)
        hits, total = 0, 0.0
        for i, l in enumerate(labels):
            if l > 0:
                hits += 1
                total += hits / (i + 1)
        brute_ap = total / hits if hits else 0.0
        assert average_precision(run) == pytest.approx(brute_ap, abs=1e-12)

    # the three hand-computed reference values
    ndcg_run = RankedRun(1, ("a", "b", "c"), {"a": 2.0, "b": 0.0, "c": 1.0})
    assert ndcg_at_k(ndcg_run, 10) == pytest.approx(0.9639, abs=1e-4)
    ap_run = RankedRun(1, ("a", "b", "c"), {"a": 1.0, "b": 0.0, "c": 1.0})
    assert average_precision(ap_run) == pytest.approx(0.8333, abs=1e-4)
    revisions = [rev("http://t.de/", T0), rev("http://u.de/", T0)]
    links = [
        link("http://s1.de/", "http://t.de/", "Angela", when=T0),
        link("http://s2.de/", "http://t.de/", "angela merkel", when=T0 + 1),
        link("http://s3.de/", "http://u.de/", "other", when=T0),
    ]
    surrogates = build_surrogates(content_links(links), revisions)
    stats = build_stats(surrogates)
    assert bm25_score(["angela"], surrogates["http://t.de/"], stats) == pytest.approx(0.8355, abs=1e-4)
    report(4, "metric oracle")


# ---------------------------------------------------------------------------
# criterion 5: feature correctness


def test_criterion_5_feature_correctness():
    rng = np.random.default_rng(505)
    for _ in range(1000):
        n = int(rng.integers(0, 12))
        times = rng.integers(0, 200 * DAY, size=n).tolist()
        ordered = sorted(times)
        gaps = [b - a for a, b in zip(ordered, ordered[1:])]
        assert anchor_time_spans(times) == sum(1 for g in gaps if g > WEEK)
        assert rev_duration(times) == sum(1 for g in gaps if g >= WEEK)

    for trial in range(25):
        target = "http://t.de/"
        n_query = int(rng.integers(0, 8))
        n_junk = int(rng.integers(0, 8))
        links = [
            link(f"http://q{i}.de/", target, "Angela Merkel heute", when=T0 + i * DAY)
            for i in range(n_query)
        ] + [
            link(f"http://j{i}.de/", target, "startseite", when=T0 + (20 + i) * DAY)
            for i in range(n_junk)
        ]
        ctx = make_context([rev(target, T0)], links)
        vec = extract_features(QueryRecord(1, "angela merkel", "politician"), target, ctx)
        freq = vec["anchor_freq"]
        assert 0.0 <= freq <= 1.0
        expected = n_query / (n_query + n_junk) if (n_query + n_junk) else 0.0
        assert freq == pytest.approx(expected, abs=1e-12)

    ctx = make_context([rev("http://spiegel.de/thema/angela_merkel", T0)], [])
    vec = extract_features(
        QueryRecord(1, "angela merkel", "politician"), "http://spiegel.de/thema/angela_merkel", ctx
    )
    assert vec["query_in_url"] == 2.0
    report(5, "feature correctness")


# ---------------------------------------------------------------------------
# criterion 6: labeling


def test_criterion_6_labeling():
    assert soft_label("d", {"d": 10}) == 0.1
    assert soft_label("d", {"d": 1}) == 1.0
    assert soft_label("d", {}) == 0.0

    assert cohen_kappa(dict(enumerate([0, 0, 1, 1])), dict(enumerate([0, 1, 0, 1]))) == pytest.approx(0.0)
    grades = dict(enumerate([0, 2, 1, 1, 0, 2]))
    assert cohen_kappa(grades, grades) == 1.0

    rng = np.random.default_rng(606)
    docs = [f"http://d{i:02d}.de/" for i in range(25)]
    matrix = rng.normal(size=(25, 5))
    first = stratified_sample(docs, matrix, (2, 4), seed=99)
    second = stratified_sample(docs, matrix, (2, 4), seed=99)
    assert repr(first) == repr(second)
    order = rng.permutation(25)
    third = stratified_sample([docs[i] for i in order], matrix[order], (2, 4), seed=99)
    assert repr(first) == repr(third)
    report(6, "labeling")


# ---------------------------------------------------------------------------
# criteria 7 and 8: synthetic end-to-end and full determinism


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted-corpus")
    started = time.perf_counter()
    corpus = make_synthetic_archive(root, num_queries=20, seed=7)
    cfg = load_config(corpus.config_path)
    run_a = root / "run-a"
    for stage in STAGE_ORDER:
        run_stage(stage, cfg, run_a)
    elapsed = time.perf_counter() - started
    run_b = root / "run-b"
    for stage in STAGE_ORDER:
        run_stage(stage, cfg, run_b)
    return {"corpus": corpus, "run_a": run_a, "run_b": run_b, "elapsed": elapsed}


def read_eval(run_dir: Path) -> dict[str, dict[str, float]]:
    lines = (run_dir / "eval.csv").read_text().splitlines()
    header = lines[0].split(",")[1:]
    table = {}
    for line in lines[1:]:
        parts = line.split(",")
        table[parts[0]] = dict(zip(header, map(float, parts[1:])))
    return table


def read_sig(run_dir: Path) -> dict[tuple[str, str, str], float]:
    table = {}
    for line in (run_dir / "sig.csv").read_text().splitlines()[1:]:
        a, b, metric, _t, p = line.split(",")
        table[(a, b, metric)] = float(p)
    return table


def test_criterion_7_synthetic_end_to_end(end_to_end):
    corpus = end_to_end["corpus"]
    assert corpus.doc_count == 2000
    assert len(corpus.queries) == 20
    assert all(len(q.good_docs) == 10 for q in corpus.queries)

    scores = read_eval(end_to_end["run_a"])
    sig = read_sig(end_to_end["run_a"])
    for baseline in ("bm25", "pagerank", "query_in_url"):
        for metric, sig_metric in (("P@10", "P@10"), ("MAP", "AP")):
            margin = scores["rf"][metric] - scores[baseline][metric]
            assert margin >= 0.10, f"rf vs {baseline} on {metric}: margin {margin:.3f}"
            assert sig[(baseline, "rf", sig_metric)] < 0.01

    elapsed = end_to_end["elapsed"]
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"

    # information gain must surface the planted evidence
    run_a = end_to_end["run_a"]
    labels = {}
    for line in (run_a / "labels.tsv").read_text().splitlines():
        qid, doc, soft, _man = line.split("\t")
        labels[(int(qid), doc)] = float(soft)
    pool = set()
    for line in (run_a / "sample.tsv").read_text().splitlines():
        qid, doc, _prov = line.split("\t")
        pool.add((int(qid), doc))
    with open(run_a / "features.txt", encoding="utf-8") as fh:
        vectors = [
            replace(v, label=labels[(v.query_id, v.doc_id)])
            for v in deserialize_vectors(fh)
            if (v.query_id, v.doc_id) in pool
        ]
    ranking = information_gain_ranking(vectors)
    top5 = {name for name, _gain in ranking[:5]}
    overlap = PLANTED_FEATURES & top5
    assert len(overlap) >= 3, f"planted features in IG top-5: {sorted(overlap)}"
    report(7, "synthetic end-to-end")


def test_criterion_8_determinism(end_to_end):
    run_a, run_b = end_to_end["run_a"], end_to_end["run_b"]
    for artifact in ("features.txt", "forest.txt", "eval.csv"):
        assert (run_a / artifact).read_bytes() == (run_b / artifact).read_bytes(), artifact
    report(8, "determinism")
