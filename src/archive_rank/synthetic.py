"""Synthetic web-archive corpora with planted relevance structure.

Builds WARC/ARC container files plus every resource table the pipeline
needs, planting per-query "good" documents whose non-content evidence is
deliberately favourable: more inbound links, shallower URLs, more captures
and more query-bearing anchors than the surrounding chaff. Adversarial
structure keeps single-evidence rankers honest: link farms pump PageRank
into irrelevant pages, anchor-spam pages rival the good documents' BM25
scores, and half the chaff carries the query in its URL.

Everything derives from one seed, so generated corpora are byte-stable.
Also home to the low-level WARC/ARC record writers used by tests and
demos.
"""
from __future__ import annotations

import gzip
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .features import ENTITY_TYPES

__all__ = [
    "warc_record_bytes",
    "warc_file_bytes",
    "arc_record_bytes",
    "arc_file_bytes",
    "PlantedQuery",
    "SyntheticCorpus",
    "make_synthetic_archive",
]

DAY = 24 * 3600

_FIRST = (
    "anna", "bernd", "clara", "dieter", "erika", "falk", "greta", "heinz",
    "ingrid", "jonas", "katrin", "lars", "marta", "norbert", "paula",
    "quirin", "rosa", "stefan", "tilda", "ulla", "viktor", "wanda",
)
_LAST = (
    "ackermann", "brandt", "claussen", "dorn", "eberhart", "fischer",
    "gruber", "hoffman", "ihle", "jansen", "kessler", "lindner", "maurer",
    "neumann", "oswald", "pfeiffer", "quandt", "richter", "sommer",
    "thalberg", "unger", "vogler",
)
_JUNK_ANCHORS = (
    "mehr", "weiter", "hier", "startseite", "impressum", "kontakt",
    "archiv", "übersicht", "weiterlesen", "details",
)
_GOOD_ANCHOR_TEMPLATES = (
    "{first} {last}",
    "{first} {last} Biografie",
    "Porträt {first} {last}",
    "{first} {last} im Überblick",
)


# ---------------------------------------------------------------------------
# container writers


def _http_response(status: int, mime: str, payload: bytes) -> bytes:
    return f"HTTP/1.1 {status} OK\r\nContent-Type: {mime}\r\n\r\n".encode("utf-8") + payload


def warc_record_bytes(
    target_uri: str,
    date_iso: str,
    payload: bytes,
    warc_type: str = "response",
    http_status: int = 200,
    mime: str = "text/html",
) -> bytes:
    """One WARC/1.0 record; response records wrap the payload in an HTTP
    message block."""
    if warc_type == "response":
        block = _http_response(http_status, mime, payload)
        content_type = "application/http; msgtype=response"
    else:
        block = payload
        content_type = "application/warc-fields"
    head = (
        "WARC/1.0\r\n"
        f"WARC-Type: {warc_type}\r\n"
        f"WARC-Target-URI: {target_uri}\r\n"
        f"WARC-Date: {date_iso}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(block)}\r\n"
        "\r\n"
    ).encode("utf-8")
    return head + block + b"\r\n\r\n"


def warc_file_bytes(records: list[bytes], per_record_gzip: bool = True) -> bytes:
    """Concatenate records, optionally as independent gzip members."""
    if per_record_gzip:
        return b"".join(gzip.compress(r, mtime=0) for r in records)
    return b"".join(records)


def arc_record_bytes(
    url: str,
    date14: str,
    payload: bytes,
    mime: str = "text/html",
    http_status: int | None = 200,
    ip: str = "0.0.0.0",
) -> bytes:
    block = payload if http_status is None else _http_response(http_status, mime, payload)
    header = f"{url} {ip} {date14} {mime} {len(block)}\n".encode("utf-8")
    return header + block + b"\n"


def arc_file_bytes(records: list[bytes], per_record_gzip: bool = True) -> bytes:
    """ARC v1 file: filedesc header record followed by document records."""
    version_block = b"1 0 ArchiveRank\nURL IP-address Archive-date Content-type Archive-length\n"
    filedesc = (
        f"filedesc://synthetic.arc 0.0.0.0 20040101000000 text/plain {len(version_block)}\n".encode()
        + version_block
        + b"\n"
    )
    return warc_file_bytes([filedesc] + records, per_record_gzip)


def _iso(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _date14(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y%m%d%H%M%S")


def _epoch(year: int, month: int = 1, day: int = 1) -> int:
    return int(datetime(year, month, day, tzinfo=timezone.utc).timestamp())


# ---------------------------------------------------------------------------
# planted corpus


@dataclass
class PlantedQuery:
    query_id: int
    text: str
    entity_type: str
    good_docs: list[str] = field(default_factory=list)  # core URLs, rank order
    chaff_docs: list[str] = field(default_factory=list)
    spam_docs: list[str] = field(default_factory=list)


@dataclass
class SyntheticCorpus:
    root: Path
    config_path: Path
    queries: list[PlantedQuery]
    doc_count: int
    record_count: int
    link_count: int


def make_synthetic_archive(
    root,
    num_queries: int = 20,
    good_per_query: int = 10,
    chaff_per_query: int = 25,
    spam_per_query: int = 5,
    boosted_per_query: int = 6,
    sources: int = 200,
    feeder_inlinks: int = 150,
    filler_docs: int = 880,
    rf_num_trees: int = 60,
    per_partition: tuple[int, int] = (2, 4),
    seed: int = 7,
) -> SyntheticCorpus:
    """Generate a complete pipeline input tree under ``root``.

    Layout: ``archives/`` (two .warc.gz plus one .arc.gz), ``resources/``
    (queries, news domains, search words, wiki citations, suffixes),
    ``serp/`` snapshot files, ``judgments.tsv`` and a ready ``config.txt``.
    """
    import numpy as np

    if num_queries > len(_FIRST):
        raise ValueError(f"at most {len(_FIRST)} queries supported")
    root = Path(root)
    rng = np.random.default_rng(seed)
    (root / "archives").mkdir(parents=True, exist_ok=True)
    (root / "resources").mkdir(exist_ok=True)
    (root / "serp").mkdir(exist_ok=True)

    news_domains = [f"zeitung{k}.de" for k in range(8)]
    source_urls = [
        f"http://katalog{s % 10}.de/liste-{s}" for s in range(sources)
    ]
    window_start = _epoch(2004)
    window_days = int((_epoch(2014) - window_start) / DAY)
    source_times = [
        window_start + int(round(s * window_days / max(sources, 1))) * DAY
        + int(rng.integers(0, 20)) * 3600
        for s in range(sources)
    ]
    outlinks: dict[str, list[tuple[str, str]]] = {u: [] for u in source_urls}

    # doc -> sorted capture times; doc -> per-revision full URL override
    revisions: dict[str, list[int]] = {}
    query_full: dict[str, str] = {}

    def plant_revisions(core: str, count: int, start: int, gap_lo: int, gap_hi: int) -> None:
        t = start
        times = []
        for _ in range(count):
            times.append(t)
            t += int(rng.integers(gap_lo, gap_hi + 1)) * DAY + int(rng.integers(0, 24)) * 3600
        revisions[core] = times

    def link_from_sources(core: str, anchors: list[str]) -> None:
        anchors = anchors[:sources]  # one link per distinct source page
        chosen = rng.choice(sources, size=len(anchors), replace=False)
        for s, anchor in zip(chosen, anchors):
            outlinks[source_urls[s]].append((core, anchor))

    queries: list[PlantedQuery] = []
    wiki_counts: dict[int, dict[str, int]] = {}
    for i in range(num_queries):
        first, last = _FIRST[i], _LAST[i]
        q = PlantedQuery(
            query_id=i + 1,
            text=f"{first} {last}",
            entity_type=ENTITY_TYPES[i % len(ENTITY_TYPES)],
        )
        title_first, title_last = first.title(), last.title()
        citations = wiki_counts.setdefault(q.query_id, {})

        # good documents: shallow URLs, many captures, many query anchors;
        # 60% live on news domains, the rest on the same portals as the chaff
        for j in range(good_per_query):
            if (i + j) % 5 < 3:
                domain = news_domains[(i + j) % len(news_domains)]
            else:
                domain = f"portal{(i * good_per_query + j) % 12}.de"
            if j % 3 == 0:
                core = f"http://{domain}/{first}-{last}-{i}{j}.html"
            else:
                core = f"http://{domain}/thema/{first}-{last}-{i}{j}"
            q.good_docs.append(core)
            plant_revisions(core, int(rng.integers(14, 29)), _epoch(2005) + j * DAY, 8, 40)
            n_links = int(rng.integers(30, 61))
            share = rng.uniform(0.72, 0.90)
            n_query = max(1, int(round(n_links * share)))
            anchors = [
                _GOOD_ANCHOR_TEMPLATES[int(rng.integers(len(_GOOD_ANCHOR_TEMPLATES)))].format(
                    first=title_first, last=title_last
                )
                for _ in range(n_query)
            ]
            anchors += [
                _JUNK_ANCHORS[int(rng.integers(len(_JUNK_ANCHORS)))]
                for _ in range(n_links - n_query)
            ]
            link_from_sources(core, anchors)
            citations.setdefault(domain, int(rng.integers(1, 9)))

        # chaff: deep URLs, few captures, one query anchor among junk; a
        # third sits on news domains so domain evidence stays ambiguous
        for c in range(chaff_per_query):
            if c % 3 == 0:
                domain = news_domains[(i * chaff_per_query + c) % len(news_domains)]
            else:
                domain = f"portal{(i * chaff_per_query + c) % 12}.de"
            year = 2004 + (c % 9)
            if c < chaff_per_query // 2:
                core = f"http://{domain}/archiv/{year}/artikel/{first}-{last}-hinweis{c}"
            else:
                core = f"http://{domain}/archiv/{year}/artikel/beitrag-{i}-{c}"
            q.chaff_docs.append(core)
            plant_revisions(core, int(rng.integers(1, 7)), _epoch(2006) + c * 3 * DAY, 1, 30)
            if c % 5 == 0:
                query_full[core] = core + "?sid=1"
            n_junk = int(rng.integers(2, 8))
            anchors = [f"{title_first} {title_last}"]
            anchors += [
                _JUNK_ANCHORS[int(rng.integers(len(_JUNK_ANCHORS)))] for _ in range(n_junk)
            ]
            link_from_sources(core, anchors)
            if c % 4 == 0:
                citations.setdefault(domain, int(rng.integers(1, 3)))
            if c < boosted_per_query:
                feeder = f"http://linkfarm-{i}-{c}.de/index"
                plant_revisions(feeder, 1, _epoch(2008) + (i * 31 + c) * DAY, 1, 2)
                link_from_sources(feeder, ["partner"] * feeder_inlinks)
                outlinks[feeder] = [(core, "angebot")]

        # anchor spam: inlink/anchor volume rivalling the good documents,
        # but exactly half the anchors are junk and the URLs run deep
        for p in range(spam_per_query):
            domain = f"werbung{(i * spam_per_query + p) % 6}.de"
            core = f"http://{domain}/angebote/rubrik/eintrag-{i}-{p}"
            q.spam_docs.append(core)
            plant_revisions(core, int(rng.integers(2, 5)), _epoch(2007) + p * 5 * DAY, 1, 30)
            n_query = int(rng.integers(18, 31))
            anchors = []
            for _ in range(n_query):  # interleaved so truncation keeps the 1:1 mix
                anchors.append(f"{title_first} {title_last}")
                anchors.append(_JUNK_ANCHORS[int(rng.integers(len(_JUNK_ANCHORS)))])
            link_from_sources(core, anchors)
        queries.append(q)

    for m in range(filler_docs):
        core = f"http://seite{m % 120}.de/inhalt/seite-{m}"
        plant_revisions(core, int(rng.integers(1, 3)), _epoch(2005) + m * DAY, 5, 60)
        if m % 2 == 0:
            link_from_sources(core, ["weiter"])

    for s, url in enumerate(source_urls):
        revisions[url] = [source_times[s]]

    # ------------------------------------------------------------------
    # records -> container files

    def html_for(core: str) -> bytes:
        links = outlinks.get(core)
        if not links:
            return "<html><body><p>inhalt</p></body></html>".encode("utf-8")
        body = "".join(f'<a href="{t}">{a}</a>\n' for t, a in links)
        return f"<html><body>\n{body}</body></html>".encode("utf-8")

    all_docs = sorted(revisions)
    filler_set = {d for d in all_docs if d.startswith("http://seite")}
    warc_a: list[bytes] = []
    warc_b: list[bytes] = []
    arc: list[bytes] = []
    record_count = 0
    for core in all_docs:
        payload = html_for(core)
        for when in revisions[core]:
            record_count += 1
            full = query_full.get(core, core)
            if core in filler_set:
                arc.append(arc_record_bytes(full, _date14(when), payload))
            elif core.startswith(("http://katalog", "http://linkfarm", "http://zeitung")):
                warc_a.append(warc_record_bytes(full, _iso(when), payload))
            else:
                warc_b.append(warc_record_bytes(full, _iso(when), payload))

    (root / "archives" / "part-a.warc.gz").write_bytes(warc_file_bytes(warc_a))
    (root / "archives" / "part-b.warc.gz").write_bytes(warc_file_bytes(warc_b))
    (root / "archives" / "part-c.arc.gz").write_bytes(arc_file_bytes(arc))

    # ------------------------------------------------------------------
    # resource tables, snapshots, judgments

    with open(root / "resources" / "queries.tsv", "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(f"{q.query_id}\t{q.text}\t{q.entity_type}\n")
    with open(root / "resources" / "news_domains.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(news_domains) + "\n")
    with open(root / "resources" / "search_words.txt", "w", encoding="utf-8") as fh:
        fh.write("such\nsuche\nsuchergebnis\nsearch\nquery\nq\nquery=\n")
    with open(root / "resources" / "wiki_citations.tsv", "w", encoding="utf-8") as fh:
        for qid in sorted(wiki_counts):
            for domain in sorted(wiki_counts[qid]):
                fh.write(f"{qid}\t{domain}\t{wiki_counts[qid][domain]}\n")
    with open(root / "resources" / "suffixes.txt", "w", encoding="utf-8") as fh:
        fh.write("de\ncom\norg\nnet\nco.uk\n")
    with open(root / "resources" / "entity_types.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(ENTITY_TYPES) + "\n")

    for q in queries:
        lines_a = [doc for doc in q.good_docs]
        with open(root / "serp" / f"{q.query_id}_2014-01-10.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines_a) + "\n")
        lines_b = q.good_docs[:8] + [
            f"http://extern{q.query_id}.com/treffer-{k}" for k in range(2)
        ]
        with open(root / "serp" / f"{q.query_id}_2014-03-05.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines_b) + "\n")

    with open(root / "judgments.tsv", "w", encoding="utf-8") as fh:
        for q in queries:
            judged = [(d, 2 if j < 5 else 1) for j, d in enumerate(q.good_docs)]
            judged += [(d, 0) for d in q.chaff_docs + q.spam_docs]
            for assessor in ("a1", "a2", "a3", "a4"):
                for doc, grade in judged:
                    if rng.random() < 0.06:
                        grade = {0: 1, 1: 2, 2: 1}[grade]
                    fh.write(f"{q.query_id}\t{doc}\t{assessor}\t{grade}\n")

    config = f"""seed=42
paths.archives=archives
paths.queries=resources/queries.tsv
paths.news_domains=resources/news_domains.txt
paths.search_words=resources/search_words.txt
paths.wiki_citations=resources/wiki_citations.tsv
paths.entity_types=resources/entity_types.txt
paths.suffixes=resources/suffixes.txt
paths.serp_dir=serp
paths.judgments=judgments.tsv
index.strategy=unique_per_revision
pagerank.damping=0.85
pagerank.tolerance=1e-9
pagerank.max_iterations=100
bm25.k1=1.2
bm25.b=0.75
rf.num_trees={rf_num_trees}
rf.folds=5
rf.bootstrap_fraction=1.0
rf.grid.min_leaf=1,5
rf.grid.features_per_split=sqrt,third
sample.per_partition_min={per_partition[0]}
sample.per_partition_max={per_partition[1]}
label.strategy=soft
stats.group_by_year=true
stats.top_n_domains=0
"""
    config_path = root / "config.txt"
    config_path.write_text(config, encoding="utf-8")

    link_count = sum(len(v) for v in outlinks.values())
    return SyntheticCorpus(
        root=root,
        config_path=config_path,
        queries=queries,
        doc_count=len(all_docs),
        record_count=record_count,
        link_count=link_count,
    )
