"""Run-directory pipeline: nine stages from raw containers to the
evaluation report, driven by a flat key=value config.

Every stage writes its artifacts atomically (temp file + rename) and
appends an entry to ``manifest.json`` recording the derived seed, config
hash, input digests and row counts. All randomness flows from the single
config seed through stage-name-salted derivation, so a rerun with the same
inputs and seed reproduces every primary artifact byte for byte.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import anchor_index, graph, ingest, labeling
from .features import (
    FeatureContext,
    QueryRecord,
    candidate_docs,
    deserialize_vectors,
    extract_features,
    group_by_query,
    load_entity_types,
    load_queries,
    load_wiki_citations,
    load_word_table,
    per_query_evidence_summary,
    serialize_vectors,
)
from .forest import (
    BASELINES,
    ForestParams,
    baseline_score,
    cross_validate,
    read_forest,
    write_forest,
)
from .metrics import (
    RankedRun,
    average_precision,
    ndcg_at_k,
    paired_significance,
    precision_at_k,
)
from .urls import SuffixTable, UrlError, domain_of, normalize

__all__ = [
    "ConfigError",
    "MissingStageError",
    "StageDataError",
    "RunConfig",
    "CONFIG_KEYS",
    "load_config",
    "run_stage",
    "STAGE_ORDER",
]

STAGE_ORDER = (
    "ingest",
    "graph",
    "index",
    "stats",
    "features",
    "label",
    "train",
    "rank",
    "eval",
)

# stage -> artifacts it consumes, tagged with the stage that produces them
_REQUIRES: dict[str, tuple[tuple[str, str], ...]] = {
    "ingest": (),
    "graph": (("ingest", "links.tsv"),),
    "index": (("ingest", "links.tsv"), ("ingest", "revisions.tsv")),
    "stats": (
        ("ingest", "links.tsv"),
        ("ingest", "revisions.tsv"),
        ("index", "docs.tsv"),
    ),
    "features": (
        ("ingest", "revisions.tsv"),
        ("ingest", "links.tsv"),
        ("graph", "page_rank.tsv"),
        ("index", "docs.tsv"),
    ),
    "label": (("features", "features.txt"),),
    "train": (
        ("features", "features.txt"),
        ("label", "labels.tsv"),
        ("label", "sample.tsv"),
    ),
    "rank": (
        ("train", "forest.txt"),
        ("features", "features.txt"),
        ("label", "labels.tsv"),
        ("label", "sample.tsv"),
        ("index", "docs.tsv"),
    ),
    "eval": (("rank", "runs.tsv"), ("label", "labels.tsv")),
}

_ARCHIVE_SUFFIXES = (".warc", ".warc.gz", ".arc", ".arc.gz")
SYSTEMS = BASELINES + ("rf",)

# Every key a stage reads; any other key in a config is rejected, so a
# misspelt key cannot silently leave its default in place.
CONFIG_KEYS = frozenset(
    {
        "seed",
        *(
            f"paths.{name}"
            for name in (
                "archives", "suffixes", "queries", "wiki_citations", "entity_types",
                "news_domains", "search_words", "serp_dir", "judgments",
            )
        ),
        "pagerank.damping",
        "pagerank.tolerance",
        "pagerank.max_iterations",
        "bm25.k1",
        "bm25.b",
        "rf.num_trees",
        "rf.bootstrap_fraction",
        "rf.folds",
        "rf.grid.min_leaf",
        "rf.grid.features_per_split",
        "sample.per_partition_min",
        "sample.per_partition_max",
        "stats.top_n_domains",
        "stats.group_by_year",
        "index.strategy",
        "label.strategy",
    }
)
# enumerated config keys -> accepted values, the default first
_CHOICES = {"index.strategy": ingest.STRATEGIES, "label.strategy": ("soft", "manual")}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


class ConfigError(ValueError):
    """Configuration or sequencing problem; maps to exit status 1."""


class MissingStageError(ConfigError):
    """An upstream artifact is absent; names the stage that produces it."""

    def __init__(self, stage: str, artifact: str):
        super().__init__(f"missing artifact {artifact!r}: run stage '{stage}' first")
        self.stage = stage


class StageDataError(RuntimeError):
    """Data-level failure inside a stage; maps to exit status 2."""


@dataclass
class RunConfig:
    values: dict[str, str]
    base_dir: Path

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        raw = self.get(key)
        try:
            return int(raw) if raw is not None else default
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc

    def get_float(self, key: str, default: float) -> float:
        raw = self.get(key)
        try:
            return float(raw) if raw is not None else default
        except ValueError as exc:
            raise ConfigError(f"{key} must be a number, got {raw!r}") from exc

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self.get(key)
        if raw is None:
            return default
        if raw.strip().lower() not in _TRUE + _FALSE:
            raise ConfigError(f"{key} must be one of {', '.join(_TRUE + _FALSE)}, got {raw!r}")
        return raw.strip().lower() in _TRUE

    def get_choice(self, key: str) -> str:
        """Value of an enumerated key of ``_CHOICES``, or its default."""
        raw = self.get(key, _CHOICES[key][0])
        if raw not in _CHOICES[key]:
            raise ConfigError(f"{key} must be one of {', '.join(_CHOICES[key])}, got {raw!r}")
        return raw

    def path(self, key: str) -> Path | None:
        raw = self.get(key)
        if raw is None or not raw.strip():
            return None
        p = Path(raw)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def seed(self) -> int:
        return self.get_int("seed", 0)

    def canonical_text(self) -> str:
        return "".join(f"{k}={self.values[k]}\n" for k in sorted(self.values))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    def archive_files(self) -> list[Path]:
        raw = self.get("paths.archives", "")
        files: list[Path] = []
        for entry in raw.split(","):
            entry = entry.strip()
            if not entry:
                continue
            p = Path(entry)
            p = p if p.is_absolute() else self.base_dir / p
            if p.is_dir():
                files.extend(
                    sorted(c for c in p.iterdir() if c.name.endswith(_ARCHIVE_SUFFIXES))
                )
            else:
                files.append(p)
        return files

    def validate_keys(self) -> None:
        unknown = sorted(set(self.values) - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    def validate_paths(self) -> None:
        for key, raw in sorted(self.values.items()):
            if not key.startswith("paths.") or not raw.strip():
                continue
            if key == "paths.archives":
                files = self.archive_files()
                if not files:
                    raise ConfigError("paths.archives matches no archive files")
                missing = [str(f) for f in files if not f.exists()]
            else:
                p = self.path(key)
                missing = [str(p)] if p is not None and not p.exists() else []
            if missing:
                raise ConfigError(f"{key} refers to missing path(s): {', '.join(missing)}")


def load_config(path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    if seed_override is not None:
        values["seed"] = str(seed_override)
    return RunConfig(values, path.parent.resolve())


def derive_seed(master: int, salt: str) -> int:
    digest = hashlib.sha256(f"{master}:{salt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _atomic_write(path: Path, writer) -> None:
    """Write through ``<name>.tmp`` and rename; a failed write leaves
    neither a partial file nor the temporary behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _append_manifest(run_dir: Path, entry: dict) -> None:
    path = run_dir / "manifest.json"
    data = {"stages": []}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data["stages"].append(entry)
    _atomic_write(path, lambda fh: fh.write(json.dumps(data, indent=2) + "\n"))


def _check_requirements(stage: str, run_dir: Path) -> dict[str, str]:
    digests = {}
    for producer, artifact in _REQUIRES[stage]:
        path = run_dir / artifact
        if not path.exists():
            raise MissingStageError(producer, artifact)
        digests[artifact] = _sha256_file(path)
    return digests


def run_stage(stage: str, cfg: RunConfig, run_dir) -> dict[str, int]:
    """Execute one pipeline stage; returns its output row counts.

    Raises :class:`ConfigError` (exit 1) for validation and sequencing
    problems and :class:`StageDataError` (exit 2) for data-level failures.
    """
    if stage not in STAGE_ORDER:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {', '.join(STAGE_ORDER)}")
    wall0, cpu0 = time.perf_counter(), time.process_time()
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg.validate_keys()
    cfg.validate_paths()
    for key in _CHOICES:
        cfg.get_choice(key)
    input_digests = _check_requirements(stage, run_dir)
    seed = derive_seed(cfg.seed, stage)
    handler = _STAGES[stage]
    try:
        counts = handler(cfg, run_dir, seed)
    except (ConfigError, StageDataError):
        raise
    except (ValueError, KeyError, OSError) as exc:
        raise StageDataError(f"stage {stage}: {exc}") from exc
    _append_manifest(
        run_dir,
        {
            "stage": stage,
            "seed": seed,
            "config_hash": cfg.config_hash(),
            "inputs": input_digests,
            "row_counts": counts,
            # this process only: wall and CPU time of the stage, peak RSS
            # since the process started (ru_maxrss, kilobytes on Linux)
            "wall_s": round(time.perf_counter() - wall0, 6),
            "cpu_s": round(time.process_time() - cpu0, 6),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        },
    )
    return counts


# ---------------------------------------------------------------------------
# shared loaders


def _suffix_table(cfg: RunConfig) -> SuffixTable:
    path = cfg.path("paths.suffixes")
    return SuffixTable.from_file(path) if path else SuffixTable()


def _read_revisions(run_dir: Path) -> list[ingest.RevisionRecord]:
    with open(run_dir / "revisions.tsv", encoding="utf-8") as fh:
        return list(ingest.read_revisions_tsv(fh))


def _read_links(run_dir: Path) -> list[ingest.LinkRecord]:
    with open(run_dir / "links.tsv", encoding="utf-8") as fh:
        return list(ingest.read_links_tsv(fh))


def _read_index(run_dir: Path):
    with open(run_dir / "docs.tsv", encoding="utf-8") as docs, open(
        run_dir / "postings.tsv", encoding="utf-8"
    ) as postings, open(run_dir / "instances.tsv", encoding="utf-8") as instances:
        return anchor_index.read_index(docs, postings, instances)


def _rank_map(run_dir: Path, nodes_name: str, ranks_name: str) -> dict[str, float]:
    """Score by node name; empty while the graph stage has not run."""
    try:
        with open(run_dir / nodes_name, encoding="utf-8") as nodes, open(
            run_dir / ranks_name, encoding="utf-8"
        ) as ranks:
            return graph.read_rank_map(nodes, ranks)
    except FileNotFoundError:
        return {}


def _load_queries(cfg: RunConfig) -> list[QueryRecord]:
    qpath = cfg.path("paths.queries")
    if qpath is None:
        raise ConfigError("paths.queries is required for this stage")
    cit_path = cfg.path("paths.wiki_citations")
    citations = load_wiki_citations(cit_path) if cit_path else {}
    queries = [q for q in load_queries(qpath, citations) if q.valid]
    types_path = cfg.path("paths.entity_types")
    if types_path is not None:
        allowed = set(load_entity_types(types_path))
        outside = sorted({q.entity_type for q in queries} - allowed)
        if outside:
            raise StageDataError(f"query entity types outside the configured list: {outside}")
    if not queries:
        raise StageDataError("no valid queries in the query table")
    return sorted(queries, key=lambda q: q.query_id)


def _build_context(cfg: RunConfig, run_dir: Path, links: list[ingest.LinkRecord]) -> FeatureContext:
    revisions = _read_revisions(run_dir)
    surrogates, stats = _read_index(run_dir)
    news_path = cfg.path("paths.news_domains")
    words_path = cfg.path("paths.search_words")
    return FeatureContext.build(
        revisions,
        links,
        surrogates,
        stats,
        page_rank=_rank_map(run_dir, "nodes.tsv", "page_rank.tsv"),
        domain_rank=_rank_map(run_dir, "domain_nodes.tsv", "domain_rank.tsv"),
        news_domains=load_word_table(news_path) if news_path else (),
        search_words=load_word_table(words_path) if words_path else None,
        inlink_dedup=cfg.get_choice("index.strategy"),
        bm25_k1=cfg.get_float("bm25.k1", 1.2),
        bm25_b=cfg.get_float("bm25.b", 0.75),
    )


# ---------------------------------------------------------------------------
# stages


def _stage_ingest(cfg: RunConfig, run_dir: Path, seed: int) -> dict[str, int]:
    suffixes = _suffix_table(cfg)
    files = cfg.archive_files()
    revisions: list[ingest.RevisionRecord] = []
    links: list[ingest.LinkRecord] = []
    counters = ("emitted", "skipped", "corrupt", "non_2xx", "decode_failed", "bad_url", "truncated_anchors")
    totals = dict.fromkeys(counters, 0)
    resolver = ingest.HrefResolver()
    for path in files:
        stats = ingest.ParseStats()
        parser = ingest.parse_arc_stream if ".arc" in path.name else ingest.parse_warc_stream
        with open(path, "rb") as fh:
            for record in parser(fh, stats):
                status = record.http_status
                if status is not None and not 200 <= status < 300:
                    totals["non_2xx"] += 1
                    continue
                try:
                    revision = ingest.revision_from_record(record, suffixes)
                except UrlError:
                    totals["bad_url"] += 1
                    continue
                revisions.append(revision)
                if "html" in record.mime_type or not record.mime_type:
                    extraction = ingest.extract_links(
                        record.payload, record.target_uri, record.capture_time, resolver
                    )
                    totals["decode_failed"] += extraction.decode_failed
                    totals["truncated_anchors"] += extraction.truncated_anchors
                    links.extend(extraction.links)
        totals["emitted"] += stats.emitted
        totals["skipped"] += stats.skipped
        totals["corrupt"] += stats.corrupt
    revisions.sort(key=lambda r: (r.core_url, r.capture_time, r.full_url))
    links.sort(key=lambda l: (l.source_full_url, l.source_capture_time, l.target_url, l.tag_pattern, l.anchor_text))
    _atomic_write(run_dir / "revisions.tsv", lambda fh: ingest.write_revisions_tsv(revisions, fh))
    _atomic_write(run_dir / "links.tsv", lambda fh: ingest.write_links_tsv(links, fh))
    return {"revisions": len(revisions), "links": len(links), **totals}


def _stage_graph(cfg: RunConfig, run_dir: Path, seed: int) -> dict[str, int]:
    suffixes = _suffix_table(cfg)
    page = graph.build_page_graph(_read_links(run_dir))
    if page.node_count == 0:
        raise StageDataError("no content links: the page graph is empty")
    domain = graph.project_domain_graph(
        page, lambda name: domain_of(normalize(name), suffixes)
    )
    damping = cfg.get_float("pagerank.damping", 0.85)
    tolerance = cfg.get_float("pagerank.tolerance", 1e-9)
    max_iter = cfg.get_int("pagerank.max_iterations", 100)
    page_rank = graph.pagerank(page, damping, tolerance, max_iter)
    domain_rank = graph.pagerank(domain, damping, tolerance, max_iter)

    def write_pair(g: graph.Graph, rv: graph.RankVector, names: tuple[str, str, str]) -> None:
        graph_buf, nodes_buf = io.StringIO(), io.StringIO()
        graph.write_graph(g, graph_buf, nodes_buf)
        _atomic_write(run_dir / names[0], lambda fh: fh.write(graph_buf.getvalue()))
        _atomic_write(run_dir / names[1], lambda fh: fh.write(nodes_buf.getvalue()))
        _atomic_write(run_dir / names[2], lambda fh: graph.write_ranks(rv, fh))

    write_pair(page, page_rank, ("graph.tsv", "nodes.tsv", "page_rank.tsv"))
    write_pair(domain, domain_rank, ("domain_graph.tsv", "domain_nodes.tsv", "domain_rank.tsv"))
    return {
        "page_nodes": page.node_count,
        "page_edges": page.edge_count,
        "domain_nodes": domain.node_count,
        "domain_edges": domain.edge_count,
        "page_iterations": page_rank.iterations_run,
        "domain_iterations": domain_rank.iterations_run,
    }


def _stage_index(cfg: RunConfig, run_dir: Path, seed: int) -> dict[str, int]:
    surrogates = anchor_index.build_surrogates(
        _read_links(run_dir), _read_revisions(run_dir), cfg.get_choice("index.strategy")
    )
    docs_buf, postings_buf, instances_buf = io.StringIO(), io.StringIO(), io.StringIO()
    anchor_index.write_index(surrogates, docs_buf, postings_buf, instances_buf)
    _atomic_write(run_dir / "docs.tsv", lambda fh: fh.write(docs_buf.getvalue()))
    _atomic_write(run_dir / "postings.tsv", lambda fh: fh.write(postings_buf.getvalue()))
    _atomic_write(run_dir / "instances.tsv", lambda fh: fh.write(instances_buf.getvalue()))
    stats = anchor_index.build_stats(surrogates)
    return {
        "indexed_docs": stats.num_docs,
        "terms": len(stats.doc_freq),
        "instances": sum(len(d.anchor_instances) for d in surrogates.values()),
        "truncated_tokens": sum(d.truncated_tokens for d in surrogates.values()),
    }


def _stage_stats(cfg: RunConfig, run_dir: Path, seed: int) -> dict[str, int]:
    suffixes = _suffix_table(cfg)
    links = _read_links(run_dir)
    top_n = cfg.get_int("stats.top_n_domains", 0) or None
    rows = anchor_index.anchor_distribution(links, False, top_n, suffixes)
    if cfg.get_bool("stats.group_by_year", True):
        rows += anchor_index.anchor_distribution(links, True, top_n, suffixes)

    def write_dist(fh):
        fh.write("year,k,count\n")
        for year, k, count in rows:
            fh.write(f"{year},{k},{count}\n")

    _atomic_write(run_dir / "anchor_dist.csv", write_dist)

    ctx = _build_context(cfg, run_dir, links)
    queries = _load_queries(cfg)
    serp_dir = cfg.path("paths.serp_dir")
    snapshots = labeling.load_snapshots(serp_dir) if serp_dir else {}
    summary_rows: list[str] = []
    for q in queries:
        result_sets = {"A": candidate_docs(q, ctx)}
        if q.query_id in snapshots:
            merged = labeling.merge_snapshots(snapshots[q.query_id])
            result_sets["B"] = sorted(labeling.intersect_with_index(merged, result_sets["A"]))
        for set_name in sorted(result_sets):
            docs = result_sets[set_name]
            if not docs:
                continue
            for evidence in ("url_depth", "revision_count", "anchor_query_freq"):
                s = per_query_evidence_summary(docs, evidence, ctx, q)
                summary_rows.append(
                    f"{q.query_id},{set_name},{evidence},{s.mean!r},{s.median!r},{s.q1!r},{s.q3!r}\n"
                )

    def write_summary(fh):
        fh.write("query_id,result_set,evidence,mean,median,q1,q3\n")
        fh.writelines(summary_rows)

    _atomic_write(run_dir / "evidence_summary.csv", write_summary)
    return {"distribution_rows": len(rows), "evidence_rows": len(summary_rows)}


def _stage_features(cfg: RunConfig, run_dir: Path, seed: int) -> dict[str, int]:
    ctx = _build_context(cfg, run_dir, _read_links(run_dir))
    queries = _load_queries(cfg)
    vectors = []
    for q in queries:
        for doc_id in candidate_docs(q, ctx):
            vectors.append(extract_features(q, doc_id, ctx))
    if not vectors:
        raise StageDataError("no (query, document) candidates to featurize")
    _atomic_write(run_dir / "features.txt", lambda fh: serialize_vectors(vectors, fh))
    return {"vectors": len(vectors), "queries": len(queries)}


def _read_vectors(run_dir: Path):
    with open(run_dir / "features.txt", encoding="utf-8") as fh:
        return list(deserialize_vectors(fh))


def _stage_label(cfg: RunConfig, run_dir: Path, seed: int) -> dict[str, int]:
    vectors = _read_vectors(run_dir)
    grouped = group_by_query(vectors)
    serp_dir = cfg.path("paths.serp_dir")
    snapshots = labeling.load_snapshots(serp_dir) if serp_dir else {}
    lo = cfg.get_int("sample.per_partition_min", 20)
    hi = cfg.get_int("sample.per_partition_max", 50)

    judgments_path = cfg.path("paths.judgments")
    manual: dict[tuple[int, str], float] = {}
    kappa_report: dict | None = None
    if judgments_path:
        rows = labeling.load_judgments(judgments_path)
        by_assessor: dict[str, dict[tuple[int, str], int]] = {}
        grades: dict[tuple[int, str], list[int]] = {}
        for j in rows:
            by_assessor.setdefault(j.assessor_id, {})[(j.query_id, j.doc_id)] = j.grade
            grades.setdefault((j.query_id, j.doc_id), []).append(j.grade)
        manual = {key: float(np.mean(vals)) for key, vals in grades.items()}
        kappas = labeling.pairwise_kappas(by_assessor)  # pairs with no common item left out
        if kappas:
            kappa_report = {
                "average_pairwise_kappa": float(np.mean(list(kappas.values()))),
                "pairs": {f"{left}|{right}": k for (left, right), k in kappas.items()},
                "assessors": sorted(by_assessor),
            }

    label_lines: list[str] = []
    sample_lines: list[str] = []
    for qid in sorted(grouped):
        vecs = sorted(grouped[qid], key=lambda v: v.doc_id)
        docs = [v.doc_id for v in vecs]
        matrix = np.array([v.values for v in vecs], dtype=np.float64)
        merged = labeling.merge_snapshots(snapshots.get(qid, []))
        dataset_b = labeling.intersect_with_index(merged, docs)
        sample = labeling.stratified_sample(
            docs, matrix, (lo, hi), derive_seed(seed, f"query:{qid}")
        )
        pool = labeling.pool_with_positives(sample, dataset_b)
        for doc in docs:
            soft = labeling.soft_label(doc, merged)
            man = manual.get((qid, doc))
            man_s = repr(man) if man is not None else "-"
            label_lines.append(f"{qid}\t{doc}\t{soft!r}\t{man_s}\n")
        for doc, provenance in pool.items():
            sample_lines.append(f"{qid}\t{doc}\t{provenance}\n")

    _atomic_write(run_dir / "labels.tsv", lambda fh: fh.writelines(label_lines))
    _atomic_write(run_dir / "sample.tsv", lambda fh: fh.writelines(sample_lines))
    if kappa_report is not None:
        _atomic_write(
            run_dir / "kappa_report.json",
            lambda fh: fh.write(json.dumps(kappa_report, indent=2, sort_keys=True) + "\n"),
        )
    return {"labels": len(label_lines), "pooled": len(sample_lines)}


def _read_labels(run_dir: Path) -> dict[tuple[int, str], tuple[float, float | None]]:
    out: dict[tuple[int, str], tuple[float, float | None]] = {}
    with open(run_dir / "labels.tsv", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            qid, doc, soft, man = line.split("\t")
            out[(int(qid), doc)] = (float(soft), None if man == "-" else float(man))
    return out


def _read_pool(run_dir: Path) -> dict[int, list[str]]:
    pool: dict[int, list[str]] = {}
    with open(run_dir / "sample.tsv", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            qid, doc, _prov = line.split("\t")
            pool.setdefault(int(qid), []).append(doc)
    return pool


def _label_for(cfg: RunConfig, labels, qid: int, doc: str) -> float | None:
    soft, man = labels.get((qid, doc), (0.0, None))
    if cfg.get_choice("label.strategy") == "manual":
        return man
    return soft


def _stage_train(cfg: RunConfig, run_dir: Path, seed: int) -> dict[str, int]:
    vectors = _read_vectors(run_dir)
    labels = _read_labels(run_dir)
    pooled_docs = {qid: set(docs) for qid, docs in _read_pool(run_dir).items()}
    training = []
    for vec in vectors:
        if vec.doc_id not in pooled_docs.get(vec.query_id, ()):
            continue
        label = _label_for(cfg, labels, vec.query_id, vec.doc_id)
        if label is None:
            continue
        training.append(replace(vec, label=label))
    if not training:
        raise StageDataError("no labeled training examples in the pool")
    base = ForestParams(
        num_trees=cfg.get_int("rf.num_trees", 300),
        bootstrap_fraction=cfg.get_float("rf.bootstrap_fraction", 1.0),
        seed=seed,
    )
    min_leaf_grid = [int(v) for v in cfg.get("rf.grid.min_leaf", "1,5").split(",") if v]
    fps_grid = [v.strip() for v in cfg.get("rf.grid.features_per_split", "sqrt,third").split(",") if v]
    grid = [
        replace(base, min_leaf=ml, features_per_split=fps)
        for ml in min_leaf_grid
        for fps in fps_grid
    ]
    forest, report = cross_validate(
        training, grid, k_folds=cfg.get_int("rf.folds", 5), seed=seed
    )
    _atomic_write(run_dir / "forest.txt", lambda fh: write_forest(forest, fh))
    _atomic_write(
        run_dir / "cv_report.json",
        lambda fh: fh.write(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"),
    )
    return {"training_examples": len(training), "trees": forest.params.num_trees}


def _stage_rank(cfg: RunConfig, run_dir: Path, seed: int) -> dict[str, int]:
    with open(run_dir / "forest.txt", encoding="utf-8") as fh:
        forest = read_forest(fh)
    vectors = {(v.query_id, v.doc_id): v for v in _read_vectors(run_dir)}
    pool = _read_pool(run_dir)
    # The baselines read only the surrogates, the index statistics,
    # page_rank and url_tokens, so no link or domain evidence is loaded.
    surrogates, stats = _read_index(run_dir)
    ctx = FeatureContext.build(
        _read_revisions(run_dir),
        (),
        surrogates,
        stats,
        page_rank=_rank_map(run_dir, "nodes.tsv", "page_rank.tsv"),
        bm25_k1=cfg.get_float("bm25.k1", 1.2),
        bm25_b=cfg.get_float("bm25.b", 0.75),
    )
    queries = {q.query_id: q for q in _load_queries(cfg)}
    pooled = [
        vectors[(qid, doc)]
        for qid in sorted(pool)
        if qid in queries
        for doc in pool[qid]
        if (qid, doc) in vectors
    ]
    rf_scores: dict[tuple[int, str], float] = {}
    if pooled:
        predicted = forest.predict_matrix([v.values for v in pooled]).tolist()
        rf_scores = {(v.query_id, v.doc_id): score for v, score in zip(pooled, predicted)}
    lines: list[str] = []
    rows = 0
    for system in SYSTEMS:
        for qid in sorted(pool):
            query = queries.get(qid)
            if query is None:
                continue
            scores: dict[str, float] = {}
            for doc in pool[qid]:
                vec = vectors.get((qid, doc))
                if vec is None:
                    continue
                if system == "rf":
                    scores[doc] = rf_scores[(qid, doc)]
                else:
                    scores[doc] = baseline_score(system, query, doc, ctx)
            ordered = sorted(scores, key=lambda d: (-scores[d], d))
            for rank, doc in enumerate(ordered, start=1):
                lines.append(f"{system}\t{qid}\t{doc}\t{scores[doc]!r}\t{rank}\n")
                rows += 1
    _atomic_write(run_dir / "runs.tsv", lambda fh: fh.writelines(lines))
    return {"run_rows": rows, "systems": len(SYSTEMS)}


def _stage_eval(cfg: RunConfig, run_dir: Path, seed: int) -> dict[str, int]:
    labels = _read_labels(run_dir)
    runs: dict[str, dict[int, list[tuple[str, float, int]]]] = {}
    with open(run_dir / "runs.tsv", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            system, qid_s, doc, score, rank = line.split("\t")
            runs.setdefault(system, {}).setdefault(int(qid_s), []).append(
                (doc, float(score), int(rank))
            )
    per_system: dict[str, dict[str, list[float]]] = {}
    qids: list[int] = sorted({qid for by_q in runs.values() for qid in by_q})
    for system in SYSTEMS:
        by_query = runs.get(system, {})
        metrics: dict[str, list[float]] = {"P@1": [], "P@10": [], "NDCG@10": [], "AP": []}
        for qid in qids:
            entries = sorted(by_query.get(qid, []), key=lambda e: e[2])
            run = RankedRun(
                qid,
                tuple(doc for doc, _s, _r in entries),
                {
                    doc: (_label_for(cfg, labels, qid, doc) or 0.0)
                    for doc, _s, _r in entries
                },
            )
            metrics["P@1"].append(precision_at_k(run, 1))
            metrics["P@10"].append(precision_at_k(run, 10))
            metrics["NDCG@10"].append(ndcg_at_k(run, 10))
            metrics["AP"].append(average_precision(run))
        per_system[system] = metrics

    def write_eval(fh):
        fh.write("system,P@1,P@10,NDCG@10,MAP\n")
        for system in SYSTEMS:
            m = per_system[system]
            fh.write(
                f"{system},{float(np.mean(m['P@1']))!r},{float(np.mean(m['P@10']))!r},"
                f"{float(np.mean(m['NDCG@10']))!r},{float(np.mean(m['AP']))!r}\n"
            )

    _atomic_write(run_dir / "eval.csv", write_eval)

    def write_sig(fh):
        fh.write("system_a,system_b,metric,t_statistic,p_value\n")
        for i, a in enumerate(SYSTEMS):
            for b in SYSTEMS[i + 1:]:
                for metric in ("P@1", "P@10", "NDCG@10", "AP"):
                    test = paired_significance(per_system[a][metric], per_system[b][metric])
                    fh.write(f"{a},{b},{metric},{test.t_statistic!r},{test.p_value!r}\n")

    _atomic_write(run_dir / "sig.csv", write_sig)
    return {"systems": len(SYSTEMS), "queries": len(qids)}


_STAGES = {
    "ingest": _stage_ingest,
    "graph": _stage_graph,
    "index": _stage_index,
    "stats": _stage_stats,
    "features": _stage_features,
    "label": _stage_label,
    "train": _stage_train,
    "rank": _stage_rank,
    "eval": _stage_eval,
}
