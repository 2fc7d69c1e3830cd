"""Run-directory pipeline: nine stages from raw containers to the
evaluation report, driven by a flat key=value config.

One table, ``_STAGES``, declares each stage's handler and the artifacts
it reads and writes. ``run_stage`` checks that every input exists and,
outside the index, holds a row. It hands the handler an :class:`_Outputs`
that has opened ``<name>.tmp`` for every declared output, as ``out[name]``;
the handler writes into them and returns its row counts. ``run_stage``
then writes the ``manifest.json`` entry (derived seed, config hash, input
digests and row counts) the same way and renames every temporary into
place, the manifest last, so no output is replaced until every output
and the manifest entry are written. All randomness flows from the
single config seed through stage-name-salted derivation, so a rerun with
the same inputs and seed reproduces every primary artifact byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time
from collections.abc import Iterator
from contextlib import suppress
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from . import anchor_index, graph, ingest, labeling, tables
from .features import (
    FEATURE_NAMES,
    FeatureContext,
    FeatureVector,
    QueryRecord,
    candidate_docs,
    deserialize_vectors,
    extract_features,
    group_by_query,
    in_url_scope,
    load_entity_types,
    load_queries,
    load_wiki_citations,
    load_word_table,
    per_query_evidence_summary,
    serialize_vectors,
)
from .forest import ForestParams, cross_validate, read_forest, write_forest
from .metrics import (
    RankedRun,
    average_precision,
    ndcg_at_k,
    paired_significance,
    precision_at_k,
)
from .urls import SuffixTable, UrlError, normalize, tokenize_url

__all__ = [
    "ConfigError",
    "MissingStageError",
    "StageDataError",
    "RunConfig",
    "SETTINGS",
    "load_config",
    "run_stage",
    "STAGE_ORDER",
    "derive_seed",
]

_ARCHIVE_SUFFIXES = (".warc", ".warc.gz", ".arc", ".arc.gz")
# the learned ranker and the paper's single-evidence baselines
SYSTEMS = ("bm25", "pagerank", "query_in_url", "rf")

_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


# Parsers of config values. Each returns the value or raises ValueError
# with the rule the text broke; RunConfig names the key.
def _number(kind: type, rule: str, ok=lambda value: True):
    """An int or a finite float that satisfies ``ok``; nan fails every bound."""

    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            value = None
        if value is None or (kind is float and not math.isfinite(value)) or not ok(value):
            raise ValueError(f"must be {rule}, got {raw!r}")
        return value

    return parse


def _one_of(*values: str, rule: str = ""):
    def parse(raw: str) -> str:
        if raw not in values:
            raise ValueError(f"must be {rule or 'one of ' + ', '.join(values)}, got {raw!r}")
        return raw

    return parse


def _comma_list(entry):
    """Comma-separated entries, blanks skipped, each parsed by ``entry``;
    at least one."""

    def parse(raw: str) -> list:
        entries = [e.strip() for e in raw.split(",") if e.strip()]
        if not entries:
            raise ValueError(f"must list at least one value, got {raw!r}")
        return [entry(e) for e in entries]

    return parse


def _yes_no(raw: str) -> bool:
    word = raw.strip().lower()
    if word not in _TRUE + _FALSE:
        raise ValueError(f"must be one of {', '.join(_TRUE + _FALSE)}, got {raw!r}")
    return word in _TRUE


def _int_at_least(low: int):
    return _number(int, f"an integer of at least {low}", lambda v: v >= low)


_PATH_KEYS = (
    "archives", "suffixes", "queries", "wiki_citations", "entity_types",
    "news_domains", "search_words", "serp_dir", "judgments",
)
_FEATURES_PER_SPLIT = _one_of(
    "sqrt", "third", *map(str, range(1, len(FEATURE_NAMES) + 1)),
    rule=f"sqrt, third or an integer from 1 to {len(FEATURE_NAMES)}",
)

# Every config key -> (parser, default text). Any other key is rejected, so
# a misspelt key cannot silently leave its default in place. ``paths.*``
# values stay raw text: they are resolved and checked when a stage runs.
SETTINGS = {
    "seed": (_number(int, "an integer"), "0"),
    **{f"paths.{name}": (str, "") for name in _PATH_KEYS},
    "pagerank.damping": (_number(float, "a number strictly between 0 and 1", lambda v: 0 < v < 1), "0.85"),
    "pagerank.tolerance": (_number(float, "a number greater than 0", lambda v: v > 0), "1e-9"),
    "pagerank.max_iterations": (_int_at_least(1), "100"),
    "bm25.k1": (_number(float, "a number of at least 0", lambda v: v >= 0), "1.2"),
    "bm25.b": (_number(float, "a number from 0 to 1", lambda v: 0 <= v <= 1), "0.75"),
    "rf.num_trees": (_int_at_least(1), "300"),
    "rf.bootstrap_fraction": (_number(float, "a number greater than 0", lambda v: v > 0), "1.0"),
    "rf.folds": (_int_at_least(2), "5"),
    "rf.grid.min_leaf": (_comma_list(_int_at_least(1)), "1,5"),
    # entries stay the text written ("3"), as cv_report.json records them
    "rf.grid.features_per_split": (_comma_list(_FEATURES_PER_SPLIT), "sqrt,third"),
    "sample.per_partition_min": (_int_at_least(1), "20"),
    "sample.per_partition_max": (_int_at_least(1), "50"),
    "stats.top_n_domains": (_int_at_least(0), "0"),
    "stats.group_by_year": (_yes_no, "true"),
    "index.strategy": (_one_of(*ingest.STRATEGIES), ingest.STRATEGIES[0]),
    "label.strategy": (_one_of("soft", "manual"), "soft"),
}


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
    """The raw ``values`` of a config, parsed and checked whole on
    construction; ``cfg[key]`` is the parsed value or the key's default."""

    values: dict[str, str]
    base_dir: Path
    parsed: dict[str, object] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        unknown = sorted(set(self.values) - set(SETTINGS))
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        self.parsed = {}
        for key, (parse, default) in SETTINGS.items():
            try:
                self.parsed[key] = parse(self.values.get(key, default))
            except ValueError as exc:
                raise ConfigError(f"{key} {exc}") from None
        lo, hi = self["sample.per_partition_min"], self["sample.per_partition_max"]
        if lo > hi:
            raise ConfigError(
                f"sample.per_partition_min ({lo}) must not exceed sample.per_partition_max ({hi})"
            )

    def __getitem__(self, key: str):
        return self.parsed[key]

    def path(self, key: str) -> Path | None:
        raw = self[key]
        return self.base_dir / raw if raw.strip() else None  # an absolute raw replaces base_dir

    @property
    def seed(self) -> int:
        return self["seed"]

    def canonical_text(self) -> str:
        return "".join(f"{k}={self.values[k]}\n" for k in sorted(self.values))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    def archive_files(self) -> list[Path]:
        raw = self["paths.archives"]
        files: list[Path] = []
        for entry in raw.split(","):
            entry = entry.strip()
            if not entry:
                continue
            p = self.base_dir / entry
            if p.is_dir():
                files.extend(
                    sorted(c for c in p.iterdir() if c.name.endswith(_ARCHIVE_SUFFIXES))
                )
            else:
                files.append(p)
        return files

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
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{path}: key {key} set on line {first_line[key]} and again on line {line_no}")
        first_line[key] = line_no
        values[key] = value
    if seed_override is not None:
        values["seed"] = str(seed_override)
    return RunConfig(values, path.parent.resolve())


def derive_seed(master: int, salt: str) -> int:
    digest = hashlib.sha256(f"{master}:{salt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _peak_rss_kb() -> int:
    """This process's peak resident set size in kilobytes: ``VmHWM`` where
    ``/proc`` has it, else ``ru_maxrss``, which Linux carries across
    ``execve`` from the process that started this one."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _Outputs:
    """The outputs of one run of a stage, each written into ``<name>.tmp``
    in the run directory. Entering the ``with`` block opens every temporary
    (UTF-8, ``\n`` line ends); ``out[name]`` is that of a declared output.
    :meth:`commit` renames them all into place; leaving the block by an
    exception removes them instead."""

    def __init__(self, stage: str, run_dir: Path, writes: tuple[str, ...]) -> None:
        self.stage, self.run_dir, self.writes = stage, run_dir, writes
        self.temps = {name: run_dir / f"{name}.tmp" for name in (*writes, "manifest.json")}  # the manifest last
        self.files: dict[str, TextIO] = {}

    def __getitem__(self, name: str) -> TextIO:
        if name not in self.writes:
            raise RuntimeError(f"stage {self.stage} writes {name!r}, which _STAGES does not declare")
        return self.files[name]

    def commit(self, manifest: dict) -> None:
        """Write ``manifest``, close every file and rename each temporary
        into place."""
        self.files["manifest.json"].write(json.dumps(manifest, indent=2) + "\n")
        for fh in self.files.values():
            fh.close()
        for name, tmp in self.temps.items():
            os.replace(tmp, self.run_dir / name)

    def __enter__(self) -> _Outputs:
        try:
            for name, tmp in self.temps.items():
                self.files[name] = open(tmp, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            self.__exit__(OSError, exc, None)
            raise
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            return
        for fh in self.files.values():
            with suppress(OSError):  # a failed flush; the file is closed all the same
                fh.close()
        for tmp in self.temps.values():
            tmp.unlink(missing_ok=True)


# The index tables, the inputs a stage may read without a row: a crawl
# whose link targets were never archived has no surrogate to index, and
# anchor_index.read_index checks the three against each other.
_INDEX = ("docs.tsv", "postings.tsv", "instances.tsv")


def _read_manifest(run_dir: Path) -> dict:
    """The run's manifest, or an empty one; a file that is not a JSON object
    with a ``stages`` list is a :class:`StageDataError`."""
    path = run_dir / "manifest.json"
    if not path.exists():
        return {"stages": []}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise StageDataError(f"{path}: not a readable JSON manifest: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("stages"), list):
        raise StageDataError(f"{path}: not a manifest (expected an object with a 'stages' list)")
    return data


def _check_requirements(stage: str, reads: tuple[str, ...], run_dir: Path) -> dict[str, str]:
    """The SHA-256 digest of each input, read whole. A missing input is a
    :class:`MissingStageError`; one without a row (a byte other than a line
    end) outside ``_INDEX`` a :class:`StageDataError`. Both name the
    stage that writes it."""
    digests = {}
    for artifact in reads:
        path = run_dir / artifact
        producer = next(name for name, (_h, _r, writes) in _STAGES.items() if artifact in writes)
        if not path.exists():
            raise MissingStageError(producer, artifact)
        digest, has_row = hashlib.sha256(), False
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
                has_row = has_row or chunk.count(b"\n") < len(chunk)
        if not has_row and artifact not in _INDEX:
            raise StageDataError(
                f"stage {stage}: {path}: no rows: stage {producer!r} wrote none, or the file was emptied"
            )
        digests[artifact] = digest.hexdigest()
    return digests


def run_stage(stage: str, cfg: RunConfig, run_dir) -> dict[str, int]:
    """Execute one pipeline stage; returns its output row counts.

    Raises :class:`ConfigError` (exit 1) for validation and sequencing
    problems and :class:`StageDataError` (exit 2) for data-level failures.
    """
    if stage not in STAGE_ORDER:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {', '.join(STAGE_ORDER)}")
    wall0, cpu0 = time.perf_counter(), time.process_time()
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_dir = Path(run_dir)
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"run directory {run_dir} is not a directory") from None
    cfg.validate_paths()
    handler, reads, writes = _STAGES[stage]
    input_digests = _check_requirements(stage, reads, run_dir)
    manifest = _read_manifest(run_dir)
    seed = derive_seed(cfg.seed, stage)
    try:
        with _Outputs(stage, run_dir, writes) as out:
            counts = handler(cfg, run_dir, seed, out)
            manifest["stages"].append(
                {
                    "stage": stage,
                    "seed": seed,
                    "config_hash": cfg.config_hash(),
                    "inputs": input_digests,
                    "row_counts": counts,
                    # this process only: wall and CPU time and minor page
                    # faults of the stage, peak RSS since the process started
                    "wall_s": round(time.perf_counter() - wall0, 6),
                    "cpu_s": round(time.process_time() - cpu0, 6),
                    "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0,
                    "peak_rss_kb": _peak_rss_kb(),
                }
            )
            out.commit(manifest)
    except (ConfigError, StageDataError):
        raise
    except (ValueError, LookupError, OSError) as exc:
        raise StageDataError(f"stage {stage}: {exc}") from exc
    return counts


# ---------------------------------------------------------------------------
# shared loaders


def _suffix_table(cfg: RunConfig) -> SuffixTable:
    path = cfg.path("paths.suffixes")
    return SuffixTable.from_file(path) if path else SuffixTable()


def _query_table(cfg: RunConfig) -> tuple[list[QueryRecord], int]:
    """The valid queries by id, and how many were dropped as invalid (a
    comma or a round bracket in the text)."""
    qpath = cfg.path("paths.queries")
    if qpath is None:
        raise ConfigError("paths.queries is required for this stage")
    cit_path = cfg.path("paths.wiki_citations")
    citations = load_wiki_citations(cit_path) if cit_path else {}
    table = load_queries(qpath, citations)
    queries = [q for q in table if q.valid]
    types_path = cfg.path("paths.entity_types")
    if types_path is not None:
        allowed = set(load_entity_types(types_path))
        outside = sorted({q.entity_type for q in queries} - allowed)
        if outside:
            raise StageDataError(f"query entity types outside the configured list: {outside}")
    if not queries:
        raise StageDataError("no valid queries in the query table")
    return sorted(queries, key=lambda q: q.query_id), len(table) - len(queries)


def _build_context(cfg: RunConfig, run_dir: Path, tokens: set[str]) -> FeatureContext:
    """The feature context of the documents that hold one of the query
    ``tokens`` in their anchor terms or their URL: a superset of every
    query's candidates. The index statistics and the domain sizes are
    those of the whole archive; every row of the index and of
    ``revisions.tsv`` is still read and checked. ``revisions.tsv`` is read
    last, so that damage elsewhere is reported under its own file's name."""
    # the URL tokens of each docs.tsv id, for build to reuse; each distinct
    # token is held once
    url_tokens: dict[str, tuple[str, ...]] = {}
    token: dict[str, str] = {}

    def in_scope(doc_id: str) -> bool:
        url_tokens[doc_id] = tuple(token.setdefault(t, t) for t in tokenize_url(normalize(doc_id)))
        return in_url_scope(url_tokens[doc_id], tokens)

    surrogates, stats = tables.read(
        lambda *index: anchor_index.read_index(*index, terms=tokens, documents=in_scope),
        *(run_dir / name for name in _INDEX),
    )
    news_path = cfg.path("paths.news_domains")
    words_path = cfg.path("paths.search_words")
    context = dict(
        page_rank=tables.read(graph.read_rank_map, run_dir / "nodes.tsv", run_dir / "page_rank.tsv"),
        domain_rank=tables.read(graph.read_rank_map, run_dir / "domain_nodes.tsv", run_dir / "domain_rank.tsv"),
        news_domains=load_word_table(news_path) if news_path else (),
        search_words=load_word_table(words_path) if words_path else None,
    )
    return tables.read(
        lambda lines: FeatureContext.build(
            ingest.read_revisions_tsv(lines), surrogates, stats, tokens=tokens, _url_tokens=url_tokens, **context
        ),
        run_dir / "revisions.tsv",
    )


# ---------------------------------------------------------------------------
# stages: each writes its artifacts into ``out`` and returns its row counts


def _write_json(data, fh: TextIO) -> None:
    fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _stage_ingest(cfg: RunConfig, run_dir: Path, seed: int, out: _Outputs) -> dict[str, int]:
    """Each table is written once, into ``out``: revisions and links, each
    sorted by its record's fields in order. One pass over the sorted links
    writes both link tables, one (source full URL, capture time) group at a
    time: a group holds every key its content links' ``first`` flags
    depend on. Only the sorts' spills are anonymous."""
    stats = ingest.ParseStats()
    counts = dict.fromkeys(("links", "content_links", "non_2xx", "bad_url", "truncated_anchors"), 0)
    resolver = ingest.UrlResolver(_suffix_table(cfg))
    with tables.ExternalSort(run_dir) as revisions, tables.ExternalSort(run_dir) as links:
        for path in cfg.archive_files():
            is_arc = path.name.endswith((".arc", ".arc.gz"))
            parser = ingest.parse_arc_stream if is_arc else ingest.parse_warc_stream
            with open(path, "rb") as fh:
                for record in parser(fh, stats):
                    status = record.http_status
                    if status is not None and not 200 <= status < 300:
                        counts["non_2xx"] += 1
                        continue
                    try:
                        revisions.add(tuple(ingest.revision_from_record(record, resolver)))
                    except UrlError:
                        counts["bad_url"] += 1
                        continue
                    if "html" in record.mime_type or not record.mime_type:
                        extraction = ingest.extract_links(
                            record.payload, record.target_uri, record.capture_time, resolver
                        )
                        counts["truncated_anchors"] += extraction.truncated_anchors
                        links.extend(map(tuple, extraction.links))  # marshal stores no NamedTuple
        rows = ingest.write_revisions_tsv(revisions, out["revisions.tsv"])
        for _revision, group in groupby(links, itemgetter(0, 1)):
            group = list(group)
            counts["links"] += ingest.write_links_tsv(group, out["links.tsv"])
            counts["content_links"] += ingest.write_content_links_tsv(
                ingest.content_links(group, resolver), out["content_links.tsv"]
            )
    return {"revisions": rows, **counts, "emitted": stats.emitted, "skipped": stats.skipped, "corrupt": stats.corrupt}


def _stage_graph(cfg: RunConfig, run_dir: Path, seed: int, out: _Outputs) -> dict[str, int]:
    damping = cfg["pagerank.damping"]
    tolerance = cfg["pagerank.tolerance"]
    max_iter = cfg["pagerank.max_iterations"]
    domains: dict[str, str] = {}  # by core URL; a target's domain wins

    def edges(lines) -> Iterator[ingest.ContentLink]:
        for link in ingest.read_content_links_tsv(lines):
            domains.setdefault(link.source, link.source_domain)
            domains[link.target] = link.target_domain
            yield link

    page = tables.read(lambda lines: graph.build_page_graph(edges(lines)), run_dir / "content_links.tsv")
    domain = graph.project_domain_graph(page, domains.__getitem__)
    page_rank = graph.pagerank(page, damping, tolerance, max_iter)
    domain_rank = graph.pagerank(domain, damping, tolerance, max_iter)

    graph.write_edges(page, out["graph.tsv"])
    graph.write_nodes(page, out["nodes.tsv"])
    graph.write_ranks(page_rank, out["page_rank.tsv"])
    graph.write_edges(domain, out["domain_graph.tsv"])
    graph.write_nodes(domain, out["domain_nodes.tsv"])
    graph.write_ranks(domain_rank, out["domain_rank.tsv"])
    return {
        "page_nodes": page.node_count,
        "page_edges": page.edge_count,
        "domain_nodes": domain.node_count,
        "domain_edges": domain.edge_count,
        "page_iterations": page_rank.iterations_run,
        "domain_iterations": domain_rank.iterations_run,
    }


def _stage_index(cfg: RunConfig, run_dir: Path, seed: int, out: _Outputs) -> dict[str, int]:
    """Blocked sort-based indexing (Manning, Raghavan and Schütze,
    *Introduction to Information Retrieval*, §4.2): the counted content
    links are sorted by (target, capture time, anchor text), the order of
    ``instances.tsv``, and merge-joined with ``revisions.tsv``, which is
    sorted by core URL. Each document is written as its group ends; only
    the postings and one group are held."""
    strategy = cfg["index.strategy"]
    with tables.ExternalSort(run_dir) as instances:
        tables.read(
            lambda lines: instances.extend(
                (link.target, link.capture_time, link.anchor_text)
                for link in ingest.counted_links(ingest.read_content_links_tsv(lines), strategy)
            ),
            run_dir / "content_links.tsv",
        )
        return tables.read(
            lambda lines: anchor_index.write_index(
                anchor_index.surrogates_of(instances, ingest.read_revisions_tsv(lines)),
                out["docs.tsv"], out["postings.tsv"], out["instances.tsv"],
            ),
            run_dir / "revisions.tsv",
        )


def _stage_stats(cfg: RunConfig, run_dir: Path, seed: int, out: _Outputs) -> dict[str, int]:
    top_n = cfg["stats.top_n_domains"] or None
    rows = tables.read(
        lambda lines: anchor_index.anchor_distribution(
            ingest.read_content_links_tsv(lines), cfg["stats.group_by_year"], top_n
        ),
        run_dir / "content_links.tsv",
    )
    fh = out["anchor_dist.csv"]
    fh.write("year,k,count\n")
    for year, k, count in rows:
        fh.write(f"{year},{k},{count}\n")
    return {"distribution_rows": len(rows)}


def _stage_features(cfg: RunConfig, run_dir: Path, seed: int, out: _Outputs) -> dict[str, int]:
    """Feature vectors of every (query, candidate) pair."""
    queries, invalid = _query_table(cfg)
    ctx = _build_context(cfg, run_dir, {token for q in queries for token in q.tokens})
    vectors = [extract_features(q, doc_id, ctx) for q in queries for doc_id in candidate_docs(q, ctx)]
    if not vectors:
        raise StageDataError("no (query, document) candidates to featurize")
    serialize_vectors(vectors, out["features.txt"])
    return {"vectors": len(vectors), "queries": len(queries), "invalid_queries": invalid}


# The evidences of the paper's study, each read off a feature vector.
# anchor_freq is the share of the inlink_count anchor instances that hold
# every query token, so their product, rounded, is the count of those.
_EVIDENCE = (
    ("url_depth", lambda v: v["url_depth"]),
    ("revision_count", lambda v: v["revision_count"]),
    ("anchor_query_freq", lambda v: round(v["anchor_freq"] * v["inlink_count"])),
)


def _stage_label(cfg: RunConfig, run_dir: Path, seed: int, out: _Outputs) -> dict[str, int]:
    """Labels of every candidate, the pool to train and evaluate on, and the
    evidence summaries over each query's candidates (set A) and over those
    of them in the query's snapshots (set B)."""
    import numpy as np

    vectors = tables.read(lambda lines: list(deserialize_vectors(lines)), run_dir / "features.txt")
    grouped = group_by_query(vectors)
    serp_dir = cfg.path("paths.serp_dir")
    skipped = {"misnamed_snapshots": 0}
    snapshots = labeling.load_snapshots(serp_dir, skipped) if serp_dir else {}
    lo = cfg["sample.per_partition_min"]
    hi = cfg["sample.per_partition_max"]

    judgments_path = cfg.path("paths.judgments")
    by_assessor = labeling.load_judgments(judgments_path) if judgments_path else {}
    grades: dict[tuple[int, str], list[int]] = {}
    for graded in by_assessor.values():
        for item, grade in graded.items():
            grades.setdefault(item, []).append(grade)
    # the mean grade, correctly rounded: the integer sum is exact
    manual = {item: sum(vals) / len(vals) for item, vals in grades.items()}
    del grades
    kappas = labeling.pairwise_kappas(by_assessor)
    report = {
        # null when no two assessors share an item
        "average_pairwise_kappa": labeling.average_pairwise_kappa(kappas) if kappas else None,
        "pairs": {f"{left}|{right}": k for (left, right), k in kappas.items()},
        "assessors": sorted(by_assessor),
    }
    _write_json(report, out["kappa_report.json"])
    del by_assessor, kappas

    labels, sample_tsv, summary = out["labels.tsv"], out["sample.tsv"], out["evidence_summary.csv"]
    summary.write("query_id,result_set,evidence,mean,median,q1,q3\n")
    counts = {"labels": 0, "pooled": 0, "evidence_rows": 0, **skipped}
    for qid in sorted(grouped):
        vecs = sorted(grouped[qid], key=lambda v: v.doc_id)
        docs = [v.doc_id for v in vecs]
        matrix = np.array([v.values for v in vecs], dtype=np.float64)
        merged = labeling.merge_snapshots(snapshots.get(qid, []))
        dataset_b = labeling.intersect_with_index(merged, docs)
        try:
            sample = labeling.stratified_sample(docs, matrix, (lo, hi), derive_seed(seed, f"query:{qid}"))
        except ValueError as exc:
            raise ValueError(f"{run_dir / 'features.txt'}: query {qid}: {len(docs)} candidates: {exc}") from exc
        pool = labeling.pool_with_positives(sample, dataset_b)
        for doc in docs:
            soft = labeling.soft_label(doc, merged)
            man = manual.get((qid, doc))
            man_s = repr(man) if man is not None else "-"
            labels.write(f"{qid}\t{doc}\t{soft!r}\t{man_s}\n")
        for doc, provenance in pool.items():
            sample_tsv.write(f"{qid}\t{doc}\t{provenance}\n")
        counts["labels"] += len(docs)
        counts["pooled"] += len(pool)
        for set_name, result in (("A", vecs), ("B", [v for v in vecs if v.doc_id in dataset_b])):
            if not result:
                continue
            for evidence, value in _EVIDENCE:
                s = per_query_evidence_summary(value(v) for v in result)
                summary.write(f"{qid},{set_name},{evidence},{s.mean!r},{s.median!r},{s.q1!r},{s.q3!r}\n")
                counts["evidence_rows"] += 1
    return counts


def _labels(lines) -> dict[tuple[int, str], tuple[float, float | None]]:
    return {
        (int(qid), doc): (float(soft), None if man == "-" else float(man))
        for qid, doc, soft, man in tables.rows(lines)
    }


def _pool(lines) -> dict[int, list[str]]:
    pool: dict[int, list[str]] = {}
    for qid, doc, _prov in tables.rows(lines):
        pool.setdefault(int(qid), []).append(doc)
    return pool


def _label_for(cfg: RunConfig, labels, qid: int, doc: str, run_dir: Path) -> float | None:
    """The label of a pooled (query, document): its soft label, or under
    ``label.strategy=manual`` its grade (None if it has none). ``label``
    writes a row of ``labels.tsv`` for every candidate, so a pair without
    one is a damaged file, never a label of 0."""
    if (qid, doc) not in labels:
        raise ValueError(
            f"{run_dir / 'labels.tsv'}: no row for query {qid}, document {doc}: label writes one for every candidate"
        )
    soft, man = labels[(qid, doc)]
    return man if cfg["label.strategy"] == "manual" else soft


def _pooled_vectors(run_dir: Path) -> list[FeatureVector]:
    """The feature vector of each pooled (query, document), in query order.
    ``label`` pools only documents that have a vector, so a pair without
    one is a damaged ``features.txt``."""
    vectors = tables.read(
        lambda lines: {(v.query_id, v.doc_id): v for v in deserialize_vectors(lines)}, run_dir / "features.txt"
    )
    pool = tables.read(_pool, run_dir / "sample.tsv")
    pooled = []
    for qid in sorted(pool):
        for doc in pool[qid]:
            if (qid, doc) not in vectors:
                raise ValueError(
                    f"{run_dir / 'features.txt'}: no vector for query {qid}, document {doc}: "
                    "label pools only documents that have one"
                )
            pooled.append(vectors[(qid, doc)])
    return pooled


def _stage_train(cfg: RunConfig, run_dir: Path, seed: int, out: _Outputs) -> dict[str, int]:
    base = ForestParams(
        num_trees=cfg["rf.num_trees"],
        bootstrap_fraction=cfg["rf.bootstrap_fraction"],
        seed=seed,
    )
    grid = [
        replace(base, min_leaf=ml, features_per_split=fps)
        for ml in cfg["rf.grid.min_leaf"]
        for fps in cfg["rf.grid.features_per_split"]
    ]
    pooled = _pooled_vectors(run_dir)
    labels = tables.read(_labels, run_dir / "labels.tsv")
    training = []
    unlabeled = 0  # pooled rows without a manual grade
    for vec in pooled:
        label = _label_for(cfg, labels, vec.query_id, vec.doc_id, run_dir)
        if label is None:
            unlabeled += 1
            continue
        training.append(replace(vec, label=label))
    del pooled, labels  # cross-validation reads only the training examples
    if not training:
        raise StageDataError("no labeled training examples in the pool")
    forest, report = cross_validate(training, grid, k_folds=cfg["rf.folds"], seed=seed)
    write_forest(forest, out["forest.txt"])
    _write_json(report.as_dict(), out["cv_report.json"])
    return {
        "training_examples": len(training),
        "trees": forest.params.num_trees,
        "unlabeled": unlabeled,
    }


def _stage_rank(cfg: RunConfig, run_dir: Path, seed: int, out: _Outputs) -> dict[str, int]:
    """Score every pooled (query, document) row once per system: the forest,
    anchor BM25 over the index, and the ``pagerank_core`` and
    ``query_in_url`` columns of the row's feature vector."""
    forest = tables.read(read_forest, run_dir / "forest.txt")
    pooled = _pooled_vectors(run_dir)
    query_tokens = {q.query_id: q.tokens for q in _query_table(cfg)[0]}
    if unknown := sorted({v.query_id for v in pooled} - query_tokens.keys()):
        raise ValueError(f"{run_dir / 'sample.tsv'}: query {unknown[0]} is not a valid query of paths.queries")
    # BM25 reads the query terms' frequencies and the document lengths
    surrogates, stats = tables.read(
        lambda docs, postings: anchor_index.read_index(
            docs, postings, terms={t for tokens in query_tokens.values() for t in tokens},
            documents={v.doc_id for v in pooled}.__contains__,
        ),
        run_dir / "docs.tsv",
        run_dir / "postings.tsv",
    )
    k1, b = cfg["bm25.k1"], cfg["bm25.b"]
    scores = {
        "bm25": [
            anchor_index.bm25_score(query_tokens[v.query_id], surrogates.get(v.doc_id), stats, k1, b)
            for v in pooled
        ],
        "pagerank": [v["pagerank_core"] for v in pooled],
        "query_in_url": [v["query_in_url"] for v in pooled],
        "rf": forest.predict([v.values for v in pooled]).tolist(),
    }
    fh, rows = out["runs.tsv"], 0
    for system in SYSTEMS:
        by_query: dict[int, dict[str, float]] = {}
        for v, score in zip(pooled, scores[system]):
            by_query.setdefault(v.query_id, {})[v.doc_id] = score
        for qid, by_doc in by_query.items():  # in query order, as pooled is
            ordered = RankedRun.from_scores(qid, by_doc, {}).doc_ids
            for rank, doc in enumerate(ordered, start=1):
                fh.write(f"{system}\t{qid}\t{doc}\t{by_doc[doc]!r}\t{rank}\n")
            rows += len(ordered)
    return {"run_rows": rows, "systems": len(SYSTEMS)}


def _runs(lines) -> dict[str, dict[int, list[tuple[str, float, int]]]]:
    runs: dict[str, dict[int, list[tuple[str, float, int]]]] = {}
    for system, qid, doc, score, rank in tables.rows(lines):
        runs.setdefault(system, {}).setdefault(int(qid), []).append((doc, float(score), int(rank)))
    return runs


def _stage_eval(cfg: RunConfig, run_dir: Path, seed: int, out: _Outputs) -> dict[str, int]:
    import numpy as np

    labels = tables.read(_labels, run_dir / "labels.tsv")
    runs = tables.read(_runs, run_dir / "runs.tsv")
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
                    doc: (_label_for(cfg, labels, qid, doc, run_dir) or 0.0)
                    for doc, _s, _r in entries
                },
            )
            metrics["P@1"].append(precision_at_k(run, 1))
            metrics["P@10"].append(precision_at_k(run, 10))
            metrics["NDCG@10"].append(ndcg_at_k(run, 10))
            metrics["AP"].append(average_precision(run))
        per_system[system] = metrics

    fh = out["eval.csv"]
    fh.write("system,P@1,P@10,NDCG@10,MAP\n")
    for system in SYSTEMS:
        means = (float(np.mean(values)) for values in per_system[system].values())
        fh.write(f"{system},{','.join(map(repr, means))}\n")
    fh = out["sig.csv"]
    fh.write("system_a,system_b,metric,t_statistic,p_value\n")
    for i, a in enumerate(SYSTEMS):
        for b in SYSTEMS[i + 1:]:
            for metric in per_system[a]:
                test = paired_significance(per_system[a][metric], per_system[b][metric])
                fh.write(f"{a},{b},{metric},{test.t_statistic!r},{test.p_value!r}\n")
    return {"systems": len(SYSTEMS), "queries": len(qids)}


# Each stage in run order -> (handler, the artifacts it opens, the artifacts
# it writes). The handler writes only these outputs, each into ``out``; when
# it returns, run_stage renames them all into place.
_STAGES = {
    "ingest": (_stage_ingest, (), ("revisions.tsv", "links.tsv", "content_links.tsv")),
    "graph": (
        _stage_graph,
        ("content_links.tsv",),
        ("graph.tsv", "nodes.tsv", "page_rank.tsv", "domain_graph.tsv", "domain_nodes.tsv", "domain_rank.tsv"),
    ),
    "index": (_stage_index, ("content_links.tsv", "revisions.tsv"), ("docs.tsv", "postings.tsv", "instances.tsv")),
    "stats": (_stage_stats, ("content_links.tsv",), ("anchor_dist.csv",)),
    "features": (
        _stage_features,
        # what _build_context reads
        ("revisions.tsv", "nodes.tsv", "page_rank.tsv", "domain_nodes.tsv", "domain_rank.tsv",
         "docs.tsv", "postings.tsv", "instances.tsv"),
        ("features.txt",),
    ),
    "label": (_stage_label, ("features.txt",), ("labels.tsv", "sample.tsv", "evidence_summary.csv", "kappa_report.json")),
    "train": (_stage_train, ("features.txt", "labels.tsv", "sample.tsv"), ("forest.txt", "cv_report.json")),
    "rank": (
        _stage_rank,
        ("forest.txt", "features.txt", "sample.tsv", "docs.tsv", "postings.tsv"),
        ("runs.tsv",),
    ),
    "eval": (_stage_eval, ("runs.tsv", "labels.tsv"), ("eval.csv", "sig.csv")),
}
STAGE_ORDER = tuple(_STAGES)
