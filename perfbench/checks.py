"""Output checks computed apart from the program.

Nothing here imports ``archive_rank``: containers are inflated with the
standard ``gzip`` module and every artifact is re-derived from the run
directory's text files with plain Python and numpy. Each check returns a
list of failure messages; an empty list means the check passed.
"""
from __future__ import annotations

import gzip
import hashlib
import json
import math
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

FEATURE_WIDTH = 33
ONE_HOT_FROM = 18  # 18 evidence features, then the 15-column entity-type block
INLINK_COUNT = 6  # zero-based position of inlink_count
SYSTEMS = ("bm25", "pagerank", "query_in_url", "rf")
RF_MARGIN = 0.10
DETERMINISTIC_ARTIFACTS = ("features.txt", "forest.txt", "eval.csv")

_SERP_NAME = re.compile(r"^(\d+)_(.+)\.txt$")


# ---------------------------------------------------------------------------
# containers


def inflate(path: Path) -> bytes:
    """All bytes the gzip members of ``path`` yield, up to the first member
    that is cut short."""
    out = []
    with gzip.open(path, "rb") as fh:
        try:
            while chunk := fh.read1(1 << 16):
                out.append(chunk)
        except EOFError:
            pass
    return b"".join(out)


def _http_status(block: bytes) -> int | None:
    first = block.split(b"\r\n", 1)[0]
    parts = first.split()
    if len(parts) >= 2 and parts[0].startswith(b"HTTP/") and parts[1].isdigit():
        return int(parts[1])
    return None


def warc_records(data: bytes):
    """(is_response, http_status, block) for every record whose header and
    whole Content-Length block are present."""
    pos = 0
    while True:
        start = data.find(b"WARC/1.0\r\n", pos)
        if start < 0:
            return
        head_end = data.find(b"\r\n\r\n", start)
        if head_end < 0:
            return
        headers = {}
        for line in data[start:head_end].split(b"\r\n")[1:]:
            key, _, value = line.partition(b":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get(b"content-length", b"-1"))
        body = head_end + 4
        if length < 0 or body + length > len(data):
            return
        block = data[body:body + length]
        yield headers.get(b"warc-type") == b"response", _http_status(block), block
        pos = body + length


def arc_records(data: bytes):
    """(True, http_status, block) for every complete ARC document record
    (the leading filedesc record is not a document)."""
    pos = 0
    while pos < len(data):
        eol = data.find(b"\n", pos)
        if eol < 0:
            return
        fields = data[pos:eol].split()
        if not fields:
            pos = eol + 1
            continue
        length = int(fields[-1])
        block = data[eol + 1:eol + 1 + length]
        if len(block) < length:
            return
        if not fields[0].startswith(b"filedesc://"):
            yield True, _http_status(block), block
        pos = eol + 1 + length + 1


def container_counts(path: Path) -> tuple[int, int]:
    """(2xx response records, ``<a href=`` tags in them) of one container."""
    parse = arc_records if ".arc" in path.name else warc_records
    records = links = 0
    for is_response, status, block in parse(inflate(path)):
        if is_response and status is not None and 200 <= status < 300:
            records += 1
            links += block.count(b"<a href=")
    return records, links


def corpus_counts(archive_dir: Path) -> tuple[int, int]:
    totals = [container_counts(p) for p in sorted(archive_dir.iterdir())]
    return sum(r for r, _ in totals), sum(l for _, l in totals)


# ---------------------------------------------------------------------------
# run-directory artifacts


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").split("\n") if line]


def read_config(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def check_row_counts(run_dir: Path, revisions: int, links: int) -> list[str]:
    got_r = len(_lines(run_dir / "revisions.tsv"))
    got_l = len(_lines(run_dir / "links.tsv"))
    errors = []
    if got_r != revisions:
        errors.append(f"revisions.tsv has {got_r} rows, containers hold {revisions} 2xx responses")
    if got_l != links:
        errors.append(f"links.tsv has {got_l} rows, containers hold {links} <a href= tags")
    return errors


def check_pagerank(run_dir: Path, damping: float) -> list[str]:
    lines = (run_dir / "graph.tsv").read_text(encoding="utf-8").split("\n")
    header = lines[0].split()
    n, m = int(header[1]), int(header[3])
    edges = np.array([line.split() for line in lines[1:1 + m]], dtype=np.int64).reshape(m, 2)
    ranks = np.zeros(n)
    for line in _lines(run_dir / "page_rank.tsv"):
        idx, score = line.split()
        ranks[int(idx)] = float(score)
    errors = []
    if abs(ranks.sum() - 1.0) > 1e-9:
        errors.append(f"page_rank.tsv sums to {ranks.sum()!r}")
    src, dst = edges[:, 0], edges[:, 1]
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    step = np.bincount(dst, weights=ranks[src] / outdeg[src], minlength=n) * damping
    step += (damping * ranks[outdeg == 0].sum() + 1.0 - damping) / n
    moved = float(np.abs(step - ranks).sum())
    if moved >= 1e-6:
        errors.append(f"one power-iteration step moves page_rank.tsv by {moved!r} in L1")
    return errors


def _core(url: str) -> str:
    return url.split("#", 1)[0].split("?", 1)[0]


def check_features(run_dir: Path) -> list[str]:
    distinct: dict[str, set] = defaultdict(set)
    for line in _lines(run_dir / "links.tsv"):
        source, when, target, pattern, anchor = line.split("\t")
        if pattern == "A/href":
            distinct[_core(target)].add((source, when, anchor))
    errors = []
    for line_no, line in enumerate(_lines(run_dir / "features.txt"), 1):
        body, doc = line.rsplit(" # ", 1)
        values = [float(item.split(":", 1)[1]) for item in body.split(" ")[2:]]
        if len(values) != FEATURE_WIDTH:
            errors.append(f"features.txt:{line_no}: {len(values)} values, expected {FEATURE_WIDTH}")
            continue
        if sum(values[ONE_HOT_FROM:]) != 1.0:
            errors.append(f"features.txt:{line_no}: one-hot block sums to {sum(values[ONE_HOT_FROM:])}")
        want = len(distinct.get(doc, ()))
        if values[INLINK_COUNT] != want:
            errors.append(f"features.txt:{line_no}: inlink_count {values[INLINK_COUNT]} for {doc}, links.tsv gives {want}")
        if len(errors) > 5:
            break
    return errors


def serp_best_ranks(serp_dir: Path) -> dict[int, dict[str, int]]:
    best: dict[int, dict[str, int]] = defaultdict(dict)
    for path in sorted(serp_dir.iterdir()):
        m = _SERP_NAME.match(path.name)
        if not m:
            continue
        ranks = best[int(m.group(1))]
        seen: list[str] = []
        for url in (line.strip() for line in path.read_text(encoding="utf-8").split("\n")):
            if url and url not in seen:
                seen.append(url)
        for rank, url in enumerate(seen[:100], 1):
            ranks[url] = min(rank, ranks.get(url, rank))
    return best


def read_labels(run_dir: Path) -> dict[tuple[int, str], float]:
    labels = {}
    for line in _lines(run_dir / "labels.tsv"):
        qid, doc, soft, _manual = line.split("\t")
        labels[(int(qid), doc)] = float(soft)
    return labels


def check_labels(run_dir: Path, serp_dir: Path) -> list[str]:
    best = serp_best_ranks(serp_dir)
    errors = []
    for (qid, doc), soft in sorted(read_labels(run_dir).items()):
        rank = best.get(qid, {}).get(doc)
        want = 1.0 / rank if rank else 0.0
        if soft != want:
            errors.append(f"label of ({qid}, {doc}) is {soft!r}, best snapshot rank gives {want!r}")
            if len(errors) > 5:
                break
    return errors


def read_runs(run_dir: Path) -> dict[str, dict[int, list[str]]]:
    """system -> query -> documents in rank order."""
    ranked: dict[str, dict[int, list[tuple[int, str]]]] = defaultdict(lambda: defaultdict(list))
    for line in _lines(run_dir / "runs.tsv"):
        system, qid, doc, _score, rank = line.split("\t")
        ranked[system][int(qid)].append((int(rank), doc))
    return {
        system: {qid: [doc for _, doc in sorted(rows)] for qid, rows in by_q.items()}
        for system, by_q in ranked.items()
    }


def _p_at_10(docs: list[str], relevant) -> float:
    return sum(1 for doc in docs[:10] if doc in relevant) / 10.0


def _ap(docs: list[str], relevant, denominator: int) -> float:
    hits, total = 0, 0.0
    for pos, doc in enumerate(docs, 1):
        if doc in relevant:
            hits += 1
            total += hits / pos
    return total / denominator if denominator else 0.0


def check_eval(run_dir: Path) -> list[str]:
    """P@10 and MAP of eval.csv against a recomputation from runs.tsv and
    labels.tsv (relevant = positive soft label; AP averages over the
    relevant documents retrieved, as eval.csv defines it)."""
    runs = read_runs(run_dir)
    labels = read_labels(run_dir)
    qids = sorted({qid for by_q in runs.values() for qid in by_q})
    table = {}
    for line in _lines(run_dir / "eval.csv")[1:]:
        system, _p1, p10, _ndcg, map_ = line.split(",")
        table[system] = (float(p10), float(map_))
    errors = []
    for system in SYSTEMS:
        p10s, aps = [], []
        for qid in qids:
            docs = runs.get(system, {}).get(qid, [])
            relevant = {d for d in docs if labels.get((qid, d), 0.0) > 0}
            p10s.append(_p_at_10(docs, relevant))
            aps.append(_ap(docs, relevant, len(relevant)))
        want = (math.fsum(p10s) / len(qids), math.fsum(aps) / len(qids))
        got = table.get(system)
        if got is None or any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
            errors.append(f"eval.csv {system} (P@10, MAP) = {got}, recomputed {want}")
    return errors


def planted_scores(run_dir: Path, planted: dict[int, list[str]]) -> dict[str, tuple[float, float]]:
    """(P@10, MAP) of each system against the generator's planted good
    documents, AP over all planted documents of the query."""
    runs = read_runs(run_dir)
    out = {}
    for system in SYSTEMS:
        p10s, aps = [], []
        for qid, good in sorted(planted.items()):
            docs = runs.get(system, {}).get(qid, [])
            relevant = set(good)
            p10s.append(_p_at_10(docs, relevant))
            aps.append(_ap(docs, relevant, len(relevant)))
        out[system] = (math.fsum(p10s) / len(p10s), math.fsum(aps) / len(aps))
    return out


def check_rf_margin(run_dir: Path, planted: dict[int, list[str]]) -> list[str]:
    scores = planted_scores(run_dir, planted)
    rf = scores["rf"]
    errors = []
    for system in SYSTEMS[:-1]:
        for name, r, b in zip(("P@10", "MAP"), rf, scores[system]):
            if r - b < RF_MARGIN:
                errors.append(f"rf {name} {r:.3f} beats {system} {b:.3f} by less than {RF_MARGIN}")
    return errors


def check_run(run_dir: Path, corpus_root: Path, planted, expected_counts) -> list[str]:
    """Every check on one complete pipeline run directory."""
    damping = float(read_config(corpus_root / "config.txt").get("pagerank.damping", "0.85"))
    return (
        check_row_counts(run_dir, *expected_counts)
        + check_pagerank(run_dir, damping)
        + check_features(run_dir)
        + check_labels(run_dir, corpus_root / "serp")
        + check_eval(run_dir)
        + check_rf_margin(run_dir, planted)
    )


def artifact_digests(run_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in DETERMINISTIC_ARTIFACTS
    }


def check_hostile_ingest(exit_code: int, run_dir: Path, expected_revisions: int) -> list[str]:
    """The documented contract for a container cut short: exit 0, the cut
    counted as corrupt, and every complete record before it kept."""
    if exit_code != 0:
        return [f"ingest on a truncated container exited {exit_code}"]
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    counts = manifest["stages"][-1]["row_counts"]
    errors = []
    if counts.get("corrupt", 0) < 1:
        errors.append("ingest on a truncated container reported no corrupt record")
    got = len(_lines(run_dir / "revisions.tsv"))
    if got != expected_revisions:
        errors.append(f"ingest on a truncated container kept {got} revisions, {expected_revisions} are complete")
    return errors
