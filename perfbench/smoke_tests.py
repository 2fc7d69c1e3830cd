"""The benchmark's own tests, on the tiny ``--smoke`` corpus.

    python3 -m pytest perfbench/smoke_tests.py

The file name keeps these tests out of a plain ``pytest`` run of the
repository; they start benchmark processes and take one to two minutes.
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    passes = 2 if trace else 1
    hostile = passes if workload in run.HOSTILE else 0
    assert result["attempted"] == passes * len(run.STAGES) + hostile
    # only the truncated-container ingest may fail
    assert result["failed"] <= hostile
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        metrics = result["metrics"]
        assert metrics["ingest.records"]["value"] > 0
        assert metrics["forest.fits"]["value"] == 21  # 4 grid points x 5 folds + final fit
        assert metrics["anchor_index.read_index_calls"]["value"] == 3


def test_core_clock_scales_by_the_samples_inside_an_interval():
    affinity = os.sched_getaffinity(0)
    clock = run.CoreClock()
    try:
        time.sleep(0.5)
    finally:
        clock.stop()
    assert os.sched_getaffinity(0) == affinity
    at, speed = clock.at, clock.speed
    assert len(at) >= 3 and all(v > 0 for v in speed)
    assert clock.mean_speed(at[1], at[2]) == statistics.fmean(speed[1:3])
    between = (at[1] + at[2]) / 2
    assert clock.mean_speed(between, between) == speed[1]


def test_refuses_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "acceptance", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One complete pipeline pass over the smoke corpus."""
    sys.path.insert(0, str(run.SRC))
    from archive_rank.synthetic import make_synthetic_archive

    root = tmp_path_factory.mktemp("smoke")
    corpus = make_synthetic_archive(root / "corpus", seed=3, **run.SMOKE)
    run_dir = root / "run"
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    for stage in run.STAGES:
        subprocess.run(
            [sys.executable, "-m", "archive_rank.cli", stage, "--config",
             str(corpus.config_path), "--run-dir", str(run_dir)],
            env=env, check=True, capture_output=True, timeout=120,
        )
    planted = {q.query_id: q.good_docs for q in corpus.queries}
    return corpus, run_dir, planted


def test_checks_pass_on_program_output(smoke_run):
    corpus, run_dir, planted = smoke_run
    counts = checks.corpus_counts(corpus.root / "archives")
    assert counts == (corpus.record_count, corpus.link_count)
    assert checks.check_run(run_dir, corpus.root, planted, counts) == []


# artifact -> (line, separator, field, change, check that must then fail)
TAMPER = {
    "features.txt": (0, " ", 2 + checks.INLINK_COUNT, 1.0,
                     lambda run_dir, root: checks.check_features(run_dir)),
    "labels.tsv": (0, "\t", 2, 0.25, lambda run_dir, root: checks.check_labels(run_dir, root / "serp")),
    "page_rank.tsv": (0, " ", 1, 0.01, lambda run_dir, root: checks.check_pagerank(run_dir, 0.85)),
    "eval.csv": (1, ",", 2, 0.1, lambda run_dir, root: checks.check_eval(run_dir)),
}


@pytest.mark.parametrize("artifact", sorted(TAMPER))
def test_checks_catch_a_changed_value(smoke_run, tmp_path, artifact):
    corpus, run_dir, _planted = smoke_run
    line_no, sep, field, delta, check = TAMPER[artifact]
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    lines = (copy / artifact).read_text(encoding="utf-8").split("\n")
    fields = lines[line_no].split(sep)
    prefix, colon, value = fields[field].rpartition(":")
    fields[field] = f"{prefix}{colon}{float(value) + delta!r}"
    lines[line_no] = sep.join(fields)
    (copy / artifact).write_text("\n".join(lines), encoding="utf-8")
    assert check(copy, corpus.root)


def test_rf_margin_check_catches_a_weak_ranker(smoke_run, tmp_path):
    corpus, run_dir, planted = smoke_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    lines = (copy / "runs.tsv").read_text(encoding="utf-8").splitlines()
    bm25 = [line.replace("bm25\t", "rf\t", 1) for line in lines if line.startswith("bm25\t")]
    kept = [line for line in lines if not line.startswith("rf\t")]
    (copy / "runs.tsv").write_text("\n".join(kept + bm25) + "\n", encoding="utf-8")
    assert checks.check_rf_margin(copy, planted)


def test_truncated_container_keeps_complete_records(tmp_path, smoke_run):
    corpus, _run_dir, _planted = smoke_run
    source = corpus.root / "archives" / run.HOSTILE_FILE
    whole, _ = checks.container_counts(source)
    cut = tmp_path / run.HOSTILE_FILE
    cut.write_bytes(source.read_bytes()[: source.stat().st_size // 2])
    kept, _ = checks.container_counts(cut)
    assert 0 < kept < whole
