#!/usr/bin/env python3
"""Benchmark of the nine-stage archive-rank pipeline on synthetic crawls.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0

Set-up generates the workload's corpus with
``archive_rank.synthetic.make_synthetic_archive`` from ``--seed``. A run
then makes whole rounds within ``--seconds`` (at least one). A round runs
the nine stages the way a user does: one
``python3 -m archive_rank.cli <stage>`` process per stage, one at a time,
with ARCHIVE_RANK_THREADS unset, and checks every output with
``checks.py``. On ``wide-crawl`` each pipeline pass is followed by one
``ingest`` on a copy of the corpus whose ``part-a.warc.gz`` is cut at half
its length.

The driver and its stage processes share one core, whose speed a
sampler thread measures (``CoreClock``); times are reported at the
reference speed. ``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each round
twice through ``tracer.py`` (untraced, then traced) and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` swaps in a tiny corpus; every code path, the hostile-input
operation and all checks still run.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

STAGES = ("ingest", "graph", "index", "stats", "features", "label", "train", "rank", "eval")
GROUPS = {
    "ingest_s": ("ingest",),
    "prepare_s": ("graph", "index", "stats", "features", "label"),
    "train_s": ("train",),
    "score_s": ("rank", "eval"),
}
SETUP_REPEATS = 5
STARTUP_PROBES = 3

# make_synthetic_archive arguments per workload; README.md says why each
# workload exists and which layer it loads.
WORKLOADS = {
    "acceptance": {},
    "wide-crawl": {"sources": 1000, "feeder_inlinks": 750, "filler_docs": 4400, "rf_num_trees": 10},
    "many-candidates": {"num_queries": 22, "chaff_per_query": 100, "rf_num_trees": 15},
}
SMOKE = {
    "num_queries": 6,
    "chaff_per_query": 15,
    "spam_per_query": 5,
    "boosted_per_query": 3,
    "sources": 80,
    "feeder_inlinks": 20,
    "filler_docs": 40,
    "rf_num_trees": 4,
}
HOSTILE = frozenset({"wide-crawl"})
HOSTILE_FILE = "part-a.warc.gz"

# The core clock: every PROBE_EVERY_S seconds, one timed probe on the core
# the stage processes run on. A probe is PROBE_STEPS steps of an arithmetic
# loop, then one lookup of each key of a PROBE_TABLE-key dict in shuffled
# order (about 0.8 ms each at best). README.md ("The core clock") says why
# this mix. REF_PROBE_S is the probe's best time on the reference machine
# (2-vCPU Xeon VM, 2.1 GHz, Python 3.11), so REF_PROBE_S / probe time is the
# core's speed relative to its best there.
PROBE_STEPS = 16_000
PROBE_TABLE = 1 << 13
PROBE_EVERY_S = 0.08
REF_PROBE_S = 1.7e-3
# Stage time grows as probe time to this power: the least-squares slope of
# log wall time on log probe time over six sets of ten runs (one per
# workload and set) was 0.32 to 0.77, mean 0.56 (README.md).
SPEED_ELASTICITY = 0.6


class CoreClock:
    """Samples the speed of the core that this process, and so every child
    it starts, is pinned to. On a shared host the core's speed swings by
    1.5x and more for seconds to minutes. A process's time multiplied by the
    mean relative speed the clock saw while it ran, to the power
    SPEED_ELASTICITY (the program slows less than the probe), estimates the
    time it would have taken at the reference speed; that takes most of
    those swings out.

    The sampler is a thread of the driver pinned to the same core; a probe
    costs the child probe time / PROBE_EVERY_S of the core (3 to 6%, as the
    probe runs slower next to a busy process)."""

    def __init__(self):
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})
        self._table = {k * 7919: k for k in range(PROBE_TABLE)}
        self._keys = list(self._table)
        random.Random(0).shuffle(self._keys)
        self.at: list[float] = []
        self.speed: list[float] = []
        self._record()  # so that every interval has a sample at or before it
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="core-clock", daemon=True)
        self._thread.start()

    def _probe(self) -> float:
        table = self._table
        t0 = perf_counter()
        s = 0
        for i in range(PROBE_STEPS):
            s += i * i
        for k in self._keys:
            s += table[k]
        return perf_counter() - t0

    def _record(self) -> None:
        self.speed.append(REF_PROBE_S / self._probe())
        self.at.append(perf_counter())

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self._record()

    def mean_speed(self, t0: float, t1: float) -> float:
        """Mean relative speed over [t0, t1], or the last sample before t0
        when none fell inside."""
        n = len(self.at)
        at, speed = self.at[:n], self.speed[:n]
        lo, hi = bisect.bisect_left(at, t0), bisect.bisect_right(at, t1)
        return statistics.fmean(speed[lo:hi]) if hi > lo else speed[hi - 1]

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)


# The launcher: reads one request per line (stderr path, then the argv,
# NUL-separated), spawns it with stdin and stdout on /dev/null, waits, and
# answers "start end exit-code cpu-seconds maxrss-kb".
LAUNCHER = """
import os, sys, time
for line in sys.stdin:
    err_path, *args = line.rstrip("\\n").split("\\0")
    err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    null = os.open(os.devnull, os.O_RDWR)
    io = [(os.POSIX_SPAWN_DUP2, null, 0), (os.POSIX_SPAWN_DUP2, null, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(args[0], args, os.environ, file_actions=io)
    _, status, ru = os.wait4(pid, 0)
    t1 = time.perf_counter()
    os.close(err)
    os.close(null)
    code = os.waitstatus_to_exitcode(status)
    print(t0, t1, code, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, flush=True)
"""


class Launcher:
    """Starts every measured process from a small helper process. Linux
    counts the memory of the process a child was spawned from in the
    child's peak RSS, so children of the driver itself (numpy and the
    output checks: 70 to 90 MB) would all report at least the driver's
    size. The helper is started after the driver pinned itself, so it and
    its children run on the clock's core."""

    def __init__(self, cwd: Path, env: dict[str, str]):
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", LAUNCHER],
            cwd=cwd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args, stderr_path) -> tuple[float, float, int, float, int]:
        self._proc.stdin.write("\0".join(map(str, [stderr_path, *args])) + "\n")
        self._proc.stdin.flush()
        t0, t1, code, cpu_s, rss_kb = self._proc.stdout.readline().split()
        return float(t0), float(t1), int(code), float(cpu_s), int(rss_kb)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


class Proc:
    """One finished child process: wall seconds, CPU seconds, peak RSS, and
    the mean core speed while it ran."""

    def __init__(self, run: Run, args, stderr_path):
        t0, t1, self.code, self.cpu_s, rss_kb = run.launcher.run(args, stderr_path)
        self.wall_s = t1 - t0
        self.speed = run.clock.mean_speed(t0, t1)
        self.scale = self.speed**SPEED_ELASTICITY
        self.rss_mb = rss_kb / 1024.0
        self.stderr_path = stderr_path

    def report_failure(self, what: str) -> None:
        tail = Path(self.stderr_path).read_text(encoding="utf-8", errors="replace").strip()
        tail = tail.splitlines()[-1] if tail else ""
        print(f"{what}: exit {self.code}: {tail}", file=sys.stderr)


class Run:
    """State of one benchmark invocation: corpus, oracle, tallies."""

    def __init__(self, workload: str, seed: int, smoke: bool, clock: CoreClock):
        self.workload = workload
        self.clock = clock
        self.seed = seed
        self.params = dict(SMOKE if smoke else WORKLOADS[workload])
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.pop("ARCHIVE_RANK_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[dict[str, str]] = []
        self.passes = 0
        self.work.mkdir(parents=True)
        self.launcher = Launcher(self.work, self.env)

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Generate the corpus SETUP_REPEATS times; returns the median time
        at the reference core speed. The first copy is the one the rounds
        use."""
        from archive_rank.synthetic import make_synthetic_archive

        times = []
        for i in range(SETUP_REPEATS):
            t0 = perf_counter()
            corpus = make_synthetic_archive(self.work / f"corpus{i}", seed=self.seed, **self.params)
            t1 = perf_counter()
            times.append((t1 - t0) * self.clock.mean_speed(t0, t1) ** SPEED_ELASTICITY)
            if i == 0:
                self.corpus = corpus
            else:
                shutil.rmtree(corpus.root)
        self.config = self.corpus.config_path
        self.planted = {q.query_id: list(q.good_docs) for q in self.corpus.queries}
        archives = self.corpus.root / "archives"
        self.expected_counts = checks.corpus_counts(archives)
        self.container_bytes = sum(p.stat().st_size for p in archives.iterdir())
        if self.workload in HOSTILE:
            self._make_hostile_copy()
        return statistics.median(times)

    def _make_hostile_copy(self) -> None:
        hostile = self.work / "hostile"
        shutil.copytree(self.corpus.root, hostile)
        cut = hostile / "archives" / HOSTILE_FILE
        data = cut.read_bytes()
        cut.write_bytes(data[: len(data) // 2])
        self.hostile_config = hostile / "config.txt"
        self.hostile_revisions = sum(
            checks.container_counts(p)[0] for p in sorted((hostile / "archives").iterdir())
        )

    # -- operations ---------------------------------------------------------

    def _op(self, what: str, args, log: Path) -> Proc:
        proc = Proc(self, args, log)
        self.attempted += 1
        if proc.code != 0:
            self.failed += 1
            proc.report_failure(what)
        return proc

    def pipeline(self, tag: str, runner: str | None = None) -> dict[str, tuple[Proc, dict | None]]:
        """One pass of the nine stages into a fresh run directory. ``runner``
        is None for the plain CLI, else "plain" or "traced" for tracer.py."""
        run_dir = self.work / tag
        out = {}
        for stage in STAGES:
            cli = [stage, "--config", str(self.config), "--run-dir", str(run_dir)]
            result_path = self.work / f"{tag}.{stage}.json"
            if runner is None:
                args = [sys.executable, "-m", "archive_rank.cli", *cli]
            else:
                args = [sys.executable, str(BENCH_DIR / "tracer.py"), "--result", str(result_path)]
                if runner == "traced":
                    args += ["--spans", str(self.work / f"{tag}.{stage}.spans")]
                args += ["--", *cli]
            proc = self._op(f"{tag} {stage}", args, self.work / f"{tag}.{stage}.err")
            result = None
            if runner is not None and proc.code == 0:
                result = json.loads(result_path.read_text(encoding="utf-8"))
            out[stage] = (proc, result)
        self.passes += 1
        if all(proc.code == 0 for proc, _ in out.values()):
            errors = checks.check_run(run_dir, self.corpus.root, self.planted, self.expected_counts)
            self.errors += [f"{tag}: {e}" for e in errors]
            self.digests.append(checks.artifact_digests(run_dir))
        else:
            self.errors.append(f"{tag}: the pipeline did not complete, so its outputs were not checked")
        if self.workload in HOSTILE:
            self.hostile_ingest(tag)
        return out

    def hostile_ingest(self, tag: str) -> None:
        """Counted as one operation; it fails unless ingest keeps the
        documented contract on the cut container."""
        run_dir = self.work / f"{tag}-hostile"
        args = [sys.executable, "-m", "archive_rank.cli", "ingest",
                "--config", str(self.hostile_config), "--run-dir", str(run_dir)]
        proc = Proc(self, args, self.work / f"{tag}-hostile.err")
        self.attempted += 1
        errors = checks.check_hostile_ingest(proc.code, run_dir, self.hostile_revisions)
        if errors:
            self.failed += 1
            print(f"{tag} hostile ingest failed: {errors[0]}", file=sys.stderr)
            if proc.code != 0:
                proc.report_failure(f"{tag} hostile ingest")
        shutil.rmtree(run_dir, ignore_errors=True)

    def startup_s(self) -> float:
        args = [sys.executable, "-c", "import archive_rank.cli"]
        probes = [Proc(self, args, self.work / "startup.err") for _ in range(STARTUP_PROBES)]
        for p in probes:
            if p.code != 0:
                p.report_failure("start-up probe")
                self.errors.append("the start-up probe failed")
        return statistics.median(p.wall_s for p in probes)

    def finish_checks(self) -> bool:
        if len({tuple(sorted(d.items())) for d in self.digests}) > 1:
            self.errors.append("features.txt, forest.txt or eval.csv differ between passes")
        for e in self.errors[:20]:
            print(f"check failed: {e}", file=sys.stderr)
        return not self.errors and self.passes > 0


# ---------------------------------------------------------------------------
# metrics


def end_to_end(out: dict[str, tuple[Proc, dict | None]]) -> dict[str, float]:
    """Stage-process times at the reference core speed (see CoreClock), peak
    RSS, the measured wall time and the mean relative core speed."""
    procs = {stage: proc for stage, (proc, _) in out.items()}
    wall_s = sum(p.wall_s for p in procs.values())
    row = {
        "pipeline_s": sum(p.wall_s * p.scale for p in procs.values()),
        "pipeline_cpu_s": sum(p.cpu_s * p.scale for p in procs.values()),
        "peak_rss_mb": max(p.rss_mb for p in procs.values()),
        "wall.pipeline_s": wall_s,
        "core_speed": sum(p.wall_s * p.speed for p in procs.values()) / wall_s,
    }
    for name, stages in GROUPS.items():
        row[name] = sum(procs[s].wall_s * procs[s].scale for s in stages)
    return row


def load_spans(path: Path):
    raw = path.read_bytes()
    n = len(raw) // 24
    name_id = np.frombuffer(raw, np.int32, n, 0)
    parent = np.frombuffer(raw, np.int32, n, 4 * n)
    start = np.frombuffer(raw, np.float64, n, 8 * n)
    end = np.frombuffer(raw, np.float64, n, 16 * n)
    return name_id, parent, end - start


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(plain, traced, work: Path, container_bytes: int, startup_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass. ``plain`` is the untraced
    tracer.py pass of the same round: it gives the stage-group times, each
    stage's peak RSS (spans would inflate it) and the baseline for the
    tracing overhead."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    whole = end_to_end(plain)
    row = {name: whole[name] for name in (*GROUPS, "wall.pipeline_s", "core_speed")}
    self_s = final_fit_s = 0.0
    for stage in STAGES:
        _proc, result = traced[stage]
        name_id, parent, dur = load_spans(work / f"traced.{stage}.spans")
        names = result["names"]
        sums = np.bincount(name_id, weights=dur, minlength=len(names))
        row[f"stage.{stage}_s"] = float(dur[0])
        row[f"stage.{stage}_rss_mb"] = plain[stage][0].rss_mb
        self_s += float(dur[0] - dur[parent == 0].sum())
        for i, name in enumerate(names):
            key = f"{name}@eval" if name == "metrics.eval" and stage == "eval" else name
            total[key] = total.get(key, 0.0) + float(sums[i])
        for key, value in result["calls"].items():
            calls[key] = calls.get(key, 0) + value
        for key, value in result["counts"].items():
            counts[key] = counts.get(key, 0) + value
        cv = np.flatnonzero(name_id == names.index("forest.cv"))
        fits = np.flatnonzero((name_id == names.index("forest.fit")) & np.isin(parent, cv))
        if fits.size:
            final_fit_s = float(dur[fits[-1]])

    t = lambda name: total.get(name, 0.0)  # noqa: E731
    links = counts.get("ingest.links", 0)
    row.update({
        "pipeline.startup_s": startup_s,
        "pipeline.self_s": self_s,
        "ingest.parse_s": t("ingest.parse"),
        "ingest.parse_mb_per_s": _ratio(container_bytes / 1e6, t("ingest.parse")),
        "ingest.records": counts.get("ingest.records", 0),
        "ingest.extract_links_s": t("ingest.extract_links"),
        "ingest.extract_records_per_s": _ratio(calls.get("ingest.extract_links", 0), t("ingest.extract_links")),
        "ingest.links": links,
        "ingest.tsv_reads": calls.get("ingest.tsv_read", 0),
        "ingest.tsv_read_s": t("ingest.tsv_read"),
        "urls.normalize_calls": calls.get("urls.normalize", 0),
        "urls.normalize_per_link": _ratio(calls.get("urls.normalize", 0), links),
        "urls.normalize_s": t("urls.normalize"),
        "graph.build_s": t("graph.build"),
        "graph.pagerank_s": t("graph.pagerank"),
        "graph.pagerank_iterations": counts.get("graph.pagerank_iterations", 0),
        "graph.s_per_iteration": _ratio(t("graph.pagerank"), counts.get("graph.pagerank_iterations", 0)),
        "graph.page_edges": counts.get("graph.page_edges", 0),
        "anchor_index.build_surrogates_s": t("anchor_index.build_surrogates"),
        "anchor_index.instances": counts.get("anchor_index.instances", 0),
        "anchor_index.distribution_s": t("anchor_index.distribution"),
        "anchor_index.read_index_s": t("anchor_index.read_index"),
        "anchor_index.read_index_calls": calls.get("anchor_index.read_index", 0),
        "features.context_build_s": t("features.context_build"),
        "features.context_builds": calls.get("features.context_build", 0),
        "features.candidate_docs_s": t("features.candidate_docs"),
        "features.extract_s": t("features.extract"),
        "features.pairs_per_s": _ratio(calls.get("features.extract", 0), t("features.extract")),
        "features.vectors": calls.get("features.extract", 0),
        "labeling.sample_s": t("labeling.sample"),
        "labeling.pooled": counts.get("labeling.pooled", 0),
        "labeling.pool_share": _ratio(counts.get("labeling.pooled", 0), counts.get("labeling.labelled", 0)),
        "forest.fits": calls.get("forest.fit", 0),
        "forest.trees": counts.get("forest.trees", 0),
        "forest.split_nodes": counts.get("forest.split_nodes", 0),
        "forest.training_examples": counts.get("forest.training_examples", 0),
        "forest.fit_s": t("forest.fit"),
        "forest.s_per_tree": _ratio(t("forest.fit"), counts.get("forest.trees", 0)),
        "forest.split_nodes_per_s": _ratio(counts.get("forest.split_nodes", 0), t("forest.fit")),
        "forest.cv_s": t("forest.cv"),
        "forest.final_fit_s": final_fit_s,
        "forest.predict_calls": calls.get("forest.predict", 0),
        "forest.predict_s": t("forest.predict"),
        "forest.predict_rows_per_s": _ratio(calls.get("forest.predict", 0), t("forest.predict")),
        "forest.read_s": t("forest.read"),
        "metrics.eval_s": t("metrics.eval@eval"),
        "trace.overhead_s": sum(row[f"stage.{s}_s"] for s in STAGES)
        - sum(plain[s][1]["stage_s"] for s in STAGES),
    })
    return row


def median_rows(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(args) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "archive_rank" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import compileall

    compileall.compile_dir(str(SRC), quiet=2)  # stage processes then start from bytecode

    clock = CoreClock()
    run = Run(args.workload, args.seed, args.smoke, clock)
    try:
        setup_s = run.setup()
        rows = []
        t0 = perf_counter()
        rounds = 0
        round_s = 0.0
        # whole rounds only: another one starts if it should end in time
        while rounds == 0 or perf_counter() - t0 + round_s <= args.seconds:
            rounds += 1
            t_round = perf_counter()
            if args.trace:
                startup = run.startup_s()
                plain = run.pipeline("plain", runner="plain")
                traced = run.pipeline("traced", runner="traced")
                if all(r is not None for _, r in list(plain.values()) + list(traced.values())):
                    rows.append(per_layer(plain, traced, run.work, run.container_bytes, startup))
            else:
                rows.append(end_to_end(run.pipeline(f"round{rounds}")))
            for tag in ("plain", "traced", f"round{rounds}"):
                shutil.rmtree(run.work / tag, ignore_errors=True)
            round_s = perf_counter() - t_round
        correct = run.finish_checks() and len(rows) == rounds
        if args.trace and rows:
            counts = [{k: v for k, v in r.items() if isinstance(v, int)} for r in rows]
            if any(c != counts[0] for c in counts):
                print("check failed: layer counts differ between rounds", file=sys.stderr)
                correct = False
    finally:
        run.launcher.close()
        clock.stop()
        shutil.rmtree(run.work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    values = median_rows(rows) if rows else {}
    if not args.trace:
        values["setup_s"] = setup_s
    units = declared(bool(args.trace))
    env = environment(args) | {"rounds": rounds}
    print("# environment " + json.dumps(env, sort_keys=True))
    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:36s} {values[name]:>14.6g} {unit}")
    for name in sorted(set(values) - set(units)):
        print(f"# {name:34s} {values[name]:>14.6g}")
    print(f"attempted {run.attempted} failed {run.failed} correct {str(correct).lower()}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
