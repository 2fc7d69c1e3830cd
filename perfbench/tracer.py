"""One pipeline stage in its own process, optionally traced.

    python3 perfbench/tracer.py --result OUT.json [--spans OUT.spans] -- \
        <stage> --config CONFIG --run-dir RUN_DIR

Runs ``archive_rank.cli.main`` in this process and writes the in-process
stage time and exit code to ``--result``. With ``--spans`` it first wraps
the public layer functions listed in ``WRAPPED`` (in their defining module
and wherever another module imported them by name), records one span per
call (one per ``next`` for generators) and counts taken from their
arguments and return values, keeps everything in memory and writes it out
after the stage ends. The program's source is never modified.

Span file layout: four arrays of equal length, written back to back:
name id (int32), parent span index (int32, -1 for the stage span),
start (float64), end (float64), all in ``time.perf_counter`` seconds.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter


class Recorder:
    """In-memory span store with a parent stack (the program is single
    threaded when ARCHIVE_RANK_THREADS is unset)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def wrap_call(rec: Recorder, name: str, fn, hook=None):
    nid = rec.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[name] += 1
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec.counts, args, result)
        return result

    return wrapper


def wrap_iter(rec: Recorder, name: str, fn, hook=None):
    """For generator functions: the call itself does no work, so each
    ``next`` on the returned iterator is one span."""
    nid = rec.intern(name)

    def timed(it):
        while True:
            idx = rec.open(nid)
            try:
                item = next(it)
            except StopIteration:
                rec.close(idx)
                return
            except BaseException:
                rec.close(idx)
                raise
            rec.close(idx)
            if hook is not None:
                hook(rec.counts, item)
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[name] += 1
        return timed(iter(fn(*args, **kwargs)))

    return wrapper


def _count_records(counts, _item):
    counts["ingest.records"] += 1


def _count_links(counts, _args, result):
    counts["ingest.links"] += len(result.links)


def _count_page_edges(counts, _args, result):
    counts["graph.page_edges"] += result.edge_count


def _count_iterations(counts, _args, result):
    counts["graph.pagerank_iterations"] += result.iterations_run


def _count_instances(counts, _args, result):
    counts["anchor_index.instances"] += sum(len(d.anchor_instances) for d in result.values())


def _count_labelled(counts, args, _result):
    counts["labeling.labelled"] += len(args[0])


def _count_pooled(counts, _args, result):
    counts["labeling.pooled"] += len(result)


def _count_forest(counts, _args, result):
    counts["forest.trees"] += len(result.trees)
    counts["forest.split_nodes"] += sum(int((t.feature >= 0).sum()) for t in result.trees)


def _count_examples(counts, args, _result):
    counts["forest.training_examples"] += len(args[0])


# (module, attribute, span name, generator?, hook). Span names are the
# layer metric prefixes used by run.py.
WRAPPED = (
    ("ingest", "parse_warc_stream", "ingest.parse", True, _count_records),
    ("ingest", "parse_arc_stream", "ingest.parse", True, _count_records),
    ("ingest", "extract_links", "ingest.extract_links", False, _count_links),
    ("ingest", "read_links_tsv", "ingest.tsv_read", True, None),
    ("ingest", "read_revisions_tsv", "ingest.tsv_read", True, None),
    ("urls", "normalize", "urls.normalize", False, None),
    ("graph", "build_page_graph", "graph.build", False, _count_page_edges),
    ("graph", "project_domain_graph", "graph.build", False, None),
    ("graph", "pagerank", "graph.pagerank", False, _count_iterations),
    ("anchor_index", "build_surrogates", "anchor_index.build_surrogates", False, _count_instances),
    ("anchor_index", "anchor_distribution", "anchor_index.distribution", False, None),
    ("anchor_index", "read_index", "anchor_index.read_index", False, None),
    ("features", "FeatureContext.build", "features.context_build", False, None),
    ("features", "candidate_docs", "features.candidate_docs", False, None),
    ("features", "extract_features", "features.extract", False, None),
    ("labeling", "stratified_sample", "labeling.sample", False, _count_labelled),
    ("labeling", "pool_with_positives", "labeling.pool", False, _count_pooled),
    ("forest", "train_forest", "forest.fit", False, _count_forest),
    ("forest", "cross_validate", "forest.cv", False, _count_examples),
    ("forest", "Forest.predict", "forest.predict", False, None),
    ("forest", "read_forest", "forest.read", False, None),
    ("metrics", "precision_at_k", "metrics.eval", False, None),
    ("metrics", "ndcg_at_k", "metrics.eval", False, None),
    ("metrics", "average_precision", "metrics.eval", False, None),
    ("metrics", "paired_significance", "metrics.eval", False, None),
)


def install(rec: Recorder) -> None:
    """Wrap every entry of ``WRAPPED`` in place. Module-level functions are
    also rebound in each ``archive_rank`` module that imported them by
    name; methods are replaced on their class."""
    import importlib

    loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("archive_rank.")]
    for module_name, attr, span, is_gen, hook in WRAPPED:
        module = importlib.import_module(f"archive_rank.{module_name}")
        wrap = wrap_iter if is_gen else wrap_call
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(wrap(rec, span, raw.__func__, hook)))
            else:
                setattr(cls, meth, wrap(rec, span, raw, hook))
            continue
        original = getattr(module, attr)
        wrapped = wrap(rec, span, original, hook)
        for mod in loaded:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="JSON file for the stage time and exit code")
    parser.add_argument("--spans", help="trace the stage and write its spans here")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="archive-rank arguments after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from archive_rank import cli

    rec = None
    if args.spans:
        rec = Recorder()
        install(rec)
        stage_span = rec.open(rec.intern("stage"))
    t0 = perf_counter()
    code = cli.main(cli_args)
    stage_s = perf_counter() - t0
    result = {"exit": code, "stage_s": stage_s}
    if rec is not None:
        rec.close(stage_span)
        rec.dump(args.spans)
        result.update(names=rec.names, calls=dict(rec.calls), counts=dict(rec.counts))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
