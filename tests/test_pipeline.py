import ast
import gzip
import hashlib
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from archive_rank import anchor_index, graph, ingest, labeling, pipeline, tables
from archive_rank import features as features_module
from archive_rank.anchor_index import tokenize_text
from archive_rank.cli import main
from archive_rank.features import (
    FEATURE_NAMES,
    FeatureContext,
    QueryRecord,
    candidate_docs,
    deserialize_vectors,
    group_by_query,
)
from archive_rank.pipeline import (
    STAGE_ORDER,
    ConfigError,
    MissingStageError,
    RunConfig,
    StageDataError,
    derive_seed,
    load_config,
    run_stage,
)
from archive_rank.synthetic import make_synthetic_archive, warc_record_bytes
from archive_rank.urls import normalize, tokenize_url, url_depth
from conftest import candidates_by_scan

ARTIFACTS = (
    "revisions.tsv",
    "links.tsv",
    "content_links.tsv",
    "graph.tsv",
    "nodes.tsv",
    "page_rank.tsv",
    "domain_graph.tsv",
    "domain_nodes.tsv",
    "domain_rank.tsv",
    "docs.tsv",
    "postings.tsv",
    "instances.tsv",
    "anchor_dist.csv",
    "evidence_summary.csv",
    "features.txt",
    "labels.tsv",
    "sample.tsv",
    "kappa_report.json",
    "forest.txt",
    "cv_report.json",
    "runs.tsv",
    "eval.csv",
    "sig.csv",
    "manifest.json",
)

# sha256 of every artifact but manifest.json (which gains counters over
# time) for the ``finished_run`` corpus, taken before link resolution and
# dedup were folded into ``ingest.content_links``; ``content_links.tsv``,
# the table it writes since, was added later. The digests of the forest
# and of what is scored with it (``forest.txt``, ``cv_report.json``,
# ``runs.tsv``, ``eval.csv``, ``sig.csv``) were taken with every fit made
# by the per-node reference builder of ``tests/test_forest.py``.
GOLDEN_DIGESTS = {
    "revisions.tsv": "22cf4675a71f080e111a0f868b038856d1a50edb10b66ca85f64bea88de76bf4",
    "links.tsv": "6166bcc5c39afecabd60e75f5fb3c25a741d48e895490ff6d18c0ae3c5fe07d4",
    "content_links.tsv": "560819041413ffc960b3d3cdf56011f239646d4592a288707064917634cc4049",
    "graph.tsv": "89d36b14098659f2352ce384175fbc80d5c4d9cffbe91ca84e2c74973ef60277",
    "nodes.tsv": "ac0a63e61c69e22f7af85563475a35895badfa32bf766ed4166ea86c698d439c",
    "page_rank.tsv": "fe777961b05e7971016b74832b93420123e1e6db321aba7ad870f6cfb4c0bb72",
    "domain_graph.tsv": "98006e83f4d71279597ad5a1b3569b2eab2d0905d46e781cede7e072961d415a",
    "domain_nodes.tsv": "cf24c15e059d0de3c9d18ad711a5d0cc550ec9ece2411a58d6196c918858971e",
    "domain_rank.tsv": "0d5c8bd9571c0085271dcfaef2c3e907ea63db390d3ffab28eb319591337edb7",
    "docs.tsv": "d38667efc587f3cb39d928e7fbff6921e98de66634cfdc46375689eb2e5bff35",
    "postings.tsv": "37d1aa2671496bf97d07b8ec28d90a3101cf5c2db733c2032978a99ef69f93b7",
    "instances.tsv": "4a555cce7d53791b0d229af0fad5e1a98c2fc0c94e5f469619fdf1429385c611",
    "anchor_dist.csv": "16c35a41dfb11a6f8ef31669e0f6cf734edca3ad0f5343b02ac1bdef078de672",
    "evidence_summary.csv": "85954846516e690a2eb8a1335b9bd7c25557584883fb59cacbfb1d955b203477",
    "features.txt": "b089a629fbf35da1f4c38a5b3c9c0c83454f09b83007993aba6c644317a37a94",
    "labels.tsv": "773e65f936800bccd5cf9912ab0a68fbb06bb885dbd2a7c784e2a998ef19c7eb",
    "sample.tsv": "8faeaf004a7db83be34e08c9c410994cf0731a49c0489581a521e5bd22f3243b",
    "kappa_report.json": "08e8943c196d69c4399667b5466d667f30244fe9cdf8c8e67eeb61a65b227318",
    "forest.txt": "68d6ffe8ca3b90e9e7d777a68ad5404eba6286c568fce0fdbd0977f5dd22d50c",
    "cv_report.json": "c251e705e4fa0234f8b67dc9cfe3a551cda11f94e03a35b7bb7076b6081d2579",
    "runs.tsv": "1fe1e649595c756b4edbd4befeefdac1f1d58931320cf6dd4609f206fbb1b882",
    "eval.csv": "eaca37ebb907164c51a8b8a12989fa5842f57111ef819a20e9907207133c39ba",
    "sig.csv": "99a45edcbea35b294a14ad89a7543ec8450e6be539956e3db326881357d3130f",
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini-corpus")
    return make_synthetic_archive(
        root,
        num_queries=6,
        good_per_query=5,
        chaff_per_query=8,
        spam_per_query=2,
        boosted_per_query=2,
        sources=40,
        feeder_inlinks=25,
        filler_docs=60,
        rf_num_trees=20,
        per_partition=(1, 3),
        seed=3,
    )


@pytest.fixture(scope="module")
def finished_run(corpus, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    cfg = load_config(corpus.config_path)
    for stage in STAGE_ORDER:
        run_stage(stage, cfg, run_dir)
    return run_dir


class TestConfig:
    def test_parse_and_relative_paths(self, corpus):
        cfg = load_config(corpus.config_path)
        assert cfg.seed == 42
        assert cfg["pagerank.damping"] == 0.85
        assert cfg.path("paths.queries").exists()
        assert len(cfg.archive_files()) == 3

    def test_seed_override(self, corpus):
        cfg = load_config(corpus.config_path, seed_override=99)
        assert cfg.seed == 99

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed=1\nnot a pair\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_referenced_path_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("paths.archives=nowhere\n")
        cfg = load_config(path)
        with pytest.raises(ConfigError):
            run_stage("ingest", cfg, tmp_path / "run")

    def test_synthetic_config_has_only_declared_keys(self, corpus):
        load_config(corpus.config_path)  # raises on an undeclared key

    def test_defaults_apply_to_an_empty_config(self, tmp_path):
        cfg = RunConfig({}, tmp_path)
        assert cfg.seed == 0 and cfg["rf.num_trees"] == 300 and cfg["stats.group_by_year"] is True
        assert cfg["rf.grid.min_leaf"] == [1, 5]
        assert cfg["rf.grid.features_per_split"] == ["sqrt", "third"]
        assert cfg.path("paths.queries") is None

    def test_stage_seed_derivation_is_salted(self):
        assert derive_seed(1, "ingest") != derive_seed(1, "graph")
        assert derive_seed(1, "ingest") == derive_seed(1, "ingest")


class TestSequencing:
    def test_eval_before_rank_names_the_missing_stage(self, corpus, tmp_path):
        cfg = load_config(corpus.config_path)
        with pytest.raises(MissingStageError) as err:
            run_stage("eval", cfg, tmp_path / "fresh")
        assert err.value.stage == "rank"
        assert "rank" in str(err.value)

    def test_unknown_stage_rejected(self, corpus, tmp_path):
        cfg = load_config(corpus.config_path)
        with pytest.raises(ConfigError):
            run_stage("compress", cfg, tmp_path / "fresh")


class TestFullPipeline:
    def test_all_artifacts_present(self, finished_run):
        for name in ARTIFACTS:
            assert (finished_run / name).exists(), name

    def test_manifest_lists_all_nine_stages_in_order(self, finished_run):
        manifest = json.loads((finished_run / "manifest.json").read_text())
        assert [e["stage"] for e in manifest["stages"]] == list(STAGE_ORDER)
        for entry in manifest["stages"]:
            assert "config_hash" in entry and "seed" in entry and "row_counts" in entry

    def test_manifest_inputs_carry_digests(self, finished_run):
        manifest = json.loads((finished_run / "manifest.json").read_text())
        eval_entry = manifest["stages"][-1]
        assert eval_entry["stage"] == "eval"
        assert all(len(d) == 64 for d in eval_entry["inputs"].values())

    def test_eval_csv_layout(self, finished_run):
        lines = (finished_run / "eval.csv").read_text().splitlines()
        assert lines[0] == "system,P@1,P@10,NDCG@10,MAP"
        systems = [line.split(",")[0] for line in lines[1:]]
        assert systems == ["bm25", "pagerank", "query_in_url", "rf"]

    def test_sig_csv_layout(self, finished_run):
        lines = (finished_run / "sig.csv").read_text().splitlines()
        assert lines[0] == "system_a,system_b,metric,t_statistic,p_value"
        assert len(lines) == 1 + 6 * 4  # all system pairs x four metrics

    def test_sig_csv_p_values_match_scipy_betainc(self, finished_run):
        from scipy import special

        manifest = json.loads((finished_run / "manifest.json").read_text())
        dof = manifest["stages"][-1]["row_counts"]["queries"] - 1
        for line in (finished_run / "sig.csv").read_text().splitlines()[1:]:
            t, p = map(float, line.split(",")[3:])
            assert p == pytest.approx(special.betainc(dof / 2, 0.5, dof / (dof + t * t)), rel=1e-12, abs=0), line

    def test_rerunning_a_stage_is_byte_identical(self, corpus, finished_run):
        cfg = load_config(corpus.config_path)
        before = (finished_run / "features.txt").read_bytes()
        run_stage("features", cfg, finished_run)
        assert (finished_run / "features.txt").read_bytes() == before
        before_eval = (finished_run / "eval.csv").read_bytes()
        run_stage("eval", cfg, finished_run)
        assert (finished_run / "eval.csv").read_bytes() == before_eval

    def test_rank_baselines_equal_those_of_the_full_context(self, corpus, finished_run):
        cfg = load_config(corpus.config_path)
        # the inlink column comes from the surrogates; it must count the
        # deduplicated content links of links.tsv
        with open(finished_run / "links.tsv", encoding="utf-8") as fh:
            links = ingest.counted_links(ingest.content_links(ingest.read_links_tsv(fh)), cfg["index.strategy"])
        inlinks = Counter(link.target for link in links)
        column = FEATURE_NAMES.index("inlink_count")
        with open(finished_run / "features.txt", encoding="utf-8") as fh:
            vectors = list(deserialize_vectors(fh))
        assert [v.values[column] for v in vectors] == [float(inlinks[v.doc_id]) for v in vectors]
        assert any(v.values[column] for v in vectors)
        # each baseline row against its definition, from the upstream artifacts
        page_rank = tables.read(graph.read_rank_map, finished_run / "nodes.tsv", finished_run / "page_rank.tsv")
        surrogates, stats = tables.read(anchor_index.read_index, *(finished_run / name for name in pipeline._INDEX))
        queries = {q.query_id: q for q in pipeline._query_table(cfg)[0]}
        rows = Counter()
        for line in (finished_run / "runs.tsv").read_text(encoding="utf-8").splitlines():
            system, qid, doc, score, _rank = line.split("\t")
            tokens = queries[int(qid)].tokens
            if system == "pagerank":
                expected = page_rank.get(doc, 0.0)
            elif system == "query_in_url":
                expected = float(sum(1 for t in tokenize_url(normalize(doc)) if t in set(tokens)))
            elif system == "bm25":
                expected = anchor_index.bm25_score(
                    tokens, surrogates.get(doc), stats, cfg["bm25.k1"], cfg["bm25.b"]
                )
            else:
                continue
            assert score == repr(expected), line
            rows[system] += 1
        assert sorted(rows) == ["bm25", "pagerank", "query_in_url"] and len(set(rows.values())) == 1, rows

    def test_evidence_summary_follows_its_definition(self, corpus, finished_run):
        """Each row from the upstream artifacts: set A is a query's
        candidates, set B those of them in its snapshots; the evidences are
        the URL depth, the capture count and the anchor instances that hold
        every query token."""
        cfg = load_config(corpus.config_path)
        with open(finished_run / "revisions.tsv", encoding="utf-8") as fh:
            captures = Counter(r.core_url for r in ingest.read_revisions_tsv(fh))
        surrogates, _stats = tables.read(anchor_index.read_index, *(finished_run / name for name in pipeline._INDEX))
        snapshots = labeling.load_snapshots(cfg.path("paths.serp_dir"))
        with open(finished_run / "features.txt", encoding="utf-8") as fh:
            candidates = group_by_query(deserialize_vectors(fh))
        expected = ["query_id,result_set,evidence,mean,median,q1,q3"]
        for q in pipeline._query_table(cfg)[0]:
            result_sets = {"A": [v.doc_id for v in candidates.get(q.query_id, [])]}
            if q.query_id in snapshots:
                merged = labeling.merge_snapshots(snapshots[q.query_id])
                result_sets["B"] = sorted(labeling.intersect_with_index(merged, result_sets["A"]))
            for set_name, docs in result_sets.items():
                if not docs:
                    continue
                instances = [surrogates[d].anchor_instances if d in surrogates else [] for d in docs]
                evidences = {
                    "url_depth": [url_depth(normalize(d)) for d in docs],
                    "revision_count": [captures[d] for d in docs],
                    "anchor_query_freq": [
                        sum(set(q.tokens) <= set(tokenize_text(text)) for text, _when in anchors)
                        for anchors in instances
                    ],
                }
                for evidence, values in evidences.items():
                    q1, median, q3 = (float(x) for x in np.percentile(values, [25, 50, 75]))
                    mean = float(np.mean(values))
                    expected.append(f"{q.query_id},{set_name},{evidence},{mean!r},{median!r},{q1!r},{q3!r}")
        rows = [row.split(",") for row in expected[1:]]
        assert any(r[1] == "B" for r in rows) and any(r[2] == "anchor_query_freq" and float(r[3]) > 0 for r in rows)
        assert (finished_run / "evidence_summary.csv").read_text(encoding="utf-8").splitlines() == expected

    def test_manifest_entries_carry_stage_timings(self, finished_run):
        manifest = json.loads((finished_run / "manifest.json").read_text())
        for entry in manifest["stages"]:
            for key in ("wall_s", "cpu_s", "peak_rss_kb"):
                assert isinstance(entry[key], (int, float)) and entry[key] >= 0, (entry["stage"], key)
            assert entry["peak_rss_kb"] > 0
            # the minor page faults the process took during the stage: none
            # where the stages before it left enough heap, as in this process
            assert isinstance(entry["minor_faults"], int) and entry["minor_faults"] >= 0, entry["stage"]

    def test_no_temp_files_left_behind(self, finished_run):
        assert not list(Path(finished_run).glob("*.tmp"))

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_golden_artifact_bytes(self, finished_run, name):
        assert set(GOLDEN_DIGESTS) == set(ARTIFACTS) - {"manifest.json"}
        digest = hashlib.sha256((finished_run / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_DIGESTS[name]


def _files(run_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in run_dir.iterdir()}


def test_a_failed_stage_replaces_none_of_its_outputs(corpus, finished_run, tmp_path, monkeypatch):
    """A disk that fills while graph writes nodes.tsv, after graph.tsv is
    written whole, leaves every file of the run with its old bytes and no
    temporary behind."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    for name in pipeline._STAGES["graph"][2]:
        (run_dir / name).write_text(f"old {name}\n", encoding="utf-8")
    before = _files(run_dir)

    def fills_the_disk(_graph, fh):
        fh.write("0\thttp://a.de/\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(graph, "write_nodes", fills_the_disk)
    with pytest.raises(StageDataError, match="No space left on device"):
        run_stage("graph", load_config(corpus.config_path), run_dir)
    assert _files(run_dir) == before


def test_label_without_shared_judgments_replaces_the_old_kappa_report(corpus, finished_run, tmp_path):
    """label writes kappa_report.json on every run, so no report of
    judgments no longer set is left behind. Without ``paths.judgments``, or
    with assessors who share no item, the report holds no pair and no
    average."""
    assert json.loads((finished_run / "kappa_report.json").read_text(encoding="utf-8"))["pairs"]
    judgments = corpus.config_path.parent / "judgments.tsv"
    rows = judgments.read_text(encoding="utf-8").splitlines(keepends=True)
    assessor = rows[0].split("\t")[2]
    alone = judgments.with_name("judgments-one-assessor.tsv")
    alone.write_text("".join(row for row in rows if row.split("\t")[2] == assessor), encoding="utf-8")
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    for line, assessors in (("paths.judgments=", []), (f"paths.judgments={alone.name}", [assessor])):
        run_stage("label", load_config(_config_with(corpus, line)), run_dir)
        report = json.loads((run_dir / "kappa_report.json").read_text(encoding="utf-8"))
        assert report == {"assessors": assessors, "average_pairwise_kappa": None, "pairs": {}}
    assert {p.name for p in run_dir.iterdir()} == {p.name for p in finished_run.iterdir()}


@pytest.mark.parametrize("judgments", ["judgments.tsv", ""])
def test_a_rerun_removes_the_temporaries_a_killed_stage_left(corpus, finished_run, tmp_path, judgments):
    """Each ``<name>.tmp`` a killed label left is gone after a rerun, with
    judgments or without."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    for name in (*pipeline._STAGES["label"][2], "manifest.json"):
        (run_dir / f"{name}.tmp").write_text("garbage\n", encoding="utf-8")
    run_stage("label", load_config(_config_with(corpus, f"paths.judgments={judgments}")), run_dir)
    assert not list(run_dir.glob("*.tmp"))
    assert b"garbage\n" not in _files(run_dir).values()
    if judgments:
        _assert_untouched(run_dir, finished_run, but="manifest.json")


def test_an_undeclared_output_is_a_named_error(corpus, tmp_path, monkeypatch):
    """``out`` opens only what ``_STAGES`` declares the stage writes. Asking
    for any other name is a fault of the program, not of its data, and
    the stage leaves nothing behind."""

    def handler(cfg, run_dir, seed, out):
        out["anchor_dist.csv"].write("year,k,count\n")
        out["anchor_dist.tsv"].write("year\tk\tcount\n")
        return {}

    monkeypatch.setitem(pipeline._STAGES, "stats", (handler, (), ("anchor_dist.csv",)))
    run_dir = tmp_path / "run"
    undeclared = r"stage stats writes 'anchor_dist\.tsv', which _STAGES does not declare"
    with pytest.raises(RuntimeError, match=undeclared) as caught:
        run_stage("stats", load_config(corpus.config_path), run_dir)
    assert not isinstance(caught.value, StageDataError)
    assert list(run_dir.iterdir()) == []


class TestCli:
    def test_stage_via_flag_and_positional(self, corpus, tmp_path, capsys):
        run_dir = tmp_path / "cli-run"
        rc = main(["ingest", "--config", str(corpus.config_path), "--run-dir", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("ingest: ok")

    def test_missing_upstream_exits_one_and_names_stage(self, corpus, tmp_path, capsys):
        rc = main(
            ["eval", "--config", str(corpus.config_path), "--run-dir", str(tmp_path / "empty")]
        )
        assert rc == 1
        assert "rank" in capsys.readouterr().err

    def test_no_stage_given(self, corpus, tmp_path, capsys):
        rc = main(["--config", str(corpus.config_path), "--run-dir", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["ingest", "--run-dir", "run"],
            ["compress", "--config", "config.txt", "--run-dir", "run"],
            ["ingest", "--config", "config.txt", "--run-dir", "run", "--seed", "abc"],
        ],
        ids=["missing-config", "unknown-stage", "non-integer-seed"],
    )
    def test_usage_error_exits_one(self, capsys, args):
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "content", [b"seed=1\npaths.archives=caf\xe9\n", None], ids=["non-utf8-byte", "directory"]
    )
    def test_unreadable_config_exits_one_and_names_the_file(self, tmp_path, capsys, content):
        path = tmp_path / "config.txt"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["ingest", "--config", str(path), "--run-dir", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ") and "Traceback" not in err

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_run_dir_that_is_a_file_exits_one_and_names_it(self, corpus, tmp_path, capsys, below):
        blocker = tmp_path / "run"
        blocker.write_text("not a directory\n", encoding="utf-8")
        run_dir = blocker / "sub" if below else blocker
        assert main(["ingest", "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err == f"error: run directory {run_dir} is not a directory\n"
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"

    def test_data_error_exits_two(self, corpus, tmp_path, capsys):
        run_dir = tmp_path / "broken"
        run_dir.mkdir()
        (run_dir / "content_links.tsv").write_text("")  # graph stage finds no content links
        rc = main(["graph", "--config", str(corpus.config_path), "--run-dir", str(run_dir)])
        assert rc == 2

    def test_seed_override_recorded_in_manifest(self, corpus, tmp_path):
        run_dir = tmp_path / "seeded"
        rc = main(
            [
                "ingest",
                "--config",
                str(corpus.config_path),
                "--run-dir",
                str(run_dir),
                "--seed",
                "777",
            ]
        )
        assert rc == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["stages"][0]["seed"] == derive_seed(777, "ingest")


def _config_with(corpus, *lines: str) -> Path:
    """A copy of the corpus config with the key of each line set by it."""
    keys = [line.split("=")[0] for line in lines]
    text = corpus.config_path.read_text(encoding="utf-8")
    for key, line in zip(keys, lines):
        text, replaced = re.subn(rf"^{re.escape(key)}=.*$", line, text, flags=re.M)
        assert replaced == 1, key
    cfg_path = corpus.config_path.parent / f"bad-{'-'.join(keys)}.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    return cfg_path


def _exits_one_naming_the_key(corpus, finished_run, tmp_path, capsys, line, stage) -> Path:
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    rc = main([stage, "--config", str(_config_with(corpus, line)), "--run-dir", str(run_dir)])
    assert rc == 1
    assert line.split("=")[0] in capsys.readouterr().err
    return run_dir


@pytest.mark.parametrize(
    "line, stage",
    [
        ("stats.group_by_year=flase", "stats"),
        ("label.strategy=manul", "ingest"),
        ("index.strategy=al", "index"),
    ],
)
def test_bad_enumerated_config_value_exits_one(corpus, finished_run, tmp_path, capsys, line, stage):
    _exits_one_naming_the_key(corpus, finished_run, tmp_path, capsys, line, stage)


@pytest.mark.parametrize(
    "line",
    [
        "rf.num_trees=0",
        "rf.grid.min_leaf=0",
        "rf.grid.min_leaf=1,2.5",
        "rf.folds=1",
        "rf.bootstrap_fraction=0",
        "rf.bootstrap_fraction=nan",
        "rf.bootstrap_fraction=inf",
        "rf.grid.features_per_split=foo",
        "rf.grid.features_per_split=0",
        "rf.grid.features_per_split=34",
        "rf.grid.features_per_split=sqrt,2.5",
        "rf.grid.features_per_split= , ",
        "rf.grid.features_per_split=",
    ],
)
def test_out_of_range_forest_key_exits_one(corpus, finished_run, tmp_path, capsys, line):
    run_dir = _exits_one_naming_the_key(corpus, finished_run, tmp_path, capsys, line, "train")
    assert (run_dir / "forest.txt").read_bytes() == (finished_run / "forest.txt").read_bytes()


@pytest.mark.parametrize(
    "line",
    [
        "pagerank.max_iterations=0",
        "pagerank.damping=0",
        "pagerank.damping=1",
        "pagerank.damping=nan",
        "pagerank.tolerance=0",
        "pagerank.tolerance=-1e-9",
        "pagerank.tolerance=nan",
    ],
)
def test_out_of_range_pagerank_key_exits_one(corpus, finished_run, tmp_path, capsys, line):
    run_dir = _exits_one_naming_the_key(corpus, finished_run, tmp_path, capsys, line, "graph")
    assert (run_dir / "page_rank.tsv").read_bytes() == (finished_run / "page_rank.tsv").read_bytes()


@pytest.mark.parametrize(
    "line, stage, artifact",
    [
        *(
            (line, stage, artifact)
            for line in ("bm25.k1=nan", "bm25.k1=-5", "bm25.k1=inf", "bm25.b=1.5")
            for stage, artifact in (("features", "features.txt"), ("rank", "runs.tsv"))
        ),
        ("sample.per_partition_min=0", "label", "sample.tsv"),
        ("sample.per_partition_max=0", "label", "sample.tsv"),
        ("sample.per_partition_min=9", "label", "sample.tsv"),  # above the corpus's max of 3
        ("stats.top_n_domains=-1", "stats", "anchor_dist.csv"),
    ],
)
def test_out_of_range_key_exits_one_and_keeps_the_artifact(corpus, finished_run, tmp_path, capsys, line, stage, artifact):
    run_dir = _exits_one_naming_the_key(corpus, finished_run, tmp_path, capsys, line, stage)
    assert (run_dir / artifact).read_bytes() == (finished_run / artifact).read_bytes()


def test_bad_forest_key_fails_ingest_before_it_writes(corpus, tmp_path, capsys):
    run_dir = tmp_path / "run"
    cfg_path = _config_with(corpus, "rf.num_trees=0")
    assert main(["ingest", "--config", str(cfg_path), "--run-dir", str(run_dir)]) == 1
    assert "rf.num_trees" in capsys.readouterr().err
    assert not (run_dir / "revisions.tsv").exists()


def _readme_config_block() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_lists_every_key_with_its_default():
    written = dict(line.split("=", 1) for line in _readme_config_block().splitlines() if line[:1] not in ("", "#"))
    assert sorted(written) == sorted(pipeline.SETTINGS)
    for key, (_parse, default) in pipeline.SETTINGS.items():
        if key != "seed" and not key.startswith("paths."):
            assert written[key] == default, key


def test_readme_config_block_loads(tmp_path):
    """The block is a config: it loads, and each path it sets names the
    file or directory it shows, which passes the check once it exists."""
    path = tmp_path / "config.txt"
    path.write_text(_readme_config_block(), encoding="utf-8")
    cfg = load_config(path)
    for key in (k for k in cfg.values if k.startswith("paths.")):
        target = cfg.path(key)
        if key in ("paths.archives", "paths.serp_dir"):
            target.mkdir()
        else:
            target.parent.mkdir(exist_ok=True)
            target.touch()
    (tmp_path / "archives" / "a.warc.gz").touch()
    cfg.validate_paths()
    assert cfg.path("paths.judgments") == tmp_path / "judgments.tsv"
    assert cfg["stats.top_n_domains"] == 0 and cfg["index.strategy"] == "unique_per_revision"


def test_repeated_config_key_is_rejected_with_both_lines(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("seed=1\nrf.num_trees=10\n\nrf.num_trees = 20\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"rf\.num_trees set on line 2 and again on line 4"):
        load_config(path)


@pytest.mark.parametrize("stage", STAGE_ORDER)
def test_stage_needs_only_its_declared_inputs(corpus, finished_run, tmp_path, stage):
    """Run on exactly the artifacts its table row reads, a stage writes
    exactly those its row names, with the bytes of the finished run."""
    _handler, reads, writes = pipeline._STAGES[stage]
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for name in reads:
        shutil.copyfile(finished_run / name, run_dir / name)
    run_stage(stage, load_config(corpus.config_path), run_dir)
    assert {p.name for p in run_dir.iterdir()} == {*reads, *writes, "manifest.json"}
    for name in writes:
        assert (run_dir / name).read_bytes() == (finished_run / name).read_bytes(), name


def stage_writes(source: str) -> list[str]:
    """Each call in a ``_stage_*`` function that writes a file itself:
    ``write_text``/``write_bytes``, or an ``open`` whose mode is not a
    constant made of ``r``, ``b`` and ``t``."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_stage_")):
            continue
        for call in (node for node in ast.walk(fn) if isinstance(node, ast.Call)):
            method = isinstance(call.func, ast.Attribute)
            name = call.func.attr if method else getattr(call.func, "id", "")
            if name == "open":
                position = 0 if method else 1  # path.open(mode) or open(file, mode)
                modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position : position + 1]
                if not all(isinstance(m, ast.Constant) and set(m.value) <= set("rbt") for m in modes):
                    found.append(f"{fn.name}: open")
            elif name in ("write_text", "write_bytes"):
                found.append(f"{fn.name}: {name}")
    return found


def test_no_stage_handler_writes_a_file():
    # a handler writes only into the temporaries of ``out``, which run_stage
    # renames together once the handler has returned, so a stage that fails
    # replaces none of its outputs
    assert stage_writes(Path(pipeline.__file__).read_text(encoding="utf-8")) == []


def test_the_guard_sees_a_handler_write():
    source = (
        "def _stage_a(cfg, run_dir, seed, out):\n"
        "    out['x'].write('')\n"
        "    open(run_dir / 'y', 'w')\n"
        "    (run_dir / 'z').open(mode='a')\n"
        "    (run_dir / 'z').write_text('')\n"
        "    open(run_dir / 'r', encoding='utf-8'), open(run_dir / 'r', 'rb'), (run_dir / 'r').open()\n"
        "def _stage_b(cfg, run_dir, seed, out, mode):\n"
        "    open(run_dir / 'w', mode)\n"
        "def helper(run_dir):\n"
        "    open(run_dir / 'w', 'w')\n"
    )
    assert stage_writes(source) == [
        "_stage_a: open", "_stage_a: open", "_stage_a: write_text", "_stage_b: open",
    ]


def table_reads(source: str, module: str) -> list[str]:
    """``<module>.<function>`` for each call that opens a file to read it:
    ``read_text``/``read_bytes``, or an ``open`` whose mode is not a
    constant free of ``w``, ``a``, ``x`` and ``+``. The function is the
    innermost ``def`` around the call."""
    found = []

    def visit(node, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                method = isinstance(child.func, ast.Attribute)
                name = child.func.attr if method else getattr(child.func, "id", "")
                position = 0 if method else 1  # path.open(mode) or open(file, mode)
                modes = [k.value for k in child.keywords if k.arg == "mode"] + child.args[position : position + 1]
                writes = modes and all(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)
                if name in ("read_text", "read_bytes") or (name == "open" and not writes):
                    found.append(f"{module}.{function}")
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


# the reads that are not tables: the config, the manifest, /proc, and the
# binary opens of the digests and the containers
NOT_TABLES = ["pipeline.load_config", "pipeline._peak_rss_kb", "pipeline._check_requirements", "pipeline._read_manifest",
              "pipeline._stage_ingest"]


def test_tables_read_is_the_one_place_a_table_is_opened():
    found = []
    for path in sorted(Path(pipeline.__file__).parent.glob("*.py")):
        found += table_reads(path.read_text(encoding="utf-8"), path.stem)
    assert sorted(found) == sorted(["tables.read", *NOT_TABLES])


def test_the_guard_sees_a_table_opened_for_reading():
    source = (
        "def reader(path):\n"
        "    open(path), open(path, 'rb'), open(path, mode='rt'), path.open(), path.read_text()\n"
        "    open(path, 'w'), open(path, 'ab'), path.open('x'), path.open(mode='r+'), path.write_text('')\n"
        "def outer(path, mode):\n"
        "    def inner():\n"
        "        return open(path, mode)\n"
        "    return lambda: path.read_bytes()\n"
    )
    assert table_reads(source, "m") == ["m.reader"] * 5 + ["m.inner", "m.outer"]


def test_each_stage_after_ingest_opens_each_file_once(corpus, finished_run, tmp_path, monkeypatch):
    """Every table is opened by tables.read (the guard above), so the paths
    it is given are every file a stage reads."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    cfg = load_config(corpus.config_path)
    read = tables.read
    opened: list[Path] = []

    def counted(parse, *paths):
        opened.extend(Path(path) for path in paths)
        return read(parse, *paths)

    monkeypatch.setattr(tables, "read", counted)
    for stage in STAGE_ORDER[1:]:
        opened.clear()
        run_stage(stage, cfg, run_dir)
        assert opened, stage
        assert [path for path, n in Counter(opened).items() if n > 1] == [], stage


def test_features_tokenizes_each_url_once(corpus, finished_run, tmp_path, monkeypatch):
    """The filter of the index read and FeatureContext.build both need the
    URL tokens of the documents of docs.tsv; build reuses those the filter
    made, so each URL is tokenized at most once in a features run."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    calls: Counter[str] = Counter()

    def counted(url):
        calls[str(url)] += 1
        return tokenize_url(url)

    for module in (pipeline, features_module):
        monkeypatch.setattr(module, "tokenize_url", counted)
    run_stage("features", load_config(corpus.config_path), run_dir)
    assert (run_dir / "features.txt").read_bytes() == (finished_run / "features.txt").read_bytes()
    with open(run_dir / "docs.tsv", encoding="utf-8") as fh:
        documents = {line.split("\t")[0] for line in fh}
    assert documents <= set(calls)
    assert [url for url, n in calls.items() if n > 1] == []


def test_readme_stage_table_lists_what_each_stage_writes():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    written = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip("| ").split("|")]
        if line.startswith("|") and cells[0] in STAGE_ORDER:
            written[cells[0]] = re.findall(r"`([\w.]+\.(?:tsv|csv|txt|json))`", cells[-1])
    assert list(written) == list(STAGE_ORDER)
    assert written == {stage: list(writes) for stage, (_handler, _reads, writes) in pipeline._STAGES.items()}


def test_readme_row_count_table_lists_each_stages_row_counts(finished_run):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    documented = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip("| ").split("|")]
        if line.startswith("| `") and cells[0].strip("`") in STAGE_ORDER:
            documented[cells[0].strip("`")] = re.findall(r"`(\w+)`", cells[-1])
    manifest = json.loads((finished_run / "manifest.json").read_text(encoding="utf-8"))
    assert documented == {entry["stage"]: list(entry["row_counts"]) for entry in manifest["stages"]}


def test_stats_builds_no_feature_context(corpus, finished_run, tmp_path, monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("stats reached for the feature context")

    monkeypatch.setattr(pipeline.FeatureContext, "build", forbidden)
    monkeypatch.setattr(pipeline, "candidate_docs", forbidden)
    monkeypatch.setattr(anchor_index, "read_index", forbidden)
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    run_stage("stats", load_config(corpus.config_path), run_dir)
    _assert_untouched(run_dir, finished_run, but="manifest.json")
    rows = (finished_run / "anchor_dist.csv").read_text(encoding="utf-8").count("\n") - 1  # after the header
    assert _row_counts(run_dir) == {"distribution_rows": rows}


_MISSING_INPUTS = [
    *(("content_links.tsv", stage) for stage in ("graph", "index", "stats")),
    ("page_rank.tsv", "features"),
    ("domain_rank.tsv", "features"),
    *(("postings.tsv", stage) for stage in ("features", "rank")),
    ("docs.tsv", "rank"),
    ("instances.tsv", "features"),
]


@pytest.mark.parametrize(
    "artifact, stage", _MISSING_INPUTS, ids=[f"{artifact}-{stage}" for artifact, stage in _MISSING_INPUTS]
)
def test_missing_context_input_exits_one_and_names_its_stage(corpus, finished_run, tmp_path, capsys, stage, artifact):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    (run_dir / artifact).unlink()
    assert main([stage, "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 1
    producer = {"content_links.tsv": "ingest", "page_rank.tsv": "graph", "domain_rank.tsv": "graph"}.get(artifact, "index")
    assert f"{artifact!r}: run stage '{producer}'" in capsys.readouterr().err


def _cut_forest(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:5]) + "tree\n"


def _first_row_to(row: str):
    return lambda text: row + "\n" + text.split("\n", 1)[1]


@pytest.mark.parametrize(
    "artifact, damage, stage",
    [
        ("forest.txt", _cut_forest, "rank"),
        ("page_rank.tsv", _first_row_to("7"), "features"),
        ("postings.tsv", _first_row_to("term"), "rank"),
        *(
            ("content_links.tsv", _first_row_to(row), stage)
            for row, stage in (
                ("http://s.de/\thttp://t.de/", "graph"),
                ("http://s.de/\thttp://t.de/\tnoon\t1\ts.de\tt.de\tx", "index"),
                ("http://s.de/\thttp://t.de/\t5\tyes\ts.de\tt.de\tx", "stats"),
            )
        ),
    ],
    ids=[
        "forest-cut", "page-rank-row", "postings-row",
        "content-links-short-row-graph", "content-links-time-index", "content-links-flag-stats",
    ],
)
def test_damaged_artifact_exits_two_without_a_traceback(corpus, finished_run, tmp_path, artifact, damage, stage):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / artifact
    path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
    proc = _python(
        "import sys; from archive_rank.cli import main; sys.exit(main(sys.argv[1:]))",
        stage, "--config", str(corpus.config_path), "--run-dir", str(run_dir),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("data error: ") and "Traceback" not in proc.stderr


def test_ingest_picks_the_parser_by_file_suffix(corpus, finished_run, tmp_path):
    # names that hold ".arc" but end in ".warc.gz" are WARC files
    root = tmp_path / "corpus"
    shutil.copytree(corpus.config_path.parent, root)
    warcs = sorted((root / "archives").glob("*.warc.gz"))
    assert len(warcs) == 2
    for path in warcs:
        path.rename(path.with_name("my.archive." + path.name))
    run_dir = tmp_path / "run"
    assert main(["ingest", "--config", str(root / corpus.config_path.name), "--run-dir", str(run_dir)]) == 0
    assert _row_counts(run_dir)["corrupt"] == 0
    for name in ("revisions.tsv", "links.tsv", "content_links.tsv"):
        assert (run_dir / name).read_bytes() == (finished_run / name).read_bytes(), name


def test_unknown_config_key_exits_one_and_names_it(corpus, tmp_path, capsys):
    cfg_path = corpus.config_path.parent / "typo.cfg"
    cfg_path.write_text(corpus.config_path.read_text(encoding="utf-8") + "rf.num_tress=300\n", encoding="utf-8")
    run_dir = tmp_path / "run"
    assert main(["ingest", "--config", str(cfg_path), "--run-dir", str(run_dir)]) == 1
    assert "rf.num_tress" in capsys.readouterr().err
    assert not (run_dir / "revisions.tsv").exists()


SRC = Path(__file__).resolve().parent.parent / "src"


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_cli_import_leaves_scipy_unloaded():
    proc = _python("import sys, archive_rank.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_stage_loads_scipy(corpus, finished_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    code = (
        "import sys\n"
        "from archive_rank.cli import main\n"
        "for stage in sys.argv[3:]:\n"
        "    assert main([stage, '--config', sys.argv[1], '--run-dir', sys.argv[2]]) == 0\n"
        "    print(stage, 'scipy' in sys.modules)\n"
        "import scipy\n"
        "print('control', 'scipy' in sys.modules)\n"  # shows the probe can see scipy
    )
    proc = _python(code, str(corpus.config_path), str(run_dir), *STAGE_ORDER)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(line.split() for line in proc.stdout.splitlines() if line.split()[-1] in ("True", "False"))
    assert loaded == {**{stage: "False" for stage in STAGE_ORDER}, "control": "True"}


def _full_context(run_dir: Path) -> FeatureContext:
    """The feature context of every document, from the whole index read unfiltered."""
    surrogates, stats = tables.read(anchor_index.read_index, *(run_dir / name for name in pipeline._INDEX))
    revisions = tables.read(lambda lines: list(ingest.read_revisions_tsv(lines)), run_dir / "revisions.tsv")
    return FeatureContext.build(revisions, surrogates, stats)


def test_candidate_docs_equal_a_scan_of_every_document(corpus, finished_run):
    cfg = load_config(corpus.config_path)
    ctx = _full_context(finished_run)
    queries = pipeline._query_table(cfg)[0]
    scoped = pipeline._build_context(cfg, finished_run, {t for q in queries for t in q.tokens})
    words = sorted({t for q in queries for t in q.tokens} | {"de", "www", "html"})
    found = 0
    for q in queries + [QueryRecord(0, word, "politician") for word in words]:
        docs = candidate_docs(q, ctx)
        assert docs == candidates_by_scan(q, ctx), q.text
        found += len(docs)
    assert found > len(ctx.documents)  # "de" alone finds every .de document
    # the context features builds, of the documents that hold a query token,
    # finds each query's candidates of the whole archive
    for q in queries:
        assert candidate_docs(q, scoped) == candidates_by_scan(q, ctx), q.text


# the stages that need no numpy; the others import it where they use it
NUMPY_FREE_STAGES = ("ingest", "index", "stats", "features")


def test_no_module_import_loads_numpy():
    proc = _python(
        "import sys, pkgutil, archive_rank, archive_rank.cli\n"
        "for m in pkgutil.iter_modules(archive_rank.__path__):\n"
        "    __import__(f'archive_rank.{m.name}')\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'numpy'])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numpy_free_stages_leave_numpy_unloaded(corpus, finished_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    code = (
        "import sys\n"
        "from archive_rank.cli import main\n"
        "def numpy_loaded():\n"
        "    return any(m.split('.')[0] == 'numpy' for m in sys.modules)\n"
        "for stage in sys.argv[3:]:\n"
        "    assert main([stage, '--config', sys.argv[1], '--run-dir', sys.argv[2]]) == 0\n"
        "    print(stage, numpy_loaded())\n"
        "import numpy\n"
        "print('control', numpy_loaded())\n"  # shows the probe can see numpy
    )
    proc = _python(code, str(corpus.config_path), str(run_dir), *NUMPY_FREE_STAGES)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(line.split() for line in proc.stdout.splitlines() if line.split()[-1] in ("True", "False"))
    assert loaded == {**{stage: "False" for stage in NUMPY_FREE_STAGES}, "control": "True"}
    for name in ("content_links.tsv", "postings.tsv", "anchor_dist.csv", "features.txt"):
        assert (run_dir / name).read_bytes() == (finished_run / name).read_bytes(), name


def test_graph_and_train_leave_numpy_ma_unloaded(corpus, finished_run, tmp_path):
    """``np.unique`` imports ``numpy.ma`` (numpy 2.4), which no stage but
    ``label`` needs: ``label`` reaches it through ``np.percentile``, the
    known exception, which here also shows that the probe can see it."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    code = (
        "import sys\n"
        "from archive_rank.cli import main\n"
        "for stage in sys.argv[3:]:\n"
        "    assert main([stage, '--config', sys.argv[1], '--run-dir', sys.argv[2]]) == 0\n"
        "    print(stage, 'numpy.ma' in sys.modules)\n"
    )
    stages = ("graph", "train", "rank", "eval", "label")
    proc = _python(code, str(corpus.config_path), str(run_dir), *stages)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(line.split() for line in proc.stdout.splitlines() if line.split()[-1] in ("True", "False"))
    assert loaded == {"graph": "False", "train": "False", "rank": "False", "eval": "False", "label": "True"}
    for name in ("graph.tsv", "forest.txt", "eval.csv"):
        assert (run_dir / name).read_bytes() == (finished_run / name).read_bytes(), name


def test_only_label_and_train_load_numpy_random(corpus, finished_run, tmp_path):
    """Importing ``numpy.random`` adds about 6 MB to a stage's peak RSS. Only
    ``label`` (the sample) and ``train`` (bootstraps and folds) draw random
    numbers; ``label`` here also shows that the probe can see it."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    code = (
        "import sys\n"
        "from archive_rank.cli import main\n"
        "for stage in sys.argv[3:]:\n"
        "    assert main([stage, '--config', sys.argv[1], '--run-dir', sys.argv[2]]) == 0\n"
        "    print(stage, 'numpy.random' in sys.modules)\n"
    )
    stages = ("graph", "rank", "eval", "label")
    proc = _python(code, str(corpus.config_path), str(run_dir), *stages)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(line.split() for line in proc.stdout.splitlines() if line.split()[-1] in ("True", "False"))
    assert loaded == {"graph": "False", "rank": "False", "eval": "False", "label": "True"}
    for name in ("page_rank.tsv", "runs.tsv", "eval.csv", "sample.tsv"):
        assert (run_dir / name).read_bytes() == (finished_run / name).read_bytes(), name


def test_features_txt_holds_each_distinct_value_once(finished_run):
    """A fresh process reading features.txt holds well under one float object
    per value: equal number texts share one (1,330 bytes a vector of 33
    values on the many-candidates workload before, about 550 after)."""
    code = (
        "import sys, tracemalloc\n"
        "from archive_rank import tables\n"
        "from archive_rank.features import deserialize_vectors\n"
        "tracemalloc.start()\n"
        "vectors = tables.read(lambda lines: list(deserialize_vectors(lines)), sys.argv[1])\n"
        "print(len(vectors), tracemalloc.get_traced_memory()[0])\n"
    )
    proc = _python(code, str(finished_run / "features.txt"))
    assert proc.returncode == 0, proc.stderr
    vectors, held = map(int, proc.stdout.split())
    assert vectors == _row_counts_of(finished_run, "features")["vectors"] > 0
    assert held / vectors <= 900


def test_manifest_peak_rss_is_the_stage_process_own(corpus, tmp_path):
    """Linux carries ``ru_maxrss`` across ``execve``, so a stage started from
    a large process must not report that process's peak as its own."""
    ballast = bytearray(b"\x01") * (128 << 20)  # every page written, so resident
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >= 128 << 10
    run_dir = tmp_path / "run"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "archive_rank.cli", "ingest", "--config", str(corpus.config_path), "--run-dir", str(run_dir)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    del ballast
    assert proc.returncode == 0, proc.stderr
    (entry,) = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert 0 < entry["peak_rss_kb"] < 128 << 10
    # a fresh process faults in the pages its stage first touches, and
    # only those: the parent's ballast is not counted
    assert 0 < entry["minor_faults"] < (128 << 20) // resource.getpagesize()


def _write_corpus(root: Path, records: list[bytes]) -> Path:
    (root / "archives").mkdir(parents=True)
    (root / "archives" / "part.warc.gz").write_bytes(b"".join(gzip.compress(r, mtime=0) for r in records))
    (root / "config.txt").write_text("seed=1\npaths.archives=archives\n", encoding="utf-8")
    return root / "config.txt"


def _row_counts(run_dir: Path) -> dict[str, int]:
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["stages"][-1]["row_counts"]


def test_ingest_and_index_count_dropped_and_truncated_input(tmp_path, monkeypatch):
    long_anchor = "wort " * 2000  # longer than ANCHOR_TEXT_CAP
    config = _write_corpus(
        tmp_path / "corpus",
        [
            # Heritrix writes DNS lookups as response records
            warc_record_bytes("dns:example.com", "2009-01-01T00:00:00Z", b"93.184.216.34"),
            warc_record_bytes(
                "http://s.de/",
                "2009-01-01T00:00:00Z",
                f'<a href="http://t.de/">{long_anchor}</a>'.encode("utf-8"),
            ),
            warc_record_bytes("http://t.de/", "2009-01-01T00:00:00Z", b"<html></html>"),
        ],
    )
    run_dir = tmp_path / "run"
    assert main(["ingest", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    counts = _row_counts(run_dir)
    assert counts["bad_url"] == 1 and counts["truncated_anchors"] == 1
    assert counts["revisions"] == 2 and counts["links"] == 1

    monkeypatch.setattr(anchor_index, "SURROGATE_TOKEN_CAP", 10)
    assert main(["index", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    counts = _row_counts(run_dir)
    assert counts["indexed_docs"] == 1 and counts["truncated_tokens"] > 0


def test_graph_drops_an_unparseable_link_target(tmp_path):
    config = _write_corpus(tmp_path / "corpus", [])
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    links = io.StringIO(
        "http://s.de/\t1\thttp://t.de/\tA/href\tok\n"
        "http://s.de/\t1\thttp://[broken/\tA/href\tbad\n"
    )
    # what ingest writes for these links.tsv rows
    with open(run_dir / "content_links.tsv", "w", encoding="utf-8") as fh:
        assert ingest.write_content_links_tsv(ingest.content_links(ingest.read_links_tsv(links)), fh) == 1
    assert main(["graph", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    assert _row_counts(run_dir)["page_edges"] == 1


def test_ingest_writes_link_tables_without_rows_that_graph_names(tmp_path, capsys):
    """ingest writes every declared output, so a page without links leaves
    both link tables empty, not missing: graph then names
    content_links.tsv and the stage that writes it."""
    config = _write_corpus(
        tmp_path / "corpus", [warc_record_bytes("http://s.de/", "2009-01-01T00:00:00Z", b"<p>no links</p>")]
    )
    run_dir = tmp_path / "run"
    assert main(["ingest", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    assert _row_counts(run_dir)["links"] == 0
    assert (run_dir / "links.tsv").read_bytes() == (run_dir / "content_links.tsv").read_bytes() == b""
    capsys.readouterr()
    assert main(["graph", "--config", str(config), "--run-dir", str(run_dir)]) == 2
    content_links = run_dir / "content_links.tsv"
    assert capsys.readouterr().err == f"data error: stage graph: {content_links}: {_NO_ROWS.format('ingest')}\n"


def test_index_tables_may_hold_no_row(tmp_path):
    """The one archived page links only to a page that was never archived,
    so no document has a surrogate and the index is empty. features still
    reads all three index tables and finds the page by the query token in
    its URL."""
    config = _write_corpus(
        tmp_path / "corpus",
        [
            warc_record_bytes(
                "http://www.zeta.de/", "2009-01-01T00:00:00Z", b'<a href="http://www.other.de/zeta/">zeta</a>'
            )
        ],
    )
    (config.parent / "queries.tsv").write_text("1\tzeta\tartist\n", encoding="utf-8")
    with open(config, "a", encoding="utf-8") as fh:
        fh.write("paths.queries=queries.tsv\n")
    run_dir = tmp_path / "run"
    for stage in ("ingest", "graph", "index", "features"):
        assert main([stage, "--config", str(config), "--run-dir", str(run_dir)]) == 0, stage
        if stage == "index":
            assert [(run_dir / name).read_bytes() for name in pipeline._STAGES["index"][2]] == [b""] * 3
    assert _row_counts(run_dir)["vectors"] == 1


def test_an_emptied_postings_table_is_named_without_a_line(corpus, finished_run, tmp_path, capsys):
    """The index self-check fails before postings.tsv gives a line, so the
    message names the file alone."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    (run_dir / "postings.tsv").write_text("", encoding="utf-8")
    assert main(["features", "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert re.match(r"data error: stage features: \S+/postings\.tsv: document ", err) and "line 0" not in err, err


# every (stage, input) that must hold a row: all but the index tables
_MUST_HOLD_A_ROW = [
    (stage, artifact)
    for stage, (_handler, reads, _writes) in pipeline._STAGES.items()
    for artifact in reads
    if artifact not in ("docs.tsv", "postings.tsv", "instances.tsv")
]


@pytest.mark.parametrize("stage, artifact", _MUST_HOLD_A_ROW, ids=["-".join(case) for case in _MUST_HOLD_A_ROW])
@pytest.mark.parametrize("text", ["", "\n\n"], ids=["emptied", "blank-lines"])
def test_an_input_without_a_row_exits_two_naming_its_producer(
    corpus, finished_run, tmp_path, capsys, stage, artifact, text
):
    """An input outside the index with no byte but line ends is a data
    error that names the file and the stage that writes it, raised before
    the stage reads anything, so no warning is given and nothing is
    written."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    (run_dir / artifact).write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([stage, "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    producer = next(name for name, (_h, _r, writes) in pipeline._STAGES.items() if artifact in writes)
    err = capsys.readouterr().err
    assert err == f"data error: stage {stage}: {run_dir / artifact}: {_NO_ROWS.format(producer)}\n"
    _assert_untouched(run_dir, finished_run, but=artifact)


def _assert_untouched(run_dir: Path, finished_run: Path, but: str = "") -> None:
    """Every file of the finished run, save ``but``, is in ``run_dir`` with its bytes."""
    assert {p.name for p in run_dir.iterdir()} == {p.name for p in finished_run.iterdir()}
    for path in sorted(finished_run.iterdir()):
        if path.name != but:
            assert (run_dir / path.name).read_bytes() == path.read_bytes(), path.name


# each run-directory table that rows() reads, and a stage that reads it
_RUN_TABLES = [
    ("revisions.tsv", "index"),
    ("content_links.tsv", "graph"),
    ("nodes.tsv", "features"),
    ("domain_nodes.tsv", "features"),
    ("docs.tsv", "rank"),
    ("postings.tsv", "rank"),
    ("instances.tsv", "features"),
    ("sample.tsv", "rank"),
    ("labels.tsv", "eval"),
    ("runs.tsv", "eval"),
]


@pytest.mark.parametrize("artifact, stage", _RUN_TABLES, ids=[f"{a}-{s}" for a, s in _RUN_TABLES])
@pytest.mark.parametrize("damage", ["blank", "comment", "extra-field"])
def test_run_table_line_format_at_its_stage(corpus, finished_run, tmp_path, capsys, artifact, stage, damage):
    # blank lines are skipped; a '#' row or a row with one field too many is damage
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / artifact
    text = path.read_text(encoding="utf-8")
    path.write_text(
        {
            "blank": "\n" + text.replace("\n", "\n\n", 1) + "\n",
            "comment": "# comment\n" + text,
            "extra-field": text.replace("\n", "\tx\n", 1),
        }[damage],
        encoding="utf-8",
    )
    rc = main([stage, "--config", str(corpus.config_path), "--run-dir", str(run_dir)])
    err = capsys.readouterr().err
    path.write_text(text, encoding="utf-8")
    if damage == "blank":
        assert rc == 0, err
        _assert_untouched(run_dir, finished_run, but="manifest.json")
    else:
        assert rc == 2 and err.startswith(f"data error: stage {stage}: ") and "Traceback" not in err
        _assert_untouched(run_dir, finished_run)


def test_features_replaces_neither_output_when_its_context_is_damaged(corpus, finished_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    (run_dir / "nodes.tsv").write_text("# comment\n", encoding="utf-8")
    assert main(["features", "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    assert (run_dir / "features.txt").read_bytes() == (finished_run / "features.txt").read_bytes()


@pytest.mark.parametrize("artifact", ["nodes.tsv", "page_rank.tsv", "domain_nodes.tsv"])
def test_features_rejects_a_rank_pair_cut_in_half(corpus, finished_run, tmp_path, capsys, artifact):
    # a table cut at a line boundary still parses; only its rank pair's ids
    # and row count show the cut
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / artifact
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
    assert main(["features", "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: stage features: ") and artifact in err
    assert (run_dir / "features.txt").read_bytes() == (finished_run / "features.txt").read_bytes()


@pytest.mark.parametrize("column, value", [(3, "0"), (1, "-5")], ids=["root-left-zero", "negative-feature"])
def test_rank_rejects_a_damaged_forest(corpus, finished_run, tmp_path, capsys, column, value):
    # a root that is its own left child would descend forever, and numpy
    # would read feature -5 as the fifth column from the end
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / "forest.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    root = next(i for i, line in enumerate(lines) if line.startswith("tree 0 ")) + 1
    fields = lines[root].split(" ")
    assert fields[1] != "-1"  # the root is a split
    fields[column] = value
    lines[root] = " ".join(fields)
    path.write_text("".join(lines), encoding="utf-8")
    assert main(["rank", "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: stage rank: ") and re.search(r"forest\.txt: line \d+: tree 0 node 0:", err)
    _assert_untouched(run_dir, finished_run, but="forest.txt")


@pytest.mark.parametrize("keep", [1, 2, 3, 4, 5])
def test_rank_names_forest_txt_when_its_header_is_cut(corpus, finished_run, tmp_path, capsys, keep):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / "forest.txt"
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:keep]), encoding="utf-8")
    assert main(["rank", "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: stage rank: ") and "forest.txt: " in err
    _assert_untouched(run_dir, finished_run, but="forest.txt")


def test_rank_names_the_line_of_a_bad_forest_parameter(corpus, finished_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / "forest.txt"
    text = path.read_text(encoding="utf-8")
    path.write_text(re.sub(r"num_trees=\d+", "num_trees=x", text, count=1), encoding="utf-8")
    assert main(["rank", "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    assert "forest.txt: line 2: " in capsys.readouterr().err


def test_postings_count_that_disagrees_with_its_entries_exits_two(corpus, finished_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / "postings.tsv"
    first, rest = path.read_text(encoding="utf-8").split("\n", 1)
    term, count, entries = first.split("\t", 2)
    path.write_text(f"{term}\t{int(count) + 50}\t{entries}\n{rest}", encoding="utf-8")
    assert main(["features", "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: stage features: ") and "postings.tsv" in err and repr(term) in err
    _assert_untouched(run_dir, finished_run, but="postings.tsv")


@pytest.mark.parametrize("content", ["garbage", "{}", '{"stages": {}}', "[]"])
def test_damaged_manifest_exits_two_before_the_stage_writes(corpus, finished_run, tmp_path, capsys, content):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    (run_dir / "manifest.json").write_text(content, encoding="utf-8")
    (run_dir / "eval.csv").unlink()
    assert main(["eval", "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "manifest.json" in err and "Traceback" not in err
    assert not (run_dir / "eval.csv").exists()
    assert (run_dir / "manifest.json").read_text(encoding="utf-8") == content
    assert (run_dir / "sig.csv").read_bytes() == (finished_run / "sig.csv").read_bytes()


@pytest.mark.parametrize("stage", ["features", "rank"])
def test_repeated_query_id_exits_two_before_the_stage_writes(corpus, finished_run, tmp_path, capsys, stage):
    queries = corpus.config_path.parent / "resources" / "queries.tsv"
    text = queries.read_text(encoding="utf-8")
    repeated = queries.with_name("queries-repeated.tsv")
    repeated.write_text(text + text.splitlines(keepends=True)[0], encoding="utf-8")
    config = _config_with(corpus, f"paths.queries=resources/{repeated.name}")
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    assert main([stage, "--config", str(config), "--run-dir", str(run_dir)]) == 2
    qid = text.split("\t", 1)[0]
    assert f"query id {qid} appears more than once" in capsys.readouterr().err
    _assert_untouched(run_dir, finished_run)


def _row_counts_of(run_dir: Path, stage: str) -> dict[str, int]:
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    return next(e["row_counts"] for e in manifest["stages"] if e["stage"] == stage)


@pytest.mark.parametrize("stage", ["features"])
def test_invalid_query_is_counted(corpus, finished_run, tmp_path, capsys, stage):
    assert _row_counts_of(finished_run, stage)["invalid_queries"] == 0
    queries = corpus.config_path.parent / "resources" / "queries.tsv"
    text = queries.read_text(encoding="utf-8")
    entity_type = text.splitlines()[0].split("\t")[2]
    extended = queries.with_name("queries-invalid.tsv")
    extended.write_text(text + f"99\tSmith, John\t{entity_type}\n", encoding="utf-8")
    config = _config_with(corpus, f"paths.queries=resources/{extended.name}")
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    assert main([stage, "--config", str(config), "--run-dir", str(run_dir)]) == 0
    assert "invalid_queries=1" in capsys.readouterr().out.split()
    assert _row_counts(run_dir)["invalid_queries"] == 1
    _assert_untouched(run_dir, finished_run, but="manifest.json")


def test_label_counts_a_misnamed_snapshot(corpus, finished_run, tmp_path, capsys):
    """A file of ``paths.serp_dir`` not named ``<query_id>_<date>.txt`` is
    skipped and counted; every label output stays as it was."""
    assert _row_counts_of(finished_run, "label")["misnamed_snapshots"] == 0
    serp = corpus.config_path.parent / "serp"
    copied = corpus.config_path.parent / "serp-misnamed"
    shutil.copytree(serp, copied)
    shutil.copyfile(sorted(serp.iterdir())[0], copied / "query-1.txt")
    config = _config_with(corpus, f"paths.serp_dir={copied.name}")
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    assert main(["label", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    assert "misnamed_snapshots=1" in capsys.readouterr().out.split()
    counts = _row_counts(run_dir)
    assert counts == {**_row_counts_of(finished_run, "label"), "misnamed_snapshots": 1}
    _assert_untouched(run_dir, finished_run, but="manifest.json")


# what run_stage says of an input without a row, given its producer
_NO_ROWS = "no rows: stage '{}' wrote none, or the file was emptied"
_NO_LABEL = r"no row for query \d+, document http://\S+: "


@pytest.mark.parametrize("stage", ["train", "eval"])
@pytest.mark.parametrize(
    "damage", [lambda lines: lines[: len(lines) // 2], lambda lines: []], ids=["halved", "emptied"]
)
def test_a_pooled_pair_without_a_label_row_exits_two(corpus, finished_run, tmp_path, capsys, stage, damage):
    """label writes a row of labels.tsv for every candidate, so a pooled pair
    without one means the file was cut: train and eval name the file and
    the pair instead of training or scoring on a label of 0. An emptied
    file is named before the stage starts."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    labels = run_dir / "labels.tsv"
    lines = labels.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = damage(lines)
    labels.write_text("".join(kept), encoding="utf-8")
    assert main([stage, "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    message = _NO_LABEL if kept else _NO_ROWS.format("label")
    assert re.match(rf"data error: stage {stage}: \S+/labels\.tsv: {message}", err), err
    _assert_untouched(run_dir, finished_run, but="labels.tsv")


_NO_VECTOR = r"features\.txt: no vector for query \d+, document http://\S+: "


@pytest.mark.parametrize(
    "stage, name, damage, message",
    [
        pytest.param(stage, name, damage, message, id=f"{name}-{damage}-{stage}")
        for name, damage, message in (
            ("features.txt", "halved", _NO_VECTOR),
            ("features.txt", "emptied", r"features\.txt: " + _NO_ROWS.format("features")),
            ("sample.tsv", "emptied", r"sample\.tsv: " + _NO_ROWS.format("label")),
        )
        for stage in ("train", "rank")
    ],
)
def test_a_pooled_pair_without_a_feature_vector_exits_two(
    corpus, finished_run, tmp_path, capsys, stage, name, damage, message
):
    """label pools only documents that have a feature vector, so a pooled
    pair without a vector means features.txt was cut: train and rank name
    the file and the pair instead of leaving the pair out. An emptied
    features.txt or sample.tsv is named before the stage starts."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    table = run_dir / name
    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    table.write_text("".join(lines[: len(lines) // 2] if damage == "halved" else []), encoding="utf-8")
    assert main([stage, "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert re.match(rf"data error: stage {stage}: \S+/{message}", err), err
    _assert_untouched(run_dir, finished_run, but=name)


def test_rank_names_a_pooled_query_outside_the_query_table(corpus, finished_run, tmp_path, capsys):
    queries = corpus.config_path.parent / "resources" / "queries.tsv"
    first, *rest = queries.read_text(encoding="utf-8").splitlines(keepends=True)
    fewer = queries.with_name("queries-fewer.tsv")
    fewer.write_text("".join(rest), encoding="utf-8")
    config = _config_with(corpus, f"paths.queries=resources/{fewer.name}")
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    assert main(["rank", "--config", str(config), "--run-dir", str(run_dir)]) == 2
    qid = first.split("\t", 1)[0]
    assert f"sample.tsv: query {qid} is not a valid query of paths.queries" in capsys.readouterr().err
    _assert_untouched(run_dir, finished_run)


def _width_damaged(line: str, damage: str) -> str:
    body, doc = line.rsplit(" # ", 1)
    body = body.rsplit(" ", 1)[0] if damage != "long-row" else f"{body} {len(FEATURE_NAMES) + 1}:0.0"
    return f"{body} # {doc}"


@pytest.mark.parametrize("stage", ["label", "train", "rank"])
@pytest.mark.parametrize("damage", ["short-row", "long-row", "short-file"])
def test_a_features_row_of_the_wrong_width_exits_two(corpus, finished_run, tmp_path, capsys, stage, damage):
    """Every vector holds one value per feature name: a row with one value
    too few or too many, or a file whose rows all lack the last one, is a
    damaged features.txt, named with the line, not a narrower forest."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / "features.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    line = 1 if damage == "short-file" else len(lines) // 2 + 1
    damaged = range(len(lines)) if damage == "short-file" else [line - 1]
    for i in damaged:
        lines[i] = _width_damaged(lines[i], damage)
    path.write_text("".join(lines), encoding="utf-8")
    assert main([stage, "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    count = len(FEATURE_NAMES) + (1 if damage == "long-row" else -1)
    err = capsys.readouterr().err
    expected = f"data error: stage {stage}: {path}: line {line}: {count} feature values, not {len(FEATURE_NAMES)}"
    assert err.startswith(expected), err
    _assert_untouched(run_dir, finished_run, but="features.txt")


def test_a_repeated_judgment_exits_two_naming_its_line(corpus, finished_run, tmp_path, capsys):
    """A second grade by one assessor for one (query, document) would be
    averaged into the manual label but not counted by the kappas: label
    names the file and the line of the repeat instead."""
    judgments = corpus.config_path.parent / "judgments.tsv"
    lines = judgments.read_text(encoding="utf-8").splitlines(keepends=True)
    qid, doc, assessor, grade = lines[0].rstrip("\n").split("\t")
    repeated = judgments.with_name("judgments-repeated.tsv")
    other_grade = str((int(grade) + 1) % 3)
    repeated.write_text("".join(lines) + "\t".join((qid, doc, assessor, other_grade)) + "\n", encoding="utf-8")
    config = _config_with(corpus, f"paths.judgments={repeated.name}")
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    assert main(["label", "--config", str(config), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    expected = f"{repeated}: line {len(lines) + 1}: assessor {assessor} grades query {qid}, document {doc} twice"
    assert expected in err, err
    _assert_untouched(run_dir, finished_run)


def test_train_counts_pooled_rows_without_a_manual_grade(corpus, finished_run, tmp_path, capsys):
    """Under ``label.strategy=manual`` a pooled row with no grade is left out
    of training, and counted."""
    assert _row_counts_of(finished_run, "train")["unlabeled"] == 0
    judgments = corpus.config_path.parent / "judgments.tsv"
    lines = judgments.read_text(encoding="utf-8").splitlines(keepends=True)
    ungraded_query = lines[0].split("\t")[0]
    partial = judgments.with_name("judgments-partial.tsv")
    partial.write_text("".join(line for line in lines if line.split("\t")[0] != ungraded_query), encoding="utf-8")
    config = _config_with(corpus, "label.strategy=manual", f"paths.judgments={partial.name}")
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    for stage in ("label", "train"):
        assert main([stage, "--config", str(config), "--run-dir", str(run_dir)]) == 0
    with open(run_dir / "sample.tsv", encoding="utf-8") as fh:
        pooled = [line.split("\t")[0] for line in fh]
    expected = pooled.count(ungraded_query)
    assert 0 < expected < len(pooled)
    assert f"unlabeled={expected}" in capsys.readouterr().out.split()
    counts = _row_counts(run_dir)
    assert counts["unlabeled"] == expected
    assert counts["training_examples"] == len(pooled) - expected


_HASH_SEED_RUN = (
    "import sys\n"
    "from archive_rank.cli import main\n"
    "from archive_rank.pipeline import STAGE_ORDER\n"
    "for stage in STAGE_ORDER:\n"
    "    assert main([stage, '--config', sys.argv[1], '--run-dir', sys.argv[2]]) == 0, stage\n"
)


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    """The nine stages, run under two string-hash seeds, write the same
    bytes to every artifact but the manifest (which holds timings)."""
    corpus = make_synthetic_archive(
        tmp_path / "corpus",
        num_queries=5,
        good_per_query=3,
        chaff_per_query=6,
        spam_per_query=1,
        boosted_per_query=1,
        sources=20,
        feeder_inlinks=10,
        filler_docs=20,
        rf_num_trees=4,
        per_partition=(1, 2),
        seed=5,
    )
    procs = {}
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        procs[hash_seed] = subprocess.Popen(
            [sys.executable, "-c", _HASH_SEED_RUN, str(corpus.config_path), str(tmp_path / hash_seed)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    for proc in procs.values():
        _out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    assert set(names) == set(ARTIFACTS)
    for name in names:
        if name != "manifest.json":
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


# each index damage, and a stage that reads the damaged file (rank reads
# no instances.tsv)
_INDEX_DAMAGE = [
    *((stage, "postings.tsv", damage) for stage in ("features", "rank") for damage in ("twice", "missing")),
    ("features", "instances.tsv", "missing"),
]


@pytest.mark.parametrize(
    "stage, artifact, damage", _INDEX_DAMAGE, ids=["-".join(case) for case in _INDEX_DAMAGE]
)
def test_an_index_row_that_disagrees_with_docs_tsv_exits_two(
    corpus, finished_run, tmp_path, capsys, artifact, damage, stage
):
    # the first posting list repeats its first document, or names one that
    # docs.tsv lacks; an instance row before the first names one too
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / artifact
    first, rest = path.read_text(encoding="utf-8").split("\n", 1)
    doc = "http://nowhere.de/"
    expected = f"document {doc!r} is not in docs.tsv"
    if artifact == "instances.tsv":
        first = f"{doc}\t5\tanchor\n{first}"
    else:
        term, count, entries = first.split("\t", 2)
        if damage == "twice":
            doc = entries.split("\t", 1)[0].rsplit(":", 1)[0]
            expected = f"term {term!r} lists document {doc!r} twice"
        first = f"{term}\t{int(count) + 1}\t{entries}\t{doc}:7"
    path.write_text(f"{first}\n{rest}", encoding="utf-8")
    assert main([stage, "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: stage {stage}: {path}: line 1: ") and expected in err
    _assert_untouched(run_dir, finished_run, but=artifact)


# Each table a stage reads -> (field separator, index of a field that must
# be a number). The resource tables live beside the config; every other
# name is a run-directory artifact.
_NUMBER_FIELD = {
    "revisions.tsv": ("\t", 2),
    "content_links.tsv": ("\t", 2),
    "nodes.tsv": ("\t", 0),
    "domain_nodes.tsv": ("\t", 0),
    "page_rank.tsv": (" ", 1),
    "domain_rank.tsv": (" ", 1),
    "docs.tsv": ("\t", 1),
    "postings.tsv": ("\t", 1),
    "instances.tsv": ("\t", 1),
    "features.txt": (" ", 0),
    "labels.tsv": ("\t", 2),
    "sample.tsv": ("\t", 0),
    "forest.txt": (" ", -1),
    "runs.tsv": ("\t", 3),
    "queries.tsv": ("\t", 0),
    "wiki_citations.tsv": ("\t", 2),
    "judgments.tsv": ("\t", 3),
}
_RESOURCES = {"queries.tsv": "paths.queries", "wiki_citations.tsv": "paths.wiki_citations", "judgments.tsv": "paths.judgments"}
_READS = [
    *((stage, artifact) for stage, (_handler, reads, _writes) in pipeline._STAGES.items() for artifact in reads),
    ("features", "queries.tsv"),
    ("features", "wiki_citations.tsv"),
    ("label", "judgments.tsv"),
]


def _damaged(text: str, artifact: str, damage: str) -> tuple[bytes, int]:
    """``text`` with ``damage`` at its middle line, and that line's number."""
    lines = text.splitlines(keepends=True)
    middle = len(lines) // 2
    if damage == "garbage":
        lines.insert(middle, "garbage\n")
    elif damage == "not-a-number":
        sep, column = _NUMBER_FIELD[artifact]
        fields = lines[middle].rstrip("\n").split(sep)
        fields[column] = "x"
        lines[middle] = sep.join(fields) + "\n"
    data = "".join(lines).encode("utf-8")
    if damage == "not-utf-8":
        at = len("".join(lines[:middle]).encode("utf-8"))
        data = data[:at] + b"\xff" + data[at:]
    return data, middle + 1


@pytest.mark.parametrize("stage, artifact", _READS, ids=[f"{s}-{a}" for s, a in _READS])
@pytest.mark.parametrize("damage", ["garbage", "not-a-number", "not-utf-8"])
def test_a_damaged_row_is_named_by_file_and_line(corpus, finished_run, tmp_path, capsys, stage, artifact, damage):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    config = corpus.config_path
    if artifact in _RESOURCES:
        key = _RESOURCES[artifact]
        original = load_config(config).path(key)
        path = original.with_name(f"{damage}-{artifact}")
        config = _config_with(corpus, f"{key}={path}")
    else:
        path = original = run_dir / artifact
    data, line = _damaged(original.read_text(encoding="utf-8"), artifact, damage)
    path.write_bytes(data)
    assert main([stage, "--config", str(config), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    where = r"after line \d+" if damage == "not-utf-8" else f"line {line}"
    assert re.match(rf"data error: stage {stage}: {re.escape(str(path))}: {where}: ", err), err
    if damage == "not-utf-8":
        assert int(re.search(r"after line (\d+)", err).group(1)) < line
    _assert_untouched(run_dir, finished_run, but=artifact)


# ---------------------------------------------------------------------------
# index sorts its instances externally; features and rank read what their
# queries touch


INDEX_WRITES = set(pipeline._STAGES["index"][2])


def _index_run(corpus, finished_run, run_dir: Path, config: Path) -> dict[str, bytes]:
    """The outputs of ``index`` run on a copy of its inputs; no other file is left."""
    run_dir.mkdir()
    for name in pipeline._STAGES["index"][1]:
        shutil.copyfile(finished_run / name, run_dir / name)
    assert main(["index", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    assert {p.name for p in run_dir.iterdir()} == {*pipeline._STAGES["index"][1], *INDEX_WRITES, "manifest.json"}
    return {name: (run_dir / name).read_bytes() for name in INDEX_WRITES}


@pytest.mark.parametrize("strategy", ingest.STRATEGIES)
def test_index_spilled_runs_give_the_same_bytes(corpus, finished_run, tmp_path, monkeypatch, strategy):
    config = _config_with(corpus, f"index.strategy={strategy}")
    runs = {}
    for run_records in (10**9, 1):
        monkeypatch.setattr(tables, "_RUN_RECORDS", run_records)
        runs[run_records] = _index_run(corpus, finished_run, tmp_path / str(run_records), config)
    assert runs[1] == runs[10**9]
    rows = runs[1]["instances.tsv"].count(b"\n")
    assert rows > 32 * tables._FAN_IN  # runs of one record take more than one merge pass
    if strategy == load_config(corpus.config_path)["index.strategy"]:
        assert runs[1] == {name: (finished_run / name).read_bytes() for name in INDEX_WRITES}


def test_a_failed_index_leaves_no_spill(corpus, finished_run, tmp_path, monkeypatch, capsys):
    """A disk that fills while the spilled runs are merged into the index
    files leaves the outputs of the last index, and no other file."""
    run_dir = tmp_path / "run"
    before = _index_run(corpus, finished_run, run_dir, corpus.config_path)
    monkeypatch.setattr(tables, "_RUN_RECORDS", 5)
    calls = 0
    escape = anchor_index.escape

    def fills_late(text: str) -> str:
        nonlocal calls
        calls += 1
        if calls == 200:
            raise OSError(28, "No space left on device")
        return escape(text)

    monkeypatch.setattr(anchor_index, "escape", fills_late)
    assert main(["index", "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    assert "No space left on device" in capsys.readouterr().err and calls == 200
    assert {p.name for p in run_dir.iterdir()} == {*pipeline._STAGES["index"][1], *INDEX_WRITES, "manifest.json"}
    assert {name: (run_dir / name).read_bytes() for name in INDEX_WRITES} == before


def _query_tokens(corpus) -> set[str]:
    return {t for q in pipeline._query_table(load_config(corpus.config_path))[0] for t in q.tokens}


def test_features_builds_its_context_of_the_documents_its_queries_touch(corpus, finished_run, tmp_path, monkeypatch):
    built = []
    build = pipeline.FeatureContext.build

    def spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pipeline.FeatureContext, "build", spy)
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    run_stage("features", load_config(corpus.config_path), run_dir)
    assert (run_dir / "features.txt").read_bytes() == (finished_run / "features.txt").read_bytes()
    ctx, = built
    tokens = _query_tokens(corpus)
    for doc_id, doc in ctx.surrogates.items():
        assert tokens & doc.term_freqs.keys() or tokens & set(tokenize_url(normalize(doc_id))), doc_id
    for doc_id in ctx.documents:
        assert doc_id in ctx.surrogates or tokens & set(tokenize_url(normalize(doc_id))), doc_id
    instance_rows = (finished_run / "instances.tsv").read_text(encoding="utf-8").count("\n")
    assert 0 < sum(len(doc.anchor_instances) for doc in ctx.surrogates.values()) < instance_rows
    revisions = (finished_run / "revisions.tsv").read_text(encoding="utf-8").splitlines()
    assert 0 < len(ctx.documents) < len({line.split("\t", 1)[0] for line in revisions})
    assert ctx.domain_sizes == _full_context(finished_run).domain_sizes
    assert "features" in NUMPY_FREE_STAGES


def _outside_every_query(corpus, finished_run) -> tuple[str, str]:
    """A document that holds no query token in its anchor terms or its URL,
    so no query's context reads it, and one of its anchor terms."""
    tokens = _query_tokens(corpus)
    surrogates, _stats = tables.read(anchor_index.read_index, *(finished_run / name for name in pipeline._INDEX))
    for doc_id, doc in sorted(surrogates.items()):
        if doc.term_freqs and doc.anchor_instances and not tokens & (doc.term_freqs.keys() | set(tokenize_url(normalize(doc_id)))):
            return doc_id, min(doc.term_freqs)
    raise AssertionError("every document holds a query token")


def _damage_outside(text: str, damage: str, doc: str, term: str) -> tuple[str, int, str]:
    """``text`` with the first row of ``doc`` (in postings.tsv, the row of
    ``term``) damaged; the line at fault and a part of the message."""
    lines = text.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{term}\t" if term else f"{doc}\t"))
    fields = lines[at].rstrip("\n").split("\t")
    entry = next((i for i, field in enumerate(fields) if field.rsplit(":", 1)[0] == doc), None)
    expected = ""
    if damage == "garbage":
        lines[at] = "garbage\n"
    elif damage == "not-a-number":  # the capture time, the length or the term frequency
        if entry is not None:
            fields[entry] = f"{doc}:x"
        else:
            fields[1] = "x"
        lines[at] = "\t".join(fields) + "\n"
    elif damage == "unknown":
        nowhere = "http://nowhere.de/"
        if entry is not None:
            fields[entry] = f"{nowhere}:1"
        else:
            fields[0] = nowhere
        lines[at] = "\t".join(fields) + "\n"
        expected = f"document {nowhere!r} is not in docs.tsv"
    elif damage == "count":
        fields[1] = str(int(fields[1]) + 1)
        lines[at] = "\t".join(fields) + "\n"
        expected = f"term {term!r} counts"
    elif damage == "repeated":
        if entry is not None:
            fields[1] = str(int(fields[1]) + 1)
            lines[at] = "\t".join([*fields, fields[entry]]) + "\n"
            expected = f"term {term!r} lists document {doc!r} twice"
        else:
            lines.insert(at, lines[at])
            at += 1
            expected = f"docs.tsv lists document {doc!r} twice"
    return "".join(lines), at + 1, expected


_OUTSIDE = [
    *(("instances.tsv", damage) for damage in ("garbage", "not-a-number", "unknown")),
    *(("postings.tsv", damage) for damage in ("garbage", "not-a-number", "unknown", "count", "repeated")),
    *(("docs.tsv", damage) for damage in ("garbage", "not-a-number", "repeated")),
]
_OUTSIDE_CASES = [
    (stage, artifact, damage)
    for artifact, damage in _OUTSIDE
    for stage in ("features", "rank")
    if artifact in pipeline._STAGES[stage][1]
]


@pytest.mark.parametrize("stage, artifact, damage", _OUTSIDE_CASES, ids=["-".join(c) for c in _OUTSIDE_CASES])
def test_damage_to_a_document_no_query_reads_exits_two(corpus, finished_run, tmp_path, capsys, stage, artifact, damage):
    """The query-scoped reads of features and rank still check every row of
    the index, those of documents they do not keep too."""
    doc, term = _outside_every_query(corpus, finished_run)
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / artifact
    text, line, expected = _damage_outside(
        path.read_text(encoding="utf-8"), damage, doc, term if artifact == "postings.tsv" else ""
    )
    path.write_text(text, encoding="utf-8")
    assert main([stage, "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: stage {stage}: {path}: line {line}: ") and expected in err, err
    _assert_untouched(run_dir, finished_run, but=artifact)


@pytest.mark.parametrize("stage", ["index", "features"])
def test_revisions_out_of_core_url_order_exit_two(corpus, finished_run, tmp_path, capsys, stage):
    # both stages take the core URLs of revisions.tsv in their sorted order
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    path = run_dir / "revisions.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join([lines[-1], *lines[:-1]]), encoding="utf-8")
    assert main([stage, "--config", str(corpus.config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: stage {stage}: {path}: line 2: ") and "not sorted by core URL" in err, err
    _assert_untouched(run_dir, finished_run, but="revisions.tsv")


def test_a_query_with_too_few_candidates_to_stratify_exits_two_naming_it(corpus, finished_run, tmp_path, capsys):
    """label splits each query's candidates into three partitions per
    feature, so a query with fewer than three stops it with exit 2, naming
    the query, its candidate count and features.txt."""
    ctx = _full_context(finished_run)
    token = next(
        t for t, docs in sorted(ctx.url_token_docs.items()) if len(docs) == 1 and t.isalnum() and t not in ctx.term_docs
    )
    root = tmp_path / "corpus"
    shutil.copytree(corpus.config_path.parent, root)
    with open(root / "resources" / "queries.tsv", "a", encoding="utf-8") as fh:
        fh.write(f"999\t{token}\tpolitician\n")
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    config = str(root / "config.txt")
    assert main(["features", "--config", config, "--run-dir", str(run_dir)]) == 0
    assert "\tqid:999 " not in (finished_run / "features.txt").read_text(encoding="utf-8")
    assert (run_dir / "features.txt").read_text(encoding="utf-8").count("qid:999 ") == 1
    capsys.readouterr()
    assert main(["label", "--config", config, "--run-dir", str(run_dir)]) == 2
    assert capsys.readouterr().err == (
        f"data error: stage label: {run_dir / 'features.txt'}: query 999: 1 candidates: "
        "need at least three documents to stratify\n"
    )


def test_index_memory_tracks_the_output_not_the_link_count(tmp_path):
    """With small runs, an index over 4N pages of 100 links allocates at its
    peak within a fixed factor of one over N, when the pages past the first
    30 link only to pages the archive lacks: the two indexes are the same.
    N is large enough that the digest of each input reads whole 1 MiB
    chunks. Each index runs in a fresh process, as the table of interned
    strings, which the content-link reader grows, is the process's."""
    code = (
        "import sys, tracemalloc\n"
        "from archive_rank import pipeline, tables\n"
        "tables._RUN_RECORDS = 256\n"
        "tracemalloc.start()\n"
        "pipeline.run_stage('index', pipeline.load_config(sys.argv[1]), sys.argv[2])\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )

    def page(i: int) -> bytes:
        target, anchor = ("http://t.de/{}", "anchor {}") if i < 30 else (f"http://u.de/{i}/{{}}", "{} " + "x" * 100)
        links = (f'<a href="{target.format(j % 40)}">{anchor.format(j)}</a>' for j in range(100))
        return warc_record_bytes(f"http://s.de/{i}", "2009-01-01T00:00:00Z", " ".join(links).encode())

    def peak_for(count: int) -> tuple[int, dict[str, bytes]]:
        config = _write_corpus(
            tmp_path / str(count),
            [page(i) for i in range(count)]
            + [warc_record_bytes(f"http://t.de/{j}", "2009-01-01T00:00:00Z", b"<html></html>") for j in range(40)],
        )
        run_dir = tmp_path / str(count) / "run"
        assert run_stage("ingest", load_config(config), run_dir)["content_links"] == 100 * count
        proc = _python(code, str(config), str(run_dir))
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout), {name: (run_dir / name).read_bytes() for name in pipeline._STAGES["index"][2]}

    small, index = peak_for(100)
    large, same_index = peak_for(400)
    assert same_index == index and index["instances.tsv"].count(b"\n") == 3000
    assert large < small * 1.5


def test_features_memory_tracks_the_query_scope_not_the_archive(tmp_path):
    """features over an archive with 4N captured pages outside every query's
    scope (no query token in their URL, no link to or from them) allocates
    at its peak within a fixed factor of one over N, and writes the same
    vectors. N is large enough that the digest of revisions.tsv reads whole
    1 MiB chunks. Each run is a fresh process, as in the index test."""
    code = (
        "import sys, tracemalloc\n"
        "from archive_rank import pipeline\n"
        "tracemalloc.start()\n"
        "pipeline.run_stage('features', pipeline.load_config(sys.argv[1]), sys.argv[2])\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    when = "2009-01-01T00:00:00Z"
    links = " ".join(f'<a href="http://t.de/merkel/{j}">Angela Merkel {j}</a>' for j in range(10)).encode()
    scoped = [warc_record_bytes(f"http://s.de/{i}", when, links) for i in range(10)]
    scoped += [warc_record_bytes(f"http://t.de/merkel/{j}", when, b"<html></html>") for j in range(10)]

    def peak_for(count: int) -> tuple[int, bytes]:
        outside = [warc_record_bytes(f"http://u.de/{'x' * 400}/{i}", when, b"<html></html>") for i in range(count)]
        config = _write_corpus(tmp_path / str(count), scoped + outside)
        (config.parent / "queries.tsv").write_text("1\tangela merkel\tpolitician\n", encoding="utf-8")
        with open(config, "a", encoding="utf-8") as fh:
            fh.write("paths.queries=queries.tsv\n")
        run_dir = config.parent / "run"
        for stage in ("ingest", "graph", "index"):
            run_stage(stage, load_config(config), run_dir)
        assert (run_dir / "revisions.tsv").stat().st_size > 1 << 20
        proc = _python(code, str(config), str(run_dir))
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout), (run_dir / "features.txt").read_bytes()

    small, features = peak_for(1500)
    large, same_features = peak_for(6000)
    assert same_features == features and features.count(b"\n") == 10
    assert large < small * 1.5
