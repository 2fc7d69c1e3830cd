import json
from pathlib import Path

import pytest

from archive_rank.cli import main
from archive_rank.pipeline import (
    STAGE_ORDER,
    ConfigError,
    MissingStageError,
    _atomic_write,
    derive_seed,
    load_config,
    run_stage,
)
from archive_rank.synthetic import make_synthetic_archive

ARTIFACTS = (
    "revisions.tsv",
    "links.tsv",
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
        assert cfg.get_float("pagerank.damping", 0.0) == 0.85
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

    def test_rerunning_a_stage_is_byte_identical(self, corpus, finished_run):
        cfg = load_config(corpus.config_path)
        before = (finished_run / "features.txt").read_bytes()
        run_stage("features", cfg, finished_run)
        assert (finished_run / "features.txt").read_bytes() == before
        before_eval = (finished_run / "eval.csv").read_bytes()
        run_stage("eval", cfg, finished_run)
        assert (finished_run / "eval.csv").read_bytes() == before_eval

    def test_no_temp_files_left_behind(self, finished_run):
        assert not list(Path(finished_run).glob("*.tmp"))


def test_failed_write_keeps_old_file_and_removes_temp(tmp_path):
    target = tmp_path / "forest.txt"
    target.write_text("old\n", encoding="utf-8")

    def failing_writer(fh):
        fh.write("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        _atomic_write(target, failing_writer)
    assert target.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["forest.txt"]


class TestCli:
    def test_stage_via_flag_and_positional(self, corpus, tmp_path, capsys):
        run_dir = tmp_path / "cli-run"
        rc = main(["ingest", "--config", str(corpus.config_path), "--run-dir", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("ingest: ok")
        rc = main(
            ["--stage", "graph", "--config", str(corpus.config_path), "--run-dir", str(run_dir)]
        )
        assert rc == 0

    def test_missing_upstream_exits_one_and_names_stage(self, corpus, tmp_path, capsys):
        rc = main(
            ["eval", "--config", str(corpus.config_path), "--run-dir", str(tmp_path / "empty")]
        )
        assert rc == 1
        assert "rank" in capsys.readouterr().err

    def test_no_stage_given(self, corpus, tmp_path, capsys):
        rc = main(["--config", str(corpus.config_path), "--run-dir", str(tmp_path)])
        assert rc == 1

    def test_data_error_exits_two(self, corpus, tmp_path, capsys):
        run_dir = tmp_path / "broken"
        run_dir.mkdir()
        (run_dir / "links.tsv").write_text("")  # graph stage finds no content links
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
