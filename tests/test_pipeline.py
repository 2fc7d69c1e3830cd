import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from archive_rank import anchor_index, pipeline
from archive_rank.cli import main
from archive_rank.forest import baseline_score
from archive_rank.pipeline import (
    STAGE_ORDER,
    ConfigError,
    MissingStageError,
    _atomic_write,
    derive_seed,
    load_config,
    run_stage,
)
from archive_rank.synthetic import make_synthetic_archive, warc_record_bytes

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

# sha256 of every artifact but manifest.json (which gains counters over
# time) for the ``finished_run`` corpus, taken before link resolution and
# dedup were folded into ``ingest.content_links``.
GOLDEN_DIGESTS = {
    "revisions.tsv": "22cf4675a71f080e111a0f868b038856d1a50edb10b66ca85f64bea88de76bf4",
    "links.tsv": "6166bcc5c39afecabd60e75f5fb3c25a741d48e895490ff6d18c0ae3c5fe07d4",
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
    "forest.txt": "514960d6a39907eb346744d1a4034551a48440fadfed53f6472adcccffb55d72",
    "cv_report.json": "198489e89bbb0f9fd9363a1ad2c4606d4596847ed63869f554554957aef74971",
    "runs.tsv": "62b787a879c58c99ac8a2d74d752411f345a93daa31265dd1e394e9286853bd6",
    "eval.csv": "7f9775e87ef60600d7de7693f6ba92c5d985842292a22c1dd9cce9b35f004f22",
    "sig.csv": "eb3fd6aa2d6485d0256912e57127fc9464a5fe770927b898c850dff03467bee5",
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

    def test_synthetic_config_has_only_declared_keys(self, corpus):
        load_config(corpus.config_path).validate_keys()

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

    def test_rank_baselines_equal_those_of_the_full_context(self, corpus, finished_run):
        # rank loads no link or domain evidence; its baseline scores must be
        # those of the context the features stage builds from all of it.
        cfg = load_config(corpus.config_path)
        ctx = pipeline._build_context(cfg, finished_run, pipeline._read_links(finished_run))
        assert any(ctx.inlink_counts.values()) and ctx.domain_rank
        queries = {q.query_id: q for q in pipeline._load_queries(cfg)}
        rows = 0
        for line in (finished_run / "runs.tsv").read_text(encoding="utf-8").splitlines():
            system, qid, doc, score, _rank = line.split("\t")
            if system != "rf":
                assert score == repr(baseline_score(system, queries[int(qid)], doc, ctx)), line
                rows += 1
        assert rows > 0

    def test_manifest_entries_carry_stage_timings(self, finished_run):
        manifest = json.loads((finished_run / "manifest.json").read_text())
        for entry in manifest["stages"]:
            for key in ("wall_s", "cpu_s", "peak_rss_kb"):
                assert isinstance(entry[key], (int, float)) and entry[key] >= 0, (entry["stage"], key)
            assert entry["peak_rss_kb"] > 0

    def test_no_temp_files_left_behind(self, finished_run):
        assert not list(Path(finished_run).glob("*.tmp"))

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_golden_artifact_bytes(self, finished_run, name):
        assert set(GOLDEN_DIGESTS) == set(ARTIFACTS) - {"manifest.json"}
        digest = hashlib.sha256((finished_run / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_DIGESTS[name]


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


@pytest.mark.parametrize(
    "line, stage",
    [
        ("stats.group_by_year=flase", "stats"),
        ("label.strategy=manul", "ingest"),
        ("index.strategy=al", "index"),
    ],
)
def test_bad_enumerated_config_value_exits_one(corpus, finished_run, tmp_path, capsys, line, stage):
    cfg_path = corpus.config_path.parent / f"bad-{line.split('=')[0]}.cfg"
    cfg_path.write_text(corpus.config_path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    rc = main([stage, "--config", str(cfg_path), "--run-dir", str(run_dir)])
    assert rc == 1
    assert line.split("=")[0] in capsys.readouterr().err


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


def test_scipy_stays_unloaded_outside_graph_and_eval(corpus, finished_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    code = (
        "import sys\n"
        "from archive_rank.cli import main\n"
        "for stage in sys.argv[3:]:\n"
        "    assert main([stage, '--config', sys.argv[1], '--run-dir', sys.argv[2]]) == 0\n"
        "    print(stage, 'scipy' in sys.modules)\n"
    )
    stages = [s for s in STAGE_ORDER if s not in ("graph", "eval")] + ["eval"]  # eval shows the probe works
    proc = _python(code, str(corpus.config_path), str(run_dir), *stages)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(line.split() for line in proc.stdout.splitlines() if line.split()[-1] in ("True", "False"))
    assert loaded == {stage: str(stage == "eval") for stage in stages}


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
    (run_dir / "links.tsv").write_text(
        "http://s.de/\t1\thttp://t.de/\tA/href\tok\n"
        "http://s.de/\t1\thttp://[broken/\tA/href\tbad\n",
        encoding="utf-8",
    )
    assert main(["graph", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    assert _row_counts(run_dir)["page_edges"] == 1
