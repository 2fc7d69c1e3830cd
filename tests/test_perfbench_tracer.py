"""The benchmark's tracer wraps program functions by name; each must exist,
and each module holding one must be loaded by the CLI import it traces.
The benchmark also runs the stages by name, in their order."""
import ast
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
RUNNER = ROOT / "perfbench" / "run.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


WRAPPED = _wrapped()


@pytest.mark.parametrize(
    "module_name, attr", [(entry[0], entry[1]) for entry in WRAPPED], ids=[f"{e[0]}.{e[1]}" for e in WRAPPED]
)
def test_wrapped_entry_names_a_program_callable(module_name, attr):
    target = importlib.import_module(f"archive_rank.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_cli_import_loads_every_wrapped_module():
    # the tracer rebinds a wrapped function only in the modules loaded when
    # it installs, which is right after `from archive_rank import cli`; a
    # module that import leaves out would run untraced
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, archive_rank.cli; print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {f"archive_rank.{entry[0]}" for entry in WRAPPED} <= loaded


def _runner_constant(name: str):
    """A literal module-level constant of the benchmark runner, read
    without running it."""
    for node in ast.parse(RUNNER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_benchmark_runs_the_pipeline_stages_in_order():
    from archive_rank.pipeline import STAGE_ORDER

    assert _runner_constant("STAGES") == STAGE_ORDER
    grouped = [stage for stages in _runner_constant("GROUPS").values() for stage in stages]
    assert sorted(grouped) == sorted(STAGE_ORDER)  # each stage in exactly one group


def test_the_tracer_times_every_forest_prediction(smoke_run, tmp_path):
    """Run as the benchmark runs a stage, the tracer counts one
    ``Forest.predict`` per cross-validation fold (five folds of each of
    four grid points) in ``train`` and one in ``rank``."""
    config, finished = smoke_run
    run_dir = tmp_path / "run"
    shutil.copytree(finished, run_dir)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for stage, predictions in (("train", 20), ("rank", 1)):
        result = tmp_path / f"{stage}.json"
        proc = subprocess.run(
            [sys.executable, str(TRACER), "--result", str(result), "--spans", str(tmp_path / f"{stage}.spans"),
             "--", stage, "--config", str(config), "--run-dir", str(run_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(result.read_text(encoding="utf-8"))["calls"].get("forest.predict", 0) == predictions


def test_the_tracer_sees_every_record_and_link_of_ingest(smoke_run, tmp_path):
    """Run as the benchmark runs ``ingest``, the tracer counts one
    ``ingest.extract_links`` per HTML record, and as many links and parsed
    records as the manifest: an extractor or reader that the stage calls
    under another name would leave these layer metrics blank."""
    from archive_rank.ingest import parse_arc_stream, parse_warc_stream
    from archive_rank.pipeline import load_config

    config, _finished = smoke_run
    html = 0
    for path in load_config(config).archive_files():
        parser = parse_arc_stream if path.name.endswith((".arc", ".arc.gz")) else parse_warc_stream
        with open(path, "rb") as fh:
            html += sum("html" in record.mime_type for record in parser(fh))
    run_dir = tmp_path / "run"
    result = tmp_path / "ingest.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--result", str(result), "--spans", str(tmp_path / "ingest.spans"),
         "--", "ingest", "--config", str(config), "--run-dir", str(run_dir)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(result.read_text(encoding="utf-8"))
    counts = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["stages"][-1]["row_counts"]
    assert counts["non_2xx"] == counts["bad_url"] == 0  # every record of the smoke corpus is a page
    assert traced["calls"]["ingest.extract_links"] == html > 0
    assert traced["counts"]["ingest.links"] == counts["links"] > 0
    assert traced["counts"]["ingest.records"] == counts["emitted"]
