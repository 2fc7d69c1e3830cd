"""Every file a stage reads from the run directory (each (stage, read) pair
of ``pipeline._STAGES``), damaged three ways and run through ``cli.main``:
halved at a line boundary, emptied, or cut in the middle of a line.

Each case exits 2, a data error, except the pinned ones. Those are valid
shorter tables that no reader can tell from whole ones; only a check of
each input against the digests its producer recorded could. The pinned set
may only shrink. No case raises out of ``cli.main``."""
import shutil

import pytest

from archive_rank.cli import main
from archive_rank.pipeline import _STAGES

# (stage, read, damage) cases that may exit 0: each is a valid table with
# fewer rows
PINNED = {
    ("graph", "content_links.tsv", "halved"),
    ("index", "content_links.tsv", "halved"),
    ("stats", "content_links.tsv", "halved"),
    ("index", "revisions.tsv", "halved"),
    ("index", "revisions.tsv", "emptied"),
    ("features", "revisions.tsv", "halved"),
    ("label", "features.txt", "halved"),
    ("rank", "sample.tsv", "halved"),
    ("eval", "runs.tsv", "halved"),
}

CASES = [
    (stage, artifact, damage)
    for stage, (_handler, reads, _writes) in _STAGES.items()
    for artifact in reads
    for damage in ("halved", "emptied", "cut-mid-line")
]


def _damaged(text: str, damage: str) -> str:
    lines = text.splitlines(keepends=True)
    middle = len(lines) // 2
    if damage == "emptied":
        return ""
    if damage == "halved":
        return "".join(lines[:middle])
    line = lines[middle].rstrip("\n")
    return "".join(lines[:middle]) + line[: len(line) // 2]


def test_the_sweep_covers_every_read_three_ways():
    assert len(CASES) == 69
    assert PINNED <= set(CASES)


@pytest.mark.parametrize("stage, artifact, damage", CASES, ids=["-".join(case) for case in CASES])
def test_a_damaged_input_exits_two(smoke_run, tmp_path, stage, artifact, damage):
    config, finished = smoke_run
    run_dir = tmp_path / "run"
    shutil.copytree(finished, run_dir)
    path = run_dir / artifact
    path.write_text(_damaged(path.read_text(encoding="utf-8"), damage), encoding="utf-8")
    status = main([stage, "--config", str(config), "--run-dir", str(run_dir)])
    assert status in ((0, 2) if (stage, artifact, damage) in PINNED else (2,))
