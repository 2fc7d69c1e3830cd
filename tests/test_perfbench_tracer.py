"""The benchmark's tracer wraps program functions by name; each must exist."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
