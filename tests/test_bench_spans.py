"""The benchmark tracer wraps program functions by name; every name it
wraps must exist, or ``bench/run.py --trace 1`` fails when it installs."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("path", [p for _, paths, _ in spans.LAYERS for p in paths])
def test_layer_path_resolves(path):
    owner, name = spans._resolve(path)
    found = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    assert callable(found), f"{path} does not name a callable"
