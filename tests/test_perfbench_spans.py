"""The traced benchmark run rebinds names in the program's modules and stops
on any it cannot find, and reads the hit ratios of the caches it lists; check
here that every name it lists still exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(spans):
    assert spans.WRAPPED
    for module_name, attr, _ in spans.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_cached_name_exposes_cache_info(spans):
    assert spans.CACHED
    for module_name, attr, _ in spans.CACHED:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(getattr(fn, "cache_info", None)), f"{module_name}.{attr}"
