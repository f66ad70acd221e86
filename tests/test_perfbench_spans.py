"""The traced benchmark run rebinds names in the program's modules and stops
on any it cannot find, and reads the hit ratios of the caches it lists; check
here that every name it lists still exists."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_every_tracer_only_import_is_wrapped(spans):
    # an import kept only for the tracer to rebind is dead once WRAPPED drops it
    wrapped = {(module_name, attr) for module_name, attr, _ in spans.WRAPPED}
    for path in sorted((ROOT / "src" / "trisieve").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if "noqa: F401" in line and "perfbench/spans.py rebinds" in line:
                match = re.match(r"from \.\w+ import (\w+)\s", line)
                assert match, f"{path.name}: {line}"
                assert (f"trisieve.{path.stem}", match[1]) in wrapped, f"{path.name}: {line}"
