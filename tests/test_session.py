"""The test configuration keeps a session going past a failing property test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MIXED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_plain_fails():
    assert False


def test_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # to report a failing example, hypothesis's pytest plugin imports libcst,
    # which warns on import; under a bare "error" filter that warning became an
    # INTERNALERROR ending the session. Without libcst this passes either way
    path = tmp_path / "test_mixed.py"
    path.write_text(MIXED)
    config = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT)]
    out = subprocess.run(
        [sys.executable, "-m", "pytest", *config, "-p", "no:cacheprovider", str(path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "2 failed, 1 passed" in out.stdout
    for name in ("test_property_fails", "test_plain_fails"):
        assert f"::{name} - " in out.stdout
