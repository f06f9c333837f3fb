"""The project's pytest configuration, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis imports a deprecated name while reporting a failure, which
    # "error" in filterwarnings used to turn into an INTERNALERROR (exit 3)
    # that hid the falsifying example and stopped the remaining tests
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "FAILED" in out and "test_fails" in out, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
