"""The repository's pytest configuration reports a failing Hypothesis test
as a failure.

On a failing example Hypothesis builds a patch with libcst, whose import
emits a ``DeprecationWarning``; the configuration turns every other
deprecation into an error, and with that one too, the run stopped with
INTERNALERROR instead of reporting the failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 10
'''


def test_a_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    (tmp_path / "test_throwaway.py").write_text(FAILING)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_throwaway.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
