"""The repository's pytest configuration reports every test, including a failing example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # Reporting a failing example imports libcst, whose deprecation warning
    # the "error" filter turned into an INTERNALERROR that ended the run.
    (tmp_path / "test_pair.py").write_text(PAIR)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
