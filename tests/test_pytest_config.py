"""The project's pytest configuration reports a failing hypothesis test as a
failure and runs the tests after it.

On a failure hypothesis imports a module that raises a DeprecationWarning
from ``mypy_extensions``; ``filterwarnings = error::DeprecationWarning``
turned that into an internal error which ended the whole run.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_fails_and_the_next_test_runs(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
