"""The repo's pytest settings report a failing Hypothesis test as one failure.

Hypothesis's report hook imports libcst, which warns that
mypy_extensions.TypedDict is deprecated; under filterwarnings = ["error"]
alone pytest stopped at INTERNALERROR and ran no later test.
"""

import subprocess
import sys
from pathlib import Path

SETTINGS = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_lets_later_tests_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(SETTINGS), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed in ")
