"""The suite's pytest settings report a failing hypothesis property like any
other failure and go on to the next test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTY_THEN_PLAIN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_passing_test():
    pass
'''


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # With warnings as errors, a deprecation warning raised inside
    # hypothesis's failure report once ended the session at the first
    # failing property, so the tests after it never ran.
    (tmp_path / "test_example.py").write_text(PROPERTY_THEN_PLAIN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
