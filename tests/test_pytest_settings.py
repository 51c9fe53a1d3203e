"""The suite's pytest settings report a failing hypothesis property like any
other failure and go on to the next test, and refuse what they do not know."""

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


UNREGISTERED_MARKER = '''
import pytest


@pytest.mark.not_a_registered_marker
def test_marked():
    pass
'''


def _run(tmp_path, source):
    """Run `source` as one test file under the repo's pytest settings."""
    (tmp_path / "test_example.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # With warnings as errors, a deprecation warning raised inside
    # hypothesis's failure report once ended the session at the first
    # failing property, so the tests after it never ran.
    run = _run(tmp_path, PROPERTY_THEN_PLAIN)
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr


def test_an_unregistered_marker_is_an_error(tmp_path):
    # Strict mode also refuses unknown config keys: without it a misspelt
    # `filterwarnings` would only warn, and warnings would stop being errors.
    run = _run(tmp_path, UNREGISTERED_MARKER)
    assert run.returncode != 0
    assert "'not_a_registered_marker' not found in `markers` configuration option" in run.stdout, run.stdout + run.stderr
