"""The test suite's own settings: the warning filters in ``pyproject.toml``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_EXAMPLE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_example_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis reports a failing example through libcst, whose import warns
    # that mypy_extensions.TypedDict is deprecated; with DeprecationWarning an
    # error, the report hook raised and the run ended in INTERNALERROR after
    # "1 failed", and no later test ran
    (tmp_path / "test_example.py").write_text(FAILING_EXAMPLE)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_example.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out, out
