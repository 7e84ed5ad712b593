"""The warning gates of ``pyproject.toml`` as a test run sees them."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_that_fails(x):
    assert x < 5


def test_deprecated_call():
    warnings.warn("old call", DeprecationWarning)
'''


def test_a_failing_property_reports_its_example_and_the_deprecation_gate_holds(tmp_path):
    # Hypothesis imports libcst to report a failure, and libcst's own
    # deprecated import must not turn that report into an internal error
    module = tmp_path / "test_gates.py"
    module.write_text(FAILING_TESTS)
    env = {k: v for k, v in os.environ.items() if k not in {"PYTEST_ADDOPTS", "PYTHONWARNINGS"}}
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", str(module),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "FAILED test_gates.py::test_property_that_fails" in output
    assert "FAILED test_gates.py::test_deprecated_call" in output
