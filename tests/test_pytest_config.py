"""The repository's pytest configuration reports a failing property test as a failure.

A failing ``@given`` test makes hypothesis print a patch of the failing
example, which imports ``libcst``, which warns through ``mypy_extensions``.
With ``error::DeprecationWarning`` and no filter for that warning, pytest
ends with ``INTERNALERROR`` inside its report hook instead of a report, and
the tests after the failing one never run.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_runs_after():
    pass
'''


def test_a_failing_property_test_gets_a_normal_report(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1, result.stdout
    assert result.stdout.splitlines()[-1].strip("= ").startswith("1 failed, 1 passed")
