"""The repository's pytest configuration keeps reporting after a test fails,
and fails a run on a misspelled marker or ini key."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

ONE_FAILING_ONE_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    # a failing hypothesis test makes its pytest plugin import libcst, whose
    # import warns; under warnings-as-errors an unfiltered warning ended the
    # whole run with INTERNALERROR before the passing test ran
    (tmp_path / "test_mix.py").write_text(ONE_FAILING_ONE_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_mix.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1


MISSPELLED_MARKER = '''
import pytest


@pytest.mark.filterwarning("ignore")
def test_passes():
    pass
'''


@pytest.mark.parametrize("misspelling", ["marker", "ini key"])
def test_a_misspelling_fails_the_run(misspelling, tmp_path):
    # an unknown marker or ini key would otherwise only warn, and the run pass
    config = PYPROJECT.read_text()
    if misspelling == "marker":
        (tmp_path / "test_typo.py").write_text(MISSPELLED_MARKER)
    else:
        (tmp_path / "test_typo.py").write_text("def test_passes():\n    pass\n")
        config = config.replace("[tool.pytest.ini_options]\n",
                                "[tool.pytest.ini_options]\nfilterwarning = []\n")
    (tmp_path / "pyproject.toml").write_text(config)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", "pyproject.toml", "--rootdir", str(tmp_path), "test_typo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "filterwarning" in run.stdout + run.stderr
    assert "1 passed" not in run.stdout
    assert run.returncode != 0
