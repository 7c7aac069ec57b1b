"""Tier-1 reports every failure: a falsified hypothesis property fails its
own test, and the session goes on to run the rest."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent

FALSIFIED_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=10)
@given(st.integers())
def test_falsified(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_falsified_property_fails_only_its_own_test(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_throwaway.py").write_text(FALSIFIED_THEN_PASSING, encoding="utf-8")
    pythonpath = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
