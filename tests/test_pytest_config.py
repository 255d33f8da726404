"""The repository's pytest configuration reports a failing property test."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # hypothesis's report of a failure imports modules that warn on import;
    # the warning filters must not turn that into an INTERNALERROR (exit 3)
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_fails.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
