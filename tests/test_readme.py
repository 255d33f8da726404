"""The README's examples run: the library quick start in a fresh
interpreter with every warning an error, and each command of the CLI block
through :func:`bruhatdiag.cli.main`."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from bruhatdiag import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _commands(block: str) -> list[list[str]]:
    """The shell commands of ``block``, continuation lines joined and
    comments dropped, each split into words."""
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    return [shlex.split(line) for line in lines]


def test_library_quick_start_runs():
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _block("Library quick start",
                                                                       "python")],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("True")


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands(_block("CLI", "sh"))
    assert len(commands) == 10
    for words in commands:
        assert words[0] == "bruhatdiag", words
        argv, target = words[1:], None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, words
        if target is not None:
            (tmp_path / target).write_text(out, encoding="utf-8")
    assert (tmp_path / "X.json").exists() and (tmp_path / "g.json").exists()
