"""What `python -m grothloc` imports before it does any work.

Every command runs in a fresh interpreter, so each module imported at start
is paid once per command: the records are plain classes and
``collections.namedtuple`` subclasses, not dataclasses (which import
inspect, ast, dis and tokenize) or ``typing.NamedTuple`` (which imports
typing), and the packaged corpus is found with os.path next to the CLI
module, so importlib.resources is imported by no command.
``python -S`` skips site-packages hooks that may import these themselves.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import grothloc
from grothloc.cli import main

SRC = str(Path(grothloc.__file__).resolve().parents[1])
HEAVY = ("dataclasses", "inspect", "importlib.resources", "typing")
PROBE = (
    "import json, sys; sys.path.insert(0, {src!r}); import grothloc.cli; "
    "print(json.dumps(sorted(m for m in {heavy!r} if m in sys.modules)))"
)


def test_cli_import_skips_dataclasses_inspect_and_resources():
    """... and typing: the named-tuple records need only collections."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(src=SRC, heavy=HEAVY)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_corpus_run_finds_the_packaged_corpus_from_any_directory(tmp_path):
    """The lazy lookup still reads the corpus inside the package when the
    working directory is outside the source tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "grothloc", "corpus", "run", "--seed", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["ok"] is True and rep["results"]["passed"] == rep["results"]["total"] > 0
    out = tmp_path / "report.json"
    assert main(["corpus", "run", "--seed", "0", "--out", str(out)]) == 0
    assert proc.stdout == out.read_text(encoding="utf-8")
