"""The examples in README.md and FORMATS.md, read from the documents and run."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from neuronprune import PruneStep, PruneTrace, import_trace, load_model, save_model

ROOT = Path(__file__).resolve().parents[1]


def fenced_block(document: str, heading: str) -> str:
    """The first fenced code block under ``heading`` in ``document``, without its fences."""
    text = (ROOT / document).read_text()
    section = text[text.index(f"\n{heading}\n") :]
    return re.search(r"^```[a-z]*\n(.*?)^```$", section, re.M | re.S).group(1)


def test_model_example_loads_and_saves_to_its_own_bytes(tmp_path):
    example, again = tmp_path / "example.model", tmp_path / "again.model"
    example.write_text(fenced_block("FORMATS.md", "## Model files"))
    save_model(load_model(example), again)
    assert again.read_bytes() == example.read_bytes()


def test_trace_example_imports_to_its_steps(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(fenced_block("FORMATS.md", "## Prune traces"))
    steps = (
        PruneStep(kept=2, removed=4, saliency=0.0),
        PruneStep(kept=None, removed=0, saliency=0.125),
        PruneStep(kept=3, removed=1, saliency=2.5),
    )
    assert import_trace(path) == PruneTrace(0, 5, steps)


def test_cli_walkthrough_runs(tmp_path):
    script = fenced_block("README.md", "## CLI walkthrough").replace("\\\n", " ")
    commands = [line for line in script.splitlines() if line and not line.startswith("#")]
    assert len(commands) == 6
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for command in commands:
        program, *args = shlex.split(command)
        assert program == "neuronprune"
        done = subprocess.run(
            [sys.executable, "-m", "neuronprune", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, f"{command}\n{done.stderr}"
