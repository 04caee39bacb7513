"""Smoke-run every example script as a subprocess.

Examples are documentation that executes; these tests keep them green.
They also catch an example left importing a name a package no longer
exports.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_clean(script):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    result = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{script} produced no output"


def test_every_example_has_a_docstring_and_main():
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert text.lstrip().startswith(('#!/usr/bin/env python\n"""', '"""')), (
            f"{path.name} needs a shebang + docstring header"
        )
        assert 'if __name__ == "__main__":' in text, (
            f"{path.name} needs a main guard"
        )
        assert "Run:" in text, f"{path.name} docstring should say how to run"
