"""Smoke tests: every example script and doc snippet runs.

Each example ends with hard assertions on the paper's guarantees, so
"runs to completion" is a meaningful check, not just an import test.
The ```python blocks of README.md and docs/*.md run with
DeprecationWarning as an error, so the docs cannot teach a removed or
deprecated API.
"""

import glob
import os
import re
import subprocess
import sys
import warnings

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
SCRIPTS = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)
REPO_DIR = os.path.join(os.path.dirname(__file__), "..")


def _doc_snippets():
    paths = [os.path.join(REPO_DIR, "README.md")] + sorted(
        glob.glob(os.path.join(REPO_DIR, "docs", "*.md"))
    )
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for match in re.finditer(r"```python\n(.*?)```", text, re.S):
            line = text.count("\n", 0, match.start()) + 1
            name = f"{os.path.basename(path)}:{line}"
            yield pytest.param(match.group(1), id=name)


SNIPPETS = list(_doc_snippets())


def test_examples_present():
    assert len(SCRIPTS) >= 5
    assert "quickstart.py" in SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must narrate their results"


def test_doc_snippets_present():
    assert len(SNIPPETS) >= 3


@pytest.mark.parametrize("code", SNIPPETS)
def test_doc_snippet_runs(code):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        exec(compile(code, "<doc snippet>", "exec"), {})
