"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import critgroups


@pytest.fixture
def fresh_python():
    """Run code in a new interpreter that imports this checkout's
    package; return its stdout.  Options such as ``-O`` go first."""
    src = str(Path(critgroups.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(code, *options, cwd=None):
        done = subprocess.run(
            [sys.executable, *options, "-c", code],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        return done.stdout

    return run
