import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_python():
    """Run Python source in a new interpreter that imports binreg from
    ``src``, feeding it ``stdin``; returns its stdout. What a test process
    has already imported cannot leak into it."""
    def run(code: str, stdin: str = "") -> str:
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout
    return run
