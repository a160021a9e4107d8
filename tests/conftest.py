import os
import subprocess
import sys
from pathlib import Path

import pytest

from liebeq import Params

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def p_half():
    return Params(1, 0.5)


@pytest.fixture
def fresh_python():
    """Run a new interpreter on the checkout's sources, with nothing
    imported yet."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH", "")]))}

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                              check=False)
    return run
