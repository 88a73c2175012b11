"""README's library examples run as written, in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```\n", (REPO / "README.md").read_text(),
                        flags=re.M | re.S)
    assert len(blocks) >= 2
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", "\n".join(blocks)], cwd=REPO,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # the first block prints desk's optimal gain and its two parts
    gain, queue, grid = map(float, done.stdout.split())
    assert gain == pytest.approx(1.2760839495484388, abs=1e-9)
    assert gain == pytest.approx(queue + grid, abs=1e-9)
