"""Each demo script, and each ``python`` block of README.md, runs to the end
against the package as it is."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)


def run_python(args, cwd):
    """``python args`` in a fresh interpreter with ``src`` on the path: it
    must exit 0 without a traceback."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_without_error(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda block: block.splitlines()[0])
def test_readme_python_block_runs_without_error(block, tmp_path):
    run_python(["-c", block], tmp_path)
