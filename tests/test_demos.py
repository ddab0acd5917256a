"""Every narrative script under demos/, and README's library example, runs
to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    done = run_python(str(script))
    assert done.returncode == 0, done.stderr


def test_readme_library_block_runs():
    section = (ROOT / "README.md").read_text().split("## Library in one minute", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
