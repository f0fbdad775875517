"""Smoke tests: every demo script, and README's library quick start, runs to
completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_four_demos():
    assert [d.name for d in DEMOS] == [
        "evaluate_series.py", "integral_cross_check.py",
        "operator_actions.py", "verify_catalog.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    _run([str(demo)])


def test_readme_library_quick_start_runs():
    # the first python block after the heading, run as written, so that an
    # API change cannot leave the documented example broken
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start — library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "verify_formula" in block
    _run(["-c", block])
