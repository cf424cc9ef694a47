"""Every demo script runs to completion without a RuntimeWarning and
leaves no temporary directory behind."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(tmp_path.glob("beltrami_demo_*"))
