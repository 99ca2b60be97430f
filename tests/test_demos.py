"""Every demo script runs to completion."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_exits_cleanly(tmp_path):
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"
