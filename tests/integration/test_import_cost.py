"""Importing the package must not drag in the heavy optional imports."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules that cost 0.1-0.8 s of import and that only a few analysis
#: helpers (or nothing at all) need.
HEAVY = ("scipy.stats", "networkx")


def test_import_leaves_heavy_modules_out():
    probe = (
        "import sys; import repro, repro.runtime; "
        f"print([m for m in {HEAVY!r} if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
