"""Importing the package must not drag in the heavy optional imports."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules that cost 0.1-0.8 s of import and that nothing in the package
#: needs.
HEAVY = ("scipy.stats",)


def run_probe(probe: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_import_leaves_heavy_modules_out():
    child = run_probe(
        "import sys; import repro, repro.runtime; "
        f"print([m for m in {HEAVY!r} if m in sys.modules])"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_package_runs_without_scipy():
    """scipy is not a dependency: with every ``scipy*`` import refused, the
    package imports, computes a lognormal mean and runs a small cell."""
    child = run_probe(textwrap.dedent(
        """
        import importlib.abc
        import sys

        class RefuseScipy(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"{name} is refused")
                return None

        sys.meta_path.insert(0, RefuseScipy())

        import repro, repro.runtime
        from repro import ClusterConfig, SimulationConfig, run_cluster
        from repro.workload.sizes import LognormalSize

        LognormalSize(median=1024.0, sigma=1.0, cap=1 << 18).mean()
        result = run_cluster(
            ClusterConfig(n_servers=8, scheduler="das"),
            SimulationConfig(max_requests=200),
        )
        assert result.requests_completed == 200, result.requests_completed
        """
    ))
    assert child.returncode == 0, child.stderr
