"""The benchmark modules only the CI smoke matrix runs must still import.

``benchmarks/bench_*.py`` and their shared helpers are not collected by
the tier-1 suite, so a ``from repro... import`` of a deleted name there
would otherwise surface only in CI.  Importing runs no cell.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
MODULES = sorted(
    path.stem for path in BENCHMARKS.glob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize("module", MODULES)
def test_bench_module_imports(module):
    importlib.import_module(f"benchmarks.{module}")
