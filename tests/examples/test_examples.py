"""Smoke tests: every shipped example runs to completion.

Examples are the first thing a new user executes; a broken one is a
release blocker.  Each runs in a subprocess exactly as a user would run
it.  These are the slowest tests in the suite (~2 minutes total).
"""

import functools
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@functools.lru_cache(maxsize=None)
def run_example(name: str, timeout: float = 240.0) -> subprocess.CompletedProcess:
    """Run one example in a fresh subprocess, once per test session."""
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamplesInventory:
    def test_at_least_five_examples_ship(self):
        assert len(ALL_EXAMPLES) >= 5
        assert "quickstart.py" in ALL_EXAMPLES


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_runs_clean(name):
    result = run_example(name)
    assert result.returncode == 0, (
        f"{name} failed:\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{name} printed nothing"


class TestExampleOutputs:
    """Spot-check that the headline numbers appear in the output."""

    def test_quickstart_reports_all_schedulers(self):
        result = run_example("quickstart.py")
        for scheduler in ("fcfs", "sbf", "das"):
            assert scheduler in result.stdout
        assert "vs FCFS" in result.stdout

    def test_fault_tolerance_shows_retry_effect(self):
        result = run_example("fault_tolerance.py")
        assert "retries 0" in result.stdout  # unprotected rows
        assert "protected" in result.stdout
