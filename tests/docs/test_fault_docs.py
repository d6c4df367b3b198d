"""docs/faults.md documents every fault-plan entry kind.

A kind added to ``repro.faults.plan`` without a row in the entry table
fails here, next to the parity test that fails when only one adapter
handles it.
"""

from pathlib import Path

import pytest

from repro.faults.plan import _ENTRY_TYPES

FAULTS_MD = Path(__file__).resolve().parents[2] / "docs" / "faults.md"


@pytest.mark.parametrize("kind", sorted(_ENTRY_TYPES))
def test_entry_table_has_a_row_per_kind(kind):
    name = _ENTRY_TYPES[kind].__name__
    rows = [
        line
        for line in FAULTS_MD.read_text(encoding="utf-8").splitlines()
        if line.startswith(f"| `{name}(")
    ]
    assert rows, f"docs/faults.md entry table has no `{name}(...)` row ({kind!r})"
