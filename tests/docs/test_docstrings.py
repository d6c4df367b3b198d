"""Scoped docstring presence check (pydocstyle D1xx equivalent).

CI runs ``ruff check --select D1`` over the same scope; this test keeps
the guarantee enforceable locally without ruff installed: the modules
documentation points readers at must carry docstrings on the module
itself and on every public class and function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The documented-surface scope (see docs/architecture.md references).
SCOPED_MODULES = [
    SRC / "experiments" / "runner.py",
    SRC / "experiments" / "parallel.py",
    SRC / "experiments" / "fullrun.py",
    SRC / "sim" / "core.py",
    SRC / "core" / "das.py",
    SRC / "schedulers" / "keyed.py",
    SRC / "workload" / "spec.py",
    SRC / "workload" / "registry.py",
]


def _public_defs(body):
    """Top-level and class-level public defs (nested closures excluded)."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_"):
                continue
            yield node
            if isinstance(node, ast.ClassDef):
                yield from _public_defs(node.body)


def _missing_docstrings(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = []
    if not ast.get_docstring(tree):
        missing.append(f"{path.name}: module docstring")
    for node in _public_defs(tree.body):
        if not ast.get_docstring(node):
            missing.append(f"{path.name}:{node.lineno}: {node.name}")
    return missing


@pytest.mark.parametrize("module", SCOPED_MODULES, ids=lambda p: p.name)
def test_public_api_is_documented(module):
    assert module.exists(), f"scoped module moved: {module}"
    missing = _missing_docstrings(module)
    assert not missing, "missing docstrings:\n" + "\n".join(missing)
