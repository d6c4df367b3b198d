"""Every public top-level name in ``src/repro`` has a caller outside the tests.

A function or class that only tests reach is dead surface: it is read and
maintained but does nothing the package, its examples or its benchmarks
use.  The guard walks ``src/repro`` and fails on any top-level public
``def`` or ``class`` that nothing in ``src/`` (re-exports in
``__init__.py`` do not count), ``examples/`` or ``benchmarks/``
references.  Classes registered through a ``register_*`` decorator are
reached by name from configs and are exempt.

The same rule holds one level down: every constructor parameter of a
registered scheduling policy, of a registered selection policy and of the
size-lane cutoff is set — as a keyword argument or a string dict key —
somewhere outside ``tests/`` and the class's own module.  A knob nothing
sets is a constant.
"""

from __future__ import annotations

import ast
import inspect
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Tuple

import numpy as np

from repro.core.estimator import ServerEstimates
from repro.schedulers import available_schedulers, create_policy
from repro.selection import SELECTION_POLICY_NAMES, create_selection_policy
from repro.sharding import WindowedQuantileCutoff

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = (ROOT / "src", ROOT / "examples", ROOT / "benchmarks")

#: Public names kept without a caller in src/, examples/ or benchmarks/.
ALLOWED = {
    "mm1_mean_wait": "theory oracle the simulator tests compare against",
    "write_trace": "writer for the JSONL trace format read_trace parses",
    "LoadGenerator": "the documented runtime driver for a WorkloadSpec",
    "available_schedulers": "the scheduler registry's enumerator",
}


def _is_registered(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id.startswith("register_"):
            return True
    return False


def public_definitions() -> List[ast.AST]:
    """Top-level public functions and unregistered classes of the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not _is_registered(node)
            ):
                found.append(node)
    return found


def _names(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rpartition(".")[2]


def _is_reexport(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def references() -> Counter:
    """How often each identifier is used across the caller directories."""
    counts: Counter = Counter()
    for directory in CALLER_DIRS:
        for path in directory.rglob("*.py"):
            tree = ast.parse(path.read_text())
            body = tree.body
            if path.name == "__init__.py" and PACKAGE in path.parents:
                body = [node for node in body if not _is_reexport(node)]
            for node in body:
                counts.update(_names(node))
    return counts


def uncalled() -> List[str]:
    counts = references()
    out = []
    for node in public_definitions():
        # A definition naming itself (recursion, a classmethod returning
        # its own class) is not a caller.
        own = sum(1 for name in _names(node) if name == node.name)
        if counts[node.name] - own <= 0:
            out.append(node.name)
    return out


def test_every_public_name_has_a_caller():
    assert sorted(set(uncalled()) - set(ALLOWED)) == []


def test_allowlist_is_current():
    """An allowlisted name that is gone or has gained a caller is dropped."""
    assert sorted(set(ALLOWED) - set(uncalled())) == []


@lru_cache(maxsize=None)
def settings_by_file() -> Dict[Path, FrozenSet[str]]:
    """Keyword-argument names and string dict keys, per caller file."""
    found = {}
    for directory in CALLER_DIRS:
        for path in directory.rglob("*.py"):
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        key.value
                        for key in node.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    )
            found[path.resolve()] = frozenset(names)
    return found


def policy_classes() -> Iterator[Tuple[str, type]]:
    """Every class whose constructor knobs the guard checks, by name."""
    for name in available_schedulers():
        yield name, type(create_policy(name))
    for name in SELECTION_POLICY_NAMES:
        policy = create_selection_policy(
            name, rng=np.random.default_rng(0), estimates=ServerEstimates()
        )
        yield f"selection:{name}", type(policy)
    yield "cutoff", WindowedQuantileCutoff


def unset_policy_parameters() -> List[str]:
    """``policy.parameter`` for every constructor knob nothing sets."""
    out = []
    for name, cls in policy_classes():
        home = Path(inspect.getsourcefile(cls)).resolve()
        elsewhere = set().union(
            *(names for path, names in settings_by_file().items() if path != home)
        )
        for param in inspect.signature(cls).parameters.values():
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                continue
            if param.name not in elsewhere:
                out.append(f"{name}.{param.name}")
    return out


def test_every_policy_parameter_is_set_outside_tests():
    assert unset_policy_parameters() == []
