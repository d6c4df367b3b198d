"""Named workload registry: the bundled spec library and its lookup.

Bundled specs live next to this module in ``specs/*.toml`` — one file
per named workload, filename == spec name.  ``workload("mmpp-burst")``
returns the validated :class:`~repro.workload.spec.WorkloadSpec`;
``resolve_workload`` additionally accepts a filesystem path (anything
ending in ``.toml``/``.json`` or containing a path separator), which is
what ``ClusterConfig(workload=...)`` and the ``--workload`` CLI flags
pass through.  The registry table in ``docs/workloads.md`` describes
every bundled spec.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

from repro.errors import WorkloadError
from repro.workload.spec import WorkloadSpec, load_spec

#: Directory holding the bundled ``<name>.toml`` spec files.
BUNDLED_SPECS_DIR = Path(__file__).parent / "specs"

#: The bundled downsampled cache-trace sample (``timestamp,key,op,size``
#: CSV) that ``trace-sample`` replays and docs/workloads.md walks through.
SAMPLE_TRACE = BUNDLED_SPECS_DIR / "sample_trace.csv"

#: Per-process cache: specs are immutable and bundled files do not
#: change under a running process, so each file parses at most once.
_CACHE: Dict[str, WorkloadSpec] = {}


def list_workloads() -> List[str]:
    """Sorted names of every bundled workload spec."""
    return sorted(path.stem for path in BUNDLED_SPECS_DIR.glob("*.toml"))


def workload(name: str) -> WorkloadSpec:
    """Look up a bundled spec by name.

    An unknown name raises :class:`WorkloadError` listing the registry,
    so a typo in ``--workload`` shows the menu instead of a stack trace.
    """
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    path = BUNDLED_SPECS_DIR / f"{name}.toml"
    if not path.exists():
        raise WorkloadError(
            f"unknown workload {name!r}; bundled: {', '.join(list_workloads())}"
        )
    spec = load_spec(path)
    if spec.name != name:
        raise WorkloadError(
            f"bundled spec file {path.name} declares name {spec.name!r}; "
            "registry filenames must match the spec's name"
        )
    _CACHE[name] = spec
    return spec


def resolve_workload(ref: str) -> WorkloadSpec:
    """Resolve a workload reference: a registry name or a spec-file path."""
    if not isinstance(ref, str) or not ref:
        raise WorkloadError(f"workload reference must be a name or path, got {ref!r}")
    looks_like_path = (
        ref.endswith(".toml")
        or ref.endswith(".json")
        or os.sep in ref
        or "/" in ref
    )
    if looks_like_path:
        return load_spec(ref)
    return workload(ref)
