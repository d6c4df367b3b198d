"""The repo benchmark: four workloads over the simulator and the asyncio runtime.

See ``README.md`` in this directory.  ``run.py`` is the command named in
the root ``BENCHMARK.json`` (one workload, one seed, one JSON line);
``python -m benchmarks.perf`` runs the whole ledger and ``compare.py``
diffs two ledger records.
"""
