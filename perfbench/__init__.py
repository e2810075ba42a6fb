"""The repository's end-to-end benchmark: four workloads and a layer trace.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
is the entry point; ``BENCHMARK.json`` at the repository root names the
workloads and metrics.  See ``perfbench/README.md`` for why each workload
exists and which layer metric should move which end-to-end metric.
"""
