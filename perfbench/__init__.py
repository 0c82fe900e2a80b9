"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``BENCHMARK.json``
lists the workloads and metric names.  :mod:`perfbench.workloads` says
why each workload exists, :mod:`perfbench.layers` prints the per-layer
table of a traced run, and ``python3 -m pytest perfbench`` runs the
benchmark's own smoke-size self-tests.
"""
