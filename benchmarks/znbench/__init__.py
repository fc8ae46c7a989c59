"""Benchmark harness for znalg: seeded workloads, reference answers that do
not come from the code under test, verdict checks, and a traced run that
splits the time into the package's layers.

Entry point: ``python3 benchmarks/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.
"""
