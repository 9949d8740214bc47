"""The repository benchmark: served workloads driven over real HTTP.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
builds the workload's artifact with ``repro build``, serves it with
``python -m repro serve`` in a subprocess, drives it from a one-thread
open-loop generator, checks every answer against an in-process reference
and prints the metrics named in ``BENCHMARK.json``.
"""
