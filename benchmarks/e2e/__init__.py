"""End-to-end, layer-attributed benchmark of the stream monitor.

``BENCHMARK.json`` at the repo root is the contract; ``README.md`` in
this directory defines every workload and metric.  Two entry points:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one measured run of one workload (what
  ``BENCHMARK.json``'s ``command`` names); the last stdout line is the
  result object.
* ``PYTHONPATH=src python -m benchmarks.e2e [--seed N] [--trace]
  [--smoke]`` — every workload, several repetitions each in a fresh
  child process, scheduled round-robin; prints every metric by name.

The package drives the program only through public entry points and is
linted with the rest of ``benchmarks/`` (``perf_counter`` timing only,
child processes via ``subprocess``, a blocking socket client).
"""
