"""End-to-end benchmark: private queries over loopback TCP with the
fleet, the ``cryptography`` engine and the durable store on.

``python3 benchmarks/e2e/run.py`` is the one-workload entry the driver
calls (see ``BENCHMARK.json``); ``python -m benchmarks.e2e run|compare``
is the reviewer's front end.  README.md explains every workload and
metric.  Nothing under ``src/`` knows this package exists: layers are
measured from outside.
"""
