"""End-to-end and per-layer benchmark of the repro library and service.

Run it with ``python3 perfbench/run.py --help``; see ``perfbench/README.md``
for the workloads and the layer -> metric -> workload map.
"""
