"""End-to-end benchmark of the model -> join path (paper Fig. 6).

``python -m benchmarks.e2e run`` drives six workloads through the whole
path -- UML model, XMI, XSLT, CNX, generated client, placement, task
bodies, join -- checks every output against an independent reference,
and prints the end-to-end and per-layer metrics ``BENCHMARK.json``
names.  See ``README.md`` in this directory.
"""
