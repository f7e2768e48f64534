"""End-to-end benchmark of the reproduction, with a per-layer ledger.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (``report-cold``, ``sweep-warm`` or ``serve-mixed``)
against the public Python API under ``src/`` and prints one JSON result
as its last line.  See ``perfbench/README.md``.
"""
