"""Kernel-compile counters, kept for ``perfbench/layers.py``.

The simulator has no code generator; its one fast path is the decoded
tuple dispatch of :mod:`repro.ir.decode`.  ``perfbench/layers.py``
still reads :func:`compile_stats` for its ``ir.codegen.compiles`` layer,
so this stub reports zero until that benchmark drops the layer.
"""

from typing import Dict


def compile_stats() -> Dict[str, int]:
    """Always zero: nothing is ever compiled."""
    return {"compiles": 0, "memo_hits": 0, "memo_size": 0}
