"""Rewrite ``perfbench/pins.json`` from one serial cold report.

    python3 perfbench/pin.py

Run from the root of a checkout, only after a change that is meant to
alter simulated results (the report's pinned digest then changes too).
Refuses to pin results that disagree with the reference interpreter.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path.cwd() / "src"))

if __name__ == "__main__":
    from perfbench import correctness, flows

    try:
        correctness.write_pins(flows.report_pins())
    finally:
        shutil.rmtree(flows.WORK, ignore_errors=True)
    print(f"wrote {correctness.PINS_PATH}")
