"""Correctness gate: references, result digests and the pinned digests.

* **Reference.** Each workload's sequential program, run by the slow
  reference interpreter (``run_module(compiled.seq, fast_path=False)``).
  Every simulated result must return the same value and leave the same
  memory checksum: speculation, synchronization and value prediction
  may change timing, never the program's answer.
* **Digests.** A result's digest is the SHA-256 of its canonical serve
  encoding (``canonical_result_bytes(SimResult.to_state())``), so batch
  results and serve responses compare byte for byte.  ``pins.json``
  pins the rendered report's digest and the digest of every job of the
  report's simulation matrix; ``python3 perfbench/pin.py`` rewrites it
  after a change that is meant to alter simulated results.
* **Tally.** Every checked operation counts as attempted; a wrong,
  refused, failed or timed-out one counts as failed.  ``error_rate`` is
  failed / attempted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def result_digest(result) -> str:
    """Digest of a ``SimResult`` in its canonical serve encoding."""
    from repro.serve.protocol import canonical_result_bytes

    return digest_bytes(canonical_result_bytes(result.to_state()))


def combined_digest(digests: Iterable[str]) -> str:
    """One digest over an ordered sequence of digests."""
    return digest_bytes("\n".join(digests).encode())


def job_id(spec) -> str:
    """A report job's pin key: ``workload/kind/label``."""
    return f"{spec.workload}/{spec.kind}/{spec.label}"


def references(workloads: Iterable[str]) -> Dict[str, Tuple[int, int]]:
    """workload -> (return value, memory checksum) of the slow interpreter."""
    from repro.compiler.pipeline import compile_workload
    from repro.ir.interpreter import run_module
    from repro.workloads.base import get_workload

    refs: Dict[str, Tuple[int, int]] = {}
    for name in workloads:
        workload = get_workload(name)
        compiled = compile_workload(
            workload.name, workload.build, workload.train_input, workload.ref_input
        )
        run = run_module(compiled.seq, fast_path=False)
        refs[name] = (run.return_value, run.memory.checksum())
    return refs


def matches_reference(refs: Dict[str, Tuple[int, int]], workload: str, state: Dict) -> bool:
    """True when a result state computes the reference answer."""
    return (state["return_value"], state["memory_checksum"]) == refs[workload]


def load_pins() -> Dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def write_pins(pins: Dict) -> None:
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
