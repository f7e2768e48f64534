"""The fast path must be invisible: identical results, bit for bit.

The decoded-dispatch / free-running-turn / event-heap execution layer
(``SimConfig.fast_path``, on by default) is a pure implementation
optimization.  These tests run every workload under every bar label
against ``fast_path=False`` on the same compiled program and require the full
serialized :class:`SimResult` — cycles, slot breakdowns, violation
records, memory checksum — plus the dynamic instruction count to
match exactly.

The matrix deliberately spans every scheme family because each one
exercises a different engine subsystem: U/O squash-heavy speculation,
C/T/B/E/L the wait/signal forwarding and signal address buffer, H/P
the hardware sync table and value predictor, SEQ the sequential loop.
"""

import pytest

from repro.experiments.runner import BAR_PROGRAM, bundle_for, config_for
from repro.tlssim.engine import TLSEngine
from repro.workloads import all_workloads

BARS = ("U", "C", "T", "H", "P", "B", "E", "L", "O", "SEQ")
WORKLOADS = tuple(w.name for w in all_workloads())

#: the fast-path variants checked against the slow reference; the id
#: names the decoded-tuples dispatch, the one fast path the engine has
FAST_PATHS = (pytest.param({"fast_path": True}, id="tuples"),)


def _run(program, config, oracle, parallel):
    engine = TLSEngine(program, config=config, oracle=oracle, parallel=parallel)
    result = engine.run()
    return result, engine


@pytest.mark.parametrize("fast", FAST_PATHS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_fast_path_equivalent_on_every_bar(name, fast):
    bundle = bundle_for(name)
    for bar in BARS:
        program = bundle.program(bar)
        config = config_for(bar)
        oracle = None
        if config.oracle_mode != "off":
            oracle = bundle.oracle_for(BAR_PROGRAM[bar])
        parallel = bar != "SEQ"
        fast_result, fast_engine = _run(
            program, config.with_mode(**fast), oracle, parallel
        )
        slow_result, slow_engine = _run(
            program, config.with_mode(fast_path=False), oracle, parallel
        )
        assert fast_result.to_state() == slow_result.to_state(), (
            f"{name}/{bar}: fast path diverged"
        )
        assert fast_engine.instructions == slow_engine.instructions, (
            f"{name}/{bar}: dynamic instruction counts differ"
        )
