"""Which public functions of the program form which layer, and the
per-layer metrics read from the ledger.

Layers are named after their modules.  :func:`install` wraps the
in-process layers; :data:`PER_LAYER` names every per-layer metric with
its unit and direction, in the order ``BENCHMARK.json`` lists them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.ledger import Ledger

#: (metric, unit, better) -- per-layer metrics of the traced run
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("compiler.pipeline.s", "s", "lower"),
    ("compiler.loop_selection.s", "s", "lower"),
    ("compiler.loop_selection.candidates", "count", "lower"),
    ("compiler.memdep.profiler.s", "s", "lower"),
    ("compiler.memdep.sync_insertion.s", "s", "lower"),
    ("ir.interpreter.runs", "count", "lower"),
    ("ir.interpreter.s", "s", "lower"),
    ("ir.interpreter.steps", "count", "lower"),
    ("tlssim.oracle.calls", "count", "lower"),
    ("tlssim.oracle.s", "s", "lower"),
    ("experiments.artifacts.load_s", "s", "lower"),
    ("experiments.artifacts.save_s", "s", "lower"),
    ("experiments.artifacts.hits", "count", "higher"),
    ("experiments.artifacts.misses", "count", "lower"),
    ("experiments.cache.get_s", "s", "lower"),
    ("experiments.cache.put_s", "s", "lower"),
    ("experiments.cache.hits", "count", "higher"),
    ("experiments.cache.misses", "count", "lower"),
    ("tlssim.stats.encode_s", "s", "lower"),
    ("tlssim.stats.decode_s", "s", "lower"),
    ("tlssim.engine.init_s", "s", "lower"),
    ("tlssim.engine.inits", "count", "lower"),
    ("ir.decode.s", "s", "lower"),
    ("ir.decode.functions", "count", "lower"),
    ("ir.codegen.compiles", "count", "lower"),
    ("tlssim.engine.run_s", "s", "lower"),
    ("tlssim.engine.instructions", "count", "lower"),
    ("tlssim.engine.ns_per_instr", "ns", "lower"),
    ("tlssim.sim_cycles", "cycles", "lower"),
    ("tlssim.epoch_commit_ratio", "ratio", "higher"),
    ("tlssim.violations", "count", "lower"),
    ("tlssim.cache.l1_hit_ratio", "ratio", "higher"),
    ("experiments.runner.worker_busy_s", "s", "lower"),
    ("experiments.runner.utilization", "ratio", "higher"),
    ("experiments.report.render_s", "s", "lower"),
    ("sweep.run.point_s", "s", "lower"),
    ("serve.client.submit_s", "s", "lower"),
    ("serve.client.wait_s", "s", "lower"),
    ("serve.client.polls", "count", "lower"),
    ("serve.client.result_s", "s", "lower"),
    ("serve.http.submit_s", "s", "lower"),
    ("serve.daemon.queue_s", "s", "lower"),
    ("serve.pool.ipc_s", "s", "lower"),
    ("serve.pool.execute_s", "s", "lower"),
    ("serve.pool.memo_ratio", "ratio", "higher"),
    ("serve.daemon.rejected", "count", "lower"),
    ("ledger.unattributed_s", "s", "lower"),
    ("ledger.closure_error", "ratio", "lower"),
    ("ledger.trace_overhead", "ratio", "lower"),
)

#: metric -> (layer, field): a layer's self time or its call count
_FROM_LAYER: Dict[str, Tuple[str, str]] = {
    "compiler.pipeline.s": ("compiler.pipeline", "self_s"),
    "compiler.loop_selection.s": ("compiler.loop_selection", "self_s"),
    "compiler.memdep.profiler.s": ("compiler.memdep.profiler", "self_s"),
    "compiler.memdep.sync_insertion.s": ("compiler.memdep.sync_insertion", "self_s"),
    "ir.interpreter.runs": ("ir.interpreter", "calls"),
    "ir.interpreter.s": ("ir.interpreter", "self_s"),
    "tlssim.oracle.calls": ("tlssim.oracle", "calls"),
    "tlssim.oracle.s": ("tlssim.oracle", "self_s"),
    "experiments.artifacts.load_s": ("experiments.artifacts.load", "self_s"),
    "experiments.artifacts.save_s": ("experiments.artifacts.save", "self_s"),
    "experiments.cache.get_s": ("experiments.cache.get", "self_s"),
    "experiments.cache.put_s": ("experiments.cache.put", "self_s"),
    "tlssim.stats.encode_s": ("tlssim.stats.encode", "self_s"),
    "tlssim.stats.decode_s": ("tlssim.stats.decode", "self_s"),
    "tlssim.engine.init_s": ("tlssim.engine.init", "self_s"),
    "tlssim.engine.inits": ("tlssim.engine.init", "calls"),
    "ir.decode.s": ("ir.decode", "self_s"),
    "ir.decode.functions": ("ir.decode", "calls"),
    "tlssim.engine.run_s": ("tlssim.engine.run", "self_s"),
    "experiments.report.render_s": ("experiments.report", "self_s"),
    "sweep.run.point_s": ("sweep.run", "self_s"),
    "serve.client.submit_s": ("serve.client.submit", "self_s"),
    "serve.client.wait_s": ("serve.client.wait", "self_s"),
    "serve.client.result_s": ("serve.client.result", "self_s"),
    "serve.http.submit_s": ("serve.http.submit", "self_s"),
    "serve.daemon.queue_s": ("serve.daemon.queue", "self_s"),
    "serve.pool.ipc_s": ("serve.pool.ipc", "self_s"),
    "serve.pool.execute_s": ("serve.pool.execute", "self_s"),
}

#: metric -> ledger counter
_FROM_COUNTER: Dict[str, str] = {
    "compiler.loop_selection.candidates": "loop_selection.candidates",
    "ir.interpreter.steps": "interpreter.steps",
    "experiments.artifacts.hits": "artifacts.hits",
    "experiments.artifacts.misses": "artifacts.misses",
    "experiments.cache.hits": "cache.hits",
    "experiments.cache.misses": "cache.misses",
    "ir.codegen.compiles": "codegen.compiles",
    "tlssim.engine.instructions": "engine.instructions",
    "tlssim.sim_cycles": "sim.cycles",
    "tlssim.violations": "sim.violations",
    "serve.client.polls": "client.polls",
    "serve.daemon.rejected": "daemon.rejected",
}


# -- result hooks: counters read from a call's arguments or result ---------


def _candidates(ledger: Ledger, _args, _kwargs, result) -> None:
    ledger.count("loop_selection.candidates", len(result[1]))


def _steps(ledger: Ledger, _args, _kwargs, result) -> None:
    ledger.count("interpreter.steps", result.steps)


def _artifact_load(ledger: Ledger, _args, _kwargs, result) -> None:
    ledger.count("artifacts.hits" if result is not None else "artifacts.misses")


def _cache_get(ledger: Ledger, _args, _kwargs, result) -> None:
    ledger.count("cache.hits" if result is not None else "cache.misses")


def _count_result(ledger: Ledger, result) -> None:
    """Simulated statistics of one engine result."""
    ledger.count("sim.results")
    ledger.count("sim.cycles", result.program_cycles)
    for region in result.regions:
        ledger.count("sim.committed", region.epochs_committed)
        ledger.count("sim.squashed", region.epochs_squashed)
        ledger.count("sim.violations", len(region.violations))
    counters = result.counters
    ledger.count("sim.l1_hits", counters.get("cache_hits{level=l1}", 0.0))
    ledger.count("sim.l1_misses", counters.get("cache_misses{level=l1}", 0.0))


def _engine_run(ledger: Ledger, args, _kwargs, result) -> None:
    ledger.count("engine.instructions", args[0].instructions)
    _count_result(ledger, result)


def install(ledger: Ledger) -> List[str]:
    """Wrap every in-process layer; returns the targets that were absent."""
    from repro.compiler import loop_selection, pipeline
    from repro.compiler.memdep import profiler, sync_insertion
    from repro.experiments import report
    from repro.experiments.artifacts import ArtifactStore
    from repro.experiments.cache import ResultCache
    from repro.ir.decode import DecodedProgram
    from repro.ir.interpreter import Interpreter
    from repro.serve.client import ServeClient
    from repro.sweep import run as sweep_run
    from repro.tlssim import oracle
    from repro.tlssim.engine import TLSEngine
    from repro.tlssim.stats import SimResult

    targets = [
        ("fn", report, "generate_report", "experiments.report", None),
        ("fn", sweep_run, "run_sweep", "sweep.run", None),
        ("fn", pipeline, "compile_workload", "compiler.pipeline", None),
        ("fn", loop_selection, "select_loops", "compiler.loop_selection", _candidates),
        ("fn", profiler, "profile_dependences", "compiler.memdep.profiler", None),
        ("fn", sync_insertion, "insert_memory_sync", "compiler.memdep.sync_insertion", None),
        ("fn", oracle, "collect_oracle", "tlssim.oracle", None),
        ("m", Interpreter, "run", "ir.interpreter", _steps),
        ("m", ArtifactStore, "load_compiled", "experiments.artifacts.load", _artifact_load),
        ("m", ArtifactStore, "load_oracle", "experiments.artifacts.load", _artifact_load),
        ("m", ArtifactStore, "save_compiled", "experiments.artifacts.save", None),
        ("m", ArtifactStore, "save_oracle", "experiments.artifacts.save", None),
        ("m", ResultCache, "get", "experiments.cache.get", _cache_get),
        ("m", ResultCache, "put", "experiments.cache.put", None),
        ("m", SimResult, "to_state", "tlssim.stats.encode", None),
        ("m", SimResult, "from_state", "tlssim.stats.decode", None),
        ("m", TLSEngine, "__init__", "tlssim.engine.init", None),
        ("m", TLSEngine, "run", "tlssim.engine.run", _engine_run),
        # the single choke point behind DecodedProgram.function/.block
        ("m", DecodedProgram, "_decode_function", "ir.decode", None),
    ]
    missing = []
    for kind, owner, name, layer, hook in targets:
        wrap = ledger.wrap_function if kind == "fn" else ledger.wrap_method
        if not wrap(owner, name, layer, hook):
            missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
    # serve client time is split per request by the serve flow itself
    # (perfbench.flows), which needs each call's interval; here only
    # the status polls inside ServeClient.wait are counted.
    if not ledger.count_calls(ServeClient, "status", "client.polls"):
        missing.append("ServeClient.status")
    return missing


def codegen_compiles() -> int:
    """Process-wide kernel compiles so far (vector backend only)."""
    from repro.ir import codegen

    return int(codegen.compile_stats().get("compiles", 0))


def per_layer_values(snapshot: Dict, extra: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a ledger snapshot.

    ``extra`` supplies the metrics that do not come from wrapped calls
    (runner utilization, serve spans, closure, overhead); layers a
    workload never entered read zero.
    """
    layers = snapshot["layers"]
    counters = snapshot["counters"]
    values: Dict[str, float] = {}
    for metric, (layer, field) in _FROM_LAYER.items():
        values[metric] = float(layers.get(layer, {}).get(field, 0.0))
    for metric, counter in _FROM_COUNTER.items():
        values[metric] = float(counters.get(counter, 0.0))
    instructions = counters.get("engine.instructions", 0.0)
    run_total = layers.get("tlssim.engine.run", {}).get("total_s", 0.0)
    values["tlssim.engine.ns_per_instr"] = (
        run_total * 1e9 / instructions if instructions else 0.0
    )
    committed = counters.get("sim.committed", 0.0)
    squashed = counters.get("sim.squashed", 0.0)
    values["tlssim.epoch_commit_ratio"] = (
        committed / (committed + squashed) if committed + squashed else 0.0
    )
    hits = counters.get("sim.l1_hits", 0.0)
    misses = counters.get("sim.l1_misses", 0.0)
    values["tlssim.cache.l1_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values.update(extra)
    return {metric: values.get(metric, 0.0) for metric, _unit, _better in PER_LAYER}
