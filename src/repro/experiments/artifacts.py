"""Content-addressed store for compiled workloads and value oracles.

The compile+profile phase is deterministic: a :class:`CompiledWorkload`
is a pure function of the workload sources, the profiling threshold,
and the pipeline code.  This store memoizes that phase *across
processes and runs*, the way :mod:`repro.experiments.cache` memoizes
simulation results — a workload is compiled once per machine, ever,
and every later run (including every ``ProcessPoolExecutor`` worker)
deserializes the artifact instead of recompiling.

Layout: entries live under ``<cache root>/artifacts/`` (sibling of the
result-cache shards, managed independently by ``repro cache``), one
JSON file per artifact named ``<key>.<kind>.json`` where ``kind`` is
``compiled`` or ``oracle``.  Keys are content hashes over:

* a **pipeline fingerprint** — every ``.py`` file under
  ``src/repro/{compiler,ir,workloads}`` plus the oracle collector, so
  any change to the pipeline (or this schema) invalidates artifacts
  without touching simulation-result entries;
* the workload name, profiling threshold, and the ``repr`` of both
  inputs.

Writes are atomic (temp file + ``os.replace``).  Reads are
corruption-tolerant: truncated/garbage payloads are unlinked and
treated as a miss, and entries whose embedded pipeline fingerprint
does not match the running code are ignored — both bump a counter
(surfaced via run metrics and the process metrics registry) and fall
back to recompilation; they never crash.

Like the result cache, the store is opt-in: :func:`configure` installs
a process-wide instance (the CLI does this unless ``--no-cache``), and
library code asks :func:`active_store`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.compiler.loop_selection import LoopStats
from repro.compiler.memdep.graph import DependenceGroup
from repro.compiler.memdep.profiler import LoopDependenceProfile, MemRef
from repro.compiler.memdep.sync_insertion import MemSyncReport
from repro.compiler.pipeline import CompiledWorkload
from repro.compiler.scalar_sync import ScalarSyncReport
from repro.compiler.scheduling import SchedulingReport
from repro.experiments.cache import DEFAULT_CACHE_DIR
from repro.ir.module import ParallelLoop
from repro.ir.serialize import (
    SerializeError,
    module_content_hash,
    module_from_state,
    module_to_state,
)
from repro.obs.registry import process_registry
from repro.tlssim.oracle import ValueOracle

#: Bump to invalidate every stored artifact on a format change.
ARTIFACT_SCHEMA_VERSION = 1

#: Artifact kinds (the filename suffix).
KIND_COMPILED = "compiled"
KIND_ORACLE = "oracle"
KIND_LOWERED = "lowered"
KIND_KERNEL = "kernel"


# ---------------------------------------------------------------------------
# fingerprint, keys, counters
# ---------------------------------------------------------------------------

_pipeline_fingerprint: Optional[str] = None

#: Source subtrees the compile+profile phase depends on.  Deliberately
#: narrower than the result cache's whole-tree fingerprint: simulator
#: changes must invalidate simulation results but not compiled
#: binaries.
_PIPELINE_SOURCES = ("compiler", "ir", "workloads")
_PIPELINE_EXTRA_FILES = ("tlssim/oracle.py",)


def pipeline_fingerprint() -> str:
    """Hash of every source file the artifacts depend on (cached)."""
    global _pipeline_fingerprint
    if _pipeline_fingerprint is None:
        digest = hashlib.sha256()
        digest.update(f"schema:{ARTIFACT_SCHEMA_VERSION}".encode())
        root = Path(__file__).resolve().parent.parent  # src/repro/
        paths: List[Path] = []
        for sub in _PIPELINE_SOURCES:
            paths.extend((root / sub).rglob("*.py"))
        for extra in _PIPELINE_EXTRA_FILES:
            paths.append(root / extra)
        for path in sorted(paths):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _pipeline_fingerprint = digest.hexdigest()
    return _pipeline_fingerprint


def artifact_key(
    kind: str,
    workload_name: str,
    threshold: float,
    train_input: object,
    ref_input: object,
    extra: Optional[Dict] = None,
) -> str:
    """Content-hash key for one stored artifact."""
    payload = {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "pipeline": pipeline_fingerprint(),
        "kind": kind,
        "workload": workload_name,
        "threshold": threshold,
        "inputs": [repr(train_input), repr(ref_input)],
        "extra": extra or {},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Store outcome counters for this process; workers have their own.
_COUNTERS = {"hits": 0, "misses": 0, "corrupt": 0, "version_mismatch": 0}


def counters() -> Dict[str, int]:
    """Snapshot of the process's artifact-store outcome counters."""
    return dict(_COUNTERS)


def reset_counters() -> None:
    for name in _COUNTERS:
        _COUNTERS[name] = 0


def _bump(name: str) -> None:
    _COUNTERS[name] += 1
    process_registry().counter(f"artifact_store_{name}").inc()


def merge_counters(delta: Dict[str, int]) -> None:
    """Fold a worker's counter snapshot into this process's counters."""
    for name, amount in delta.items():
        if name in _COUNTERS and amount:
            _COUNTERS[name] += amount
            process_registry().counter(f"artifact_store_{name}").inc(amount)


# ---------------------------------------------------------------------------
# payload codecs
# ---------------------------------------------------------------------------


def _ref_state(ref: MemRef) -> List:
    return [ref[0], list(ref[1])]


def _ref_from(state) -> MemRef:
    return (state[0], tuple(state[1]))


def _profile_state(profile: LoopDependenceProfile) -> Dict:
    return {
        "function": profile.function,
        "header": profile.header,
        "total_epochs": profile.total_epochs,
        "pairs": sorted(
            [_ref_state(s), _ref_state(l), n]
            for (s, l), n in profile.pair_epochs.items()
        ),
        "loads": sorted(
            [_ref_state(r), n] for r, n in profile.load_epochs.items()
        ),
        "load_iids": sorted(
            [iid, n] for iid, n in profile.load_iid_epochs.items()
        ),
        "distances": sorted(
            [d, n] for d, n in profile.distance_hist.items()
        ),
    }


def _profile_from(state: Dict) -> LoopDependenceProfile:
    return LoopDependenceProfile(
        function=state["function"],
        header=state["header"],
        total_epochs=state["total_epochs"],
        pair_epochs={
            (_ref_from(s), _ref_from(l)): n for s, l, n in state["pairs"]
        },
        load_epochs={_ref_from(r): n for r, n in state["loads"]},
        load_iid_epochs={iid: n for iid, n in state["load_iids"]},
        distance_hist={d: n for d, n in state["distances"]},
    )


def _group_state(group: DependenceGroup) -> Dict:
    return {
        "index": group.index,
        "loads": sorted(_ref_state(r) for r in group.loads),
        "stores": sorted(_ref_state(r) for r in group.stores),
        "pairs": [[_ref_state(s), _ref_state(l)] for s, l in group.pairs],
    }


def _group_from(state: Dict) -> DependenceGroup:
    return DependenceGroup(
        index=state["index"],
        loads={_ref_from(r) for r in state["loads"]},
        stores={_ref_from(r) for r in state["stores"]},
        pairs=[(_ref_from(s), _ref_from(l)) for s, l in state["pairs"]],
    )


def _loop_state(loop: ParallelLoop) -> List:
    return [
        loop.function,
        loop.header,
        list(loop.scalar_channels),
        list(loop.mem_channels),
        loop.unroll_factor,
    ]


def _loop_from(state) -> ParallelLoop:
    function, header, scalar_chs, mem_chs, factor = state
    return ParallelLoop(
        function=function,
        header=header,
        scalar_channels=list(scalar_chs),
        mem_channels=list(mem_chs),
        unroll_factor=factor,
    )


def _keyed_map_state(mapping: Dict[Tuple[str, str], object], encode) -> List:
    return [[fn, header, encode(value)] for (fn, header), value in mapping.items()]


def _keyed_map_from(state: Iterable, decode) -> Dict:
    return {(fn, header): decode(value) for fn, header, value in state}


def compiled_to_state(compiled: CompiledWorkload) -> Dict:
    """Encode every field of a :class:`CompiledWorkload` as JSON state."""
    return {
        "name": compiled.name,
        "seq": module_to_state(compiled.seq),
        "baseline": module_to_state(compiled.baseline),
        "sync_ref": module_to_state(compiled.sync_ref),
        "sync_train": module_to_state(compiled.sync_train),
        "loop_stats": [
            [s.function, s.header, s.total_steps, s.region_steps,
             s.instances, s.epochs]
            for s in compiled.loop_stats
        ],
        "selected": [[fn, header] for fn, header in compiled.selected],
        "unroll_factors": [
            [fn, header, factor]
            for (fn, header), factor in compiled.unroll_factors.items()
        ],
        "profile_ref": _keyed_map_state(compiled.profile_ref, _profile_state),
        "profile_train": _keyed_map_state(compiled.profile_train, _profile_state),
        "groups_ref": _keyed_map_state(
            compiled.groups_ref, lambda gs: [_group_state(g) for g in gs]
        ),
        "groups_train": _keyed_map_state(
            compiled.groups_train, lambda gs: [_group_state(g) for g in gs]
        ),
        "scalar_reports": [
            {
                "loop": _loop_state(r.loop),
                "communicating": list(r.communicating),
                "waits_inserted": r.waits_inserted,
                "signals_inserted": r.signals_inserted,
            }
            for r in compiled.scalar_reports
        ],
        "scheduling_reports": [
            {"loop": _loop_state(r.loop), "hoisted": list(r.hoisted)}
            for r in compiled.scheduling_reports
        ],
        "memsync_reports_ref": [
            _memsync_state(r) for r in compiled.memsync_reports_ref
        ],
        "memsync_reports_train": [
            _memsync_state(r) for r in compiled.memsync_reports_train
        ],
    }


def _memsync_state(report: MemSyncReport) -> Dict:
    return {
        "loop": _loop_state(report.loop),
        "groups": report.groups,
        "loads_synchronized": report.loads_synchronized,
        "signal_sites": report.signal_sites,
        "clones_created": report.clones_created,
        "channels": list(report.channels),
    }


def _memsync_from(state: Dict) -> MemSyncReport:
    return MemSyncReport(
        loop=_loop_from(state["loop"]),
        groups=state["groups"],
        loads_synchronized=state["loads_synchronized"],
        signal_sites=state["signal_sites"],
        clones_created=state["clones_created"],
        channels=list(state["channels"]),
    )


def compiled_from_state(state: Dict) -> CompiledWorkload:
    """Inverse of :func:`compiled_to_state`."""
    try:
        return CompiledWorkload(
            name=state["name"],
            seq=module_from_state(state["seq"]),
            baseline=module_from_state(state["baseline"]),
            sync_ref=module_from_state(state["sync_ref"]),
            sync_train=module_from_state(state["sync_train"]),
            loop_stats=[
                LoopStats(
                    function=fn, header=header, total_steps=total,
                    region_steps=region, instances=instances, epochs=epochs,
                )
                for fn, header, total, region, instances, epochs
                in state["loop_stats"]
            ],
            selected=[(fn, header) for fn, header in state["selected"]],
            unroll_factors={
                (fn, header): factor
                for fn, header, factor in state["unroll_factors"]
            },
            profile_ref=_keyed_map_from(state["profile_ref"], _profile_from),
            profile_train=_keyed_map_from(state["profile_train"], _profile_from),
            groups_ref=_keyed_map_from(
                state["groups_ref"], lambda gs: [_group_from(g) for g in gs]
            ),
            groups_train=_keyed_map_from(
                state["groups_train"], lambda gs: [_group_from(g) for g in gs]
            ),
            scalar_reports=[
                ScalarSyncReport(
                    loop=_loop_from(r["loop"]),
                    communicating=list(r["communicating"]),
                    waits_inserted=r["waits_inserted"],
                    signals_inserted=r["signals_inserted"],
                )
                for r in state["scalar_reports"]
            ],
            scheduling_reports=[
                SchedulingReport(
                    loop=_loop_from(r["loop"]), hoisted=list(r["hoisted"])
                )
                for r in state["scheduling_reports"]
            ],
            memsync_reports_ref=[
                _memsync_from(r) for r in state["memsync_reports_ref"]
            ],
            memsync_reports_train=[
                _memsync_from(r) for r in state["memsync_reports_train"]
            ],
        )
    except SerializeError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SerializeError(f"bad compiled-workload state: {exc}") from exc


def oracle_to_state(oracle: ValueOracle) -> List:
    """Encode a value oracle as nested lists (sorted, stable bytes)."""
    return [
        [
            [epoch, sorted([iid, occ, value]
                           for (iid, occ), value in values.items())]
            for epoch, values in sorted(region.items())
        ]
        for region in oracle._regions
    ]


def oracle_from_state(state: List) -> ValueOracle:
    """Inverse of :func:`oracle_to_state`."""
    try:
        regions = [
            {
                epoch: {(iid, occ): value for iid, occ, value in values}
                for epoch, values in region
            }
            for region in state
        ]
    except (TypeError, ValueError) as exc:
        raise SerializeError(f"bad oracle state: {exc}") from exc
    return ValueOracle(regions)


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class ArtifactStore:
    """A directory of content-addressed compiled artifacts.

    ``root`` is the *cache* root (the same directory the result cache
    uses); artifacts live in its ``artifacts/`` subdirectory.
    """

    def __init__(self, root: Optional[str] = None):
        self.base = Path(
            root or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        )
        self.root = self.base / "artifacts"

    def _path(self, key: str, kind: str) -> Path:
        return self.root / key[:2] / f"{key}.{kind}.json"

    # -- raw entries ---------------------------------------------------
    def _get(self, key: str, kind: str):
        """The stored payload; None on miss, corruption, or mismatch."""
        path = self._path(key, kind)
        try:
            with open(path, "r") as handle:
                entry = json.load(handle)
            if (
                entry.get("schema") != ARTIFACT_SCHEMA_VERSION
                or entry.get("pipeline") != pipeline_fingerprint()
            ):
                # An artifact produced by different pipeline code (the
                # key normally prevents this; guard against copied or
                # hand-edited stores): recompile, leave the file alone.
                _bump("version_mismatch")
                return None
            return entry["payload"]
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt or truncated artifact: drop it and recompile.
            _bump("corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _put(self, key: str, kind: str, payload) -> None:
        """Atomically store ``payload`` under ``key``."""
        path = self._path(key, kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "pipeline": pipeline_fingerprint(),
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as handle:
                # dumps() takes the C encoder; dump() streams through
                # the pure-Python one.  The text is identical.
                handle.write(json.dumps(entry))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- typed API -----------------------------------------------------
    def compiled_key(self, workload, threshold: float) -> str:
        return artifact_key(
            KIND_COMPILED, workload.name, threshold,
            workload.train_input, workload.ref_input,
        )

    def oracle_key(self, workload, threshold: float, program_attr: str) -> str:
        return artifact_key(
            KIND_ORACLE, workload.name, threshold,
            workload.train_input, workload.ref_input,
            extra={"program": program_attr},
        )

    def load_compiled(
        self, workload, threshold: float
    ) -> Optional[CompiledWorkload]:
        """The stored compiled workload, or None (counts hit/miss)."""
        key = self.compiled_key(workload, threshold)
        payload = self._get(key, KIND_COMPILED)
        if payload is None:
            _bump("misses")
            return None
        try:
            compiled = compiled_from_state(payload)
        except SerializeError:
            _bump("corrupt")
            try:
                self._path(key, KIND_COMPILED).unlink()
            except OSError:
                pass
            _bump("misses")
            return None
        _bump("hits")
        return compiled

    def save_compiled(
        self, workload, threshold: float, compiled: CompiledWorkload
    ) -> None:
        self._put(
            self.compiled_key(workload, threshold),
            KIND_COMPILED,
            compiled_to_state(compiled),
        )

    def load_oracle(
        self, workload, threshold: float, program_attr: str
    ) -> Optional[ValueOracle]:
        """The stored value oracle, or None (counts hit/miss)."""
        key = self.oracle_key(workload, threshold, program_attr)
        payload = self._get(key, KIND_ORACLE)
        if payload is None:
            _bump("misses")
            return None
        try:
            oracle = oracle_from_state(payload)
        except SerializeError:
            _bump("corrupt")
            try:
                self._path(key, KIND_ORACLE).unlink()
            except OSError:
                pass
            _bump("misses")
            return None
        _bump("hits")
        return oracle

    def save_oracle(
        self, workload, threshold: float, program_attr: str, oracle: ValueOracle
    ) -> None:
        self._put(
            self.oracle_key(workload, threshold, program_attr),
            KIND_ORACLE,
            oracle_to_state(oracle),
        )

    def lowered_key(self, module, cost_sig) -> str:
        """Key for a vector-backend region table.

        Keyed on the exact module content (iids included — regions
        carry instruction indices) and the engine cost signature the
        clock-offset tables were generated under.
        """
        return artifact_key(
            KIND_LOWERED, module.name, 0.0, "", "",
            extra={
                "module": module_content_hash(module),
                "cost": list(cost_sig),
            },
        )

    def load_lowered(self, module, cost_sig) -> Optional[Dict]:
        """Stored lowered-region state, or None (counts hit/miss).

        Returns the raw state dict: revalidation against the decoded
        program (and the stale-table fallback) happens in
        ``repro.ir.lower.lowered_for``.
        """
        payload = self._get(self.lowered_key(module, cost_sig), KIND_LOWERED)
        if payload is None:
            _bump("misses")
            return None
        _bump("hits")
        return payload

    def save_lowered(self, module, cost_sig, state: Dict) -> None:
        self._put(self.lowered_key(module, cost_sig), KIND_LOWERED, state)

    def kernel_key(self, module, cost_sig) -> str:
        """Key for a codegen'd kernel table (extended region sources).

        Keyed on the exact module content × engine cost signature ×
        codegen schema version: kernel source embeds clock constants
        derived from the cost model, and any change to the emitter's
        ABI or templates must invalidate every stored kernel.
        """
        from repro.ir import codegen

        return artifact_key(
            KIND_KERNEL, module.name, 0.0, "", "",
            extra={
                "module": module_content_hash(module),
                "cost": list(cost_sig),
                "codegen": codegen.CODEGEN_SCHEMA_VERSION,
            },
        )

    def load_kernels(self, module, cost_sig) -> Optional[Dict]:
        """Stored extended-region state (kernel sources), or None.

        Returns the raw state dict; revalidation against the decoded
        program and recompilation of the persisted sources happen in
        ``repro.ir.lower.LoweredProgram.from_state``.
        """
        payload = self._get(self.kernel_key(module, cost_sig), KIND_KERNEL)
        if payload is None:
            _bump("misses")
            return None
        _bump("hits")
        return payload

    def save_kernels(self, module, cost_sig, state: Dict) -> None:
        self._put(self.kernel_key(module, cost_sig), KIND_KERNEL, state)

    # -- management ----------------------------------------------------
    def info(self) -> Dict:
        """Entry counts and total size, for ``repro cache info``."""
        counts = {
            KIND_COMPILED: 0, KIND_ORACLE: 0, KIND_LOWERED: 0, KIND_KERNEL: 0,
        }
        size = 0
        if self.root.exists():
            for path in self.root.rglob("*.json"):
                for kind in counts:
                    if path.name.endswith(f".{kind}.json"):
                        counts[kind] += 1
                        break
                else:
                    continue
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        return {
            "root": str(self.root),
            "compiled": counts[KIND_COMPILED],
            "oracles": counts[KIND_ORACLE],
            "lowered": counts[KIND_LOWERED],
            "kernels": counts[KIND_KERNEL],
            "entries": sum(counts.values()),
            "bytes": size,
        }

    def clear(self, kinds: Optional[Sequence[str]] = None) -> int:
        """Delete artifacts (all kinds, or only ``kinds``); returns count.

        ``kinds`` lets ``repro cache clear --only lowered`` wipe the
        per-machine lowered-region tables a sweep left behind without
        discarding compiled workloads and oracles.
        """
        removed = 0
        if not self.root.exists():
            return 0
        wanted = None if kinds is None else tuple(
            f".{kind}.json" for kind in kinds
        )
        for path in self.root.rglob("*.json"):
            if wanted is not None and not path.name.endswith(wanted):
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for sub in sorted(self.root.rglob("*"), reverse=True):
            if sub.is_dir():
                try:
                    sub.rmdir()
                except OSError:
                    pass
        try:
            self.root.rmdir()
        except OSError:
            pass
        return removed


# ---------------------------------------------------------------------------
# process-wide active store
# ---------------------------------------------------------------------------

_active: Optional[ArtifactStore] = None


def configure(enabled: bool, root: Optional[str] = None) -> Optional[ArtifactStore]:
    """Install (or remove) the process-wide store and return it."""
    global _active
    _active = ArtifactStore(root) if enabled else None
    _install_lowered_hooks()
    return _active


def _install_lowered_hooks() -> None:
    """Point repro.ir.lower's persistence seam at the active store.

    With the store off, lowering still works — region tables are just
    rebuilt per process instead of loaded.

    Since the codegen backend, the seam stores *kernel* artifacts
    (KIND_KERNEL: extended region tables with generated sources, keyed
    by module content × cost signature × codegen schema version).
    ``load_lowered``/``save_lowered`` remain for classic region tables
    written by older runs; ``repro cache clear --only lowered`` still
    removes those.
    """
    from repro.ir import lower

    store = _active
    if store is None:
        lower.set_persistence(None, None)
    else:
        lower.set_persistence(store.load_kernels, store.save_kernels)


def active_store() -> Optional[ArtifactStore]:
    """The installed store, or None when artifact reuse is off."""
    return _active


def active_root() -> Optional[str]:
    """The active store's cache root, for shipping to worker processes."""
    return str(_active.base) if _active is not None else None
