"""Persistent on-disk cache for experiment results.

Compilation and simulation are deterministic, so a simulation result
is a pure function of the source tree and its identity: the program
binary, the resolved simulation configuration and whether it runs in
parallel.  This module memoizes those results *across* processes:
entries are JSON files under ``.repro_cache/`` keyed by a content hash
of everything the result depends on —

* a fingerprint of every ``.py`` file under ``src/repro/`` (covering
  the workload sources, the compiler pipeline, and the simulator), so
  any code change invalidates the whole cache;
* the resolved :class:`~repro.tlssim.config.SimConfig` field values;
* the workload name, profiling threshold, program binary, and the
  ``parallel`` flag.

No bar or job label is part of a key: a bar and a custom run with the
same identity share one entry.

Writes are atomic (temp file + ``os.replace``) so a crashed or
concurrent run never leaves a half-written entry, and reads are
corruption-tolerant: an unreadable entry is treated as a miss and
recomputed.

The cache is *opt-in* at the library level (tests that monkeypatch
simulator internals must never see stale entries); the CLI enables it
for all experiment commands unless ``--no-cache`` is given, and
``repro cache clear`` / ``repro cache info`` manage the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.tlssim.config import SimConfig

#: Bump to invalidate every existing cache entry on a format change.
CACHE_SCHEMA_VERSION = 1

#: Default store location (relative to the current working directory);
#: the ``REPRO_CACHE_DIR`` environment variable overrides it.
DEFAULT_CACHE_DIR = ".repro_cache"


# ---------------------------------------------------------------------------
# fingerprints and keys
# ---------------------------------------------------------------------------

_code_fingerprint: Optional[str] = None


def _iter_source_files() -> Iterator[Path]:
    root = Path(__file__).resolve().parent.parent  # src/repro/
    yield from sorted(root.rglob("*.py"))


def code_fingerprint() -> str:
    """Hash of every source file the results depend on (cached)."""
    global _code_fingerprint
    if _code_fingerprint is None:
        digest = hashlib.sha256()
        root = Path(__file__).resolve().parent.parent
        for path in _iter_source_files():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def config_to_state(config: SimConfig) -> Dict:
    """JSON-able dict of every :class:`SimConfig` field (stable order)."""
    state = {}
    for spec in fields(SimConfig):
        value = getattr(config, spec.name)
        if isinstance(value, frozenset):
            value = sorted(value)
        state[spec.name] = value
    return state


def config_from_state(state: Dict) -> SimConfig:
    """Inverse of :func:`config_to_state`."""
    kwargs = dict(state)
    if "oracle_set" in kwargs:
        kwargs["oracle_set"] = frozenset(kwargs["oracle_set"])
    return SimConfig(**kwargs)


def result_key(
    workload: str,
    threshold: float,
    kind: str,
    program: str,
    config_state: Optional[Dict],
    extra: Optional[Dict] = None,
) -> str:
    """Content-hash key for one cached entry.

    ``kind`` distinguishes entry families ('sim', 'profile');
    ``config_state`` is the resolved simulation configuration (None for
    compile-only entries).
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "workload": workload,
        "threshold": threshold,
        "kind": kind,
        "program": program,
        "config": config_state,
        "extra": extra or {},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class ResultCache:
    """A directory of content-addressed JSON entries."""

    def __init__(self, root: Optional[str] = None):
        self.root = Path(
            root or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        )

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _entries(self) -> Iterator[Path]:
        """Every result entry; skips the sibling ``artifacts/`` store
        (managed by :mod:`repro.experiments.artifacts`)."""
        if not self.root.exists():
            return
        for path in self.root.rglob("*.json"):
            if "artifacts" in path.relative_to(self.root).parts:
                continue
            yield path

    def get(self, key: str) -> Optional[Dict]:
        """The stored payload, or None on miss *or* corrupt entry."""
        path = self._path(key)
        try:
            with open(path, "r") as handle:
                entry = json.load(handle)
            if entry.get("schema") != CACHE_SCHEMA_VERSION:
                return None
            return entry["payload"]
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt or truncated entry: drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, payload: Dict) -> None:
        """Atomically store ``payload`` under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"schema": CACHE_SCHEMA_VERSION, "payload": payload}
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
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

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.root.exists():
            for sub in sorted(self.root.glob("*"), reverse=True):
                if sub.is_dir() and sub.name != "artifacts":
                    try:
                        sub.rmdir()
                    except OSError:
                        pass
        return removed

    def info(self) -> Dict:
        """Entry count and total size, for ``repro cache info``."""
        entries = 0
        size = 0
        for path in self._entries():
            entries += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return {"root": str(self.root), "entries": entries, "bytes": size}


# ---------------------------------------------------------------------------
# process-wide active cache
# ---------------------------------------------------------------------------

_active: Optional[ResultCache] = None


def configure(enabled: bool, root: Optional[str] = None) -> Optional[ResultCache]:
    """Install (or remove) the process-wide cache and return it."""
    global _active
    _active = ResultCache(root) if enabled else None
    return _active


def active_cache() -> Optional[ResultCache]:
    """The installed cache, or None when persistent caching is off."""
    return _active
