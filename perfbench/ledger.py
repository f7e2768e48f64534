"""The per-layer ledger: spans around calls into each layer, self times.

The benchmark never edits the program.  It wraps the public functions
of each layer from its own code (:meth:`Ledger.wrap_function`,
:meth:`Ledger.wrap_method`) and keeps, per layer, the number of calls,
the total time and the *self* time: a span's duration minus the time
its direct child spans took.  Self times of all layers plus the time
no layer covered (the root's self time) add up to the traced wall time,
which :func:`closure_error` checks.

Spans nest per thread; each thread keeps its own table, so concurrent
client threads never share a read-modify-write.  Spans recorded by
another process (the serve daemon's ``http.submit`` / ``job.queued`` /
``worker.execute``) are not nested calls; :func:`attribute` splits a
request's interval between such overlapping spans instead.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``on_result(ledger, args, kwargs, result)`` adds counters for a call
ResultHook = Callable[["Ledger", tuple, dict, object], None]


class _Frame:
    __slots__ = ("layer", "started", "children")

    def __init__(self, layer: str, started: float):
        self.layer = layer
        self.started = started
        self.children = 0.0


class _Table:
    """One thread's accumulators."""

    def __init__(self):
        self.stack: List[_Frame] = []
        #: layer -> [self seconds, total seconds, calls]
        self.layers: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}


class Ledger:
    """Layer self times, call counts and counters from wrapped calls."""

    def __init__(self):
        self._local = threading.local()
        self._tables: List[_Table] = []
        self._tables_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _table(self) -> _Table:
        table = getattr(self._local, "table", None)
        if table is None:
            table = _Table()
            self._local.table = table
            with self._tables_lock:
                self._tables.append(table)
        return table

    def enter(self, layer: str) -> None:
        self._table().stack.append(_Frame(layer, time.perf_counter()))

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        ended = time.perf_counter()
        table = self._table()
        frame = table.stack.pop()
        duration = ended - frame.started
        entry = table.layers.get(frame.layer)
        if entry is None:
            entry = table.layers[frame.layer] = [0.0, 0.0, 0]
        entry[0] += duration - frame.children
        entry[1] += duration
        entry[2] += 1
        if table.stack:
            table.stack[-1].children += duration
        return duration

    def count(self, name: str, amount: float = 1.0) -> None:
        counters = self._table().counters
        counters[name] = counters.get(name, 0.0) + amount

    def _timed(self, layer: str, func, on_result: Optional[ResultHook]):
        ledger = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            ledger.enter(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                ledger.exit()
            if on_result is not None:
                on_result(ledger, args, kwargs, result)
            return result

        return wrapper

    # -- installing wrappers ----------------------------------------------
    def wrap_function(
        self, module, name: str, layer: str, on_result: Optional[ResultHook] = None
    ) -> bool:
        """Time ``module.name`` as ``layer``, everywhere it was imported.

        Modules that did ``from module import name`` hold their own
        reference, so every loaded ``repro`` module attribute bound to
        the original function is replaced.  Returns False when the
        function does not exist (the layer then reads zero).
        """
        original = getattr(module, name, None)
        if original is None:
            return False
        wrapper = self._timed(layer, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return True

    def wrap_method(
        self, cls, name: str, layer: str, on_result: Optional[ResultHook] = None
    ) -> bool:
        """Time ``cls.name`` (plain or class method) as ``layer``."""
        raw = cls.__dict__.get(name)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            replacement = classmethod(self._timed(layer, raw.__func__, on_result))
        else:
            replacement = self._timed(layer, raw, on_result)
        self._patches.append((cls, name, raw))
        setattr(cls, name, replacement)
        return True

    def count_calls(self, cls, name: str, counter: str) -> bool:
        """Count calls of ``cls.name`` without timing them."""
        raw = cls.__dict__.get(name)
        if raw is None:
            return False
        ledger = self

        @functools.wraps(raw)
        def counted(*args, **kwargs):
            ledger.count(counter)
            return raw(*args, **kwargs)

        self._patches.append((cls, name, raw))
        setattr(cls, name, counted)
        return True

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`unwrap_all`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """Merged per-layer totals and counters across threads.

        Returns ``{"layers": {layer: {"self_s", "total_s", "calls"}},
        "counters": {name: value}}``.
        """
        layers: Dict[str, Dict[str, float]] = {}
        counters: Dict[str, float] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for layer, (self_s, total_s, calls) in table.layers.items():
                entry = layers.setdefault(
                    layer, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
                )
                entry["self_s"] += self_s
                entry["total_s"] += total_s
                entry["calls"] += calls
            for name, value in table.counters.items():
                counters[name] = counters.get(name, 0.0) + value
        return {"layers": layers, "counters": counters}


def merge_snapshots(snapshots: Iterable[Dict]) -> Dict[str, Dict]:
    """Sum several :meth:`Ledger.snapshot` results."""
    layers: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    for snap in snapshots:
        for layer, values in snap["layers"].items():
            entry = layers.setdefault(
                layer, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            for key in entry:
                entry[key] += values[key]
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    return {"layers": layers, "counters": counters}


def diff_snapshots(after: Dict, before: Dict) -> Dict[str, Dict]:
    """``after - before``, layer by layer and counter by counter."""
    layers = {}
    for layer, values in after["layers"].items():
        base = before["layers"].get(layer, {})
        layers[layer] = {key: values[key] - base.get(key, 0) for key in values}
    counters = {
        name: value - before["counters"].get(name, 0.0)
        for name, value in after["counters"].items()
    }
    return {"layers": layers, "counters": counters}


def closure_error(self_times: Sequence[float], unattributed: float, wall: float) -> float:
    """Relative gap between ``sum(self) + unattributed`` and the wall time."""
    if wall <= 0:
        return float("inf")
    return abs(sum(self_times) + unattributed - wall) / wall


def attribute(
    root: Tuple[float, float],
    spans: Sequence[Tuple[str, float, float, int]],
) -> Tuple[Dict[str, float], float]:
    """Split the ``root`` interval between overlapping spans.

    ``spans`` are ``(layer, start, end, priority)``.  Every instant of
    the root goes to the covering span with the highest priority (the
    latest-starting one on a tie), so nested and overlapping spans are
    never counted twice.  Returns ``(seconds per layer, uncovered
    seconds)``; the two always sum to the root's duration.
    """
    root_start, root_end = root
    clipped = [
        (layer, max(start, root_start), min(end, root_end), priority)
        for layer, start, end, priority in spans
        if min(end, root_end) > max(start, root_start)
    ]
    cuts = sorted({root_start, root_end, *(s for _, s, _, _ in clipped),
                   *(e for _, _, e, _ in clipped)})
    out: Dict[str, float] = {}
    uncovered = 0.0
    for left, right in zip(cuts, cuts[1:]):
        best = None
        for layer, start, end, priority in clipped:
            if start <= left and end >= right:
                if best is None or (priority, start) > (best[1], best[2]):
                    best = (layer, priority, start)
        if best is None:
            uncovered += right - left
        else:
            out[best[0]] = out.get(best[0], 0.0) + (right - left)
    return out, uncovered
