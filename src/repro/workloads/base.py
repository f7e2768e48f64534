"""Workload infrastructure: registry, input generation, builder helpers.

Each workload is a synthetic program in the mini-IR that recreates the
*dependence signature* the paper reports for one SPEC benchmark: how
often inter-epoch memory-resident dependences occur, at what distance,
where producer stores and consumer loads sit within the epoch, whether
dependences are input-sensitive, whether sharing is true or false, and
how memory-bound the epochs are.  DESIGN.md Section 2 documents why
this substitution preserves the paper's evaluation.

The per-benchmark region coverage and the sequential-region overhead of
the transformed binary (the paper's Table 2 measurement artifact caused
by inline assembly inhibiting gcc optimization) are carried as workload
metadata and used by the program-level experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.ir.builder import FunctionBuilder, ModuleBuilder
from repro.ir.module import Module

#: A builder maps an input spec to a module; it must be structurally
#: deterministic (inputs may change data, never the instruction stream).
Builder = Callable[[object], Module]


@dataclass(frozen=True)
class Workload:
    """One benchmark: builder, inputs, and Table 2 metadata."""

    name: str
    spec_name: str
    build: Builder
    train_input: object
    ref_input: object
    #: fraction of sequential execution spent in parallelized regions
    coverage: float
    #: sequential-region speedup of the transformed binary (< 1.0 models
    #: the paper's instrumentation artifact; Table 2 column 4)
    seq_overhead: float
    description: str


_REGISTRY: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload {workload.name!r}")
    if not 0.0 < workload.coverage <= 1.0:
        raise ValueError(f"{workload.name}: coverage must be in (0, 1]")
    _REGISTRY[workload.name] = workload
    return workload


def all_workloads() -> List[Workload]:
    """Registered workloads in registration (paper Table 2) order."""
    import repro.workloads  # noqa: F401  (triggers registration)

    return list(_REGISTRY.values())


class UnknownWorkload(KeyError):
    """A workload name that is not registered.

    A ``KeyError`` (what a registry lookup has always raised) whose
    message names the known workloads instead of echoing the key.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        known = ", ".join(w.name for w in all_workloads())
        return f"unknown workload {self.name!r} (known: {known})"


def get_workload(name: str) -> Workload:
    import repro.workloads  # noqa: F401

    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownWorkload(name) from None


# ---------------------------------------------------------------------------
# deterministic input generation
# ---------------------------------------------------------------------------


def lcg_stream(seed: int, count: int, mod: int) -> List[int]:
    """Deterministic pseudo-random ints in [0, mod) from an LCG."""
    if mod < 1:
        raise ValueError("mod must be >= 1")
    values = []
    state = seed & 0x7FFFFFFF or 1
    for _ in range(count):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        # Use the high bits: LCG low bits have tiny periods (the low
        # two bits cycle with period <= 4), which would turn "random"
        # modulo conditions into strict round-robins.
        values.append((state >> 16) % mod)
    return values


# ---------------------------------------------------------------------------
# builder fragments
# ---------------------------------------------------------------------------


def emit_filler(fb: FunctionBuilder, count: int, salt: int = 1) -> str:
    """Emit ``count`` straight-line ALU instructions; returns the result reg.

    The filler gives epochs realistic sizes without extra memory traffic
    or control flow (which would perturb the dependence signature).
    """
    acc = fb.const(salt)
    for index in range(max(0, count - 1)):
        op = ("add", "xor", "mul", "sub")[index % 4]
        operand = (index * 2 + salt) % 251 + 1
        acc = fb.binop(op, acc, operand)
    return acc


def emit_array_walk(
    fb: FunctionBuilder,
    array: str,
    index_reg,
    stride: int,
    length: int,
    touches: int,
) -> str:
    """Emit ``touches`` dependent loads striding over a global array.

    Strided reads over a large array produce secondary-cache and memory
    misses, making an epoch memory-bound (the MCF signature).
    """
    base = fb.mul(index_reg, stride)
    pos = fb.mod(base, length)
    acc = fb.const(0)
    for t in range(touches):
        offs = fb.add(pos, (t * 17) % length)
        offs2 = fb.mod(offs, length)
        addr = fb.add(f"@{array}", offs2)
        value = fb.load(addr)
        acc = fb.add(acc, value)
    return acc


#: Stride (words) between per-epoch result slots — a full cache line,
#: so writing the slot never causes accidental false sharing.
SLOT_STRIDE = 8


def add_result_slots(mb: ModuleBuilder, iters: int, name: str = "slots") -> str:
    """Declare the per-epoch result array; returns its name."""
    mb.global_var(name, iters * SLOT_STRIDE)
    return name


def emit_slot_store(fb: FunctionBuilder, value, name: str = "slots") -> None:
    """Store ``value`` into the current epoch's private result slot.

    Epochs deposit their results into disjoint cache lines, so the
    deposit itself creates no inter-epoch dependence; the scaffold's
    post-loop reduction combines the slots sequentially.
    """
    offset = fb.mul("i", SLOT_STRIDE)
    addr = fb.add(f"@{name}", offset)
    fb.store(addr, value)


def standard_region(
    mb: ModuleBuilder,
    iters: int,
    body: Callable[[FunctionBuilder], None],
    setup: Optional[Callable[[FunctionBuilder], None]] = None,
    slots: Optional[str] = "slots",
) -> ModuleBuilder:
    """Emit a ``main`` with one parallelizable loop of ``iters`` epochs.

    ``body`` is called with the builder positioned inside the loop with
    register ``i`` holding the epoch index; it may open further blocks
    but must leave the builder in an open block.  The scaffold then
    emits the induction update and the loop branch.  ``setup`` runs
    before the loop.  When ``slots`` names a result array declared with
    :func:`add_result_slots`, a sequential post-loop reduction over the
    per-epoch slots becomes the program result.
    """
    fb = mb.function("main")
    fb.block("entry")
    if setup is not None:
        setup(fb)
    fb.const(0, dest="i")
    fb.jump("loop")
    fb.block("loop")
    body(fb)
    fb.add("i", 1, dest="i")
    cond = fb.binop("lt", "i", iters)
    fb.condbr(cond, "loop", "done")
    fb.block("done")
    if slots is None:
        fb.ret(0)
        return mb
    fb.const(0, dest="k")
    fb.const(0, dest="sum")
    fb.jump("reduce")
    fb.block("reduce")
    offset = fb.mul("k", SLOT_STRIDE)
    addr = fb.add(f"@{slots}", offset)
    value = fb.load(addr)
    mixed = fb.binop("xor", "sum", value)
    fb.add(mixed, 1, dest="sum")
    fb.add("k", 1, dest="k")
    cond = fb.binop("lt", "k", iters)
    fb.condbr(cond, "reduce", "finish")
    fb.block("finish")
    fb.ret("sum")
    return mb
