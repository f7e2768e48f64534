"""Fast path vs slow reference on seeded random programs.

The decoded fast path must be invisible on *any* program, not only on
the 15 hand-written workloads.  Three generators build mini-IR programs
from a seeded ``random.Random`` (failures replay from the seed):

* an all-pure op soup over operands biased toward the 64-bit wrap
  boundaries (``INT64_MIN // -1`` included);
* a DAG of guarded forward branches over random data with private
  ``@buf`` loads and stores;
* a parallel TLS loop with scalar and memory wait/signal/check traffic
  plus un-forwarded conflicting stores, so epochs squash and their
  speculative store buffers drain mid-region.

Every program runs on the fast path (``fast_path=True``, the default)
and on the slow reference (``fast_path=False``): the interpreter must
agree on return value, step count and memory checksum, the engine on
the whole serialized :class:`SimResult`.
"""

from random import Random

import pytest

from repro.ir.builder import ModuleBuilder
from repro.ir.interpreter import run_module
from repro.ir.module import ChannelInfo, ParallelLoop
from repro.ir.verifier import verify_module
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import TLSEngine

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

#: Operand pool biased toward wrap boundaries, sign flips, and shift
#: counts around the word size.
FUZZ_VALUES = (
    INT64_MIN, INT64_MIN + 1, -(1 << 32), -97, -3, -2, -1, 0, 1, 2, 3,
    5, 63, 64, 65, 97, (1 << 31), (1 << 32), INT64_MAX - 1, INT64_MAX,
)

#: Binops that cannot fault, whatever their operands.
PURE_BINOPS = (
    "add", "sub", "mul", "and", "or", "xor", "shl", "shr",
    "eq", "ne", "lt", "le", "gt", "ge",
)

#: Nonzero constant divisors for div/mod (-1 hits the INT64_MIN wrap).
DIVISORS = (-7, -3, -1, 2, 3, 5, 64)

SEEDS = range(10)
PARALLEL_SEEDS = range(8)


def _pure_soup_module(rng, seeds=6):
    """Entry seeds live-ins; ``work`` is one all-pure op soup + ret."""
    mb = ModuleBuilder("fuzz")
    fb = mb.function("main")
    fb.block("entry")
    regs = []
    for k in range(seeds):
        fb.const(rng.choice(FUZZ_VALUES), dest=f"s{k}")
        regs.append(f"s{k}")
    fb.jump("work")
    fb.block("work")
    for k in range(rng.randrange(18, 36)):
        dest = f"t{k}"
        dice = rng.random()
        if dice < 0.15:
            fb.unop(rng.choice(("neg", "not")), rng.choice(regs), dest=dest)
        elif dice < 0.30:
            fb.binop(rng.choice(("div", "mod")), rng.choice(regs),
                     rng.choice(DIVISORS), dest=dest)
        else:
            rhs = (rng.choice(regs) if rng.random() < 0.7
                   else rng.choice(FUZZ_VALUES))
            fb.binop(rng.choice(PURE_BINOPS), rng.choice(regs), rhs,
                     dest=dest)
        regs.append(dest)
    acc = regs[-1]
    for name in regs[-8:]:
        acc = fb.binop("xor", acc, name)
    fb.ret(acc)
    module = mb.build()
    verify_module(module)
    return module


def _branchy_memory_module(rng, chain=4, size=64):
    """A DAG of guarded blocks over random data with @buf loads/stores.

    All branches are forward (guaranteed termination); guard outcomes
    depend on fuzzed values, so each seed takes a different path.
    Addresses mix constant offsets with masked register arithmetic off
    the ``@buf`` global.
    """
    mb = ModuleBuilder("fuzz")
    mb.global_var("buf", size)
    fb = mb.function("main")
    fb.block("entry")
    # Seed registers are the only cross-block values: every block may
    # read them and may overwrite them (defined on every path), while
    # temporaries stay block-local — branches can skip whole blocks.
    seeds = []
    for k in range(5):
        fb.const(rng.choice(FUZZ_VALUES), dest=f"s{k}")
        seeds.append(f"s{k}")
    for _ in range(6):  # scatter initial data
        fb.store("@buf", rng.choice(seeds), offset=rng.randrange(size))
    fb.jump("b0")
    labels = [f"b{k}" for k in range(chain)] + ["done"]
    for i in range(chain):
        fb.block(labels[i])
        local = list(seeds)
        for _ in range(rng.randrange(4, 9)):
            rhs = (rng.choice(local) if rng.random() < 0.6
                   else rng.choice(FUZZ_VALUES))
            dest = rng.choice(seeds) if rng.random() < 0.3 else None
            value = fb.binop(rng.choice(PURE_BINOPS), rng.choice(local),
                             rhs, dest=dest)
            local.append(dest or value)
        if rng.random() < 0.5:  # constant-offset access
            local.append(fb.load("@buf", offset=rng.randrange(size)))
        else:  # register-address access
            slot = fb.binop("and", rng.choice(local), size - 1)
            addr = fb.add("@buf", slot)
            local.append(fb.load(addr))
            if rng.random() < 0.5:
                fb.store(addr, rng.choice(local))
        cond = fb.binop(rng.choice(("lt", "eq", "gt", "le")),
                        rng.choice(local), rng.choice(local))
        on_false = rng.choice(labels[i + 1:])
        fb.condbr(cond, labels[i + 1], on_false)
    fb.block("done")
    slot = fb.binop("and", rng.choice(seeds), size - 1)
    out = fb.load(fb.add("@buf", slot))
    fb.ret(fb.binop("xor", out, rng.choice(seeds)))
    module = mb.build()
    verify_module(module)
    return module


def _parallel_fuzz_module(rng, iters=24, stride=None):
    """A forwarding-protocol loop with randomized body and conflicts.

    The ``mem:c`` channel forwards ``@counter`` (wait/check/select/
    resume consumer, store+signal producer); an *un-forwarded* random-
    stride read-modify-write over the tiny ``@shared`` array guarantees
    cross-epoch dependences, so epochs squash and their speculative
    store buffers drain mid-region.
    """
    if stride is None:
        stride = rng.choice((1, 3, 5, 7))
    mb = ModuleBuilder("pfuzz")
    mb.global_var("counter", 1, init=rng.randrange(1, 50))
    mb.global_var("shared", 8)
    mb.global_var("slots", iters * 8)
    fb = mb.function("main")
    fb.block("entry")
    fb.const(0, dest="i")
    fb.jump("loop")
    fb.block("loop")
    fb.wait("scalar:i", dest="i")
    fb.add("i", 1, dest="i.fwd")
    fb.signal("scalar:i", "i.fwd")
    f_addr = fb.wait("mem:c", kind="addr")
    fb.check(f_addr, "@counter")
    f_val = fb.wait("mem:c", kind="value")
    m_val = fb.load("@counter")
    cur = fb.select(f_val, m_val)
    fb.resume()
    new = fb.add(cur, rng.randrange(1, 7))
    fb.store("@counter", new)
    fb.signal("mem:c", "@counter", kind="addr")
    fb.signal("mem:c", new, kind="value")
    slot = fb.mod(fb.mul("i", stride), 8)
    addr = fb.add("@shared", slot)
    fb.store(addr, fb.add(fb.load(addr), "i"))
    acc = fb.const(rng.randrange(1, 9))
    for _ in range(rng.randrange(10, 24)):
        acc = fb.binop(rng.choice(("add", "xor", "mul", "sub", "and", "or")),
                       acc, rng.randrange(1, 13))
    fb.store(fb.add("@slots", fb.mul("i", 8)), fb.binop("xor", acc, cur))
    fb.move("i.fwd", dest="i")
    cond = fb.binop("lt", "i", iters)
    fb.condbr(cond, "loop", "done")
    fb.block("done")
    fb.ret(fb.load("@counter"))
    module = mb.build()
    module.parallel_loops.append(
        ParallelLoop(
            function="main",
            header="loop",
            scalar_channels=["scalar:i"],
            mem_channels=["mem:c"],
        )
    )
    module.add_channel(ChannelInfo(name="scalar:i", kind="scalar", scalar="i"))
    module.add_channel(ChannelInfo(name="mem:c", kind="mem"))
    verify_module(module)
    return module


def _assert_interpreters_agree(module):
    fast = run_module(module)
    slow = run_module(module, fast_path=False)
    assert fast.return_value == slow.return_value
    assert fast.steps == slow.steps
    assert fast.memory.checksum() == slow.memory.checksum()


def _run_engine(module, fast_path, parallel):
    config = SimConfig(fast_path=fast_path)
    return TLSEngine(module, config=config, parallel=parallel).run()


def _assert_engines_agree(module, parallel):
    fast = _run_engine(module, True, parallel)
    slow = _run_engine(module, False, parallel)
    assert fast.to_state() == slow.to_state()
    return fast


class TestPureSoup:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_interpreter_fast_matches_slow(self, seed):
        _assert_interpreters_agree(_pure_soup_module(Random(seed)))


class TestBranchyMemory:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_interpreter_fast_matches_slow(self, seed):
        _assert_interpreters_agree(_branchy_memory_module(Random(seed)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sequential_engine_fast_matches_slow(self, seed):
        _assert_engines_agree(_branchy_memory_module(Random(seed)), parallel=False)


class TestParallelLoop:
    @pytest.mark.parametrize("seed", PARALLEL_SEEDS)
    def test_engine_fast_matches_slow(self, seed):
        _assert_engines_agree(_parallel_fuzz_module(Random(seed)), parallel=True)

    def test_stride_one_conflicts_squash(self):
        # stride 1 writes every epoch into the same @shared cells, so
        # violations (and mid-region store-buffer drains) are
        # guaranteed, not just likely.
        module = _parallel_fuzz_module(Random(3), stride=1)
        result = _assert_engines_agree(module, parallel=True)
        assert result.total_violations() > 0
