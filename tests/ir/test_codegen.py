"""The ``repro.ir.codegen`` stub, and straight-line kernels vs ``evalops``.

``ir/codegen.py`` keeps only a zero :func:`compile_stats` for the
perfbench trace ledger; the first test pins that.  The rest run seeded
pure op soups — a straight-line ``work`` kernel over random live-ins
biased toward the 64-bit wrap boundaries — on the decoded fast path
and on the slow reference, and check both against a literal walk of
the decoded ops through the ``evalops`` callables they carry, the
``INT64_MIN // -1`` wrap on a live-in operand included.
"""

from random import Random

import pytest

from repro.ir import codegen
from repro.ir.builder import ModuleBuilder
from repro.ir.decode import (
    OP_BINOP,
    OP_CONST,
    OP_DIVMOD,
    OP_JUMP,
    OP_MOVE,
    OP_RET,
    OP_UNOP,
    DecodedProgram,
)
from repro.ir.evalops import BINOP_FUNCS
from repro.ir.interpreter import run_module
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import TLSEngine
from tests.tlssim.test_generated_programs import INT64_MAX, INT64_MIN, _pure_soup_module


def _read(regs, operand):
    return regs[operand] if isinstance(operand, str) else operand


def _evalops_walk(program, labels):
    """Reference execution of pure decoded blocks straight off evalops.

    Decoded binop/unop tuples carry the evalops callables themselves
    (``op[4]``), so this walk *is* the evalops semantics.  Returns the
    value of the final ``ret``.
    """
    regs = {}
    blocks = program.function("main").blocks
    for label in labels:
        for op in blocks[label].ops:
            code = op[0]
            if code == OP_CONST:
                regs[op[3]] = op[4]
            elif code == OP_MOVE:
                regs[op[3]] = _read(regs, op[4])
            elif code in (OP_BINOP, OP_DIVMOD):
                regs[op[3]] = op[4](_read(regs, op[5]), _read(regs, op[6]))
            elif code == OP_UNOP:
                regs[op[3]] = op[4](_read(regs, op[5]))
            elif code == OP_RET:
                return _read(regs, op[3])
            elif code != OP_JUMP:  # pragma: no cover - pure soups only
                raise AssertionError(f"unexpected opcode {code} in pure kernel")
    raise AssertionError("kernel fell off its last block")  # pragma: no cover


class TestCompileStats:
    def test_stub_reports_no_compiles(self):
        assert codegen.compile_stats() == {
            "compiles": 0, "memo_hits": 0, "memo_size": 0,
        }


class TestClassicKernelFuzz:
    @pytest.mark.parametrize("seed", range(12))
    def test_plain_kernel_matches_evalops_on_random_live_ins(self, seed):
        module = _pure_soup_module(Random(seed))
        want = _evalops_walk(
            DecodedProgram(module, addr_of=lambda name: 0), ("entry", "work")
        )
        assert run_module(module).return_value == want
        assert run_module(module, fast_path=False).return_value == want

    def test_divmod_wrap_on_live_in_operand(self):
        # INT64_MIN // -1 wraps back to INT64_MIN (and mod to 0); both
        # paths must reproduce the evalops wrap on a *live-in* operand
        # the constant folder cannot see.
        for x in (INT64_MIN, INT64_MIN + 1, -1, 0, 7, INT64_MAX):
            mb = ModuleBuilder("wrap")
            fb = mb.function("main")
            fb.block("entry")
            fb.const(x, dest="x")
            fb.jump("work")
            fb.block("work")
            fb.binop("div", "x", -1, dest="q")
            fb.binop("mod", "x", -1, dest="r")
            fb.binop("xor", "q", "r", dest="o")
            fb.ret("o")
            module = mb.build()
            want = BINOP_FUNCS["div"](x, -1) ^ BINOP_FUNCS["mod"](x, -1)
            if x == INT64_MIN:
                assert want == INT64_MIN  # the wrap itself
            for fast_path in (True, False):
                assert run_module(module, fast_path=fast_path).return_value == want, x
                engine = TLSEngine(
                    module, config=SimConfig(fast_path=fast_path), parallel=False
                )
                assert engine.run().return_value == want, x
