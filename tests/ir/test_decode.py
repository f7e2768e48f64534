"""Decode pass: opcode layout and operand lowering."""

from repro.ir.builder import ModuleBuilder
from repro.ir.operands import GlobalRef
from repro.ir.decode import (
    MAX_PRIVATE_OPCODE,
    OP_BINOP,
    OP_CALL,
    OP_CHECK,
    OP_CONDBR,
    OP_DIVMOD,
    OP_JUMP,
    OP_LOAD,
    OP_RET,
    OP_SIGNAL,
    OP_STORE,
    OP_WAIT,
    PURE_OPCODES,
    DecodedProgram,
)

#: opcodes the TLS scheduler must order globally (shared state)
SHARED_OPCODES = (OP_LOAD, OP_STORE, OP_WAIT, OP_SIGNAL, OP_CHECK)
#: private control flow: invisible to other epochs
CONTROL_OPCODES = (OP_CALL, OP_RET, OP_JUMP, OP_CONDBR)


def _decode(mb: ModuleBuilder, addrs=None) -> DecodedProgram:
    addrs = addrs or {}
    return DecodedProgram(mb.build(), addr_of=lambda name: addrs[name])


class TestOpcodeLayout:
    def test_pure_opcodes_are_private(self):
        assert all(code <= MAX_PRIVATE_OPCODE for code in PURE_OPCODES)

    def test_private_boundary_is_condbr(self):
        assert MAX_PRIVATE_OPCODE == OP_CONDBR

    def test_shared_opcodes_above_boundary(self):
        # The engine's free-running loop relies on a single integer
        # comparison classifying every instruction.
        for code in SHARED_OPCODES:
            assert code > MAX_PRIVATE_OPCODE

    def test_control_opcodes_private_but_not_pure(self):
        for code in CONTROL_OPCODES:
            assert code <= MAX_PRIVATE_OPCODE
            assert code not in PURE_OPCODES


class TestLowering:
    def test_div_and_mod_get_faulting_opcode(self):
        mb = ModuleBuilder("t")
        fb = mb.function("main")
        fb.block("entry")
        a = fb.const(6, dest="a")
        fb.add(a, 2, dest="b")
        fb.div(a, "b", dest="q")
        fb.mod(a, "b", dest="r")
        fb.ret("q")
        block = _decode(mb).block("main", "entry")
        codes = [op[0] for op in block.ops]
        assert codes.count(OP_DIVMOD) == 2
        assert codes.count(OP_BINOP) == 1

    def test_operand_encoding(self):
        # int = compile-time-known value, str = register name.
        mb = ModuleBuilder("t")
        mb.global_var("g", 8)
        fb = mb.function("main")
        fb.block("entry")
        fb.load(GlobalRef("g"), offset=2, dest="v")
        fb.add("v", 5, dest="w")
        fb.ret("w")
        block = _decode(mb, addrs={"g": 4096}).block("main", "entry")
        load, add, _ret = block.ops
        assert load[0] == OP_LOAD and load[4] == 4096 and load[5] == 2
        assert add[5] == "v" and add[6] == 5

    def test_missing_callee_defers_to_runtime(self):
        mb = ModuleBuilder("t")
        fb = mb.function("main")
        fb.block("entry")
        fb.call("nowhere", (), dest="r")
        fb.ret("r")
        call = _decode(mb).block("main", "entry").ops[0]
        assert call[0] == OP_CALL
        assert call[6] is None and call[7] is None
