"""Lowering IR to decoded tuples: diagnostics and the single-path surface.

The decode pass (:mod:`repro.ir.decode`) lowers each instruction to a
flat tuple that the fast path dispatches on.  Lowering must stay
invisible in failure too: fuel exhaustion and undefined registers
raise the same diagnostic on the fast path as on the slow reference.
There is one fast path, so neither the interpreter nor ``SimConfig``
accepts a ``backend`` choice any more.
"""

import pytest

from repro.ir.builder import ModuleBuilder
from repro.ir.interpreter import Interpreter, InterpreterError, run_module
from repro.tlssim.config import SimConfig


def _arith_module(n=50):
    """A loop whose body is one long pure run (plus the backedge)."""
    mb = ModuleBuilder("t")
    fb = mb.function("main")
    fb.block("entry")
    fb.const(0, dest="i")
    fb.const(0, dest="acc")
    fb.jump("loop")
    fb.block("loop")
    fb.mul("i", 3, dest="a")
    fb.add("a", 7, dest="b")
    fb.div("b", 5, dest="q")
    fb.mod("b", 5, dest="r")
    fb.binop("xor", "q", "r", dest="x")
    fb.add("acc", "x", dest="acc")
    fb.add("i", 1, dest="i")
    c = fb.binop("lt", "i", n)
    fb.condbr(c, "loop", "done")
    fb.block("done")
    fb.ret("acc")
    return mb.build()


class TestInterpreterBackend:
    def test_fuel_exhaustion_identical_diagnostic(self):
        module = _arith_module(n=10_000)
        with pytest.raises(InterpreterError) as slow:
            run_module(module, fuel=777, fast_path=False)
        with pytest.raises(InterpreterError) as fast:
            run_module(module, fuel=777)
        assert "fuel" in str(slow.value)
        assert str(fast.value) == str(slow.value)

    def test_undefined_register_identical_diagnostic(self):
        mb = ModuleBuilder("t")
        fb = mb.function("main")
        fb.block("entry")
        fb.add("ghost", 1, dest="a")
        fb.add("a", 2, dest="b")
        fb.ret("b")
        module = mb.build()
        with pytest.raises(InterpreterError) as slow:
            run_module(module, fast_path=False)
        with pytest.raises(InterpreterError) as fast:
            run_module(module)
        assert "undefined register" in str(slow.value)
        assert str(fast.value) == str(slow.value)

    def test_unknown_backend_rejected(self):
        for backend in ("vector", "tuples"):
            with pytest.raises(TypeError, match="backend"):
                Interpreter(_arith_module(), backend=backend)


class TestBackendGate:
    def test_unknown_simconfig_backend_rejected(self):
        for backend in ("vector", "tuples"):
            with pytest.raises(TypeError, match="backend"):
                SimConfig(backend=backend)
