"""Workload registry: metadata, buildability, determinism."""

import pickle

import pytest

from repro.ir.basicblock import deterministic_iids
from repro.ir.interpreter import run_module
from repro.ir.verifier import verify_module
from repro.workloads import UnknownWorkload, all_workloads, get_workload

EXPECTED = [
    "go", "m88ksim", "ijpeg", "gzip_comp", "gzip_decomp", "vpr_place",
    "gcc", "mcf", "crafty", "parser", "perlbmk", "gap",
    "bzip2_comp", "bzip2_decomp", "twolf",
]


class TestRegistry:
    def test_all_fifteen_registered_in_table2_order(self):
        assert [w.name for w in all_workloads()] == EXPECTED

    def test_get_workload(self):
        assert get_workload("go").name == "go"
        with pytest.raises(KeyError):
            get_workload("ghost")

    def test_unknown_workload_names_the_known_ones(self):
        with pytest.raises(UnknownWorkload) as excinfo:
            get_workload("ghost")
        assert str(excinfo.value) == (
            "unknown workload 'ghost' (known: " + ", ".join(EXPECTED) + ")"
        )
        # Pickles (it can cross a worker-process boundary).
        assert str(pickle.loads(pickle.dumps(excinfo.value))) == str(
            excinfo.value
        )

    def test_spec_names_unique(self):
        specs = [w.spec_name for w in all_workloads()]
        assert len(set(specs)) == len(specs)

    def test_metadata_ranges(self):
        for workload in all_workloads():
            assert 0.0 < workload.coverage <= 1.0, workload.name
            assert 0.4 <= workload.seq_overhead <= 1.0, workload.name
            assert workload.description

    def test_distinct_inputs(self):
        for workload in all_workloads():
            assert workload.train_input != workload.ref_input, workload.name


@pytest.mark.parametrize("name", EXPECTED)
class TestBuilders:
    def test_builds_verify(self, name):
        workload = get_workload(name)
        for spec in (workload.train_input, workload.ref_input):
            verify_module(workload.build(spec))

    def test_runs_sequentially(self, name):
        workload = get_workload(name)
        result = run_module(workload.build(workload.ref_input))
        assert result.return_value is not None

    def test_inputs_change_behaviour_not_structure(self, name):
        workload = get_workload(name)
        with deterministic_iids():
            train = workload.build(workload.train_input)
        with deterministic_iids():
            ref = workload.build(workload.ref_input)
        # identical instruction streams (same iids, same counts) ...
        assert train.instruction_count() == ref.instruction_count()
        for fn_name, function in train.functions.items():
            other = ref.function(fn_name)
            assert [i.iid for i in function.instructions()] == [
                i.iid for i in other.instructions()
            ]
        # ... but different data
        train_result = run_module(train)
        ref_result = run_module(ref)
        assert (
            train_result.return_value != ref_result.return_value
            or train_result.memory.checksum() != ref_result.memory.checksum()
        )

    def test_build_is_deterministic(self, name):
        workload = get_workload(name)
        first = run_module(workload.build(workload.ref_input))
        second = run_module(workload.build(workload.ref_input))
        assert first.return_value == second.return_value
        assert first.memory.checksum() == second.memory.checksum()
