"""``repro bench``: well-formed BENCH_engine.json and sane numbers."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.bench import (
    SCHEMA_FIELDS,
    compare_bench,
    format_compare,
    summarize,
)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.output == "BENCH_engine.json"
        assert args.schemes == ["U", "C"] and args.repeat == 3

    def test_scheme_list_parsing(self):
        args = build_parser().parse_args(["bench", "--schemes", "u, seq"])
        assert args.schemes == ["U", "SEQ"]

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--schemes", "U,Z"])


class TestBenchCommand:
    def test_smoke_writes_well_formed_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_engine.json"
        assert main(
            [
                "bench",
                "--workloads", "go",
                "--schemes", "U",
                "--repeat", "1",
                "-o", str(out),
            ]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "engine-throughput"
        assert payload["schema"] == list(SCHEMA_FIELDS)
        # cold + warm fast + warm slow records
        assert len(payload["results"]) == 3
        for record in payload["results"]:
            assert set(SCHEMA_FIELDS) <= set(record)
            assert record["workload"] == "go" and record["scheme"] == "U"
            assert record["wall_seconds"] > 0
            assert record["instructions"] > 0
            assert record["instrs_per_sec"] > 0
            assert record["sim_cycles"] > 0
        modes = {(r["mode"], r["phase"]) for r in payload["results"]}
        assert modes == {("fast", "cold"), ("fast", "warm"), ("slow", "warm")}
        [cell] = payload["speedups"]
        assert cell["speedup"] > 0
        assert payload["largest_workload"] == cell
        console = capsys.readouterr().out
        assert "speedup" in console and str(out) in console

    def test_pipeline_cells(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(
            [
                "bench",
                "--workloads", "go",
                "--schemes", "U",
                "--repeat", "1",
                "--pipeline",
                "-o", str(out),
            ]
        ) == 0
        payload = json.loads(out.read_text())
        pipeline = [
            r for r in payload["results"] if r["phase"] == "pipeline"
        ]
        # three cells (compile/profile/oracle), each fast + slow
        assert len(pipeline) == 6
        cells = {(r["scheme"], r["mode"]) for r in pipeline}
        assert cells == {
            (scheme, mode)
            for scheme in ("compile", "profile", "oracle")
            for mode in ("fast", "slow")
        }
        for record in pipeline:
            assert set(SCHEMA_FIELDS) <= set(record)
            assert record["sim_cycles"] == 0.0
            assert record["wall_seconds"] > 0
            assert record["instrs_per_sec"] > 0
        by_scheme = {
            s["scheme"]: s for s in payload["speedups"]
            if s.get("phase") == "pipeline"
        }
        assert set(by_scheme) == {"compile", "profile", "oracle"}
        for cell in by_scheme.values():
            assert cell["speedup"] > 0
        # the headline number stays an engine cell
        assert payload["largest_workload"]["scheme"] == "U"
        assert "compile" in capsys.readouterr().out

    def test_profile_dump(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        stats = tmp_path / "bench.pstats"
        assert main(
            [
                "bench",
                "--workloads", "go",
                "--schemes", "SEQ",
                "--repeat", "1",
                "-o", str(out),
                "--profile", str(stats),
            ]
        ) == 0
        assert stats.exists() and stats.stat().st_size > 0
        assert "cumulative" in capsys.readouterr().out


class TestSummarize:
    def test_largest_picks_most_instructions(self):
        def cell(workload, mode, instrs, ips):
            return {
                "workload": workload, "scheme": "U", "mode": mode,
                "phase": "warm", "sim_cycles": 1.0, "instructions": instrs,
                "wall_seconds": instrs / ips, "instrs_per_sec": ips,
            }

        records = [
            cell("small", "fast", 10, 400.0),
            cell("small", "slow", 10, 100.0),
            cell("big", "fast", 1000, 300.0),
            cell("big", "slow", 1000, 100.0),
        ]
        summary = summarize(records)
        assert len(summary["speedups"]) == 2
        assert summary["largest_workload"]["workload"] == "big"
        assert summary["largest_workload"]["speedup"] == pytest.approx(3.0)

    def test_cold_records_ignored(self):
        summary = summarize(
            [
                {
                    "workload": "w", "scheme": "U", "mode": "fast",
                    "phase": "cold", "sim_cycles": 1.0, "instructions": 10,
                    "wall_seconds": 1.0, "instrs_per_sec": 10.0,
                }
            ]
        )
        assert summary["speedups"] == []
        assert summary["largest_workload"] is None


def _speedup_cell(workload, scheme, fast_ips):
    return {
        "workload": workload,
        "scheme": scheme,
        "instructions": 1000,
        "fast_instrs_per_sec": fast_ips,
        "slow_instrs_per_sec": fast_ips / 3.0,
        "speedup": 3.0,
    }


class TestCompare:
    def test_all_within_tolerance(self):
        baseline = {"speedups": [_speedup_cell("go", "U", 1000.0)]}
        current = {"speedups": [_speedup_cell("go", "U", 950.0)]}
        comparison = compare_bench(current, baseline, tolerance=0.2)
        assert comparison["regressions"] == 0
        [cell] = comparison["cells"]
        assert cell["status"] == "ok"
        assert cell["ratio"] == pytest.approx(0.95)

    def test_regression_flagged(self):
        baseline = {"speedups": [_speedup_cell("go", "U", 1000.0)]}
        current = {"speedups": [_speedup_cell("go", "U", 700.0)]}
        comparison = compare_bench(current, baseline, tolerance=0.2)
        assert comparison["regressions"] == 1
        assert comparison["cells"][0]["status"] == "regressed"

    def test_boundary_exactly_at_tolerance_passes(self):
        baseline = {"speedups": [_speedup_cell("go", "U", 1000.0)]}
        current = {"speedups": [_speedup_cell("go", "U", 800.0)]}
        comparison = compare_bench(current, baseline, tolerance=0.2)
        assert comparison["regressions"] == 0

    def test_subset_run_skips_baseline_cells(self):
        baseline = {
            "speedups": [
                _speedup_cell("go", "U", 1000.0),
                _speedup_cell("mcf", "C", 500.0),
            ]
        }
        current = {"speedups": [_speedup_cell("go", "U", 1000.0)]}
        comparison = compare_bench(current, baseline, tolerance=0.2)
        assert comparison["regressions"] == 0
        statuses = {
            (c["workload"], c["scheme"]): c["status"]
            for c in comparison["cells"]
        }
        assert statuses == {("go", "U"): "ok", ("mcf", "C"): "skipped"}

    def test_new_cell_reported_not_failed(self):
        baseline = {"speedups": []}
        current = {"speedups": [_speedup_cell("go", "U", 1000.0)]}
        comparison = compare_bench(current, baseline)
        assert comparison["regressions"] == 0
        assert comparison["cells"][0]["status"] == "new"

    def test_format_compare_report(self):
        baseline = {
            "speedups": [
                _speedup_cell("go", "U", 1000.0),
                _speedup_cell("mcf", "C", 500.0),
            ]
        }
        current = {
            "speedups": [
                _speedup_cell("go", "U", 700.0),
            ]
        }
        report = format_compare(compare_bench(current, baseline))
        assert "regressed" in report
        assert "1 regression(s)" in report
        assert "not benchmarked" in report

    def test_cli_compare_gate(self, tmp_path):
        """`repro bench --compare` exits 1 only on real regressions."""
        out = tmp_path / "bench.json"
        assert main(
            ["bench", "--workloads", "go", "--schemes", "U",
             "--repeat", "1", "-o", str(out)]
        ) == 0
        payload = json.loads(out.read_text())

        relaxed = dict(payload)
        baseline_ok = tmp_path / "baseline_ok.json"
        baseline_ok.write_text(json.dumps(relaxed))
        assert main(
            ["bench", "--workloads", "go", "--schemes", "U", "--repeat", "1",
             "-o", str(out), "--compare", str(baseline_ok),
             "--compare-tolerance", "0.9"]
        ) == 0

        inflated = json.loads(out.read_text())
        for cell in inflated["speedups"]:
            cell["fast_instrs_per_sec"] *= 100.0
        baseline_bad = tmp_path / "baseline_bad.json"
        baseline_bad.write_text(json.dumps(inflated))
        assert main(
            ["bench", "--workloads", "go", "--schemes", "U", "--repeat", "1",
             "-o", str(out), "--compare", str(baseline_bad)]
        ) == 1


# ---------------------------------------------------------------------------
# bench smoke: the CI gate on a two-workload run (``pytest -m smoke``)
# ---------------------------------------------------------------------------

SMOKE_WORKLOADS = ("go", "mcf")
SMOKE_SCHEMES = ("U", "C", "PS", "PC")


@pytest.mark.smoke
def test_smoke_bench_is_well_formed_and_fast_paths_win(tmp_path):
    out = tmp_path / "bench_smoke.json"
    assert main([
        "bench", "--workloads", ",".join(SMOKE_WORKLOADS),
        "--schemes", ",".join(SMOKE_SCHEMES), "--repeat", "1", "--pipeline",
        "-o", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    fields = set(payload["schema"])
    assert fields == {
        "workload", "scheme", "mode", "phase",
        "sim_cycles", "wall_seconds", "instructions", "instrs_per_sec",
    }, f"schema drifted: {fields}"
    assert payload["results"], "no benchmark records"
    for record in payload["results"]:
        assert fields <= set(record), f"missing fields: {record}"
        assert record["wall_seconds"] > 0
        assert record["instrs_per_sec"] > 0
        if record["phase"] == "pipeline":
            # pipeline cells time the compiler, not the engine
            assert record["sim_cycles"] == 0.0
        else:
            assert record["sim_cycles"] > 0
    largest = payload["largest_workload"]
    assert largest is not None and largest["speedup"] > 1.0, (
        f"fast path not faster than slow path: {largest}"
    )
    assert largest["phase"] == "warm", "headline must be an engine cell"
    pipeline = [s for s in payload["speedups"] if s["phase"] == "pipeline"]
    assert {s["scheme"] for s in pipeline} == {"compile", "profile", "oracle"}
    assert {s["workload"] for s in pipeline} == set(SMOKE_WORKLOADS)
    for cell in pipeline:
        assert cell["speedup"] > 1.0, f"pipeline fast path lost: {cell}"
