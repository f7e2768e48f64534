"""The command-line interface."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.cache import ResultCache
from repro.experiments.runner import bundle_for
from repro.workloads import get_workload


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "go"])
        assert args.bar == "C" and args.cores == 4

    def test_bad_bar_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "go", "--bar", "Z"])

    def test_workload_list_parsing(self):
        args = build_parser().parse_args(
            ["figure", "7", "--workloads", "go, twolf"]
        )
        assert args.workloads == ["go", "twolf"]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "m88ksim" in out and "099.go" in out

    def test_compile(self, capsys):
        assert main(["compile", "go"]) == 0
        out = capsys.readouterr().out
        assert "selected loops" in out
        assert "memory sync" in out

    def test_compile_emit(self, capsys):
        assert main(["compile", "go", "--emit", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "func main()" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "go", "--bar", "U"]) == 0
        out = capsys.readouterr().out
        assert "region time" in out and "violations" in out

    def test_simulate_other_core_count(self, capsys):
        assert main(["simulate", "go", "--bar", "C", "--cores", "2"]) == 0
        out = capsys.readouterr().out
        assert "cores 2" in out
        assert "region time: 63.9 (sequential = 100)" in out

    def test_simulate_seq_other_core_count(self, capsys):
        # SEQ runs its binary sequentially at any core count
        assert main(["simulate", "go", "--bar", "SEQ", "--cores", "2"]) == 0
        assert "bar SEQ   cores 2" in capsys.readouterr().out

    def test_figure(self, capsys):
        assert main(["figure", "7", "--workloads", "go"]) == 0
        out = capsys.readouterr().out
        assert "dist_1" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "99", "--workloads", "go"]) == 1

    def test_table(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "Issue Width" in out

    def test_summary(self, capsys):
        assert main(["summary", "--workloads", "go"]) == 0
        out = capsys.readouterr().out
        assert "winner=C" in out

    @pytest.mark.parametrize("argv", [
        ["report", "--workloads", "nosuch"],
        ["report", "--workloads", "go,nosuch", "--jobs", "2"],
        ["simulate", "nosuch"],
    ])
    def test_unknown_workload_is_a_message_not_a_traceback(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "unknown workload 'nosuch'" in captured.err
        assert "known: go, m88ksim" in captured.err
        assert "Traceback" not in captured.err

    def test_scorecard_on_a_subset_skips_claims_it_cannot_check(
        self, capsys
    ):
        assert main(["scorecard", "--workloads", "go"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        out = captured.out
        # named workloads outside the subset, and suite-wide counts
        assert "[SKIP] Compiler wins GO/GZIP_DECOMP" in out
        assert "needs gzip_decomp, perlbmk, gap, m88ksim, vpr_place" in out
        assert "counts over all 15 workloads; 14 not requested" in out
        # claims that hold per workload still run on the subset
        assert "[PASS] Slot attribution explains 100%" in out
        assert "[FAIL]" not in out
        assert "2/2 claims reproduced, 10 skipped" in out

    def test_cache_clear_empties_retired_artifact_kinds(
        self, tmp_path, capsys
    ):
        # Older runs also stored region tables (``*.lowered.json``) and
        # generated kernels (``*.kernel.json``); nothing reads them now,
        # but info must still work and clear must still empty the root.
        root = tmp_path / "old-store"
        store = ArtifactStore(str(root))
        store.save_compiled(get_workload("go"), 0.05, bundle_for("go").compiled)
        for key, kind in (("ab12", "lowered"), ("cd34", "kernel"), ("cd56", "kernel")):
            shard = store.root / key[:2]
            shard.mkdir(parents=True, exist_ok=True)
            (shard / f"{key}.{kind}.json").write_text('{"payload": {}}')
        assert main(["cache", "info", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "compiled: 1" in out and "oracles : 0" in out
        assert "entries : 4" in out  # every file that clear removes
        assert main([
            "cache", "clear", "--only", "artifacts", "--cache-dir", str(root),
        ]) == 0
        assert "removed 4 artifact(s)" in capsys.readouterr().out
        assert not store.root.exists()
        assert main(["cache", "info", "--cache-dir", str(root)]) == 0
        assert "compiled: 0" in capsys.readouterr().out

    def test_retired_cache_clear_scopes_are_rejected(self):
        for only in ("lowered", "kernels"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["cache", "clear", "--only", only])

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "results.md"
        assert main([
            "report", "-o", str(target), "--workloads", "go",
        ]) == 0
        text = target.read_text()
        assert "### Table 1" in text and "### Figure 10" in text


def test_default_flow_never_imports_numpy(tmp_path):
    """A fresh ``repro`` process runs with the standard library alone."""
    script = textwrap.dedent(
        """
        import sys

        import repro.cli
        from repro.experiments import artifacts, cache
        from repro.experiments.runner import bundle_for

        cache.configure(True, sys.argv[1])
        artifacts.configure(True, sys.argv[1])
        assert bundle_for("go").simulate("U").program_cycles > 0
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
        assert not loaded, loaded
        """
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "store")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.smoke
def test_report_smoke_parallel_cold_then_warm(tmp_path):
    """A cold then a warm parallel ``repro report`` into one cache:
    the warm run is all hits and both reports are byte-identical."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    cache_dir = tmp_path / "cache"

    def report(name):
        done = subprocess.run(
            [sys.executable, "-m", "repro", "report", "--workloads", "go,mcf",
             "--jobs", "2", "--cache-dir", str(cache_dir),
             "--metrics-out", str(tmp_path / f"{name}.json"),
             "-o", str(tmp_path / f"{name}.md")],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        metrics = json.loads((tmp_path / f"{name}.json").read_text())
        return (tmp_path / f"{name}.md").read_bytes(), metrics["cache"]

    cold_text, cold = report("cold")
    # one entry per simulation identity (26) plus the two profiles
    assert ResultCache(str(cache_dir)).info()["entries"] == 28
    warm_text, warm = report("warm")
    assert cold["misses"] > 0, "cold run should compute jobs"
    assert warm["misses"] == 0, f"warm run recomputed {warm['misses']} jobs"
    assert warm["hits"] > 0 and warm["hit_rate"] == 1.0
    assert cold_text == warm_text
