"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


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

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "results.md"
        assert main([
            "report", "-o", str(target), "--workloads", "go",
        ]) == 0
        text = target.read_text()
        assert "### Table 1" in text and "### Figure 10" in text
