"""Tests for the Markdown summary writer and the CLI around it."""

import re

import pytest

from repro.errors import AnalysisError
from repro.experiments.base import ExperimentReport
from repro.experiments.summary import (
    _markdown_table,
    report_to_markdown,
    reports_to_markdown,
)


def _report():
    return ExperimentReport(
        exp_id="E99",
        title="Demo",
        claim="something holds",
        headers=["n", "rounds"],
        rows=[[8, 100], [16, 220]],
        metrics={"fit": "log^2 n"},
        notes=["a caveat"],
    )


class TestMarkdownTable:
    def test_structure(self):
        table = _markdown_table(["a", "b"], [[1, 2]])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"

    def test_width_mismatch(self):
        with pytest.raises(AnalysisError):
            _markdown_table(["a"], [[1, 2]])

    def test_empty_headers(self):
        with pytest.raises(AnalysisError):
            _markdown_table([], [])


class TestReportToMarkdown:
    def test_contains_all_parts(self):
        md = report_to_markdown(_report())
        assert "## E99 — Demo" in md
        assert "**Claim.** something holds" in md
        assert "| 16 | 220 |" in md
        assert "`fit` = log^2 n" in md
        assert "*Note.* a caveat" in md

    def test_no_metrics_no_metrics_line(self):
        report = _report()
        report.metrics = {}
        md = report_to_markdown(report)
        assert "**Metrics.**" not in md


class TestReportsToMarkdown:
    def test_document(self):
        md = reports_to_markdown([_report(), _report()], title="T",
                                 preamble="P")
        assert md.startswith("# T")
        assert "P" in md
        assert md.count("## E99") == 2

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            reports_to_markdown([])


class TestCliMarkdown:
    def test_cli_writes_markdown(self, tmp_path):
        from repro.experiments.__main__ import main

        out = tmp_path / "report.md"
        code = main(
            ["E01", "--scale", "quick", "--markdown", str(out),
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        text = out.read_text()
        assert "E01" in text
        assert "| n |" in text or "| n " in text


class TestCliRunStats:
    def test_second_run_reports_full_replay(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        cli = ["E01", "--cache-dir", str(tmp_path)]
        assert main(cli) == 0
        first = capsys.readouterr().out
        assert "from cache" not in first
        assert main(cli) == 0
        again = capsys.readouterr().out
        replayed = re.search(r"(\d+)/(\d+) grid points from cache", again)
        assert replayed and replayed.group(1) == replayed.group(2)
        # The replay renders the same report as the computing run.
        assert again.split("\n(")[0] == first.split("\n(")[0]

    def test_cli_options_do_not_outlive_the_run(self, tmp_path):
        from repro.core.constants import ProtocolConstants
        from repro.deploy import uniform_square
        from repro.experiments.__main__ import main
        from repro.fastsim.grid import GridPoint, GridSpec, run_grid

        cache = tmp_path / "cache"
        assert main(["E01", "--cache-dir", str(cache), "--jobs", "2"]) == 0
        entries = sorted(cache.rglob("*"))
        spec = GridSpec(
            points=[
                GridPoint(
                    kind="spont_broadcast",
                    deployment=lambda rng: uniform_square(
                        n=10, side=1.5, rng=rng
                    ),
                    n_replications=2,
                    constants=ProtocolConstants.practical(),
                    kwargs={"source": 0},
                )
            ],
            seed=3,
            name="after-cli",
        )
        for _ in range(2):
            assert not run_grid(spec)[0].cached
        assert sorted(cache.rglob("*")) == entries
