"""CLI surface of the observability stack: spans / obs report."""

from __future__ import annotations

from repro.cli import main


class TestSpansCommand:
    def test_clean_run_full_coverage(self, capsys, tmp_path):
        out = tmp_path / "bundle"
        status = main([
            "spans", "--summary", "--masters", "2", "--slaves", "4",
            "--requests", "8", "--hyperperiods", "1",
            "--out", str(out),
        ])
        assert status == 0
        text = capsys.readouterr().out
        assert "worst coverage 1.000" in text
        assert "0 anomalies" in text
        assert "wire" in text  # the attribution table printed
        assert (out / "spans.jsonl").exists()
        assert (out / "anomalies.jsonl").exists()
        # the emitted bundle passes its own schema gate
        assert main(["obs", "check", str(out)]) == 0

    def test_lossy_run_attributes_backoff(self, capsys):
        status = main([
            "spans", "--summary", "--signal-loss", "0.2",
            "--requests", "12", "--seed", "55",
        ])
        assert status == 0
        text = capsys.readouterr().out
        assert "worst coverage 1.000" in text

    def test_min_coverage_gate_can_fail(self, capsys):
        # an impossible threshold flips the exit status, nothing else
        status = main([
            "spans", "--masters", "2", "--slaves", "4", "--requests", "4",
            "--hyperperiods", "1", "--min-coverage", "1.01",
        ])
        assert status == 1
        assert "ATTRIBUTION GAP" in capsys.readouterr().err


class TestObsReport:
    def test_report_renders_bundle(self, capsys, tmp_path):
        out = tmp_path / "bundle"
        assert main([
            "spans", "--masters", "2", "--slaves", "4", "--requests", "6",
            "--hyperperiods", "1", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        status = main(["obs", "report", str(out)])
        assert status == 0
        text = capsys.readouterr().out
        assert "spans in" in text
        assert "signal.request" in text
        assert "wire" in text

    def test_report_without_spans_errors(self, capsys, tmp_path):
        status = main(["obs", "report", str(tmp_path)])
        assert status == 2
        assert "no spans.jsonl" in capsys.readouterr().err
