"""repro-obs console tests: trace render, metrics tables, demo."""

import json

from repro.obs.console import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.stats.counters import Counters


def _make_trace_file(tmp_path) -> str:
    t = Tracer(capacity=16)
    with t.span("rebuild.run", epoch=3):
        with t.span("rebuild.plan"):
            pass
        t.event("rebuild.seam_release", {"worker": 0})
    path = str(tmp_path / "spans.jsonl")
    t.export_jsonl(path)
    return path


def test_trace_subcommand_renders_forest(tmp_path, capsys):
    path = _make_trace_file(tmp_path)
    assert main(["trace", path]) == 0
    out = capsys.readouterr().out
    assert "rebuild.run" in out
    assert "  rebuild.plan" in out  # indented child
    assert "3 spans, 1 roots" in out


def test_trace_subcommand_name_filter(tmp_path, capsys):
    path = _make_trace_file(tmp_path)
    assert main(["trace", path, "--name", "rebuild.plan"]) == 0
    out = capsys.readouterr().out
    assert "rebuild.plan" in out
    assert "rebuild.run" not in out
    assert main(["trace", path, "--name", "nonexistent."]) == 0
    assert "(no spans)" in capsys.readouterr().out


def test_metrics_subcommand_tables(tmp_path, capsys):
    counters = Counters()
    counters.add("page_reads", 12)
    reg = MetricsRegistry(counters)
    reg.histogram("wal_flush_seconds", help="w").record(0.002)
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(reg.to_json()))
    assert main(["metrics", str(path)]) == 0
    out = capsys.readouterr().out
    assert "page_reads" in out and "12" in out
    assert "wal_flush_seconds" in out
    assert "p99" in out


def test_metrics_subcommand_prometheus(tmp_path, capsys):
    reg = MetricsRegistry(Counters())
    reg.histogram("wal_flush_seconds").record(0.001)
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(reg.to_json()))
    assert main(["metrics", str(path), "--prometheus"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_wal_flush_seconds histogram" in out
    assert 'le="+Inf"' in out


def test_metrics_subcommand_empty(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"counters": {}, "histograms": {}}))
    assert main(["metrics", str(path)]) == 0
    assert "(empty)" in capsys.readouterr().out


def test_demo_runs_a_traced_rebuild(tmp_path, capsys):
    export = str(tmp_path / "demo.jsonl")
    assert main(["demo", "--json", export]) == 0
    out = capsys.readouterr().out
    assert "rebuild.run" in out
    assert "progress: phase=complete" in out
    # The export is importable and contains the rebuild skeleton.
    spans = Tracer.import_jsonl(export)
    names = {s.name for s in spans}
    assert "rebuild.run" in names and "rebuild.top_action" in names
