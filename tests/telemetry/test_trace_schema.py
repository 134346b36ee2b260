"""Trace schema round-trips, analysis invariants and the trace CLI."""

import json
from pathlib import Path

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.cli import main
from repro.core.sling import Sling, SlingConfig
from repro.evaluation.table1 import run_table1
from repro.telemetry import (
    SPAN_KINDS,
    TRACE_SCHEMA_VERSION,
    Telemetry,
    TraceError,
    Tracer,
    diff_summaries,
    phase_summary,
    read_trace,
    self_times,
    span_records,
    to_chrome,
)


def traced_inference(path, name: str = "sll/insertFront") -> list[dict]:
    """Run one traced benchmark inference and return the parsed trace."""
    telemetry = Telemetry(path)
    benchmark = get_benchmark(name)
    sling = Sling(
        benchmark.program,
        benchmark.predicates,
        SlingConfig(discard_crashed_runs=True, telemetry=telemetry),
    )
    sling.infer_function(benchmark.function, benchmark.test_cases(0))
    telemetry.close()
    return read_trace(path)


class TestTracerRoundTrip:
    def test_manual_spans_round_trip(self, tmp_path):
        path = tmp_path / "manual.ndjson"
        tracer = Tracer(path)
        with tracer.span("sweep", name="demo") as sweep:
            with tracer.span("job", name="sll/insertFront", seed=0) as job:
                job.set(ok=True)
            sweep.set(jobs=1)
        tracer.counters("demo", {"checker_misses": 3})
        tracer.close()

        records = read_trace(path)
        meta = [r for r in records if r["type"] == "trace_meta"]
        assert len(meta) == 1 and meta[0]["version"] == TRACE_SCHEMA_VERSION
        spans = {span["name"]: span for span in span_records(records)}
        # Spans are written on close, so the job span precedes the sweep span
        # in the file but parents correctly.
        assert spans["sll/insertFront"]["parent"] == spans["demo"]["id"]
        assert spans["demo"]["parent"] is None
        assert spans["sll/insertFront"]["attrs"] == {"seed": 0, "ok": True}
        counters = [r for r in records if r["type"] == "counters"]
        assert counters[0]["values"] == {"checker_misses": 3}

    def test_invalid_lines_are_rejected(self, tmp_path):
        path = tmp_path / "broken.ndjson"
        path.write_text('{"type": "span", "id": "1:0"}\n')
        with pytest.raises(TraceError):
            read_trace(path)
        path.write_text("not json\n")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_unknown_schema_version_is_rejected(self, tmp_path):
        path = tmp_path / "future.ndjson"
        path.write_text(json.dumps({"type": "trace_meta", "version": 999, "pid": 1}) + "\n")
        with pytest.raises(TraceError, match="version"):
            read_trace(path)


class TestTracedInference:
    def test_traced_run_is_schema_valid(self, tmp_path):
        records = traced_inference(tmp_path / "run.ndjson")
        kinds = {span["kind"] for span in span_records(records)}
        assert "function" in kinds
        assert "location" in kinds
        assert "candidate_group" in kinds

    def test_self_times_sum_to_root_duration(self, tmp_path):
        """Main-track spans nest, so self times are additive by construction."""
        records = traced_inference(tmp_path / "run.ndjson")
        spans = [s for s in span_records(records) if s["track"] == "main"]
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1
        total_self = sum(self_times(records).values())
        assert total_self == pytest.approx(roots[0]["dur"], rel=0.05)

    def test_phase_summary_flags_aux_kinds(self, tmp_path):
        """``stream_materialize`` is an ordinary main-track span nested in
        the ``variant_decide`` call that first consults the stream."""
        records = traced_inference(tmp_path / "run.ndjson")
        summary = phase_summary(records)
        assert summary["function"]["count"] == 1
        assert "self_seconds" in summary["function"]
        assert "self_seconds" in summary["stream_materialize"]
        assert "aux" not in summary["stream_materialize"]
        spans = {span["id"]: span for span in span_records(records)}
        materialized = [
            span for span in spans.values() if span["kind"] == "stream_materialize"
        ]
        assert materialized
        for span in materialized:
            assert span["track"] == "main"
            assert spans[span["parent"]]["kind"] == "variant_decide"


class TestSpanTaxonomy:
    def test_traced_sll_sweep_emits_only_declared_kinds(self, tmp_path):
        """What ``repro table1 --category SLL --limit 2 --trace-out`` traces."""
        path = tmp_path / "sweep.ndjson"
        telemetry = Telemetry(path)
        run_table1(
            categories=("SLL",),
            config=SlingConfig(discard_crashed_runs=True, telemetry=telemetry),
            max_programs_per_category=2,
        )
        telemetry.close()
        kinds = {span["kind"] for span in span_records(read_trace(path))}
        assert "variant_decide" in kinds
        assert kinds - set(SPAN_KINDS) == set()

    def test_every_declared_kind_is_documented(self):
        doc = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
        text = doc.read_text(encoding="utf-8")
        assert [kind for kind in SPAN_KINDS if f"| `{kind}`" not in text] == []


class TestChromeExport:
    def test_export_is_valid_trace_event_json(self, tmp_path):
        records = traced_inference(tmp_path / "run.ndjson")
        chrome = json.loads(json.dumps(to_chrome(records)))
        assert chrome["displayTimeUnit"] == "ms"
        events = chrome["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "no complete events exported"
        for event in complete:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        assert any(e["ph"] == "M" and e["name"] == "process_name" for e in events)


class TestTraceCli:
    def test_summary_export_diff(self, tmp_path, capsys):
        trace_a = tmp_path / "a.ndjson"
        trace_b = tmp_path / "b.ndjson"
        traced_inference(trace_a)
        traced_inference(trace_b, name="sll/reverse")

        main(["trace", "summary", str(trace_a)])
        out = capsys.readouterr().out
        assert "phase" in out and "function" in out

        chrome_path = tmp_path / "a_chrome.json"
        main(["trace", "export", "--format", "chrome", "--out", str(chrome_path), str(trace_a)])
        with open(chrome_path, encoding="utf-8") as handle:
            chrome = json.load(handle)
        assert chrome["traceEvents"]

        main(["trace", "diff", "--json", str(trace_a), str(trace_b)])
        diff = json.loads(capsys.readouterr().out)
        assert diff == diff_summaries(read_trace(trace_a), read_trace(trace_b))
        assert "function" in diff

    def test_diff_needs_two_files(self, tmp_path):
        trace_a = tmp_path / "a.ndjson"
        traced_inference(trace_a)
        with pytest.raises(SystemExit):
            main(["trace", "diff", str(trace_a)])

    def test_summary_rejects_non_trace_file(self, tmp_path):
        bogus = tmp_path / "bogus.ndjson"
        bogus.write_text("{}\n")
        with pytest.raises(SystemExit):
            main(["trace", "summary", str(bogus)])
