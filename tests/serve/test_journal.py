"""Request-journal tests: durability, compaction, torn lines, fault sites."""

from __future__ import annotations

import json

from repro.faults import FaultPlan, FaultRule, reset_injector
from repro.serve import journal as journal_module
from repro.serve.journal import RequestJournal
from repro.serve.protocol import ServeRequest


def _request(request_id: str) -> ServeRequest:
    return ServeRequest(id=request_id, benchmarks=(f"bench/{request_id}",), seed=1)


class TestJournalLifecycle:
    def test_accepted_without_done_is_unfinished(self, tmp_path):
        journal = RequestJournal(tmp_path / "j.ndjson")
        journal.record_accepted(_request("a"))
        journal.record_accepted(_request("b"))
        journal.record_done("a")
        assert [r.id for r in journal.unfinished()] == ["b"]
        journal.close()

    def test_unfinished_preserves_admission_order(self, tmp_path):
        journal = RequestJournal(tmp_path / "j.ndjson")
        for request_id in ("r3", "r1", "r2"):
            journal.record_accepted(_request(request_id))
        assert [r.id for r in journal.unfinished()] == ["r3", "r1", "r2"]
        journal.close()

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "j.ndjson"
        journal = RequestJournal(path)
        journal.record_accepted(_request("a"))
        journal.close()
        # A fresh instance (a restarted daemon) sees the same state.
        reopened = RequestJournal(path)
        assert [r.id for r in reopened.unfinished()] == ["a"]
        reopened.close()

    def test_missing_file_is_empty(self, tmp_path):
        journal = RequestJournal(tmp_path / "nested" / "j.ndjson")
        assert journal.unfinished() == []
        journal.close()


class TestDurability:
    def test_only_admissions_are_fsynced(self, tmp_path, monkeypatch):
        # An 'accepted' line is durable before the client is told; a 'done'
        # line is flushed only, so a power cut can at most re-run a finished
        # request.  A daemon crash loses neither.
        synced = []
        monkeypatch.setattr(journal_module.os, "fsync", synced.append)
        path = tmp_path / "j.ndjson"
        journal = RequestJournal(path)
        journal.record_accepted(_request("a"))
        assert len(synced) == 1
        journal.record_done("a")
        assert len(synced) == 1
        assert len(path.read_text().splitlines()) == 2
        journal.close()


class TestTornAndDamagedLines:
    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "j.ndjson"
        journal = RequestJournal(path)
        journal.record_accepted(_request("a"))
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "accepted", "requ')  # crash mid-append
        reopened = RequestJournal(path)
        assert [r.id for r in reopened.unfinished()] == ["a"]
        reopened.close()

    def test_damaged_middle_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.ndjson"
        journal = RequestJournal(path)
        journal.record_accepted(_request("a"))
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage line\n")
        reopened = RequestJournal(path)
        reopened.record_accepted(_request("b"))
        assert [r.id for r in reopened.unfinished()] == ["a", "b"]
        reopened.close()


class TestCheckpoint:
    def test_compacts_to_unfinished_only(self, tmp_path):
        path = tmp_path / "j.ndjson"
        journal = RequestJournal(path)
        for request_id in ("a", "b", "c"):
            journal.record_accepted(_request(request_id))
        journal.record_done("a")
        journal.record_done("c")
        assert journal.checkpoint() is True
        assert journal.events_since_checkpoint == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["request"]["id"] == "b"
        # The journal stays appendable after compaction.
        journal.record_done("b")
        assert journal.unfinished() == []
        journal.close()

    def test_reopened_journal_compacts_to_the_previous_lifes_backlog(self, tmp_path):
        path = tmp_path / "j.ndjson"
        journal = RequestJournal(path)
        for request_id in ("a", "b"):
            journal.record_accepted(_request(request_id))
        journal.record_done("a")
        journal.close()
        # A restarted daemon's journal starts from what the file holds.
        reopened = RequestJournal(path)
        reopened.record_accepted(_request("c"))
        assert reopened.checkpoint() is True
        assert [r.id for r in reopened.unfinished()] == ["b", "c"]
        assert len(path.read_text().splitlines()) == 2
        reopened.close()

    def test_injected_checkpoint_fault_keeps_uncompacted_journal(self, tmp_path):
        path = tmp_path / "j.ndjson"
        plan = FaultPlan(rules=(FaultRule("serve_checkpoint", "raise"),))
        reset_injector(plan)
        journal = RequestJournal(path, fault_plan=plan)
        journal.record_accepted(_request("a"))
        journal.record_done("a")
        journal.record_accepted(_request("b"))
        assert journal.checkpoint() is False
        # Uncompacted (all three events), but never less correct.
        assert len(path.read_text().splitlines()) == 3
        assert [r.id for r in journal.unfinished()] == ["b"]
        # The rule fired once; the next checkpoint succeeds and compacts.
        assert journal.checkpoint() is True
        assert len(path.read_text().splitlines()) == 1
        journal.close()
