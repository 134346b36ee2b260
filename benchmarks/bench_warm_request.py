"""A warm request is served whole: it traces nothing.

A ``repro serve`` daemon runs every request on one executor thread inside
one stream memo (:func:`repro.sl.stream.stream_pool`) that lives as long
as the daemon.  This harness does the same in process: a few benchmarks
run twice through one engine, with the daemon's configuration, inside one
memo.  The second pass is timed.  It repeats the first pass's programs on
the same built inputs, so every function is served from the memo
(``function_memo_hits``), and its work counters, which do not depend on
the machine, must show that it only built inputs: no test case traced
(``collect_models`` is never called), no skeleton search
(``skeletons_solved``) and no exact check (``checker_misses``).
"""

from repro.core import sling as sling_module
from repro.core.engine import CacheStats, EngineJob, InferenceEngine
from repro.core.sling import SlingConfig
from repro.sl.stream import stream_pool

#: A single-field list, a doubly linked list, a loop and freed cells.
BENCHMARKS = ("sll/insertFront", "dll/concat", "sorted/insertIter", "queue/rmHd")


def test_a_warm_request_traces_nothing(once, tmp_path, monkeypatch):
    config = SlingConfig(persistent_cache=tmp_path / "warm.sqlite")
    engine = InferenceEngine(jobs=1)
    jobs = [EngineJob(kind="spec", benchmark=name, seed=0, config=config) for name in BENCHMARKS]
    traced = []
    collect_models = sling_module.collect_models

    def counted(*args, **kwargs):
        traced.append(args[1])
        return collect_models(*args, **kwargs)

    monkeypatch.setattr(sling_module, "collect_models", counted)

    def one_pass():
        return [engine.run([job])[0] for job in jobs]

    with stream_pool():
        cold = one_pass()
        assert len(traced) == len(BENCHMARKS)
        traced.clear()
        warm = once(one_pass)

    assert all(report.ok for report in cold + warm)
    assert traced == []
    totals = CacheStats()
    for report in warm:
        totals.merge(report.cache)
    assert totals.function_memo_hits == len(BENCHMARKS)
    assert totals.skeletons_solved == 0
    assert totals.checker_misses == 0
    for before, after in zip(cold, warm):
        assert after.payload.specification.validated == before.payload.specification.validated
        assert [inv.pretty() for inv in after.payload.specification.all_invariants()] == [
            inv.pretty() for inv in before.payload.specification.all_invariants()
        ]
