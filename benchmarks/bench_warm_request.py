"""A warm request pays only for its own trace.

A ``repro serve`` daemon runs every request on one executor thread inside
one stream memo (:func:`repro.sl.stream.stream_pool`) that lives as long
as the daemon.  This harness does the same in process: a few benchmarks
run twice through one engine, with the daemon's configuration, inside one
memo.  The second pass is timed, and its work counters, which do not
depend on the machine, must show that it only traced: no skeleton search
(``skeletons_solved``), no exact check (``checker_misses``, the frame-rule
validation included), every non-empty location served whole
(``location_memo_hits``) and the frame-rule verdicts served as well
(``validation_memo_hits``).
"""

from repro.core.engine import CacheStats, EngineJob, InferenceEngine
from repro.core.sling import SlingConfig
from repro.sl.stream import stream_pool

#: A single-field list, a doubly linked list, a loop and freed cells.
BENCHMARKS = ("sll/insertFront", "dll/concat", "sorted/insertIter", "queue/rmHd")


def _reached_locations(report) -> int:
    """The inferred locations of a spec job that got at least one model."""
    specification = report.payload.specification
    inferred = {"entry", *specification.postconditions, *specification.loop_invariants}
    return len(inferred - set(specification.unreached_locations))


def test_a_warm_request_runs_no_search_and_no_check(once, tmp_path):
    config = SlingConfig(persistent_cache=tmp_path / "warm.sqlite")
    engine = InferenceEngine(jobs=1)
    jobs = [EngineJob(kind="spec", benchmark=name, seed=0, config=config) for name in BENCHMARKS]

    def one_pass():
        return [engine.run([job])[0] for job in jobs]

    with stream_pool():
        cold = one_pass()
        warm = once(one_pass)

    assert all(report.ok for report in cold + warm)
    totals = CacheStats()
    for report in warm:
        totals.merge(report.cache)
    assert totals.skeletons_solved == 0
    assert totals.checker_misses == 0
    assert totals.location_memo_hits == sum(_reached_locations(report) for report in warm)
    assert totals.validation_memo_hits >= 1
    for before, after in zip(cold, warm):
        assert after.payload.specification.validated == before.payload.specification.validated
