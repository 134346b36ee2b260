"""Self-test of the benchmark's per-layer accounting.

    python3 perfbench/selftest.py

Checks that

* the books refuse a timeline whose self times do not sum to its coverage,
  or whose coverage exceeds the window;
* worker segments are appended, never truncated;
* a traced engine run with more jobs than workers keeps every job, and a
  worker that ran several jobs reports all of them;
* the traced ``table1-par`` sweep accounts for all 150 jobs.

Exits non-zero with a message on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.benchsuite.registry import all_benchmarks  # noqa: E402
from repro.core.engine import EngineJob, InferenceEngine  # noqa: E402
from repro.telemetry import monotime  # noqa: E402

import layers  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def refuses(timeline: dict, window: float) -> bool:
    try:
        layers.account([timeline], window)
    except layers.AccountingError:
        return True
    return False


def timeline(self_s: float, covered: float) -> dict:
    return {
        "layers": {"core.sling": [1, self_s]},
        "covered": covered,
        "counts": {},
        "jobs": [],
        "waits": [],
    }


def check_books() -> None:
    books = layers.account([timeline(0.4, 0.4), timeline(0.25, 0.25)], 1.0)
    check(abs(books["unattributed_s"] - 1.35) < 1e-9, "unattributed time of balanced books")
    check(refuses(timeline(0.3, 0.4), 1.0), "self times short of coverage were accepted")
    check(refuses(timeline(1.5, 1.5), 1.0), "coverage beyond the window was accepted")


def check_segments_append(directory: str) -> None:
    clock = layers.LayerClock()
    layers.timed(clock, "core.sling", lambda: None)()
    clock.append_segment(directory)
    clock.append_segment(directory)
    check(len(layers.read_segments(directory)) == 2, "a second segment append truncated the first")
    for name in os.listdir(directory):
        os.unlink(os.path.join(directory, name))


def check_more_jobs_than_workers(directory: str) -> None:
    clock = layers.LayerClock()
    layers.install(clock, segment_dir=directory)
    names = [benchmark.name for benchmark in all_benchmarks()[:7]]
    start = monotime()
    reports = InferenceEngine(jobs=2).run([EngineJob(kind="spec", benchmark=n) for n in names])
    window = monotime() - start
    check(all(report.ok for report in reports), "a traced spec job failed")
    books = layers.account(clock.timelines() + layers.read_segments(directory), window)
    traced = sorted(job[0] for job in books["jobs"])
    check(traced == sorted(names), f"traced jobs {traced} != submitted {sorted(names)}")
    workers = [t for t in layers.read_segments(directory) if t["jobs"]]
    check(len(workers) == 2, f"expected 2 worker timelines, got {len(workers)}")
    check(
        max(len(t["jobs"]) for t in workers) >= 2,
        "no worker reported more than one job",
    )


def check_full_parallel_sweep(directory: str) -> None:
    output = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "sweep.py"),
            "--mode", "layers", "--jobs", "2", "--seed", "0", "--scratch", directory,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout
    record = json.loads(output.strip().splitlines()[-1])
    jobs = [job[0] for job in record["books"]["jobs"]]
    check(record["programs"] == 150, f"sweep ran {record['programs']} programs, not 150")
    check(len(jobs) == 150 and len(set(jobs)) == 150, f"traced sweep kept {len(jobs)} jobs")
    check(record["books"]["timelines"] == 3, "expected the parent and 2 worker timelines")
    check(not record["failed"] and not record["mismatched"], "traced sweep results are wrong")


def main() -> None:
    scratch = os.path.join(ROOT, ".perfbench-run", f"selftest-{os.getpid()}")
    os.makedirs(scratch)
    try:
        check_books()
        check_segments_append(scratch)
        check_full_parallel_sweep(scratch)
        shutil.rmtree(scratch)
        os.makedirs(scratch)
        check_more_jobs_than_workers(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    print("selftest OK")


if __name__ == "__main__":
    main()
