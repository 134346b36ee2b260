"""The repository benchmark: Table 1 sweeps and warm serving.

Run one workload from the repository root::

    python3 perfbench/run.py --workload table1-seq --seed 0 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every metric is
``{"value": ..., "unit": ...}``.  A readable listing goes to standard error.

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

``table1-seq``
    ``run_table1`` over all 150 programs, ``jobs=1``, default config, no
    cache file, each sweep in a fresh process (what ``repro table1`` pays).
    The same sweep on the engine's worker pool is not a workload: on a
    2-CPU machine shared with other tenants its wall time spread more than
    any allowed bound.  ``selftest.py`` still traces it.
``serve-warm``
    A ``repro serve`` daemon in its own process whose ``--cache-file`` is
    warmed during set-up by one cold pass over all 150 benchmarks, driven
    by this process with 2 closed-loop clients that each send one
    single-benchmark request (drawn from the registry with the seed) and
    wait for its ``done`` record before sending the next.

``--seed n`` picks the drawn requests and the input seed
``golden.input_seed(n)`` (``benchmark.test_cases(seed)`` /
``ServeRequest.seed``); inferred invariants are checked against the
committed oracle references in ``golden/``.

End-to-end metrics (``--trace 0``, no wrappers installed), each the median
over the run's intervals: its sweeps, or 5 s bursts of serving load.
The fixed work of ``calibrate.py`` is timed before the first interval and
after each one, with nothing else of the benchmark running, and every time
of an interval is scaled by ``REFERENCE_SECONDS`` over the mean of the two
calibrations around it (rates inversely): the figures are those of the
reference host, so that a shared host's minutes-long slowdowns do not move
them.  The raw medians and the host's slowdown go to standard error.
An operation is one program's job in a sweep, or one request:

``setup_s``          process start until the workload can be timed (for
                     ``serve-warm``: daemon start plus the cold
                     cache-writing pass, median of 3 set-ups, each scaled by
                     the calibrations around it)
``sweep_s``          wall time of one 150-program sweep; for
                     ``serve-warm`` the time to serve 150 requests
``program_p50_ms``,
``program_p90_ms``   one benchmark's inference job (engine report time;
                     for ``serve-warm`` the daemon's ``done.seconds``)
``requests_per_s``   operations completed per second
``request_p50_ms``,
``request_p90_ms``   submit to result as the caller sees it (for sweeps:
                     sweep start until the caller receives the program's
                     report)
``peak_rss_mb``      peak resident memory of the sweep process or the daemon
Failed, rejected, timed-out and wrong operations (invariants differing from
the reference) are the JSON ``failed`` count; ``attempted`` counts all.

Per-layer metrics (``--trace 1``): ``<layer>.calls`` and ``<layer>.self_s``
for every layer of ``layers.LAYERS`` (means over the traced sweeps), the
layer counters, ``unattributed_s``/``unattributed_share`` (wall time no
outermost wrapped call covered, summed over the traced threads and
processes: every such timeline spans the whole traced window),
``bench.trace_overhead_share`` (traced over untraced time per operation,
minus 1) and ``telemetry.overhead_share`` (the same for the program's own
``Telemetry`` tracing).  The books must balance: per-layer self time plus
unattributed time equals traced wall time times timelines.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.benchsuite.registry import all_benchmarks  # noqa: E402
from repro.telemetry import monotime  # noqa: E402

import golden  # noqa: E402
import layers  # noqa: E402
from calibrate import REFERENCE_SECONDS, calibrate  # noqa: E402

WORKLOADS = ("table1-seq", "serve-warm")

#: Untraced sweeps per run, at least (the reported times are medians).
MIN_SWEEPS = 3
#: Closed-loop clients of ``serve-warm``.
CLIENTS = 2
#: Daemon set-ups per ``serve-warm`` run (``setup_s`` is their median).
SERVE_SETUPS = 3
#: Length of the bursts of load that ``serve-warm``'s end-to-end medians
#: are taken over (the host is calibrated between bursts).
SLICE_SECONDS = 5.0
#: Seconds any single child step may take before the run is abandoned.
STEP_TIMEOUT = 150


class BenchError(RuntimeError):
    """The workload could not be measured."""


# ---------------------------------------------------------------- helpers --


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 <= q <= 1); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def child_env(scratch: str) -> dict:
    """Environment of every child: the checkout's sources, temp files in ``scratch``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = scratch
    return env


def stop_process(process: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM, wait; SIGKILL if it will not go.  Returns the exit code."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    return process.returncode


#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "program_p50_ms": "ms",
    "program_p90_ms": "ms",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def host_factor(calibrations: list[float], index: int) -> float:
    """Reference over measured host speed around interval ``index``.

    ``calibrations[index]`` was taken just before the interval and
    ``calibrations[index + 1]`` just after it.
    """
    return REFERENCE_SECONDS / statistics.fmean(calibrations[index : index + 2])


def scaled(interval: dict, factor: float) -> dict:
    """An interval's metrics on the reference host: times times ``factor``,
    rates divided by it, memory as measured."""
    result = {}
    for name, value in interval.items():
        unit = END_TO_END[name]
        if unit in ("s", "ms"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        result[name] = value
    return result


def median_metrics(intervals: list[dict], factors: list[float]) -> dict:
    """Every end-to-end metric as its median over a run's scaled intervals.

    An interval is one sweep, or one slice of the serving window, so a burst
    of interference from outside the benchmark spoils a minority of the
    intervals instead of every pooled sample; ``factors`` scale each to the
    reference host.
    """
    names = [name for name in END_TO_END if name in intervals[0]]
    raw = {name: statistics.median(i[name] for i in intervals) for name in names}
    print(
        f"perfbench: sweep_s per interval {[round(i['sweep_s'], 4) for i in intervals]}\n"
        f"perfbench: host factor per interval {[round(f, 4) for f in factors]}\n"
        f"perfbench: raw medians {json.dumps({k: round(v, 4) for k, v in raw.items()})}",
        file=sys.stderr,
    )
    intervals = [scaled(i, f) for i, f in zip(intervals, factors)]
    return {
        name: (statistics.median(interval[name] for interval in intervals), END_TO_END[name])
        for name in names
    }


# ----------------------------------------------------------- table1 sweeps --


def run_sweep(mode: str, seed: int, scratch: str) -> dict:
    """One ``jobs=1`` sweep in a fresh process; ``setup_s`` is spawn to ready."""
    directory = os.path.join(scratch, f"sweep-{monotime():.6f}")
    os.makedirs(directory)
    command = [
        sys.executable,
        os.path.join(HERE, "sweep.py"),
        "--mode", mode,
        "--jobs", "1",
        "--seed", str(seed),
        "--scratch", directory,
    ]
    spawned = monotime()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(scratch), stdout=subprocess.PIPE, text=True
    )
    try:
        output, _ = process.communicate(timeout=STEP_TIMEOUT)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    shutil.rmtree(directory, ignore_errors=True)
    if process.returncode != 0:
        return {"ok": False, "error": f"sweep.py {mode} exited {process.returncode}"}
    record = json.loads(output.strip().splitlines()[-1])
    record["ok"] = True
    record["setup_s"] = record["ready"] - spawned
    record["sweep_s"] = record["end"] - record["start"]
    return record


def table1_workload(seed: int, seconds: float, trace: bool, scratch: str):
    modes = ("plain",)
    if trace:
        modes = ("plain", "layers", "telemetry")
    sweeps: dict[str, list] = {mode: [] for mode in modes}
    begun = monotime()
    calibrations = [] if trace else [calibrate()]
    while True:
        for mode in modes:
            sweeps[mode].append(run_sweep(mode, seed, scratch))
        if not trace:
            calibrations.append(calibrate())
        rounds = len(sweeps["plain"])
        if monotime() - begun >= seconds and (trace or rounds >= MIN_SWEEPS):
            break

    attempted = failed = 0
    for mode in modes:
        for sweep in sweeps[mode]:
            if not sweep["ok"]:
                print(f"perfbench: {sweep['error']}", file=sys.stderr)
                attempted += len(golden.load("table1", seed))
                failed += len(golden.load("table1", seed))
                continue
            attempted += sweep["programs"]
            bad = set(sweep["failed"]) | set(sweep["mismatched"])
            if bad:
                print(f"perfbench: {mode} sweep: failed or wrong: {sorted(bad)}", file=sys.stderr)
            failed += len(bad)
    good = {mode: [sweep for sweep in sweeps[mode] if sweep["ok"]] for mode in modes}
    if any(not good[mode] for mode in modes):
        raise BenchError("no sweep of some mode completed")

    if not trace:
        kept = [index for index, sweep in enumerate(sweeps["plain"]) if sweep["ok"]]
        intervals = [
            {
                "setup_s": sweep["setup_s"],
                "sweep_s": sweep["sweep_s"],
                "program_p50_ms": percentile(sweep["job_ms"], 0.5),
                "program_p90_ms": percentile(sweep["job_ms"], 0.9),
                "requests_per_s": sweep["programs"] / sweep["sweep_s"],
                "request_p50_ms": percentile(sweep["arrival_ms"], 0.5),
                "request_p90_ms": percentile(sweep["arrival_ms"], 0.9),
                "peak_rss_mb": sweep["peak_rss_mb"],
            }
            for sweep in good["plain"]
        ]
        factors = [host_factor(calibrations, index) for index in kept]
        return attempted, failed, median_metrics(intervals, factors)

    traced = good["layers"]
    for sweep in traced:
        jobs_seen = sorted(job[0] for job in sweep["books"]["jobs"])
        if len(jobs_seen) != sweep["programs"] or len(set(jobs_seen)) != sweep["programs"]:
            print(
                f"perfbench: traced sweep accounted for {len(jobs_seen)} jobs "
                f"of {sweep['programs']}",
                file=sys.stderr,
            )
            failed += sweep["programs"]
    per_operation = {
        mode: mean([sweep["sweep_s"] for sweep in good[mode]]) for mode in modes
    }
    metrics = layer_metrics(
        [sweep["books"] for sweep in traced],
        [sweep["counters"] for sweep in traced],
        per_operation=per_operation,
    )
    return attempted, failed, metrics


# ------------------------------------------------------------- serve-warm --


class Daemon:
    """One ``repro serve`` process, started from the repository root."""

    def __init__(self, mode: str, directory: str, cache_file: str):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        # Relative to the root (every process runs there): a Unix socket
        # path must stay short, however deep the checkout is.
        self.socket = os.path.relpath(os.path.join(directory, "serve.sock"), ROOT)
        serve_args = [
            "--socket", self.socket,
            "--cache-file", os.path.relpath(cache_file, ROOT),
            "--journal", os.path.relpath(os.path.join(directory, "journal.ndjson"), ROOT),
        ]
        if mode == "layers":
            command = [
                sys.executable, os.path.join(HERE, "served.py"),
                "--marks", directory, "--", *serve_args,
            ]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
            if mode == "telemetry":
                command += ["--trace-out", os.path.join(directory, "trace.ndjson")]
        self.spawned = monotime()
        self.process = subprocess.Popen(command, cwd=ROOT, env=child_env(directory))
        self.marks = 0

    def wait_ready(self) -> None:
        deadline = monotime() + STEP_TIMEOUT
        while monotime() < deadline:
            if self.process.poll() is not None:
                raise BenchError(f"daemon exited {self.process.returncode} while starting")
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket)
                return
            except OSError:
                time.sleep(0.01)
            finally:
                probe.close()
        raise BenchError("daemon did not start listening")

    def connect(self) -> "Client":
        return Client(self.socket)

    def mark(self) -> None:
        """Take the next accounting mark (see ``served.py``)."""
        self.marks += 1
        path = os.path.join(self.directory, f"mark-{self.marks}.json")
        self.process.send_signal(signal.SIGUSR1)
        deadline = monotime() + STEP_TIMEOUT
        while not os.path.exists(path):
            if monotime() > deadline or self.process.poll() is not None:
                raise BenchError(f"daemon did not take mark {self.marks}")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self) -> None:
        code = stop_process(self.process)
        if code != 0:
            raise BenchError(f"daemon exited {code} on SIGTERM")


class Client:
    """A closed-loop client on one persistent connection."""

    def __init__(self, path: str):
        self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.conn.connect(path)
        self.reader = self.conn.makefile("r", encoding="utf-8")

    def request(self, request_id: str, benchmarks, seed: int) -> dict:
        """Send one request, read to its terminal record; per-benchmark digests."""
        line = json.dumps({"id": request_id, "benchmarks": list(benchmarks), "seed": seed})
        self.conn.sendall((line + "\n").encode("utf-8"))
        formulas: dict[str, list] = {}
        jobs_ok: dict[str, bool] = {}
        for raw in self.reader:
            record = json.loads(raw)
            kind = record["type"]
            if kind == "result":
                formulas.setdefault(record["benchmark"], []).extend(
                    invariant["formula"] for invariant in record["invariants"]
                )
            elif kind == "job":
                jobs_ok[record["benchmark"]] = record["ok"]
            elif kind == "rejected":
                return {"status": "rejected", "digests": {}, "ok": {}, "seconds": 0.0}
            elif kind == "done":
                return {
                    "status": record["status"],
                    "digests": {name: golden.digest(f) for name, f in formulas.items()},
                    "ok": jobs_ok,
                    "seconds": record["seconds"],
                }
        raise BenchError("daemon hung up mid-request")

    def close(self) -> None:
        self.reader.close()
        self.conn.close()


def wrong_benchmarks(reply: dict, benchmarks, reference: dict) -> list[str]:
    """Requested benchmarks that failed, went missing or differ from the reference."""
    if reply["status"] != "complete":
        return list(benchmarks)
    return [
        name
        for name in benchmarks
        if not reply["ok"].get(name) or reply["digests"].get(name) != reference[name]
    ]


def full_pass(daemon: Daemon, seed: int, reference: dict) -> list[str]:
    """One request over every benchmark (the cache-warming pass)."""
    names = [benchmark.name for benchmark in all_benchmarks()]
    client = daemon.connect()
    try:
        reply = client.request("warm", names, seed)
    finally:
        client.close()
    return wrong_benchmarks(reply, names, reference)


def request_draws(seed: int):
    """Benchmark names in seeded random order, every one once per cycle.

    Shuffled cycles rather than independent draws keep the request mix of a
    run close to the registry's, so runs on different seeds stay comparable.
    """
    names = [benchmark.name for benchmark in all_benchmarks()]
    shuffle = random.Random(seed).shuffle
    while True:
        shuffle(names)
        yield from names


class LoadGenerator:
    """``CLIENTS`` closed-loop clients sharing one draw sequence.

    The clients keep their connections and the draws continue across
    bursts, so the load can pause between bursts while the host is
    calibrated.
    """

    def __init__(self, daemon: Daemon, seed: int, input_seed: int, reference: dict):
        self.draws = request_draws(seed)
        self.draw_lock = threading.Lock()
        self.input_seed = input_seed
        self.reference = reference
        self.clients = []
        try:
            for _ in range(CLIENTS):
                self.clients.append(daemon.connect())
        except BaseException:
            self.close()
            raise
        self.sent = 0

    def burst(self, seconds: float):
        """Drive the daemon for ``seconds``; every client then finishes its request.

        Returns the samples ``(submitted, received, served_s, wrong, name)``
        and the burst's start and end (the last reply).
        """
        samples: list[list] = [[] for _ in self.clients]
        errors: list[BaseException] = []
        start = monotime()
        stop_at = start + seconds

        def drive(index: int) -> None:
            try:
                while monotime() < stop_at:
                    with self.draw_lock:
                        name = next(self.draws)
                        self.sent += 1
                        request_id = f"c{index}-{self.sent}"
                    submitted = monotime()
                    reply = self.clients[index].request(request_id, [name], self.input_seed)
                    received = monotime()
                    wrong = wrong_benchmarks(reply, [name], self.reference)
                    samples[index].append(
                        (submitted, received, reply["seconds"], bool(wrong), name)
                    )
            except BaseException as exc:  # noqa: BLE001 -- re-raised on the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(index,)) for index in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + STEP_TIMEOUT)
        if errors:
            raise BenchError(f"client failed: {errors[0]!r}")
        if any(thread.is_alive() for thread in threads):
            raise BenchError("a client did not finish")
        flat = [sample for per_client in samples for sample in per_client]
        if not flat:
            raise BenchError("no request completed")
        return flat, start, max(sample[1] for sample in flat)

    def close(self) -> None:
        for client in self.clients:
            client.close()


def burst_interval(samples, start: float, end: float, per_pass: int) -> dict:
    """End-to-end metrics of one burst of load."""
    latency = [(received - submitted) * 1000.0 for submitted, received, *_ in samples]
    service = [served * 1000.0 for _, _, served, *_ in samples]
    rate = len(samples) / (end - start)
    return {
        "sweep_s": per_pass / rate,
        "program_p50_ms": percentile(service, 0.5),
        "program_p90_ms": percentile(service, 0.9),
        "requests_per_s": rate,
        "request_p50_ms": percentile(latency, 0.5),
        "request_p90_ms": percentile(latency, 0.9),
    }


def serve_workload(seed: int, seconds: float, trace: bool, scratch: str):
    input_seed = golden.input_seed(seed)
    reference = golden.load("serve", input_seed)
    attempted = failed = 0

    def account_pass(wrong: list[str]) -> None:
        nonlocal attempted, failed
        attempted += len(reference)
        failed += len(wrong)
        if wrong:
            print(f"perfbench: warming pass wrong: {wrong}", file=sys.stderr)

    def account_load(samples) -> None:
        nonlocal attempted, failed
        attempted += len(samples)
        wrong = [sample[4] for sample in samples if sample[3]]
        failed += len(wrong)
        if wrong:
            print(f"perfbench: wrong or failed requests: {sorted(set(wrong))}", file=sys.stderr)

    cache_file = os.path.join(scratch, "cache.sqlite")
    if not trace:
        # Calibrations alternate with the set-ups, then with the bursts of
        # load; the last set-up's calibration opens the first burst.
        setups = []
        calibrations = [calibrate()]
        for number in range(SERVE_SETUPS):
            if os.path.exists(cache_file):
                os.unlink(cache_file)
            daemon = Daemon("plain", os.path.join(scratch, f"daemon-{number}"), cache_file)
            try:
                daemon.wait_ready()
                account_pass(full_pass(daemon, input_seed, reference))
                setups.append(monotime() - daemon.spawned)
                if number + 1 < SERVE_SETUPS:
                    daemon.stop()
                calibrations.append(calibrate())
            except BaseException:
                stop_process(daemon.process)
                raise
        setup_s = statistics.median(
            setup * host_factor(calibrations, index) for index, setup in enumerate(setups)
        )
        calibrations = calibrations[-1:]
        intervals = []
        try:
            load = LoadGenerator(daemon, seed, input_seed, reference)
            try:
                begun = monotime()
                while monotime() - begun < seconds:
                    samples, start, end = load.burst(SLICE_SECONDS)
                    calibrations.append(calibrate())
                    account_load(samples)
                    intervals.append(burst_interval(samples, start, end, len(reference)))
            finally:
                load.close()
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        for interval in intervals:
            interval["peak_rss_mb"] = rss
        factors = [host_factor(calibrations, index) for index in range(len(intervals))]
        return attempted, failed, {"setup_s": (setup_s, "s"), **median_metrics(intervals, factors)}

    # Traced run: three daemons sharing one cache file (the first pass
    # writes it, later passes only warm the daemon's memory), each measured
    # for a third of the time: untraced, with the layer wrappers, and with
    # the program's own Telemetry.
    per_operation = {}
    window = None
    for mode in ("plain", "layers", "telemetry"):
        daemon = Daemon(mode, os.path.join(scratch, f"daemon-{mode}"), cache_file)
        try:
            daemon.wait_ready()
            account_pass(full_pass(daemon, input_seed, reference))
            if mode == "layers":
                daemon.mark()
            load = LoadGenerator(daemon, seed, input_seed, reference)
            try:
                samples, start, end = load.burst(seconds / 3)
            finally:
                load.close()
            if mode == "layers":
                daemon.mark()
                with open(os.path.join(daemon.directory, "window.json"), encoding="utf-8") as fh:
                    window = json.load(fh)
        finally:
            daemon.stop()
        account_load(samples)
        per_operation[mode] = (end - start) / len(samples)
        if mode == "layers":
            traced_requests = len(samples)
    if "error" in window:
        raise BenchError(f"traced daemon books: {window['error']}")
    books = window["books"]
    if len(books["jobs"]) != traced_requests:
        # The marks bracket the load exactly, so every request is one job.
        print(
            f"perfbench: traced window holds {len(books['jobs'])} jobs "
            f"for {traced_requests} requests",
            file=sys.stderr,
        )
        failed += traced_requests
    metrics = layer_metrics([books], [window["counters"]], per_operation=per_operation)
    return attempted, failed, metrics


# --------------------------------------------------------------- per layer --


def layer_metrics(books_list, counters_list, per_operation: dict) -> dict:
    """Per-layer metrics: means over traced windows, plus the overhead shares."""
    metrics: dict = {}
    for layer in layers.LAYER_NAMES:
        metrics[f"{layer}.calls"] = (mean([b["layers"][layer][0] for b in books_list]), "count")
        metrics[f"{layer}.self_s"] = (mean([b["layers"][layer][1] for b in books_list]), "s")

    def counted(name: str) -> float:
        return mean([counters.get(name, 0) for counters in counters_list])

    def waits(q: float) -> float:
        return percentile([w * 1000.0 for b in books_list for w in b["waits"]], q)

    window = mean([b["window_s"] for b in books_list])
    timelines = mean([b["timelines"] for b in books_list])
    unattributed = mean([b["unattributed_s"] for b in books_list])
    busy = mean([sum(job[2] for job in b["jobs"]) for b in books_list])
    metrics.update(
        {
            "lang.tracer.models": (
                mean([b["counts"].get("lang.tracer.models", 0) for b in books_list]),
                "count",
            ),
            "core.infer_atom.candidates_generated": (counted("candidates_generated"), "count"),
            "sl.screen.prefilter_rate": (
                share(counted("candidates_prefiltered"), counted("candidates_generated")),
                "ratio",
            ),
            "sl.checker.skeletons_solved": (counted("skeletons_solved"), "count"),
            "sl.checker.stream_reuse_rate": (
                share(
                    counted("env_stream_reuses"),
                    counted("env_stream_reuses") + counted("skeletons_solved"),
                ),
                "ratio",
            ),
            "sl.kernels.pure_variant_evals": (counted("pure_variant_evals"), "count"),
            "sl.model.models_deduped": (counted("models_deduped"), "count"),
            "cache.tier.disk_hit_rate": (
                share(counted("disk_hits"), counted("disk_hits") + counted("disk_misses")),
                "ratio",
            ),
            "cache.tier.disk_load_errors": (counted("disk_load_errors"), "count"),
            # Both workloads run their jobs inline: one worker, the caller.
            "core.engine.worker_busy_share": (share(busy, window), "ratio"),
            "core.engine.jobs_retried": (counted("jobs_retried"), "count"),
            "core.engine.workers_respawned": (counted("workers_respawned"), "count"),
            "serve.queue.wait_p50_ms": (waits(0.5), "ms"),
            "serve.queue.wait_p90_ms": (waits(0.9), "ms"),
            "serve.queue.rejections": (
                mean([b["counts"].get("serve.queue.rejections", 0) for b in books_list]),
                "count",
            ),
            "unattributed_s": (unattributed, "s"),
            "unattributed_share": (share(unattributed, timelines * window), "ratio"),
            "bench.traced_wall_s": (window, "s"),
            "bench.timelines": (timelines, "count"),
            "bench.trace_overhead_share": (
                share(per_operation["layers"], per_operation["plain"]) - 1.0,
                "ratio",
            ),
            "telemetry.overhead_share": (
                share(per_operation["telemetry"], per_operation["plain"]) - 1.0,
                "ratio",
            ),
        }
    )
    return metrics


# -------------------------------------------------------------------- main --


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()
    os.chdir(ROOT)

    scratch = os.path.join(ROOT, ".perfbench-run", str(os.getpid()))
    os.makedirs(scratch)
    try:
        if arguments.workload == "serve-warm":
            attempted, failed, metrics = serve_workload(
                arguments.seed, arguments.seconds, bool(arguments.trace), scratch
            )
        else:
            attempted, failed, metrics = table1_workload(
                golden.input_seed(arguments.seed),
                arguments.seconds,
                bool(arguments.trace),
                scratch,
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}", file=sys.stderr)
    print(f"{'attempted':40s} {attempted:14d}\n{'failed':40s} {failed:14d}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
