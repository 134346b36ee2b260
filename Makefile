# Development targets. Everything runs offline with the in-tree sources.

PYTHON ?= python
PYTHONPATH := src

.PHONY: check test smoke trace-smoke lint-timing perfbench-selftest bench-micro bench-warm docs table1 table2

# Tier-1 gate: the full test suite (which includes the deterministic
# search-space guard, the fault-injection scenarios and the serve daemon
# drills: overflow, deadline, disconnect, SIGTERM drain, restart-resume),
# a CLI smoke test (including a cold and a resumed
# `repro cache verify`, and every example script), the micro/ablation benchmark harnesses (run once
# each, as correctness smoke) and the repo benchmark's self-test, whose
# full jobs=2 sweep is checked against the committed oracle references --
# one command.
check: lint-timing test smoke trace-smoke bench-micro perfbench-selftest

# The pytest-benchmark harnesses (checker scaling, variable-order ablation,
# cold-start registry builds, a daemon's warm request, trace collection
# over the benchsuite) exercised as plain tests: their assertions catch API
# or counter drift that the unit suite does not touch, long before anyone
# reads their timings.
bench-micro:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_checker.py \
		benchmarks/bench_ablation.py benchmarks/bench_startup.py \
		benchmarks/bench_warm_request.py benchmarks/bench_trace.py \
		-q -p no:cacheprovider
	@echo "micro/ablation bench smoke OK"

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# `infer --connect` at a socket nothing listens on takes the in-process
# fallback, which serves the request through the daemon's own runner: its
# last record must be a `done` record with status `complete`.
# The cache verify pair runs on one fresh file: the first run writes it
# (cold), the second reads it back as a restored cache would be (resumed).
# The file must then hold stream rows only: the one row kind written.
# The examples build SlingConfig and call the public API the way a user
# would, so each of them must still run to completion.
smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro table1 --category SLL --limit 2 --json > /dev/null
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro docs --stdout > /dev/null
	rm -f /tmp/smoke_absent.sock
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro infer --connect /tmp/smoke_absent.sock \
		--benchmark sll/insertFront \
		| $(PYTHON) -c "import json, sys; last = json.loads(sys.stdin.readlines()[-1]); \
		assert (last['type'], last['status']) == ('done', 'complete'), last"
	rm -f /tmp/smoke_cache.sqlite*
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro cache verify --file /tmp/smoke_cache.sqlite > /dev/null
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro cache verify --file /tmp/smoke_cache.sqlite > /dev/null
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro cache stats --file /tmp/smoke_cache.sqlite \
		| $(PYTHON) -c "import json, sys; kinds = set(json.load(sys.stdin)['kinds']); \
		assert kinds == {'stream'}, f'cache file row kinds {sorted(kinds)}, want stream only'"
	for example in examples/*.py; do \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) $$example > /dev/null || exit 1; \
	done
	@echo "CLI and examples smoke test OK"

# Produce a real trace end to end and prove every consumer of it works:
# a traced table1 run writes the NDJSON stream (parsed and schema-checked
# by `trace summary`), the Chrome export must be loadable JSON, and `trace
# diff` must accept the file against itself.  CI uploads the artifacts.
trace-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro table1 --category SLL --limit 2 --json \
		--trace-out /tmp/trace_smoke.ndjson > /dev/null
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro trace summary /tmp/trace_smoke.ndjson
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro trace export --format chrome \
		--out /tmp/trace_smoke.chrome.json /tmp/trace_smoke.ndjson
	$(PYTHON) -c "import json; d = json.load(open('/tmp/trace_smoke.chrome.json')); \
		assert d['traceEvents'], 'empty chrome export'"
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro trace diff \
		/tmp/trace_smoke.ndjson /tmp/trace_smoke.ndjson > /dev/null
	@echo "trace smoke OK (trace: /tmp/trace_smoke.ndjson)"

# There is exactly one sanctioned clock: repro.telemetry.monotime.  Bare
# time.perf_counter() calls outside the telemetry package bypass the tracer
# and creep back into ad-hoc timing -- fail the gate if any appear.
lint-timing:
	@if grep -rn "perf_counter" --include='*.py' src/repro benchmarks \
		| grep -v "^src/repro/telemetry/"; then \
		echo "error: bare perf_counter outside src/repro/telemetry/;" \
			"import monotime from repro.telemetry instead"; \
		exit 1; \
	fi
	@echo "timing lint OK"

# The repo benchmark's self-test (see BENCHMARK.json and perfbench/): the
# per-layer books balance, worker segments keep every job, and a traced
# jobs=2 sweep of all 150 programs matches the committed oracle references
# -- which covers both fast path == reference search and jobs=N == jobs=1.
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py
	@echo "perfbench self-test OK"

# Warm-start gate: `repro cache verify` writes the persistent cache file if
# it is missing, re-reads it, and fails unless the warm disk hit rate is
# >= 0.9 and every cached sweep reproduces the cache-less one
# bit-identically.  Point WARM_CACHE at a kept path (as the CI warm-start
# job does, via actions/cache keyed on the predicate-registry fingerprint)
# to check a cache written by an earlier run.
WARM_CACHE ?= /tmp/bench_warm.sqlite
bench-warm:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro cache verify --file $(WARM_CACHE)
	@echo "warm-start check OK"

docs:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro docs

table1:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro table1 --jobs 4

table2:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro table2 --jobs 4
