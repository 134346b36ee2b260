"""Table 1: per-category invariant-inference results.

For every benchmark program the harness collects traces at its locations of
interest (function entry, loop heads, return statements), runs SLING and
aggregates per category:

* the number of programs and their size,
* the number of target locations (``iLocs``), collected traces and inferred
  invariants (with the spurious count in parentheses),
* the A/S/X classification (all locations covered / some locations covered or
  spurious results / no traces at some locations),
* total analysis time, and
* the average number of singleton predicates, inductive predicates and pure
  equalities per invariant.

Per-benchmark work is dispatched through the batch-inference engine
(:mod:`repro.core.engine`), so full-suite sweeps parallelize with
``jobs=N`` while producing the same rows as a sequential run.

Run it from the command line with ``python -m repro.evaluation.table1``
(or ``python -m repro table1``).
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

from repro.benchsuite.registry import BenchmarkProgram
from repro.core.engine import CacheStats, run_category_batch
from repro.core.results import Specification
from repro.core.sling import Sling, SlingConfig
from repro.lang.tracer import count_models
from repro.telemetry import monotime

@dataclass
class ProgramResult:
    """Per-program measurements feeding one Table 1 row.

    ``cache`` holds the run's counters.  Under the engine it is the very
    :class:`CacheStats` of the job's :class:`~repro.core.engine.EngineReport`,
    so the healing counters the engine stamps on the report after the fact
    (a worker cannot know it died) are this row's counters too.
    """

    name: str
    loc: int
    locations: int
    traces: int
    invariants: int
    spurious: int
    classification: str  # "A", "S" or "X"
    seconds: float
    singleton_atoms: int
    inductive_atoms: int
    pure_atoms: int
    specification: Specification | None = None
    cache: CacheStats = field(default_factory=CacheStats)

    def as_dict(self, include_invariants: bool = False) -> dict:
        """JSON-serializable view (used by ``python -m repro table1 --json``)."""
        data = {
            "name": self.name,
            "loc": self.loc,
            "locations": self.locations,
            "traces": self.traces,
            "invariants": self.invariants,
            "spurious": self.spurious,
            "classification": self.classification,
            "seconds": round(self.seconds, 4),
            "singleton_atoms": self.singleton_atoms,
            "inductive_atoms": self.inductive_atoms,
            "pure_atoms": self.pure_atoms,
        }
        counters = asdict(self.cache)
        # Historical flat names: the ``--json`` schema predates the struct.
        data["checker_cache_misses"] = counters.pop("checker_misses")
        data["unfold_cache_hits"] = counters.pop("unfold_hits")
        data["unfold_cache_misses"] = counters.pop("unfold_misses")
        data.update(counters)
        if include_invariants and self.specification is not None:
            data["inferred"] = [
                {"location": inv.location, "formula": inv.pretty(), "spurious": inv.spurious}
                for inv in self.specification.all_invariants()
            ]
        return data


@dataclass
class CategoryRow:
    """One aggregated row of Table 1."""

    category: str
    programs: list[ProgramResult] = field(default_factory=list)

    @property
    def program_count(self) -> int:
        return len(self.programs)

    @property
    def loc(self) -> int:
        return sum(result.loc for result in self.programs)

    @property
    def locations(self) -> int:
        return sum(result.locations for result in self.programs)

    @property
    def traces(self) -> int:
        return sum(result.traces for result in self.programs)

    @property
    def invariants(self) -> int:
        return sum(result.invariants for result in self.programs)

    @property
    def spurious(self) -> int:
        return sum(result.spurious for result in self.programs)

    @property
    def seconds(self) -> float:
        return sum(result.seconds for result in self.programs)

    @property
    def candidates_checked(self) -> int:
        return sum(result.cache.candidates_checked for result in self.programs)

    @property
    def candidates_prefiltered(self) -> int:
        return sum(result.cache.candidates_prefiltered for result in self.programs)

    @property
    def candidate_groups(self) -> int:
        return sum(result.cache.candidate_groups for result in self.programs)

    @property
    def a_s_x(self) -> tuple[int, int, int]:
        counts = {"A": 0, "S": 0, "X": 0}
        for result in self.programs:
            counts[result.classification] += 1
        return counts["A"], counts["S"], counts["X"]

    def _per_invariant(self, attribute: str) -> float:
        total_invariants = self.invariants
        if total_invariants == 0:
            return 0.0
        return sum(getattr(result, attribute) for result in self.programs) / total_invariants

    @property
    def avg_singletons(self) -> float:
        return self._per_invariant("singleton_atoms")

    @property
    def avg_inductives(self) -> float:
        return self._per_invariant("inductive_atoms")

    @property
    def avg_pures(self) -> float:
        return self._per_invariant("pure_atoms")


@dataclass
class Table1Result:
    """All rows plus overall totals."""

    rows: list[CategoryRow]

    def totals(self) -> dict[str, float]:
        return {
            "programs": sum(row.program_count for row in self.rows),
            "loc": sum(row.loc for row in self.rows),
            "locations": sum(row.locations for row in self.rows),
            "traces": sum(row.traces for row in self.rows),
            "invariants": sum(row.invariants for row in self.rows),
            "spurious": sum(row.spurious for row in self.rows),
            "seconds": sum(row.seconds for row in self.rows),
        }

    def fingerprints(self) -> list[tuple]:
        """Order-stable identity of the inferred invariants (timings excluded).

        Two runs that must agree -- ``jobs=N`` against ``jobs=1``, a
        persistent-cache run against a cache-less one -- compare these.
        """
        fingerprints = []
        for row in self.rows:
            for program in row.programs:
                invariants: tuple[str, ...] = ()
                if program.specification is not None:
                    invariants = tuple(
                        invariant.pretty()
                        for invariant in program.specification.all_invariants()
                    )
                fingerprints.append(
                    (row.category, program.name, program.classification, invariants)
                )
        return fingerprints

    def cache_totals(self) -> CacheStats:
        """Aggregated memoization counters across every evaluated program."""
        totals = CacheStats()
        for row in self.rows:
            for program in row.programs:
                totals.merge(program.cache)
        return totals

    def as_dict(self, include_invariants: bool = False) -> dict:
        """JSON-serializable view of the whole table."""
        return {
            "rows": [
                {
                    "category": row.category,
                    "programs": [
                        program.as_dict(include_invariants) for program in row.programs
                    ],
                }
                for row in self.rows
            ],
            "totals": self.totals(),
            "cache": self.cache_totals().as_dict(),
        }


def evaluate_program(
    benchmark: BenchmarkProgram, config: SlingConfig | None = None, seed: int = 0
) -> ProgramResult:
    """Run SLING on one benchmark and compute its Table 1 measurements."""
    config = config or SlingConfig(discard_crashed_runs=True)
    sling = Sling(benchmark.program, benchmark.predicates, config)
    test_cases = benchmark.test_cases(seed=seed)
    function = benchmark.program.get_function(benchmark.function)

    start = monotime()
    # NOTE: the Traces column comes from a suite run of its own, before the
    # one inside ``infer_function``.  The test-case closures share one
    # seeded RNG, so the two runs see different random heaps; inference has
    # always run on the second draw.  The first run only counts its
    # breakpoint hits, but it still builds every input, so the second draw
    # is unchanged.
    traces = count_models(
        benchmark.program,
        benchmark.function,
        test_cases,
        discard_crashed_runs=config.discard_crashed_runs,
    )
    specification = sling.infer_function(benchmark.function, test_cases)
    seconds = monotime() - start

    invariants = specification.all_invariants()
    spurious = specification.spurious_count()
    # Count only entry / loops / returns as target locations (labels are
    # illustration aids), matching how the specification driver works.
    target_locations = 1 + len(function.loop_locations()) + len(function.return_locations())

    if not invariants and traces == 0:
        classification = "X"
    elif specification.unreached_locations or spurious or not specification.validated:
        classification = "S"
    else:
        classification = "A"

    return ProgramResult(
        name=benchmark.name,
        loc=benchmark.loc(),
        locations=target_locations,
        traces=traces,
        invariants=len(invariants),
        spurious=spurious,
        classification=classification,
        seconds=seconds,
        singleton_atoms=sum(invariant.singleton_count() for invariant in invariants),
        inductive_atoms=sum(invariant.predicate_count() for invariant in invariants),
        pure_atoms=sum(invariant.pure_count() for invariant in invariants),
        specification=specification,
        cache=sling.cache_counters(),
    )


def run_table1(
    categories: Sequence[str] | None = None,
    config: SlingConfig | None = None,
    seed: int = 0,
    max_programs_per_category: int | None = None,
    jobs: int = 1,
    job_timeout: float | None = None,
) -> Table1Result:
    """Evaluate the benchmark suite and build Table 1.

    ``jobs`` sets the engine's worker-pool size (1 = inline, the reference
    behaviour); the rows are identical either way.  A benchmark that fails
    or exceeds ``job_timeout`` raises :class:`~repro.core.engine.EngineError`
    naming the benchmark.
    """
    rows: list[CategoryRow] = []
    by_category: dict[str, CategoryRow] = {}
    for category, _, payload in run_category_batch(
        "table1",
        categories=categories,
        max_programs_per_category=max_programs_per_category,
        seed=seed,
        config=config,
        jobs=jobs,
        job_timeout=job_timeout,
    ):
        row = by_category.get(category)
        if row is None:
            row = CategoryRow(category=category)
            by_category[category] = row
            rows.append(row)
        row.programs.append(payload)
    return Table1Result(rows=rows)


#: The ``repro cache verify`` sweep: two programs per category with input
#: seed 0, on four pool workers so concurrent readers of one cache file are
#: covered.
VERIFY_PROGRAMS_PER_CATEGORY = 2
VERIFY_SEED = 0
VERIFY_JOBS = 4
#: Share of warm skeleton solves the cache file must serve from disk.
MIN_WARM_HIT_RATE = 0.9


def verify_cache_file(cache_file: str) -> dict:
    """Check that a persistent cache file reproduces the cache-less run.

    Runs the verify sweep with the persistent cache off (the reference),
    then a cold sweep writing ``cache_file`` -- skipped when the file
    already exists, e.g. restored from an earlier run (``"resumed"``) --
    and a warm sweep reading it.  The report's ``passed`` is true when every
    cached sweep reproduces the reference invariants bit-identically and
    the warm sweep's disk hit rate is at least :data:`MIN_WARM_HIT_RATE`.
    """

    def sweep(config: SlingConfig | None) -> Table1Result:
        return run_table1(
            config=config,
            seed=VERIFY_SEED,
            max_programs_per_category=VERIFY_PROGRAMS_PER_CATEGORY,
            jobs=VERIFY_JOBS,
        )

    from repro.cache import close_tiers

    resumed = os.path.exists(cache_file)
    cached_config = SlingConfig(discard_crashed_runs=True, persistent_cache=cache_file)
    expected = sweep(None).fingerprints()
    identical = True
    try:
        if not resumed:  # the cold sweep writes the file
            identical = sweep(cached_config).fingerprints() == expected
        # Read-only: a warm job must not hit rows an earlier warm job wrote.
        warm = sweep(replace(cached_config, persistent_cache_read_only=True))
    finally:
        close_tiers(cache_file)
    identical = identical and warm.fingerprints() == expected
    cache = warm.cache_totals()
    hit_rate = round(cache.disk_hit_rate, 4)
    return {
        "cache_file": os.path.abspath(cache_file),
        "resumed": resumed,
        "benchmarks": len(expected),
        "identical": identical,
        "warm": {
            "disk_hits": cache.disk_hits,
            "disk_misses": cache.disk_misses,
            "disk_load_errors": cache.disk_load_errors,
            "cache_file_bytes": cache.cache_file_bytes,
            "hit_rate": hit_rate,
        },
        "passed": identical and hit_rate >= MIN_WARM_HIT_RATE,
    }


def format_table1(result: Table1Result) -> str:
    """Render Table 1 in the paper's column layout.

    The ``Cand`` column is the number of Algorithm 2 candidates that reached
    the model checker (the pre-filter's survivors); ``Grp`` is the number of
    spatial-skeleton groups they collapsed into (``check_batch`` runs one
    shared search per group and model) -- the engine's search-space metrics.
    """
    header = (
        f"{'Category':34s} {'Progs':>5s} {'LoC':>5s} {'iLocs':>5s} {'Traces':>7s} "
        f"{'Invs':>10s} {'A/S/X':>8s} {'Time(s)':>8s} {'Single':>7s} {'Pred':>6s} {'Pure':>6s} "
        f"{'Cand':>6s} {'Grp':>6s}"
    )
    lines = [header, "-" * len(header)]
    for row in result.rows:
        a, s, x = row.a_s_x
        invariants = f"{row.invariants}({row.spurious})" if row.spurious else f"{row.invariants}"
        lines.append(
            f"{row.category:34s} {row.program_count:5d} {row.loc:5d} {row.locations:5d} "
            f"{row.traces:7d} {invariants:>10s} {f'{a}/{s}/{x}':>8s} {row.seconds:8.2f} "
            f"{row.avg_singletons:7.2f} {row.avg_inductives:6.2f} {row.avg_pures:6.2f} "
            f"{row.candidates_checked:6d} {row.candidate_groups:6d}"
        )
    totals = result.totals()
    cache = result.cache_totals()
    total_invariants = f"{int(totals['invariants'])}({int(totals['spurious'])})"
    lines.append("-" * len(header))
    lines.append(
        f"{'Total':34s} {totals['programs']:5.0f} {totals['loc']:5.0f} {totals['locations']:5.0f} "
        f"{totals['traces']:7.0f} {total_invariants:>10s} {'':>8s} {totals['seconds']:8.2f} "
        f"{'':7s} {'':6s} {'':6s} {cache.candidates_checked:6d} {cache.candidate_groups:6d}"
    )
    return "\n".join(lines)


def add_table1_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the Table 1 flags (shared with ``python -m repro table1``)."""
    parser.add_argument("--category", action="append", help="restrict to a category (repeatable)")
    parser.add_argument("--seed", type=int, default=0, help="random seed for test inputs")
    parser.add_argument(
        "--max-programs",
        "--limit",
        dest="max_programs",
        type=int,
        default=None,
        help="cap programs per category (smoke runs)",
    )
    parser.add_argument("--jobs", type=int, default=1, help="engine worker processes")
    parser.add_argument(
        "--timeout", type=float, default=None, help="per-benchmark timeout in seconds"
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of the table")
    parser.add_argument(
        "--invariants", action="store_true", help="include inferred formulas in --json output"
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write an NDJSON span trace of the run (see docs/observability.md)",
    )


def table1_command(arguments: argparse.Namespace) -> None:
    """Run Table 1 from parsed CLI arguments and print it."""
    config = None
    telemetry = None
    if getattr(arguments, "trace_out", None):
        from repro.telemetry import Telemetry

        telemetry = Telemetry(arguments.trace_out)
        config = SlingConfig(discard_crashed_runs=True, telemetry=telemetry)
    result = run_table1(
        categories=arguments.category,
        config=config,
        seed=arguments.seed,
        max_programs_per_category=arguments.max_programs,
        jobs=arguments.jobs,
        job_timeout=arguments.timeout,
    )
    if telemetry is not None:
        telemetry.close()
    if arguments.json:
        print(json.dumps(result.as_dict(include_invariants=arguments.invariants), indent=2))
    else:
        print(format_table1(result))


def main() -> None:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description="Regenerate Table 1 of the SLING paper.")
    add_table1_arguments(parser)
    table1_command(parser.parse_args())


if __name__ == "__main__":
    main()
