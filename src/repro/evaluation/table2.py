"""Table 2: SLING vs the S2-like static baseline on documented properties.

For every benchmark program, the documented properties (specifications and
loop invariants) are checked against

* SLING's inferred specification (dynamic analysis over the test inputs), and
* the simplified S2 baseline (:mod:`repro.baselines.s2`),

and each property is placed in one of the four buckets of the paper's
Table 2: found by Both, only by S2, only by SLING, or by Neither.

Per-benchmark comparisons are dispatched through the batch-inference engine
(:mod:`repro.core.engine`), so the sweep parallelizes with ``jobs=N``.

Run it from the command line with ``python -m repro.evaluation.table2``
(or ``python -m repro table2``).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.benchsuite.registry import BenchmarkProgram
from repro.core.engine import CacheStats, collect_cache_stats, run_category_batch
from repro.core.sling import Sling, SlingConfig


@dataclass(frozen=True)
class PropertyOutcome:
    """One documented property and which analyses recovered it."""

    kind: str  # "spec" or "loop"
    description: str
    sling_found: bool
    s2_found: bool


@dataclass
class BenchmarkComparison:
    """Per-benchmark payload of a ``"table2"`` engine job."""

    name: str
    category: str
    outcomes: list[PropertyOutcome] = field(default_factory=list)
    #: Counters of the SLING run behind this comparison: the engine report
    #: carries this same struct, and its ``candidates_checked`` and
    #: ``candidate_groups`` feed the ``Cand``/``Grp`` columns.
    cache: CacheStats = field(default_factory=CacheStats)


@dataclass
class Table2Row:
    """One aggregated row of Table 2 (a benchmark category)."""

    category: str
    total: int = 0
    both: int = 0
    s2_only: int = 0
    sling_only: int = 0
    neither: int = 0
    #: Merged counters of the SLING runs of this row.
    cache: CacheStats = field(default_factory=CacheStats)

    @property
    def candidates_checked(self) -> int:
        """Algorithm 2 candidates the row's SLING runs actually checked."""
        return self.cache.candidates_checked

    @property
    def candidate_groups(self) -> int:
        """Skeleton groups ``check_batch`` decided those candidates through."""
        return self.cache.candidate_groups

    def add(self, sling_found: bool, s2_found: bool) -> None:
        self.total += 1
        if sling_found and s2_found:
            self.both += 1
        elif s2_found:
            self.s2_only += 1
        elif sling_found:
            self.sling_only += 1
        else:
            self.neither += 1

    def as_dict(self) -> dict[str, object]:
        # Schema note: new keys are only ever appended; existing consumers
        # of the Table 2 JSON keep working.
        return {
            "category": self.category,
            "total": self.total,
            "both": self.both,
            "s2_only": self.s2_only,
            "sling_only": self.sling_only,
            "neither": self.neither,
            "candidates_checked": self.candidates_checked,
            "candidate_groups": self.candidate_groups,
        }


@dataclass
class Table2Result:
    """All category rows plus the summary row."""

    rows: list[Table2Row] = field(default_factory=list)

    def summary(self) -> Table2Row:
        total = Table2Row(category="Total Sum")
        for row in self.rows:
            total.total += row.total
            total.both += row.both
            total.s2_only += row.s2_only
            total.sling_only += row.sling_only
            total.neither += row.neither
            total.cache.merge(row.cache)
        return total

    def as_dict(self) -> dict[str, object]:
        return {
            "rows": [row.as_dict() for row in self.rows],
            "summary": self.summary().as_dict(),
        }


def compare_benchmark(
    benchmark: BenchmarkProgram,
    config: SlingConfig | None = None,
    seed: int = 0,
) -> BenchmarkComparison:
    """Evaluate one benchmark's documented properties with SLING and S2."""
    from repro.baselines.s2 import S2Analyzer

    config = config or SlingConfig(discard_crashed_runs=True)
    comparison = BenchmarkComparison(name=benchmark.name, category=benchmark.category)
    if not benchmark.documented:
        return comparison

    unfold_before = benchmark.predicates.unfold_stats()
    sling = Sling(benchmark.program, benchmark.predicates, config)
    specification = sling.infer_function(benchmark.function, benchmark.test_cases(seed))
    s2_result = S2Analyzer().analyze(benchmark)
    s2_found = set(id(prop) for prop in s2_result.found_properties)
    for documented in benchmark.documented:
        comparison.outcomes.append(
            PropertyOutcome(
                kind=documented.kind,
                description=documented.description,
                sling_found=documented.check(specification),
                s2_found=id(documented) in s2_found,
            )
        )
    comparison.cache = collect_cache_stats(sling, unfold_before)
    return comparison


def run_table2(
    categories: Sequence[str] | None = None,
    config: SlingConfig | None = None,
    seed: int = 0,
    max_programs_per_category: int | None = None,
    jobs: int = 1,
    job_timeout: float | None = None,
) -> Table2Result:
    """Compare SLING and the S2 baseline over the documented properties."""
    result = Table2Result()
    by_category: dict[str, Table2Row] = {}
    for category, _, payload in run_category_batch(
        "table2",
        categories=categories,
        max_programs_per_category=max_programs_per_category,
        keep=lambda benchmark: bool(benchmark.documented),
        seed=seed,
        config=config,
        jobs=jobs,
        job_timeout=job_timeout,
    ):
        row = by_category.get(category)
        if row is None:
            row = Table2Row(category=category)
            by_category[category] = row
            result.rows.append(row)
        for outcome in payload.outcomes:
            row.add(outcome.sling_found, outcome.s2_found)
        row.cache.merge(payload.cache)
    return result


def format_table2(result: Table2Result) -> str:
    """Render Table 2 in the paper's column layout.

    ``Cand`` is the number of Algorithm 2 candidates that reached the model
    checker during the row's SLING runs and ``Grp`` the number of spatial
    skeleton groups they were decided through (see ``docs/performance.md``).
    """
    header = (
        f"{'Programs':34s} {'Total':>6s} {'Both':>6s} {'S2':>6s} {'SLING':>6s} "
        f"{'Neither':>8s} {'Cand':>6s} {'Grp':>6s}"
    )
    lines = [header, "-" * len(header)]
    for row in result.rows:
        lines.append(
            f"{row.category:34s} {row.total:6d} {row.both:6d} {row.s2_only:6d} "
            f"{row.sling_only:6d} {row.neither:8d} {row.candidates_checked:6d} "
            f"{row.candidate_groups:6d}"
        )
    summary = result.summary()
    lines.append("-" * len(header))
    lines.append(
        f"{summary.category:34s} {summary.total:6d} {summary.both:6d} {summary.s2_only:6d} "
        f"{summary.sling_only:6d} {summary.neither:8d} {summary.candidates_checked:6d} "
        f"{summary.candidate_groups:6d}"
    )
    return "\n".join(lines)


def add_table2_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the Table 2 flags (shared with ``python -m repro table2``)."""
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


def table2_command(arguments: argparse.Namespace) -> None:
    """Run Table 2 from parsed CLI arguments and print it."""
    result = run_table2(
        categories=arguments.category,
        seed=arguments.seed,
        max_programs_per_category=arguments.max_programs,
        jobs=arguments.jobs,
        job_timeout=arguments.timeout,
    )
    if arguments.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(format_table2(result))


def main() -> None:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description="Regenerate Table 2 of the SLING paper.")
    add_table2_arguments(parser)
    table2_command(parser.parse_args())


if __name__ == "__main__":
    main()
