"""Golden invariant references for the benchmark's correctness check.

A reference maps every benchmark program to a digest of its inferred
invariants: the ``pretty()`` strings of ``Specification.all_invariants()``,
in order.  References are generated once from the exact oracle search (every
acceleration of :class:`~repro.core.sling.SlingConfig` switched off) and
committed under ``golden/``, one file per kind and shipped input seed:

* ``table1-<seed>.json``: ``evaluate_program``, which infers on the *second*
  draw of the benchmark's shared test-case RNG (see the NOTE there);
* ``serve-<seed>.json``: ``spec`` jobs, which infer on the first draw.

The two kinds differ, so each is checked against its own reference.
Regenerate after a change that is meant to alter inferred invariants::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

#: Input seeds with committed references; a workload seed ``n`` runs on
#: input seed ``SHIPPED_SEEDS[n % len(SHIPPED_SEEDS)]``.
SHIPPED_SEEDS = tuple(range(10))


def input_seed(workload_seed: int) -> int:
    return SHIPPED_SEEDS[workload_seed % len(SHIPPED_SEEDS)]


def digest(formulas) -> str:
    """Digest of one program's invariant strings, in order."""
    return hashlib.sha256("\n".join(formulas).encode("utf-8")).hexdigest()[:20]


def fingerprint(specification) -> str:
    return digest(invariant.pretty() for invariant in specification.all_invariants())


def load(kind: str, seed: int) -> dict[str, str]:
    """``{benchmark name: digest}`` of one committed reference."""
    with open(os.path.join(GOLDEN_DIR, f"{kind}-{seed}.json"), encoding="utf-8") as handle:
        return json.load(handle)["programs"]


def mismatches(reference: dict[str, str], observed: dict[str, str]) -> list[str]:
    """Observed programs whose invariants differ from the reference."""
    return sorted(name for name, value in observed.items() if reference.get(name) != value)


def oracle_config():
    """Every acceleration off: the exact, uncached Definition 2 search."""
    from repro.core.sling import SlingConfig

    return SlingConfig(
        discard_crashed_runs=True,
        screen_candidates=False,
        checker_fail_fast=False,
        checker_prune_cases=False,
        batch_by_skeleton=False,
        checker_cache_size=0,
        dedupe_isomorphic_models=False,
        canonical_stream_keys=False,
        columnar_kernels=False,
    )


def _write(kind: str, seed: int, programs: dict[str, str]) -> None:
    document = {
        "kind": kind,
        "seed": seed,
        "source": "oracle search, every SlingConfig acceleration off",
        "programs": programs,
    }
    path = os.path.join(GOLDEN_DIR, f"{kind}-{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.benchsuite.registry import all_benchmarks
    from repro.core.sling import Sling
    from repro.evaluation.table1 import run_table1

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    config = oracle_config()
    for seed in SHIPPED_SEEDS:
        table = run_table1(config=config, seed=seed)
        _write(
            "table1",
            seed,
            {
                program.name: fingerprint(program.specification)
                for row in table.rows
                for program in row.programs
            },
        )
        served = {}
        for benchmark in all_benchmarks():
            sling = Sling(benchmark.program, benchmark.predicates, config)
            specification = sling.infer_function(benchmark.function, benchmark.test_cases(seed))
            served[benchmark.name] = fingerprint(specification)
        _write("serve", seed, served)
        print(f"seed {seed}: references written", file=sys.stderr)


if __name__ == "__main__":
    main()
