"""The reference search reproduces the committed golden invariants.

``perfbench/golden/`` holds per-program digests of the invariants the exact
oracle search infers; the benchmark checks every run against them.  This
test takes the first program of every Table 1 category and infers its
specification twice -- with ``SlingConfig(reference_search=True)`` and with
the default fast path -- and asserts both digests equal the committed
``serve-0`` reference: the reference search *is* the oracle that produced
the references, and the fast path agrees with it.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.benchsuite.registry import benchmarks_by_category
from repro.core.sling import Sling, SlingConfig

_GOLDEN_PY = Path(__file__).resolve().parents[2] / "perfbench" / "golden.py"


def _golden_module():
    spec = importlib.util.spec_from_file_location("perfbench_golden", _GOLDEN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_GOLDEN = _golden_module()
_REFERENCE = _GOLDEN.load("serve", 0)
_FIRST_PROGRAMS = [programs[0] for programs in benchmarks_by_category().values()]


@pytest.mark.parametrize(
    "reference_search", [True, False], ids=["reference", "fast-path"]
)
def test_first_program_of_each_category_matches_golden(reference_search):
    config = SlingConfig(discard_crashed_runs=True, reference_search=reference_search)
    observed = {}
    for benchmark in _FIRST_PROGRAMS:
        sling = Sling(benchmark.program, benchmark.predicates, config)
        specification = sling.infer_function(benchmark.function, benchmark.test_cases(0))
        observed[benchmark.name] = _GOLDEN.fingerprint(specification)
    assert len(observed) == 22
    assert _GOLDEN.mismatches(_REFERENCE, observed) == []
