"""The fixed start-up work of a process: the predicate library and imports.

Every ``repro`` process loads the whole benchsuite before inference can
start.  These tests pin what that costs in work, not time: the standard
predicate library is parsed once per process however many registries are
built, the registries built from the one parse are the ones a fresh parse
gives, and a default sweep process imports neither ``sqlite3`` (the cache
file's store) nor ``multiprocessing`` (the engine's fork pool).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.benchsuite.registry import all_benchmarks
from repro.cache import registry_fingerprint
from repro.sl.parser import parse_predicates
from repro.sl.stdpreds import _DEFINITIONS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")


def _run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    output = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(output.strip().splitlines()[-1])


def test_library_text_is_tokenized_once_per_process():
    result = _run_fresh(
        """
import json
import repro.sl.parser as parser
from repro.sl import stdpreds

tokenize = parser._tokenize
parses = []

def counting(text):
    parses.append(text == stdpreds._DEFINITIONS)
    return tokenize(text)

parser._tokenize = counting
from repro.benchsuite.registry import all_benchmarks
registries = {id(benchmark.predicates) for benchmark in all_benchmarks()}
stdpreds.standard_predicates()
stdpreds.predicates_for("sll")
print(json.dumps({"library_parses": sum(parses), "registries": len(registries)}))
"""
    )
    assert result["registries"] > 1
    assert result["library_parses"] == 1


def test_benchsuite_registries_match_a_fresh_parse():
    library = parse_predicates(_DEFINITIONS)
    registries = {id(b.predicates): b.predicates for b in all_benchmarks()}
    assert len(registries) > 1
    for registry in registries.values():
        expected = library.subset(registry.names())
        assert registry.names() == expected.names()
        assert registry_fingerprint(registry) == registry_fingerprint(expected)


def test_loading_the_suite_imports_no_sqlite_or_fork_pool():
    loaded = _run_fresh(
        """
import json
import sys
import repro.evaluation.table1
from repro.benchsuite.registry import load_all
load_all()
print(json.dumps(sorted(sys.modules)))
"""
    )
    assert {"sqlite3", "multiprocessing", "repro.cache.store"}.isdisjoint(loaded)
