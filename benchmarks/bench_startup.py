"""Cold start: building every benchsuite predicate registry.

Every ``repro`` process builds the benchsuite's predicate registries before
inference starts.  The standard library text is parsed once per process;
each registry wraps the parsed cases in its own predicates.  This harness
times that build from a cold library (one parse plus one registry per
distinct benchsuite predicate set) and checks the two invariants that make
it cheap and safe: the library text is tokenized exactly once per build, and
every registry has the fingerprint a fresh parse of the library gives.
"""

import repro.sl.parser as parser
from repro.benchsuite.registry import all_benchmarks
from repro.cache import registry_fingerprint
from repro.sl import stdpreds

#: The predicate sets of the benchsuite registries, one per distinct set.
_NAME_SETS = sorted({tuple(b.predicates.names()) for b in all_benchmarks()})


def _build_all():
    stdpreds._library.cache_clear()
    return [stdpreds.predicates_for(*names) for names in _NAME_SETS]


def test_build_every_benchsuite_registry(benchmark, monkeypatch):
    tokenize = parser._tokenize
    parses = []

    def counting(text):
        parses.append(text == stdpreds._DEFINITIONS)
        return tokenize(text)

    monkeypatch.setattr(parser, "_tokenize", counting)
    rounds = 5
    registries = benchmark.pedantic(_build_all, rounds=rounds, iterations=1)
    assert sum(parses) == rounds

    fresh = parser.parse_predicates(stdpreds._DEFINITIONS)
    assert len(registries) == len(_NAME_SETS) > 1
    for names, registry in zip(_NAME_SETS, registries):
        assert registry_fingerprint(registry) == registry_fingerprint(fresh.subset(names))
