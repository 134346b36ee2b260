"""Inferred invariants hold on the models they were inferred from.

SLING infers an invariant at a location from the stack-heap models its
traces snapshot there, so every invariant it reports must be satisfied
by each of those models under the exact Definition 2 check.  This test
takes the first program of every Table 1 category, infers its
specification at seed 0, collects the same models again (the suite's
inputs are drawn from a fresh seeded generator, so a second
``test_cases(0)`` draws what inference saw) and runs the exact
:meth:`~repro.sl.checker.ModelChecker.check` of every invariant on every
model of its location.  Spurious invariants (rejected by the frame rule)
and invariants from traces with freed cells (reported as spurious by
the paper's convention) make no claim, so they are skipped.
"""

from repro.benchsuite.registry import benchmarks_by_category
from repro.core.sling import Sling, SlingConfig
from repro.lang.tracer import Location
from repro.sl.checker import ModelChecker
from repro.sl.pretty import pretty

_FIRST_PROGRAMS = [programs[0] for programs in benchmarks_by_category().values()]


def test_every_sound_invariant_holds_on_every_model_of_its_location():
    checks = 0
    failures = []
    for benchmark in _FIRST_PROGRAMS:
        sling = Sling(benchmark.program, benchmark.predicates, SlingConfig())
        specification = sling.infer_function(benchmark.function, benchmark.test_cases(0))
        traces = sling.collect(benchmark.function, benchmark.test_cases(0))
        checker = ModelChecker(benchmark.predicates, structs=benchmark.program.structs)
        for invariant in specification.all_invariants():
            if invariant.spurious or invariant.from_freed_traces:
                continue
            models = traces.models_at(Location(benchmark.function, invariant.location))
            assert models, (benchmark.name, invariant.location)
            for index, model in enumerate(models):
                checks += 1
                if checker.check(model, invariant.formula) is None:
                    failures.append(
                        (benchmark.name, invariant.location, pretty(invariant.formula), index)
                    )
    assert len(_FIRST_PROGRAMS) == 22
    assert checks > 0
    assert failures == []
