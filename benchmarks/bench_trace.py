"""Trace collection: ``collect_models`` over the seed-0 benchsuite corpus.

Runs the tracer over all 150 benchmarks once and times it.  The timing is
only reported; the assertions are facts that do not depend on the
machine: the snapshots share their unwritten cells copy-on-write (fewer
``HeapCell`` objects than cells the snapshots hold), and the corpus
digest -- every event and run outcome, step counts included -- is the
pinned one (``repro.benchsuite.corpus``).
"""

from repro.benchsuite.corpus import PINNED_DIGESTS, collect_corpus, corpus_digest


def test_collect_the_seed0_corpus(once):
    corpus = once(collect_corpus, 0)

    held = [
        cell
        for _, traces in corpus
        for event in traces.events
        for _, cell in event.model.heap.items()
    ]
    built = len({id(cell) for cell in held})
    assert 0 < built < len(held)
    assert corpus_digest(corpus) == PINNED_DIGESTS[0]
