"""Contract of :class:`repro.core.engine.CacheStats`: merge and JSON shape.

Every report, table and benchmark consumer reads these counters, so their
aggregation rule and their ``as_dict`` keys (names *and* order) are a
public schema: a batch total is the sum of its jobs except for the three
depth/size gauges, which take the maximum, and every rendered value is a
number a consumer can subtract.
"""

from dataclasses import fields

import pytest

from repro.core.engine import CacheStats

#: The counters aggregated by maximum (a depth or a size, not a volume).
MAX_FIELDS = {"max_trail_depth", "cache_file_bytes", "serve_queue_high_water"}

#: ``as_dict()`` of a struct whose i-th field holds ``3 * i + 2``: every
#: field plus the four rates, in the committed key order.
EXPECTED_AS_DICT = {
    "checker_misses": 2,
    "unfold_hits": 5,
    "unfold_misses": 8,
    "unfold_hit_rate": 0.3846,
    "atom_cache_hits": 11,
    "atom_cache_misses": 14,
    "candidates_generated": 17,
    "candidates_prefiltered": 20,
    "candidates_checked": 23,
    "prefilter_rate": 1.1765,
    "refuted_by_first_model": 26,
    "pruned_cases": 29,
    "max_trail_depth": 32,
    "candidate_groups": 35,
    "skeletons_solved": 38,
    "env_stream_reuses": 41,
    "stream_reuse_rate": 0.519,
    "pure_variant_evals": 44,
    "batch_exact_fallbacks": 47,
    "canonical_stream_hits": 50,
    "kernel_groups": 53,
    "stream_index_hits": 56,
    "kernel_scan_fallbacks": 59,
    "disk_hits": 62,
    "disk_misses": 65,
    "disk_hit_rate": 0.4882,
    "disk_evictions": 68,
    "cache_file_bytes": 71,
    "disk_load_errors": 74,
    "jobs_retried": 77,
    "workers_respawned": 80,
    "jobs_poisoned": 83,
    "pool_rebuilds": 86,
    "degraded_sequential": 89,
    "faults_injected": 92,
    "serve_requests": 95,
    "serve_queue_high_water": 98,
    "serve_rejections": 101,
    "serve_deadline_expiries": 104,
    "serve_client_disconnects": 107,
    "serve_requests_resumed": 110,
    "location_memo_hits": 113,
    "validation_memo_hits": 116,
}

RATES = ("unfold_hit_rate", "prefilter_rate", "stream_reuse_rate", "disk_hit_rate")

FIELD_NAMES = [spec.name for spec in fields(CacheStats)]


def _populated() -> CacheStats:
    return CacheStats(**{name: 3 * index + 2 for index, name in enumerate(FIELD_NAMES)})


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_merge_sums_every_counter_except_the_gauges(name):
    for first, second in ((3, 5), (5, 3)):
        total = CacheStats(**{name: first})
        total.merge(CacheStats(**{name: second}))
        expected = max(first, second) if name in MAX_FIELDS else first + second
        assert getattr(total, name) == expected
        untouched = [
            other for other in FIELD_NAMES if other != name and getattr(total, other)
        ]
        assert untouched == [], f"merging {name} also moved {untouched}"


def test_as_dict_keys_values_and_order():
    rendered = _populated().as_dict()
    assert rendered == EXPECTED_AS_DICT
    assert list(rendered) == list(EXPECTED_AS_DICT)
    assert set(rendered) == set(FIELD_NAMES) | set(RATES)


def test_as_dict_values_are_numeric():
    for stats in (CacheStats(), _populated()):
        for key, value in stats.as_dict().items():
            assert isinstance(value, (int, float)) and not isinstance(value, bool), key

