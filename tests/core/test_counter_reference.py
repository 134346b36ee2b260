"""The counter reference in ``docs/performance.md`` cannot go stale.

Its ``## Counters`` table must name every :class:`CacheStats` field and
nothing else, so a counter added, renamed or removed in the one declaration
fails here until the reference says what it means.
"""

import re
from dataclasses import fields
from pathlib import Path

from repro.core.engine import CacheStats

DOC = Path(__file__).resolve().parents[2] / "docs" / "performance.md"


def test_counter_table_names_exactly_the_declared_fields():
    section = DOC.read_text(encoding="utf-8").split("\n## Counters\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`([a-z_]+)`", line.split("|")[1]))
    assert documented == {spec.name for spec in fields(CacheStats)}
