"""The counter reference in ``docs/performance.md`` cannot go stale.

Its ``## Counters`` table must name every :class:`CacheStats` field and
nothing else, so a counter added, renamed or removed in the one declaration
fails here until the reference says what it means.  And every declared
field must be counted somewhere: a counter nothing writes reads 0 silently.
"""

import re
from dataclasses import fields
from pathlib import Path

from repro.core.engine import CacheStats

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "performance.md"
SRC = ROOT / "src" / "repro"
DECLARATION = SRC / "telemetry" / "counters.py"


def test_counter_table_names_exactly_the_declared_fields():
    section = DOC.read_text(encoding="utf-8").split("\n## Counters\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`([a-z_]+)`", line.split("|")[1]))
    assert documented == {spec.name for spec in fields(CacheStats)}


def test_every_declared_counter_has_a_writer():
    """Each field is assigned (``.field +=``, ``.field =``) or named as a
    string key somewhere in ``src/repro`` outside its declaration."""
    sources = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
        if path != DECLARATION
    )
    unwritten = [
        spec.name
        for spec in fields(CacheStats)
        if not re.search(
            rf"\.{spec.name}\s*[-+]?=(?!=)|[\"']{spec.name}[\"']", sources
        )
    ]
    assert unwritten == []
