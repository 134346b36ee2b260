"""The budget and knob references in ``docs/performance.md`` cannot go stale.

The ``## Fixed budgets`` table must give every search-budget constant with
its module and current value, and the ``## Knobs (`SlingConfig`)`` table
must name exactly the :class:`SlingConfig` fields.
"""

import importlib
import re
from dataclasses import fields
from pathlib import Path

from repro.core.sling import SlingConfig

DOC = Path(__file__).resolve().parents[2] / "docs" / "performance.md"


def _section(title: str) -> list[list[str]]:
    section = DOC.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [
        [cell.strip() for cell in line.split("|")[1:-1]]
        for line in section.splitlines()
        if line.startswith("| `")
    ]


def test_fixed_budget_table_matches_the_constants():
    rows = _section("Fixed budgets")
    assert rows
    for constant, module, value, _ in rows:
        owner = importlib.import_module(module.strip("`"))
        actual = getattr(owner, constant.strip("`"))
        assert actual == int(value.strip("`").replace("_", "")), constant


def test_knob_table_names_exactly_the_config_fields():
    rows = _section("Knobs (`SlingConfig`)")
    documented = {re.fullmatch(r"`([a-z_]+)`", row[0]).group(1) for row in rows}
    assert documented == {spec.name for spec in fields(SlingConfig)}
