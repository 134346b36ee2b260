"""Pretty printing of SL expressions, formulae and stack-heap models.

The textual syntax produced here is the same one accepted by
:mod:`repro.sl.parser`, so formulas round-trip through
``parse_formula(pretty(f))``.
"""

from __future__ import annotations

from typing import Mapping

from repro.sl.exprs import (
    Add,
    And,
    Eq,
    Expr,
    FalseF,
    Ge,
    Gt,
    IntConst,
    Le,
    Lt,
    Max,
    Mul,
    Ne,
    Neg,
    Nil,
    Not,
    Or,
    PureFormula,
    Sub,
    TrueF,
    Var,
)
from repro.sl.model import StackHeapModel
from repro.sl.predicates import InductivePredicate
from repro.sl.spatial import Emp, PointsTo, PredApp, SepConj, Spatial, SymHeap


def pretty_expr(expr: Expr) -> str:
    """Render a pure expression."""
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, IntConst):
        return str(expr.value)
    if isinstance(expr, Nil):
        return "nil"
    if isinstance(expr, Neg):
        return f"-({pretty_expr(expr.operand)})"
    if isinstance(expr, Add):
        return f"({pretty_expr(expr.left)} + {pretty_expr(expr.right)})"
    if isinstance(expr, Sub):
        return f"({pretty_expr(expr.left)} - {pretty_expr(expr.right)})"
    if isinstance(expr, Mul):
        return f"({expr.factor} * {pretty_expr(expr.operand)})"
    if isinstance(expr, Max):
        return f"max({pretty_expr(expr.left)}, {pretty_expr(expr.right)})"
    raise TypeError(f"cannot pretty-print expression {expr!r}")


def pretty_pure(formula: PureFormula) -> str:
    """Render a pure formula."""
    if isinstance(formula, TrueF):
        return "true"
    if isinstance(formula, FalseF):
        return "false"
    if isinstance(formula, Eq):
        return f"{pretty_expr(formula.left)} = {pretty_expr(formula.right)}"
    if isinstance(formula, Ne):
        return f"{pretty_expr(formula.left)} != {pretty_expr(formula.right)}"
    if isinstance(formula, Lt):
        return f"{pretty_expr(formula.left)} < {pretty_expr(formula.right)}"
    if isinstance(formula, Le):
        return f"{pretty_expr(formula.left)} <= {pretty_expr(formula.right)}"
    if isinstance(formula, Gt):
        return f"{pretty_expr(formula.left)} > {pretty_expr(formula.right)}"
    if isinstance(formula, Ge):
        return f"{pretty_expr(formula.left)} >= {pretty_expr(formula.right)}"
    if isinstance(formula, Not):
        return f"!({pretty_pure(formula.operand)})"
    if isinstance(formula, And):
        return " & ".join(pretty_pure(part) for part in formula.parts)
    if isinstance(formula, Or):
        return " | ".join(f"({pretty_pure(part)})" for part in formula.parts)
    raise TypeError(f"cannot pretty-print pure formula {formula!r}")


def pretty_spatial(
    spatial: Spatial, field_names: Mapping[str, tuple[str, ...]] | None = None
) -> str:
    """Render a spatial formula.

    ``field_names`` optionally maps structure type names to field-name
    tuples, enabling the ``x -> Node{next: a, prev: b}`` named syntax; when
    absent the positional ``x -> Node(a, b)`` syntax is used.
    """
    if isinstance(spatial, Emp):
        return "emp"
    if isinstance(spatial, PointsTo):
        rendered_args = [pretty_expr(arg) for arg in spatial.args]
        names = (field_names or {}).get(spatial.type_name)
        if names is not None and len(names) == len(rendered_args):
            body = ", ".join(f"{name}: {value}" for name, value in zip(names, rendered_args))
            return f"{pretty_expr(spatial.source)} -> {spatial.type_name}{{{body}}}"
        return f"{pretty_expr(spatial.source)} -> {spatial.type_name}({', '.join(rendered_args)})"
    if isinstance(spatial, PredApp):
        return f"{spatial.name}({', '.join(pretty_expr(arg) for arg in spatial.args)})"
    if isinstance(spatial, SepConj):
        if not spatial.parts:
            return "emp"
        return " * ".join(pretty_spatial(part, field_names) for part in spatial.parts)
    raise TypeError(f"cannot pretty-print spatial formula {spatial!r}")


def pretty(
    formula: SymHeap, field_names: Mapping[str, tuple[str, ...]] | None = None
) -> str:
    """Render a symbolic heap ``exists xs . Sigma & Pi``.

    The rendering with the default field names is cached on the (immutable)
    formula: the driver renders every invariant to deduplicate it, and the
    serve records render the same objects again.
    """
    if field_names is None:
        cached = formula.__dict__.get("_pretty")
        if cached is None:
            cached = _render(formula, None)
            object.__setattr__(formula, "_pretty", cached)
        return cached
    return _render(formula, field_names)


def _render(formula: SymHeap, field_names: Mapping[str, tuple[str, ...]] | None) -> str:
    parts = []
    spatial_text = pretty_spatial(formula.spatial, field_names)
    pure_text = pretty_pure(formula.pure)
    if spatial_text != "emp" or pure_text == "true":
        parts.append(spatial_text)
    if pure_text != "true":
        parts.append(pure_text)
    body = " & ".join(parts)
    if formula.exists:
        return f"exists {', '.join(formula.exists)}. {body}"
    return body


def pretty_predicate(predicate: InductivePredicate) -> str:
    """Render an inductive predicate definition in parser syntax."""
    header = f"pred {predicate.name}({', '.join(predicate.params)})"
    cases = [f"({pretty(case.body)})" for case in predicate.cases]
    return f"{header} := {' | '.join(cases)};"


def pretty_model(model: StackHeapModel) -> str:
    """Human-readable rendering of a stack-heap model (for debugging/reports)."""
    lines = ["stack:"]
    for name, value in model.stack:
        rendered = "nil" if value == 0 else f"{value:#x}"
        lines.append(f"  {name} = {rendered}")
    lines.append("heap:")
    for addr in sorted(model.heap.domain()):
        cell = model.heap[addr]
        fields = ", ".join(
            f"{name}: {'nil' if value == 0 else format(value, '#x')}"
            for name, value in cell.fields
        )
        marker = "  (freed)" if addr in model.freed_addresses else ""
        lines.append(f"  {addr:#x} -> {cell.type_name}{{{fields}}}{marker}")
    return "\n".join(lines)
