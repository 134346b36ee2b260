"""Abstract syntax of heaplang.

heaplang is deliberately close to the C subset used by the paper's
benchmarks: structs with pointer and integer fields, heap allocation and
deallocation, field loads/stores, conditionals, while loops, (recursive)
function calls and returns.  Programs are built directly as Python objects,
usually through the helpers in :mod:`repro.lang.builder`.

Locations of interest (where SLING collects stack-heap models) are:

* ``entry`` -- function entry, after parameter binding;
* ``loop#<i>`` -- the head of the ``i``-th ``while`` loop of the function,
  captured on every iteration (and once when the loop is first reached);
* ``ret#<i>`` -- the ``i``-th ``return`` statement, where the ghost variable
  ``res`` holds the returned value;
* explicit :class:`Label` statements (e.g. ``L1`` in the paper's Figure 1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dataclass_field, fields, is_dataclass
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class of heaplang expressions."""


@dataclass(frozen=True)
class V(Expr):
    """A variable reference."""

    name: str


@dataclass(frozen=True)
class I(Expr):
    """An integer literal."""

    value: int


@dataclass(frozen=True)
class Null(Expr):
    """The null pointer (``NULL``)."""


@dataclass(frozen=True)
class FieldAccess(Expr):
    """A field load ``obj->field``."""

    obj: Expr
    field: str


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation; ``op`` is one of ``+ - * == != < <= > >= && ||``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation; ``op`` is ``!`` or ``-``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    """A (possibly recursive) function call."""

    func: str
    args: tuple[Expr, ...]

    def __init__(self, func: str, args: Iterable[Expr] = ()):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(args))


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class of heaplang statements."""


@dataclass
class Assign(Stmt):
    """``var = expr;`` -- declares the variable on first assignment."""

    var: str
    expr: Expr
    #: Optional declared type of the variable (e.g. ``"DllNode*"``); when
    #: omitted the interpreter infers it from the assigned value.
    var_type: str | None = None


@dataclass
class Store(Stmt):
    """``obj->field = expr;``"""

    obj: Expr
    field: str
    expr: Expr


@dataclass
class Alloc(Stmt):
    """``var = malloc(sizeof(Type));`` with optional field initialisers."""

    var: str
    type_name: str
    inits: dict[str, Expr] = dataclass_field(default_factory=dict)


@dataclass
class Free(Stmt):
    """``free(expr);`` -- the cell contents remain observable (see the paper, Section 5.3)."""

    expr: Expr


@dataclass
class If(Stmt):
    """``if (cond) { then } else { els }``"""

    cond: Expr
    then: list[Stmt]
    els: list[Stmt] = dataclass_field(default_factory=list)


@dataclass
class While(Stmt):
    """``while (cond) { body }`` -- its head is a trace location (``loop#<i>``)."""

    cond: Expr
    body: list[Stmt]
    #: Location name of the loop head, assigned by :meth:`Function.finalize`.
    label: str | None = None


@dataclass
class Return(Stmt):
    """``return expr;`` -- a trace location (``ret#<i>``) with ghost variable ``res``."""

    expr: Expr | None = None
    #: Location name of this return, assigned by :meth:`Function.finalize`.
    label: str | None = None


@dataclass
class Label(Stmt):
    """A named program location (like ``[L1]`` in the paper's Figure 1)."""

    name: str


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for its side effects (e.g. a bare call)."""

    expr: Expr


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------


@dataclass
class Function:
    """A heaplang function definition."""

    name: str
    params: list[tuple[str, str]]
    ret_type: str | None
    body: list[Stmt]

    def __post_init__(self) -> None:
        self.finalize()

    def finalize(self) -> None:
        """Assign stable location names to loops and return statements."""
        loop_counter = 0
        return_counter = 0

        def visit(stmts: Sequence[Stmt]) -> None:
            nonlocal loop_counter, return_counter
            for stmt in stmts:
                if isinstance(stmt, While):
                    if stmt.label is None:
                        stmt.label = f"loop#{loop_counter}"
                    loop_counter += 1
                    visit(stmt.body)
                elif isinstance(stmt, Return):
                    if stmt.label is None:
                        stmt.label = f"ret#{return_counter}"
                    return_counter += 1
                elif isinstance(stmt, If):
                    visit(stmt.then)
                    visit(stmt.els)

        visit(self.body)

    # -- location helpers ---------------------------------------------------------

    def locations(self) -> list[str]:
        """All trace locations of the function (entry, labels, loops, returns)."""
        found: list[str] = ["entry"]

        def visit(stmts: Sequence[Stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, Label):
                    found.append(stmt.name)
                elif isinstance(stmt, While):
                    if stmt.label is not None:
                        found.append(stmt.label)
                    visit(stmt.body)
                elif isinstance(stmt, Return):
                    if stmt.label is not None:
                        found.append(stmt.label)
                elif isinstance(stmt, If):
                    visit(stmt.then)
                    visit(stmt.els)

        visit(self.body)
        return found

    def return_locations(self) -> list[str]:
        """The locations of all return statements."""
        return [loc for loc in self.locations() if loc.startswith("ret#")]

    def loop_locations(self) -> list[str]:
        """The locations of all loop heads."""
        return [loc for loc in self.locations() if loc.startswith("loop#")]

    def statement_count(self) -> int:
        """Number of statements (a lines-of-code proxy for Table 1)."""

        def count(stmts: Sequence[Stmt]) -> int:
            total = 0
            for stmt in stmts:
                total += 1
                if isinstance(stmt, If):
                    total += count(stmt.then) + count(stmt.els)
                elif isinstance(stmt, While):
                    total += count(stmt.body)
            return total

        return count(self.body)


@dataclass
class Program:
    """A heaplang program: structure types plus function definitions."""

    structs: "StructRegistry"
    functions: dict[str, Function]

    def __init__(self, structs: "StructRegistry", functions: Iterable[Function]):
        self.structs = structs
        self.functions = {func.name: func for func in functions}

    def get_function(self, name: str) -> Function:
        """Look up a function definition by name."""
        from repro.lang.errors import UndefinedFunction

        try:
            return self.functions[name]
        except KeyError:
            raise UndefinedFunction(f"unknown function {name!r}") from None

    def statement_count(self) -> int:
        """Total statements across all functions (a lines-of-code proxy)."""
        return sum(func.statement_count() for func in self.functions.values())

    def digest(self) -> bytes:
        """A 20-byte digest of the program's content: its struct definitions
        and every function's syntax tree, callees included, field by field.

        Computed once, like the interpreter's compiled bodies: a program is
        not edited once it runs.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            text = repr(
                (
                    [(struct.name, struct.fields) for struct in self.structs],
                    [_content(function) for function in self.functions.values()],
                )
            )
            cached = self._digest = hashlib.blake2b(text.encode(), digest_size=20).digest()
        return cached


def _content(node):
    """A syntax tree as nested tuples of every dataclass field's value."""
    if is_dataclass(node):
        return (type(node).__name__,) + tuple(
            _content(getattr(node, spec.name)) for spec in fields(node)
        )
    if isinstance(node, (list, tuple)):
        return tuple(_content(item) for item in node)
    if isinstance(node, dict):
        return tuple((key, _content(value)) for key, value in node.items())
    return node


# Imported late to avoid a module cycle in type annotations.
from repro.lang.types import StructRegistry  # noqa: E402  (re-export for typing)
