"""The heaplang interpreter: each function body compiled once into closures.

The interpreter executes a :class:`~repro.lang.ast.Program` over a
:class:`~repro.lang.heap.RuntimeHeap`.  It exposes *trace hooks*: an optional
observer (the :class:`~repro.lang.tracer.Tracer`) is notified whenever
execution reaches a location of interest -- function entries, explicit
labels, loop heads and return statements -- which is how SLING collects
stack-heap models (Algorithm 1, ``CollectModels``).

There is one execution path.  The first time a :class:`Function` runs, its
body is compiled into nested Python closures, one per statement and
expression node, with the node's kind dispatched once at compile time.
The body is cached on the function, so every :class:`Interpreter` of every
run shares it, and equal expressions share one closure process-wide.  A
statement closure returns ``None`` to fall through and the returned value
otherwise (:data:`_VOID` for a bare ``return``).  The closures hold no
program state: they read the running interpreter (its heap, observer, step
and depth counters, and the program that resolves calls) and the current
:class:`Frame`.  Every statement and expression node takes one step when it
starts, and a loop one more after each iteration, so the step count, the
``MAX_STEPS``/``MAX_CALL_DEPTH`` errors and the order of trace hooks are
those of a big-step evaluator walking the tree.

Values are plain integers: heap addresses, the null pointer ``0`` and
integer data share one value space, exactly as in the paper's stack-heap
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Protocol, Sequence

from repro.lang.ast import (
    Alloc,
    Assign,
    BinOp,
    Call,
    Expr,
    ExprStmt,
    FieldAccess,
    Free,
    Function,
    I,
    If,
    Label,
    Null,
    Program,
    Return,
    Stmt,
    Store,
    UnOp,
    V,
    While,
)
from repro.lang.errors import (
    HeapLangError,
    InterpreterTimeout,
    UndefinedVariable,
)
from repro.lang.heap import RuntimeHeap
from repro.lang.types import is_pointer_type


class TraceObserver(Protocol):
    """Interface the tracer implements to receive location notifications."""

    def on_location(
        self,
        function: Function,
        location: str,
        frame: "Frame",
        heap: RuntimeHeap,
        result: int | None = None,
    ) -> None:
        """Called whenever execution reaches a location of interest."""


@dataclass
class Frame:
    """One activation record: variable values and (inferred) variable types."""

    values: dict[str, int] = field(default_factory=dict)
    types: dict[str, str] = field(default_factory=dict)

    def bind(self, name: str, value: int, type_name: str | None = None) -> None:
        """Bind (or rebind) a variable, recording its type when known."""
        self.values[name] = value
        if type_name is not None:
            self.types[name] = type_name


#: Executed statements/expressions per run before aborting.  Needed because
#: some benchmark inputs (e.g. cyclic lists fed to ``concat``) make the
#: original C programs diverge.
MAX_STEPS = 200_000
#: Call depth per run (recursion guard).  A heaplang call costs several
#: Python frames, so the guard sits well below what Python's recursion limit
#: allows (a plain recursion there reaches a depth of about 250); the
#: deepest benchsuite recursion reaches 20.
MAX_CALL_DEPTH = 100


class Interpreter:
    """Executes heaplang programs with optional trace observation."""

    def __init__(self, program: Program, observer: TraceObserver | None = None):
        self.program = program
        self.observer = observer
        #: Steps taken by the current (or the last) run.
        self.steps = 0
        self.depth = 0
        #: The heap of the current (or the last) run.
        self.heap: RuntimeHeap | None = None

    def run(self, function_name: str, args: Sequence[int], heap: RuntimeHeap) -> int | None:
        """Execute ``function_name(*args)`` on the given heap and return its result."""
        self.steps = 0
        self.depth = 0
        self.heap = heap
        try:
            return self.call(self.program.get_function(function_name), list(args))
        except RecursionError:
            # Calls nested in deeply nested statements can still reach
            # Python's limit first; the run ends the same way.
            raise InterpreterTimeout(
                "call depth exceeded Python's recursion limit"
            ) from None

    def call(self, function: Function, args: list[int]) -> int | None:
        """Run one activation of ``function`` on the current run's heap."""
        params = function.params
        if len(args) != len(params):
            raise HeapLangError(
                f"{function.name} expects {len(params)} arguments, got {len(args)}"
            )
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            self.depth -= 1
            raise InterpreterTimeout(f"call depth exceeded {MAX_CALL_DEPTH}")
        frame = Frame()
        for (name, type_name), value in zip(params, args):
            frame.bind(name, value, type_name)
        self.notify(function, "entry", frame)
        body = function.__dict__.get("_compiled_body")
        if body is None:
            body = function._compiled_body = _block(function.body, function)
        try:
            for statement in body:
                result = statement(self, frame)
                if result is not None:
                    return None if result is _VOID else result
        finally:
            self.depth -= 1
        return None

    def tick(self) -> None:
        """Take one step; past ``MAX_STEPS`` the run times out."""
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise InterpreterTimeout(
                f"execution exceeded {MAX_STEPS} steps (likely a divergent loop)"
            )

    def notify(
        self, function: Function, location: str, frame: Frame, result: int | None = None
    ) -> None:
        """Tell the observer, if any, that ``location`` was reached."""
        if self.observer is not None:
            self.observer.on_location(function, location, frame, self.heap, result)


# ---------------------------------------------------------------- compilation --
#
# ``_expr`` compiles an expression into ``(interpreter, frame) -> int`` and
# ``_stmt`` a statement into ``(interpreter, frame) -> None | result``; each
# closure starts with ``it.tick()``.

_Eval = Callable[[Interpreter, Frame], int]
_Exec = Callable[[Interpreter, Frame], object]

#: What a ``return;`` (no value) statement returns, distinct from the
#: ``None`` of a statement that falls through.
_VOID = object()

#: Binary operators other than the short-circuiting ``&&`` and ``||``.
_BINARY: dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
}


# Expression closures reference no function and expressions are immutable,
# so equal expressions share one closure process-wide (the benchsuite's 2,560
# expression nodes are 288 distinct expressions).
@lru_cache(maxsize=65_536)
def _expr(expr: Expr) -> _Eval:
    """The compiled closure of one expression."""
    if isinstance(expr, V):
        name = expr.name

        def variable(it, frame):
            it.tick()
            try:
                return frame.values[name]
            except KeyError:
                raise UndefinedVariable(f"variable {name!r} read before assignment") from None

        return variable
    if isinstance(expr, (I, Null)):
        value = expr.value if isinstance(expr, I) else 0

        def constant(it, frame):
            it.tick()
            return value

        return constant
    if isinstance(expr, FieldAccess):
        obj, field_name = _expr(expr.obj), expr.field

        def load(it, frame):
            it.tick()
            return it.heap.read(obj(it, frame), field_name)

        return load
    if isinstance(expr, BinOp):
        return _binop(expr.op, _expr(expr.left), _expr(expr.right))
    if isinstance(expr, UnOp):
        return _unop(expr.op, _expr(expr.operand))
    if isinstance(expr, Call):
        callee, args = expr.func, tuple(_expr(arg) for arg in expr.args)

        def invoke(it, frame):
            it.tick()
            values = [arg(it, frame) for arg in args]
            result = it.call(it.program.get_function(callee), values)
            return 0 if result is None else result

        return invoke

    def unknown(it, frame):
        it.tick()
        raise HeapLangError(f"unknown expression {expr!r}")

    return unknown


def _binop(op: str, left: _Eval, right: _Eval) -> _Eval:
    if op == "&&":

        def conjunction(it, frame):
            it.tick()
            return 1 if left(it, frame) != 0 and right(it, frame) != 0 else 0

        return conjunction
    if op == "||":

        def disjunction(it, frame):
            it.tick()
            return 1 if left(it, frame) != 0 or right(it, frame) != 0 else 0

        return disjunction
    operation = _BINARY.get(op)

    def binary(it, frame):
        it.tick()
        a = left(it, frame)
        b = right(it, frame)
        if operation is None:
            raise HeapLangError(f"unknown binary operator {op!r}")
        return operation(a, b)

    return binary


def _unop(op: str, operand: _Eval) -> _Eval:
    def unary(it, frame):
        it.tick()
        value = operand(it, frame)
        if op == "!":
            return 0 if value != 0 else 1
        if op == "-":
            return -value
        raise HeapLangError(f"unknown unary operator {op!r}")

    return unary


@lru_cache(maxsize=65_536)
def _type_of(expr: Expr) -> Callable[[Interpreter, Frame], str | None]:
    """Compile the best-effort type of an expression, used to type the
    variable an :class:`Assign` without a declared type binds."""
    if isinstance(expr, V):
        name = expr.name
        return lambda it, frame: frame.types.get(name)
    if isinstance(expr, FieldAccess):
        obj_type, field_name = _type_of(expr.obj), expr.field

        def field_type(it, frame):
            type_name = obj_type(it, frame)
            if type_name and is_pointer_type(type_name):
                structs = it.program.structs
                if type_name[:-1] in structs:
                    struct = structs.get(type_name[:-1])
                    if struct.has_field(field_name):
                        return struct.field_type(field_name)
            return None

        return field_type
    if isinstance(expr, Call):
        callee = expr.func
        return lambda it, frame: it.program.get_function(callee).ret_type
    static = "int" if isinstance(expr, (I, BinOp, UnOp)) else None
    return lambda it, frame: static


def _block(stmts: Sequence[Stmt], function: Function) -> tuple[_Exec, ...]:
    """Compile a statement sequence.  Its runner (a call, a branch, a loop
    body) stops at the first statement result that is not ``None``."""
    return tuple(_stmt(stmt, function) for stmt in stmts)


def _stmt(stmt: Stmt, function: Function) -> _Exec:
    """Compile one statement of ``function``."""
    if isinstance(stmt, Assign):
        var, value_of = stmt.var, _expr(stmt.expr)
        declared = stmt.var_type
        type_of = (lambda it, frame: declared) if declared else _type_of(stmt.expr)

        def assign(it, frame):
            it.tick()
            value = value_of(it, frame)
            type_name = type_of(it, frame)
            frame.values[var] = value
            if type_name is not None:
                frame.types[var] = type_name

        return assign
    if isinstance(stmt, Store):
        obj, field_name, value_of = _expr(stmt.obj), stmt.field, _expr(stmt.expr)

        def store(it, frame):
            it.tick()
            address = obj(it, frame)
            it.heap.write(address, field_name, value_of(it, frame))

        return store
    if isinstance(stmt, Alloc):
        var, type_name = stmt.var, stmt.type_name
        pointer_type = f"{type_name}*"
        inits = tuple((name, _expr(expr)) for name, expr in stmt.inits.items())

        def alloc(it, frame):
            it.tick()
            values = {name: value_of(it, frame) for name, value_of in inits}
            frame.values[var] = it.heap.alloc(type_name, values)
            frame.types[var] = pointer_type

        return alloc
    if isinstance(stmt, Free):
        address_of = _expr(stmt.expr)

        def free(it, frame):
            it.tick()
            it.heap.free(address_of(it, frame))

        return free
    if isinstance(stmt, If):
        cond = _expr(stmt.cond)
        then, els = _block(stmt.then, function), _block(stmt.els, function)

        def branch(it, frame):
            it.tick()
            for statement in then if cond(it, frame) != 0 else els:
                result = statement(it, frame)
                if result is not None:
                    return result
            return None

        return branch
    if isinstance(stmt, While):
        cond, body, label = _expr(stmt.cond), _block(stmt.body, function), stmt.label

        def loop(it, frame):
            it.tick()
            while True:
                if label is not None:
                    it.notify(function, label, frame)
                if cond(it, frame) == 0:
                    return None
                for statement in body:
                    result = statement(it, frame)
                    if result is not None:
                        return result
                it.tick()

        return loop
    if isinstance(stmt, Return):
        value_of = None if stmt.expr is None else _expr(stmt.expr)
        label = stmt.label

        def ret(it, frame):
            it.tick()
            value = None if value_of is None else value_of(it, frame)
            if label is not None:
                it.notify(function, label, frame, value)
            return _VOID if value is None else value

        return ret
    if isinstance(stmt, Label):
        name = stmt.name

        def label(it, frame):
            it.tick()
            it.notify(function, name, frame)

        return label
    if isinstance(stmt, ExprStmt):
        value_of = _expr(stmt.expr)

        def evaluate(it, frame):
            it.tick()
            value_of(it, frame)

        return evaluate

    def unknown(it, frame):
        it.tick()
        raise HeapLangError(f"unknown statement {stmt!r}")

    return unknown
