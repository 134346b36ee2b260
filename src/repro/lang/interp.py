"""A big-step interpreter for heaplang.

The interpreter executes a :class:`~repro.lang.ast.Program` over a
:class:`~repro.lang.heap.RuntimeHeap`.  It exposes *trace hooks*: an optional
observer (the :class:`~repro.lang.tracer.Tracer`) is notified whenever
execution reaches a location of interest -- function entries, explicit
labels, loop heads and return statements -- which is how SLING collects
stack-heap models (Algorithm 1, ``CollectModels``).

Values are plain integers: heap addresses, the null pointer ``0`` and
integer data share one value space, exactly as in the paper's stack-heap
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def lookup(self, name: str) -> int:
        """Read a variable; raises :class:`UndefinedVariable` when unbound."""
        try:
            return self.values[name]
        except KeyError:
            raise UndefinedVariable(f"variable {name!r} read before assignment") from None


class _ReturnSignal(Exception):
    """Internal control-flow signal carrying a function's return value."""

    def __init__(self, value: int | None):
        super().__init__(value)
        self.value = value


#: Executed statements/expressions per run before aborting.  Needed because
#: some benchmark inputs (e.g. cyclic lists fed to ``concat``) make the
#: original C programs diverge.
MAX_STEPS = 200_000
#: Call depth per run (recursion guard).
MAX_CALL_DEPTH = 2_000


class Interpreter:
    """Executes heaplang programs with optional trace observation."""

    def __init__(self, program: Program, observer: TraceObserver | None = None):
        self.program = program
        self.observer = observer
        self._steps = 0
        self._depth = 0

    # ------------------------------------------------------------------- API --

    def run(self, function_name: str, args: Sequence[int], heap: RuntimeHeap) -> int | None:
        """Execute ``function_name(*args)`` on the given heap and return its result."""
        self._steps = 0
        self._depth = 0
        return self._call(self.program.get_function(function_name), list(args), heap)

    # -------------------------------------------------------------- execution --

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > MAX_STEPS:
            raise InterpreterTimeout(
                f"execution exceeded {MAX_STEPS} steps (likely a divergent loop)"
            )

    def _call(self, function: Function, args: list[int], heap: RuntimeHeap) -> int | None:
        if len(args) != len(function.params):
            raise HeapLangError(
                f"{function.name} expects {len(function.params)} arguments, got {len(args)}"
            )
        self._depth += 1
        if self._depth > MAX_CALL_DEPTH:
            self._depth -= 1
            raise InterpreterTimeout(f"call depth exceeded {MAX_CALL_DEPTH}")
        frame = Frame()
        for (name, type_name), value in zip(function.params, args):
            frame.bind(name, value, type_name)
        self._notify(function, "entry", frame, heap)
        try:
            self._exec_block(function.body, frame, heap, function)
            result: int | None = None
        except _ReturnSignal as signal:
            result = signal.value
        finally:
            self._depth -= 1
        return result

    def _exec_block(
        self, stmts: Sequence[Stmt], frame: Frame, heap: RuntimeHeap, function: Function
    ) -> None:
        for stmt in stmts:
            self._exec(stmt, frame, heap, function)

    def _exec(self, stmt: Stmt, frame: Frame, heap: RuntimeHeap, function: Function) -> None:
        self._tick()
        if isinstance(stmt, Assign):
            value = self._eval(stmt.expr, frame, heap)
            type_name = stmt.var_type or self._infer_type(stmt.expr, frame, heap)
            frame.bind(stmt.var, value, type_name)
        elif isinstance(stmt, Store):
            address = self._eval(stmt.obj, frame, heap)
            value = self._eval(stmt.expr, frame, heap)
            heap.write(address, stmt.field, value)
        elif isinstance(stmt, Alloc):
            inits = {name: self._eval(expr, frame, heap) for name, expr in stmt.inits.items()}
            address = heap.alloc(stmt.type_name, inits)
            frame.bind(stmt.var, address, f"{stmt.type_name}*")
        elif isinstance(stmt, Free):
            heap.free(self._eval(stmt.expr, frame, heap))
        elif isinstance(stmt, If):
            if self._eval(stmt.cond, frame, heap) != 0:
                self._exec_block(stmt.then, frame, heap, function)
            else:
                self._exec_block(stmt.els, frame, heap, function)
        elif isinstance(stmt, While):
            while True:
                if stmt.label is not None:
                    self._notify(function, stmt.label, frame, heap)
                if self._eval(stmt.cond, frame, heap) == 0:
                    break
                self._exec_block(stmt.body, frame, heap, function)
                self._tick()
        elif isinstance(stmt, Return):
            value = None if stmt.expr is None else self._eval(stmt.expr, frame, heap)
            if stmt.label is not None:
                self._notify(function, stmt.label, frame, heap, result=value)
            raise _ReturnSignal(value)
        elif isinstance(stmt, Label):
            self._notify(function, stmt.name, frame, heap)
        elif isinstance(stmt, ExprStmt):
            self._eval(stmt.expr, frame, heap)
        else:  # pragma: no cover - defensive
            raise HeapLangError(f"unknown statement {stmt!r}")

    # -------------------------------------------------------------- expressions --

    def _eval(self, expr: Expr, frame: Frame, heap: RuntimeHeap) -> int:
        self._tick()
        if isinstance(expr, V):
            return frame.lookup(expr.name)
        if isinstance(expr, I):
            return expr.value
        if isinstance(expr, Null):
            return 0
        if isinstance(expr, FieldAccess):
            address = self._eval(expr.obj, frame, heap)
            return heap.read(address, expr.field)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, frame, heap)
        if isinstance(expr, UnOp):
            value = self._eval(expr.operand, frame, heap)
            if expr.op == "!":
                return 0 if value != 0 else 1
            if expr.op == "-":
                return -value
            raise HeapLangError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, Call):
            args = [self._eval(arg, frame, heap) for arg in expr.args]
            result = self._call(self.program.get_function(expr.func), args, heap)
            return 0 if result is None else result
        raise HeapLangError(f"unknown expression {expr!r}")

    def _eval_binop(self, expr: BinOp, frame: Frame, heap: RuntimeHeap) -> int:
        if expr.op == "&&":
            return 1 if self._eval(expr.left, frame, heap) != 0 and self._eval(expr.right, frame, heap) != 0 else 0
        if expr.op == "||":
            return 1 if self._eval(expr.left, frame, heap) != 0 or self._eval(expr.right, frame, heap) != 0 else 0
        left = self._eval(expr.left, frame, heap)
        right = self._eval(expr.right, frame, heap)
        operations: dict[str, Callable[[int, int], int]] = {
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
        try:
            return operations[expr.op](left, right)
        except KeyError:
            raise HeapLangError(f"unknown binary operator {expr.op!r}") from None

    # -------------------------------------------------------------- type inference --

    def _infer_type(self, expr: Expr, frame: Frame, heap: RuntimeHeap) -> str | None:
        """Best-effort static-ish type of an expression, used for snapshot typing."""
        if isinstance(expr, V):
            return frame.types.get(expr.name)
        if isinstance(expr, Null):
            return None
        if isinstance(expr, I):
            return "int"
        if isinstance(expr, FieldAccess):
            obj_type = self._infer_type(expr.obj, frame, heap)
            if obj_type and is_pointer_type(obj_type):
                struct_name = obj_type[:-1]
                if struct_name in self.program.structs:
                    struct = self.program.structs.get(struct_name)
                    if struct.has_field(expr.field):
                        return struct.field_type(expr.field)
            return None
        if isinstance(expr, Call):
            return self.program.get_function(expr.func).ret_type
        if isinstance(expr, (BinOp, UnOp)):
            return "int"
        return None

    # ------------------------------------------------------------------ tracing --

    def _notify(
        self,
        function: Function,
        location: str,
        frame: Frame,
        heap: RuntimeHeap,
        result: int | None = None,
    ) -> None:
        if self.observer is not None:
            self.observer.on_location(function, location, frame, heap, result)
