"""heaplang: a small C-like heap-manipulating language with a tracing debugger.

The paper evaluates SLING on C programs executed under the LLDB debugger.
This package provides the equivalent substrate for the reproduction:

* :mod:`repro.lang.types` -- structure (record) type definitions,
* :mod:`repro.lang.ast` -- the abstract syntax of heaplang programs,
* :mod:`repro.lang.builder` -- concise constructors used by the benchmarks,
* :mod:`repro.lang.heap` -- the runtime heap / allocator,
* :mod:`repro.lang.interp` -- a big-step interpreter,
* :mod:`repro.lang.tracer` -- breakpoints and stack-heap snapshot collection
  (the ``CollectModels`` phase of Algorithm 1).
"""

from repro.lang.types import StructDef, StructRegistry, standard_structs
from repro.lang.ast import (
    Expr,
    V,
    I,
    Null,
    FieldAccess,
    BinOp,
    UnOp,
    Call,
    Stmt,
    Assign,
    Store,
    Alloc,
    Free,
    If,
    While,
    Return,
    Label,
    ExprStmt,
    Function,
    Program,
)
from repro.lang.heap import RuntimeHeap
from repro.lang.interp import Interpreter
from repro.lang.tracer import Tracer, TraceEvent, Location, collect_models
from repro.lang.errors import (
    HeapLangError,
    NullDereference,
    SegmentationFault,
    DoubleFree,
    InterpreterTimeout,
    UndefinedVariable,
    UndefinedFunction,
)

__all__ = [
    "StructDef",
    "StructRegistry",
    "standard_structs",
    "Expr",
    "V",
    "I",
    "Null",
    "FieldAccess",
    "BinOp",
    "UnOp",
    "Call",
    "Stmt",
    "Assign",
    "Store",
    "Alloc",
    "Free",
    "If",
    "While",
    "Return",
    "Label",
    "ExprStmt",
    "Function",
    "Program",
    "RuntimeHeap",
    "Interpreter",
    "Tracer",
    "TraceEvent",
    "Location",
    "collect_models",
    "HeapLangError",
    "NullDereference",
    "SegmentationFault",
    "DoubleFree",
    "InterpreterTimeout",
    "UndefinedVariable",
    "UndefinedFunction",
]
