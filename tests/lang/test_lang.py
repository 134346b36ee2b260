"""Unit tests for heaplang: types, heap, interpreter, tracer and builder."""

import pytest

from repro.lang import (
    Alloc,
    Assign,
    Free,
    Function,
    If,
    Interpreter,
    Label,
    Location,
    Program,
    Return,
    RuntimeHeap,
    Store,
    Tracer,
    While,
    collect_models,
    standard_structs,
)
from repro.lang import interp as interp_module
from repro.lang.builder import add, call, eq, field, gt, i, is_null, not_null, null, sub, v
from repro.lang.errors import (
    DoubleFree,
    InterpreterTimeout,
    NullDereference,
    SegmentationFault,
    TypeMismatch,
    UndefinedVariable,
)
from repro.lang.types import StructDef, is_pointer_type, pointee


@pytest.fixture()
def heap(structs):
    return RuntimeHeap(structs)


class TestTypes:
    def test_pointer_type_helpers(self):
        assert is_pointer_type("SllNode*")
        assert not is_pointer_type("int")
        assert pointee("SllNode*") == "SllNode"
        with pytest.raises(TypeMismatch):
            pointee("int")

    def test_struct_def(self):
        struct = StructDef("Pair", [("first", "Pair*"), ("second", "int")])
        assert struct.field_names == ("first", "second")
        assert struct.field_type("second") == "int"
        assert struct.pointer_fields() == ("first",)
        assert struct.default_values() == {"first": 0, "second": 0}
        with pytest.raises(TypeMismatch):
            struct.field_type("third")

    def test_standard_structs_cover_predicate_types(self, structs):
        for name in ("SllNode", "DllNode", "BstNode", "AvlNode", "Queue", "NlNode"):
            assert name in structs

    def test_field_name_table(self, structs):
        table = structs.field_name_table()
        assert table["DllNode"] == ("next", "prev")


class TestRuntimeHeap:
    def test_alloc_and_access(self, heap):
        addr = heap.alloc("DllNode", {"next": 0})
        assert heap.is_allocated(addr)
        assert heap.type_of(addr) == "DllNode"
        heap.write(addr, "prev", 7)
        assert heap.read(addr, "prev") == 7

    def test_alloc_unknown_field_raises(self, heap):
        with pytest.raises(TypeMismatch):
            heap.alloc("SllNode", {"bogus": 1})

    def test_null_and_invalid_dereference(self, heap):
        with pytest.raises(NullDereference):
            heap.read(0, "next")
        with pytest.raises(SegmentationFault):
            heap.read(0xDEAD, "next")

    def test_free_semantics(self, heap):
        addr = heap.alloc("SllNode")
        heap.free(addr)
        assert heap.is_freed(addr)
        assert not heap.is_allocated(addr)
        # Contents remain observable (the LLDB artefact the paper describes).
        assert heap.read(addr, "next") == 0
        with pytest.raises(DoubleFree):
            heap.free(addr)
        heap.free(0)  # free(NULL) is a no-op

    def test_reachability_follows_pointer_fields_only(self, heap):
        a = heap.alloc("SNode", {"data": 999})
        b = heap.alloc("SNode", {"next": a, "data": a})  # data happens to equal an address
        reachable = heap.reachable([b])
        assert reachable == {a, b}

    def test_live_count(self, heap):
        a = heap.alloc("SllNode")
        heap.alloc("SllNode", {"next": a})
        assert heap.live_count() == 2
        heap.free(a)
        assert heap.live_count() == 1


def _length_function():
    return Function(
        "length",
        [("x", "SllNode*")],
        "int",
        [
            Assign("n", i(0)),
            Assign("cur", v("x")),
            While(not_null("cur"), [Assign("cur", field("cur", "next")), Assign("n", add(v("n"), i(1)))]),
            Return(v("n")),
        ],
    )


def _make_sll(heap, size):
    head = 0
    for _ in range(size):
        head = heap.alloc("SllNode", {"next": head})
    return head


class TestInterpreter:
    def test_length(self, structs):
        program = Program(structs, [_length_function()])
        heap = RuntimeHeap(structs)
        head = _make_sll(heap, 5)
        assert Interpreter(program).run("length", [head], heap) == 5

    def test_recursion_and_calls(self, structs):
        copy = Function(
            "copy",
            [("x", "SllNode*")],
            "SllNode*",
            [
                If(is_null("x"), [Return(null())]),
                Alloc("node", "SllNode", {"next": call("copy", field("x", "next"))}),
                Return(v("node")),
            ],
        )
        program = Program(structs, [copy, _length_function()])
        heap = RuntimeHeap(structs)
        head = _make_sll(heap, 4)
        interpreter = Interpreter(program)
        cloned = interpreter.run("copy", [head], heap)
        assert cloned != head
        assert interpreter.run("length", [cloned], heap) == 4
        assert heap.live_count() == 8

    def test_store_and_arithmetic(self, structs):
        double_head = Function(
            "doubleHead",
            [("x", "SNode*")],
            "int",
            [
                Store(v("x"), "data", add(field("x", "data"), field("x", "data"))),
                Return(field("x", "data")),
            ],
        )
        program = Program(structs, [double_head])
        heap = RuntimeHeap(structs)
        addr = heap.alloc("SNode", {"data": 21})
        assert Interpreter(program).run("doubleHead", [addr], heap) == 42

    def test_undefined_variable(self, structs):
        bad = Function("bad", [], "int", [Return(v("ghost"))])
        with pytest.raises(UndefinedVariable):
            Interpreter(Program(structs, [bad])).run("bad", [], RuntimeHeap(structs))

    def test_null_dereference_surfaces(self, structs):
        crash = Function("crash", [("x", "SllNode*")], "int", [Return(field("x", "next"))])
        with pytest.raises(NullDereference):
            Interpreter(Program(structs, [crash])).run("crash", [0], RuntimeHeap(structs))

    def test_divergent_loop_times_out(self, structs, monkeypatch):
        spin = Function("spin", [], "int", [While(eq(i(0), i(0)), []), Return(i(1))])
        monkeypatch.setattr(interp_module, "MAX_STEPS", 500)
        interpreter = Interpreter(Program(structs, [spin]))
        with pytest.raises(InterpreterTimeout):
            interpreter.run("spin", [], RuntimeHeap(structs))

    def test_short_circuit_boolean(self, structs):
        # x == NULL || x->next == NULL must not dereference a null pointer.
        from repro.lang.builder import or_

        safe = Function(
            "safe",
            [("x", "SllNode*")],
            "int",
            [If(or_(is_null("x"), is_null(field("x", "next"))), [Return(i(1))]), Return(i(0))],
        )
        assert Interpreter(Program(structs, [safe])).run("safe", [0], RuntimeHeap(structs)) == 1


class TestFunctionLocations:
    def test_location_assignment(self):
        function = _length_function()
        assert function.loop_locations() == ["loop#0"]
        assert function.return_locations() == ["ret#0"]
        assert "entry" in function.locations()
        assert function.statement_count() > 0

    def test_labels_are_locations(self, concat_program):
        concat = concat_program.get_function("concat")
        locations = concat.locations()
        assert {"L1", "L2", "L3"} <= set(locations)
        assert len(concat.return_locations()) == 2


class TestTracer:
    def test_collect_models_groups_by_location(self, structs):
        program = Program(structs, [_length_function()])
        traces = collect_models(
            program,
            "length",
            [lambda heap: [_make_sll(heap, 3)], lambda heap: [_make_sll(heap, 0)]],
        )
        entry_models = traces.models_at(Location("length", "entry"))
        assert len(entry_models) == 2
        # Loop head hit once per iteration plus the final check: 4 + 1 models.
        loop_models = traces.models_at(Location("length", "loop#0"))
        assert len(loop_models) == 5
        assert traces.crashed_runs() == 0

    def test_snapshot_contents(self, structs):
        program = Program(structs, [_length_function()])
        traces = collect_models(program, "length", [lambda heap: [_make_sll(heap, 3)]])
        model = traces.models_at(Location("length", "entry"))[0]
        assert model.has_var("x")
        assert len(model.heap) == 3
        assert model.type_dict["x"] == "SllNode*"

    def test_return_snapshot_has_res(self, structs):
        program = Program(structs, [_length_function()])
        traces = collect_models(program, "length", [lambda heap: [_make_sll(heap, 2)]])
        model = traces.models_at(Location("length", "ret#0"))[0]
        assert model.value_of("res") == 2

    def test_crash_recorded(self, structs):
        crash = Function("crash", [("x", "SllNode*")], "int", [Return(field("x", "next"))])
        traces = collect_models(Program(structs, [crash]), "crash", [lambda heap: [0]])
        assert traces.crashed_runs() == 1
        assert traces.outcomes[0].error is not None

    def test_freed_cells_marked(self, structs):
        use_after_free = Function(
            "uaf",
            [("x", "SllNode*")],
            "SllNode*",
            [Free(v("x")), Return(v("x"))],
        )
        traces = collect_models(
            Program(structs, [use_after_free]), "uaf", [lambda heap: [_make_sll(heap, 1)]]
        )
        model = traces.models_at(Location("uaf", "ret#0"))[0]
        assert model.has_freed_cells()

    def test_breakpoint_filtering(self, structs):
        program = Program(structs, [_length_function()])
        tracer = Tracer(structs, breakpoints=[Location("length", "entry")])
        heap = RuntimeHeap(structs)
        head = _make_sll(heap, 2)
        Interpreter(program, observer=tracer).run("length", [head], heap)
        assert {event.location.name for event in tracer.events} == {"entry"}

    def test_location_parse_round_trip(self):
        location = Location("f", "loop#1")
        assert Location.parse(str(location)) == location
