"""Structure (record) types of heaplang.

A :class:`StructDef` declares the fields of a heap-allocated record together
with their types.  Field types are either ``"int"`` or a pointer type written
``"<StructName>*"``; the distinction is what the tracer uses to decide which
field values to follow when computing the reachable heap of a snapshot.

:func:`standard_structs` returns the registry of every structure used by the
benchmark suite; its field names and order deliberately match
:data:`repro.sl.stdpreds.STRUCT_FIELDS` so that points-to atoms inferred from
traces line up with the predicate definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from repro.lang.errors import TypeMismatch


def is_pointer_type(type_name: str) -> bool:
    """True for pointer types (written with a trailing ``*``)."""
    return type_name.endswith("*")


def pointee(type_name: str) -> str:
    """The structure name a pointer type points to."""
    if not is_pointer_type(type_name):
        raise TypeMismatch(f"{type_name!r} is not a pointer type")
    return type_name[:-1]


@dataclass(frozen=True)
class StructDef:
    """A structure type: an ordered list of ``(field name, field type)`` pairs.

    The layout views (:attr:`field_names`, :meth:`pointer_fields`) and the
    hash are computed once per struct, on first use; equality, hashing and
    pickling see only ``name`` and ``fields``.
    """

    name: str
    fields: tuple[tuple[str, str], ...]

    def __init__(self, name: str, fields: Iterable[tuple[str, str]]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", tuple(fields))

    def __getstate__(self) -> dict:
        return {"name": self.name, "fields": self.fields}

    def __hash__(self) -> int:
        # Memo keys hold a program's struct definitions; the hash is salted
        # per process, so ``__getstate__`` leaves it behind.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash((self.name, self.fields))
        return cached

    @cached_property
    def field_names(self) -> tuple[str, ...]:
        """Field names in declaration order."""
        return tuple(name for name, _ in self.fields)

    def field_type(self, field_name: str) -> str:
        """Type of a field; raises :class:`TypeMismatch` for unknown fields."""
        for name, type_name in self.fields:
            if name == field_name:
                return type_name
        raise TypeMismatch(f"struct {self.name} has no field {field_name!r}")

    def has_field(self, field_name: str) -> bool:
        """True when the struct declares the given field."""
        return any(name == field_name for name, _ in self.fields)

    def pointer_fields(self) -> tuple[str, ...]:
        """Names of the pointer-typed fields."""
        return self._pointer_fields

    @cached_property
    def _pointer_fields(self) -> tuple[str, ...]:
        return tuple(name for name, type_name in self.fields if is_pointer_type(type_name))

    def default_values(self) -> dict[str, int]:
        """Zero-initialised field values (``nil`` / ``0``), as ``malloc``+memset would give."""
        return {name: 0 for name, _ in self.fields}


class StructRegistry:
    """A collection of structure definitions, looked up by name."""

    def __init__(self, structs: Iterable[StructDef] = ()):
        self._structs: dict[str, StructDef] = {}
        for struct in structs:
            self.add(struct)

    def add(self, struct: StructDef) -> None:
        """Register (or replace) a structure definition."""
        self._structs[struct.name] = struct

    def get(self, name: str) -> StructDef:
        """Look up a structure definition by name."""
        try:
            return self._structs[name]
        except KeyError:
            raise TypeMismatch(f"unknown struct type {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._structs

    def __iter__(self) -> Iterator[StructDef]:
        return iter(self._structs.values())

    def __len__(self) -> int:
        return len(self._structs)

    def field_name_table(self) -> dict[str, tuple[str, ...]]:
        """Mapping of struct name to field names (for the SL pretty printer)."""
        return {struct.name: struct.field_names for struct in self}

    def merged_with(self, other: "StructRegistry") -> "StructRegistry":
        """Union of two registries (``other`` wins on name clashes)."""
        merged = StructRegistry(self)
        for struct in other:
            merged.add(struct)
        return merged


def standard_structs() -> StructRegistry:
    """The structure types used across the benchmark suite.

    Field names and order mirror :data:`repro.sl.stdpreds.STRUCT_FIELDS`.
    """
    return StructRegistry(
        [
            StructDef("SllNode", [("next", "SllNode*")]),
            StructDef("SNode", [("next", "SNode*"), ("data", "int")]),
            StructDef("DllNode", [("next", "DllNode*"), ("prev", "DllNode*")]),
            StructDef("CNode", [("next", "CNode*"), ("data", "int")]),
            StructDef("TNode", [("left", "TNode*"), ("right", "TNode*")]),
            StructDef("BstNode", [("left", "BstNode*"), ("right", "BstNode*"), ("data", "int")]),
            StructDef(
                "AvlNode",
                [
                    ("left", "AvlNode*"),
                    ("right", "AvlNode*"),
                    ("data", "int"),
                    ("height", "int"),
                ],
            ),
            StructDef(
                "RbNode",
                [
                    ("left", "RbNode*"),
                    ("right", "RbNode*"),
                    ("color", "int"),
                    ("data", "int"),
                ],
            ),
            StructDef("PNode", [("left", "PNode*"), ("right", "PNode*"), ("data", "int")]),
            StructDef("QNode", [("next", "QNode*")]),
            StructDef("Queue", [("head", "QNode*"), ("tail", "QNode*")]),
            StructDef("GSNode", [("next", "GSNode*"), ("data", "int")]),
            StructDef("GNode", [("next", "GNode*"), ("prev", "GNode*"), ("data", "int")]),
            StructDef("NlNode", [("next", "NlNode*"), ("child", "SllNode*")]),
            StructDef(
                "BinNode",
                [
                    ("child", "BinNode*"),
                    ("sibling", "BinNode*"),
                    ("degree", "int"),
                    ("data", "int"),
                ],
            ),
            StructDef("SwNode", [("left", "SwNode*"), ("right", "SwNode*"), ("mark", "int")]),
            StructDef(
                "MemChunk",
                [("next", "MemChunk*"), ("prev", "MemChunk*"), ("size", "int")],
            ),
            StructDef(
                "IterNode",
                [("next", "IterNode*"), ("current", "SllNode*"), ("list", "SllNode*")],
            ),
        ]
    )
