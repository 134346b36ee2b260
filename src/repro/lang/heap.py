"""The heaplang runtime heap (allocator).

Addresses are positive integers; ``0`` is the null pointer.  ``free`` marks a
cell as deallocated but keeps its contents observable, mirroring the
behaviour the paper reports for LLDB on real C programs ("a ``free(x)``
statement does not immediately free the pointer ``x`` so LLDB still observes
(now invalid) heap values", Section 5.3).  The tracer uses
:meth:`RuntimeHeap.freed_among` to tag models built from such cells so the
evaluation can classify the resulting invariants as spurious, exactly as
Table 1 does.

The heap also keeps, per address, the last snapshot cell the tracer built
from it (:attr:`RuntimeHeap.snapshot_cells`); :meth:`RuntimeHeap.write`
drops it, so the next snapshot rebuilds only the cells written since.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.lang.errors import DoubleFree, NullDereference, SegmentationFault, TypeMismatch
from repro.lang.types import StructRegistry


class RuntimeHeap:
    """A growable heap of typed cells with C-like allocation semantics."""

    #: First address handed out by the allocator; spaced to look address-like.
    _BASE_ADDRESS = 0x1000
    _ADDRESS_STRIDE = 0x10

    def __init__(self, structs: StructRegistry):
        self.structs = structs
        self._cells: dict[int, dict[str, int]] = {}
        self._types: dict[int, str] = {}
        #: Address -> its struct's pointer fields (what :meth:`reachable` follows).
        self._pointers: dict[int, tuple[str, ...]] = {}
        self._freed: set[int] = set()
        self._next = self._BASE_ADDRESS
        #: Address -> the last snapshot cell built from its current contents
        #: (owned by :meth:`repro.lang.tracer.Tracer.snapshot`).  A write
        #: drops the entry; freeing keeps it (the contents stay readable).
        self.snapshot_cells: dict[int, object] = {}

    # -- allocation -------------------------------------------------------------

    def alloc(self, type_name: str, inits: Mapping[str, int] | None = None) -> int:
        """Allocate a new cell of the given struct type and return its address."""
        struct = self.structs.get(type_name)
        values = struct.default_values()
        if inits:
            for field_name, value in inits.items():
                if not struct.has_field(field_name):
                    raise TypeMismatch(
                        f"struct {type_name} has no field {field_name!r}"
                    )
                values[field_name] = value
        address = self._next
        self._next += self._ADDRESS_STRIDE
        self._cells[address] = values
        self._types[address] = type_name
        self._pointers[address] = struct.pointer_fields()
        return address

    def free(self, address: int) -> None:
        """Deallocate a cell; contents stay readable (see module docstring)."""
        if address == 0:
            # free(NULL) is a no-op in C.
            return
        if address not in self._cells or address in self._freed:
            raise DoubleFree(f"free of unallocated address {address:#x}")
        self._freed.add(address)

    # -- access -----------------------------------------------------------------

    def _check_address(self, address: int, context: str) -> None:
        if address == 0:
            raise NullDereference(f"{context} through NULL pointer")
        if address not in self._cells:
            raise SegmentationFault(f"{context} at unallocated address {address:#x}")

    def read(self, address: int, field_name: str) -> int:
        """Read ``address->field``.  Reads of freed cells are permitted (UB in C)."""
        self._check_address(address, f"read of field {field_name!r}")
        cell = self._cells[address]
        if field_name not in cell:
            raise TypeMismatch(
                f"cell {address:#x} of type {self._types[address]} has no field {field_name!r}"
            )
        return cell[field_name]

    def write(self, address: int, field_name: str, value: int) -> None:
        """Write ``address->field = value``."""
        self._check_address(address, f"write of field {field_name!r}")
        cell = self._cells[address]
        if field_name not in cell:
            raise TypeMismatch(
                f"cell {address:#x} of type {self._types[address]} has no field {field_name!r}"
            )
        cell[field_name] = value
        self.snapshot_cells.pop(address, None)

    # -- queries -----------------------------------------------------------------

    def is_allocated(self, address: int) -> bool:
        """True when the address holds a live (not freed) cell."""
        return address in self._cells and address not in self._freed

    def is_freed(self, address: int) -> bool:
        """True when the address was allocated and later freed."""
        return address in self._freed

    def exists(self, address: int) -> bool:
        """True when the address was ever allocated (live or freed)."""
        return address in self._cells

    def type_of(self, address: int) -> str:
        """The struct type of the cell at ``address``."""
        self._check_address(address, "type query")
        return self._types[address]

    def cell(self, address: int) -> dict[str, int]:
        """A copy of the field values of the cell at ``address``."""
        self._check_address(address, "cell query")
        return dict(self._cells[address])

    def peek(self, address: int) -> tuple[str, dict[str, int]]:
        """The struct type and the *live* field values of an allocated cell.

        Neither copied nor checked: for a reader that got ``address`` from
        this heap (e.g. from :meth:`reachable`) and neither keeps nor
        mutates the dict, as the tracer's snapshot does.
        """
        return self._types[address], self._cells[address]

    def freed_among(self, addresses: Iterable[int]) -> set[int]:
        """The given addresses that were allocated and later freed."""
        return self._freed.intersection(addresses)

    def addresses(self) -> frozenset[int]:
        """All addresses ever allocated (live and freed)."""
        return frozenset(self._cells)

    def live_addresses(self) -> frozenset[int]:
        """Addresses of live (not freed) cells."""
        return frozenset(addr for addr in self._cells if addr not in self._freed)

    def contents(self) -> tuple:
        """All a run can observe of this heap: every cell in allocation
        order with its type and field values, the freed addresses and the
        next address the allocator hands out."""
        types = self._types
        return (
            tuple(
                (address, types[address], tuple(values.items()))
                for address, values in self._cells.items()
            ),
            tuple(sorted(self._freed)),
            self._next,
        )

    def live_count(self) -> int:
        """Number of live cells (used by leak-detection assertions in tests)."""
        return len(self._cells) - len(self._freed)

    def reachable(self, roots: Iterable[int], include_freed: bool = True) -> frozenset[int]:
        """Cells reachable from ``roots`` by following pointer fields.

        ``include_freed`` keeps freed-but-referenced cells in the result,
        matching what a debugger would observe.
        """
        cells, pointers = self._cells, self._pointers
        freed = None if include_freed else self._freed
        seen: set[int] = set()
        stack = [addr for addr in roots if addr in cells]
        while stack:
            address = stack.pop()
            if address in seen:
                continue
            if freed is not None and address in freed:
                continue
            seen.add(address)
            cell = cells[address]
            for field_name in pointers[address]:
                value = cell[field_name]
                if value in cells and value not in seen:
                    stack.append(value)
        return frozenset(seen)
