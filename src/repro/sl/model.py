"""Stack-heap models (concrete traces) and their operators.

A stack-heap model ``(s, h)`` pairs a *stack* ``s : Var -> Val`` with a
*heap* ``h : Loc -> (Type, Val*)`` (Section 3 of the paper).  Values are
Python integers, ``nil`` is ``0`` and allocated addresses are positive
integers.

The module also provides the sequence operators ``(+)`` (disjoint union) and
``(\\)`` (difference) lifted over sequences of models, which Algorithm 1 uses
to thread residual heaps through the iterative inference.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.sl.errors import HeapError
from repro.sl.exprs import NIL_VALUE


# ---------------------------------------------------------------------------
# Canonical labeling (address-bijection invariants)
# ---------------------------------------------------------------------------
#
# Two stack-heap models that differ only by a bijection on their allocated
# addresses satisfy exactly the same symbolic-heap formulae (for the fragment
# this reproduction checks: pointer values are only ever compared for
# equality, followed, or tested for allocation -- never ordered or used in
# arithmetic).  Canonical labeling makes that equivalence *observable*: a
# deterministic DFS from the sorted stack roots renames addresses to dense
# canonical ids, and models (or bare heaps) with equal canonical forms are
# isomorphic, with the composed relabelings as the witness bijection.
#
# Encoding.  In a canonical form every *address occurrence* (a value that
# lies in ``dom(h)`` at a position typed as a pointer) is replaced by the
# tagged pair ``('a', cid)``; every other value is kept raw.  The tag keeps
# renamed addresses from colliding with untouched integer data, so equal
# forms really do mean "same structure, same data, addresses renamed".
# :meth:`Heap.canonical` also tags a non-nil pointer to an address outside
# the heap (a residual heap's cells may point into the part split off),
# with ids after the in-heap ones in encoding order: such an address is only
# ever compared for equality, so renamed residuals share one form too.
#
# Exactness guard.  The invariance argument needs every renamed value to be
# used only as a pointer.  With a :class:`~repro.lang.types.StructRegistry`
# the field types decide that exactly; a model where an *integer-typed*
# field (or integer-typed stack variable) coincidentally holds an allocated
# address is marked ``exact=False`` and excluded from any sharing, as is
# every canonicalization performed without struct information.  The one
# consumer in the pipeline, the checker's canonical stream keys (built from
# :meth:`Heap.canonical`), only ever shares work between ``exact`` forms.
# :meth:`StackHeapModel.canonical` labels a whole model; no pipeline stage
# calls it, but ``perfbench/layers.py`` times it as the ``sl.model`` layer.


class HashedKey:
    """A tuple key hashed once: dict lookups, LRU moves and equality tests
    reuse the hash instead of walking the tuple again."""

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple):
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self.key == other.key


class CanonicalForm(HashedKey):
    """An interned canonical form: value identity with a precomputed hash."""

    __slots__ = ("stable_repr",)

    def __init__(self, key: tuple):
        super().__init__(key)
        #: The form's rendering inside persistent-cache keys, filled on
        #: first use by :func:`repro.cache.serialize.stable_key_bytes`.
        self.stable_repr: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CanonicalForm({self._hash:#x})"


#: Process-wide intern table: canonical key -> shared :class:`CanonicalForm`.
#: Forked engine workers inherit every form the parent interned before the
#: fork, copy-on-write (see ``repro.core.engine.warm_worker_state``).
_INTERN_FORMS: dict[tuple, CanonicalForm] = {}
_INTERN_LIMIT = 65_536


def intern_form(key: tuple) -> CanonicalForm:
    """The shared :class:`CanonicalForm` for ``key`` (process-wide)."""
    form = _INTERN_FORMS.get(key)
    if form is None:
        if len(_INTERN_FORMS) >= _INTERN_LIMIT:
            # Safety valve: forms are tiny, but unbounded growth across a
            # long-lived engine process is still growth.  Dropping the table
            # only loses sharing of *identity*, never correctness.
            _INTERN_FORMS.clear()
        form = CanonicalForm(key)
        _INTERN_FORMS[key] = form
    return form


def intern_table_size() -> int:
    """Number of canonical forms currently interned in this process."""
    return len(_INTERN_FORMS)


class HeapCanon:
    """The canonical labeling of one heap (relative to a DFS seed order).

    ``to_id`` maps each allocated address to its dense canonical id (1-based,
    in DFS-visit order); ``to_tag`` maps it, and every non-nil pointer out
    of the heap (ids after the in-heap ones), to the tagged pair used inside
    canonical forms; ``from_addr`` is the inverse (index 0 unused).  ``exact``
    is the exactness guard described in the module notes; ``root_tag`` is the
    encoded seed value (``('a', 1)`` whenever the seed is allocated).

    The labeling is also the *view* through which one consumer reads a
    skeleton stream (:mod:`repro.sl.stream`): the methods below translate
    between this heap's concrete values and the stream's canonical space.
    """

    __slots__ = ("form", "exact", "to_id", "to_tag", "from_addr", "root_tag")

    def __init__(self, form, exact, to_id, to_tag, from_addr, root_tag):
        self.form = form
        self.exact = exact
        self.to_id = to_id
        self.to_tag = to_tag
        self.from_addr = from_addr
        self.root_tag = root_tag

    def encode(self, values: tuple) -> tuple:
        """Canonical-space images of concrete values (tags or raw)."""
        to_tag = self.to_tag
        return tuple(to_tag.get(value, value) for value in values)

    def decode(self, value):
        """Concrete image of a canonical-space value (tag or raw)."""
        if type(value) is tuple:
            return self.from_addr[value[1]]
        return value

    def decode_avail(self, ids: frozenset) -> frozenset:
        """Concrete addresses of a set of canonical ids."""
        from_addr = self.from_addr
        return frozenset(from_addr[cid] for cid in ids)

    def decode_env(self, env: dict) -> dict:
        """A fresh, concrete copy of a canonical-space environment (always a
        copy: the kernel's endgame extends it in place)."""
        from_addr = self.from_addr
        return {
            name: from_addr[value[1]] if type(value) is tuple else value
            for name, value in env.items()
        }


class ModelCanon:
    """The canonical labeling of one stack-heap model (stack roots as seeds)."""

    __slots__ = ("form", "exact", "to_id", "to_tag", "from_addr")

    def __init__(self, form, exact, to_id, to_tag, from_addr):
        self.form = form
        self.exact = exact
        self.to_id = to_id
        self.to_tag = to_tag
        self.from_addr = from_addr


def _label_addresses(cells: Mapping[int, "HeapCell"], seeds: Iterable[int]) -> list[int]:
    """Visit order of a deterministic DFS from ``seeds``.

    Seeds are taken in the given order; successors are field values that are
    themselves allocated, followed in declaration order.  Addresses not
    reachable from any seed are appended in ascending address order (each
    starting its own DFS), which keeps the labeling total and deterministic
    -- though only the seeded part is invariant under address renaming.
    """
    order: list[int] = []
    seen: set[int] = set()

    def visit(start: int) -> None:
        stack = [start]
        while stack:
            addr = stack.pop()
            if addr in seen:
                continue
            seen.add(addr)
            order.append(addr)
            # Reversed so the first declared field is explored first.
            for value in reversed(cells[addr].values):
                if value != NIL_VALUE and value not in seen and value in cells:
                    stack.append(value)

    for seed in seeds:
        if seed in cells and seed not in seen:
            visit(seed)
    if len(seen) != len(cells):
        for addr in sorted(cells):
            if addr not in seen:
                visit(addr)
    return order


def _build_labeling(cells, seeds, structs, label_outside=False):
    """The full canonical labeling of one cell map: DFS order, both address
    maps, the inverse, the encoded cell tuple and the exactness verdict.
    ``label_outside`` also labels pointers out of the map (see
    :func:`_encode_cells`).

    Shared by :meth:`Heap.canonical` and :meth:`StackHeapModel.canonical` so
    the tag encoding and id base can never drift apart between the two --
    cross-consumer form equality depends on them being identical.
    """
    order = _label_addresses(cells, seeds)
    to_id = {addr: position + 1 for position, addr in enumerate(order)}
    to_tag = {addr: ("a", cid) for addr, cid in to_id.items()}
    outside = [] if label_outside else None
    encoded, exact = _encode_cells(cells, order, to_tag, structs, outside)
    from_addr = (0, *order, *(outside or ()))
    return to_id, to_tag, from_addr, encoded, exact


def _encode_cells(cells, order, to_tag, structs, outside=None) -> tuple[tuple, bool]:
    """Canonical cell tuple (in id order) plus the exactness verdict.

    With an ``outside`` list, a pointer field holding a non-nil address
    outside ``cells`` labels that address too: it gets the next id after
    the in-heap ones, in encoding order, and is appended to ``outside``.
    """
    exact = structs is not None
    data = []
    encoded = []
    for addr in order:
        cell = cells[addr]
        struct = structs.get(cell.type_name) if structs is not None and cell.type_name in structs else None
        if struct is None:
            # Unknown structure type: fall back to the value-based heuristic
            # (anything allocated is treated as a pointer) and drop the
            # exactness claim.
            exact = False
            fields = tuple(
                (name, to_tag.get(value, value)) for name, value in cell.fields
            )
        else:
            fields = []
            for name, value in cell.fields:
                if struct.field_type(name).endswith("*"):
                    if outside is not None and value != NIL_VALUE and value not in to_tag:
                        outside.append(value)
                        to_tag[value] = ("a", len(order) + len(outside))
                    fields.append((name, to_tag.get(value, value)))
                else:
                    data.append(value)
                    fields.append((name, value))
            fields = tuple(fields)
        encoded.append((cell.type_name, fields))
    if exact and any(value in to_tag for value in data):
        # An integer field holding a labeled address: the renaming could
        # change arithmetic over this value.
        exact = False
    return tuple(encoded), exact


@dataclass(frozen=True)
class HeapCell:
    """A single allocated cell: its structure type and field values."""

    type_name: str
    fields: tuple[tuple[str, int], ...]

    def __init__(self, type_name: str, fields: Mapping[str, int] | Iterable[tuple[str, int]]):
        object.__setattr__(self, "type_name", type_name)
        if isinstance(fields, Mapping):
            items = tuple(fields.items())
        else:
            items = tuple(fields)
        object.__setattr__(self, "fields", items)
        # The checker reads the value tuple on every points-to match
        # attempt; materialize it once, eagerly.
        object.__setattr__(self, "_values", tuple(value for _, value in items))

    @classmethod
    def from_layout(
        cls, type_name: str, names: tuple[str, ...], values: tuple[int, ...]
    ) -> "HeapCell":
        """The cell with field ``names`` holding ``values`` (same order).

        Equal to ``HeapCell(type_name, zip(names, values))``, without
        ``__init__``'s normalization: the tracer builds every snapshot cell
        this way from its struct's field names.
        """
        cell = object.__new__(cls)
        cell.__dict__.update(type_name=type_name, fields=tuple(zip(names, values)), _values=values)
        return cell

    def digest(self) -> bytes:
        """A 16-byte ``blake2b`` digest of the cell's type and fields.

        Computed once per cell: the tracer shares one cell among every
        snapshot taken while it stays unwritten, and
        :meth:`StackHeapModel.digest` folds these.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            text = repr((self.type_name, self.fields))
            cached = self.__dict__["_digest"] = hashlib.blake2b(
                text.encode(), digest_size=16
            ).digest()
        return cached

    @property
    def values(self) -> tuple[int, ...]:
        """Field values in declaration order (precomputed in ``__init__``)."""
        return self._values

    @property
    def field_names(self) -> tuple[str, ...]:
        """Field names in declaration order."""
        return tuple(name for name, _ in self.fields)

    def get(self, field_name: str) -> int:
        """Return the value of ``field_name``."""
        for name, value in self.fields:
            if name == field_name:
                return value
        raise HeapError(f"cell of type {self.type_name!r} has no field {field_name!r}")


class Heap:
    """An immutable finite partial map from addresses to :class:`HeapCell`."""

    __slots__ = ("_cells", "_hash", "_domain", "_canon", "_reach")

    def __init__(self, cells: Mapping[int, HeapCell] | None = None):
        self._cells: dict[int, HeapCell] = dict(cells) if cells else {}
        self._hash: int | None = None
        self._domain: frozenset[int] | None = None
        #: Per-root canonical labelings (see :meth:`canonical`).
        self._canon: dict[int, HeapCanon] | None = None
        #: Memoized reachability (see :meth:`reachable_from`).
        self._reach: dict[tuple[int, ...], frozenset[int]] | None = None

    def __getstate__(self) -> dict[int, HeapCell]:
        # Cached hash/domain/canon are per-process (string hashing is
        # salted); ship only the cells across pickle boundaries.
        return self._cells

    def __setstate__(self, state: dict[int, HeapCell]) -> None:
        self._cells = state
        self._hash = None
        self._domain = None
        self._canon = None
        self._reach = None

    # -- mapping interface ----------------------------------------------------

    def __contains__(self, addr: int) -> bool:
        return addr in self._cells

    def __getitem__(self, addr: int) -> HeapCell:
        try:
            return self._cells[addr]
        except KeyError:
            raise HeapError(f"address {addr:#x} is not allocated") from None

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[int]:
        return iter(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Heap):
            return NotImplemented
        return self._cells == other._cells

    def __hash__(self) -> int:
        # Heaps are hashed on every memoized checker lookup; the underlying
        # frozenset is only materialized once.
        if self._hash is None:
            self._hash = hash(frozenset(self._cells.items()))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Heap({self._cells!r})"

    # -- queries --------------------------------------------------------------

    def domain(self) -> frozenset[int]:
        """The set of allocated addresses ``dom(h)`` (computed once)."""
        if self._domain is None:
            self._domain = frozenset(self._cells)
        return self._domain

    def items(self) -> Iterable[tuple[int, HeapCell]]:
        """Iterate over ``(address, cell)`` pairs."""
        return self._cells.items()

    def get(self, addr: int) -> HeapCell | None:
        """Return the cell at ``addr`` or ``None`` if unallocated."""
        return self._cells.get(addr)

    def is_empty(self) -> bool:
        """True if the heap has no cells."""
        return not self._cells

    def disjoint_from(self, other: "Heap") -> bool:
        """``h1 # h2``: the two heaps have disjoint domains."""
        if len(self._cells) > len(other._cells):
            return other.disjoint_from(self)
        return all(addr not in other._cells for addr in self._cells)

    # -- constructions ---------------------------------------------------------

    def restrict(self, addrs: Iterable[int]) -> "Heap":
        """The sub-heap containing only the given addresses (that are present)."""
        wanted = set(addrs)
        return Heap({addr: cell for addr, cell in self._cells.items() if addr in wanted})

    def remove(self, addrs: Iterable[int]) -> "Heap":
        """The heap without the given addresses."""
        unwanted = set(addrs)
        return Heap({addr: cell for addr, cell in self._cells.items() if addr not in unwanted})

    def union(self, other: "Heap") -> "Heap":
        """Disjoint union ``h1 o h2``; raises :class:`HeapError` on overlap."""
        if not self.disjoint_from(other):
            overlap = self.domain() & other.domain()
            raise HeapError(f"heap union of overlapping heaps (shared addresses {sorted(overlap)})")
        merged = dict(self._cells)
        merged.update(other._cells)
        return Heap(merged)

    def difference(self, other: "Heap") -> "Heap":
        """Heap difference ``h1 \\ h2`` (removes addresses present in ``other``)."""
        return self.remove(other.domain())

    def reachable_from(self, roots: Iterable[int]) -> frozenset[int]:
        """Addresses of cells reachable from ``roots`` by following field values.

        Memoized per (normalized) root set: the variable-ordering heuristic,
        the heap splitter and the candidate screens all re-ask the same
        reachability questions about the same (immutable) heap.
        """
        key = tuple(sorted(set(roots)))
        cache = self._reach
        if cache is None:
            cache = self._reach = {}
        cached = cache.get(key)
        if cached is not None:
            return cached
        seen: set[int] = set()
        stack = [addr for addr in key if addr in self._cells]
        while stack:
            addr = stack.pop()
            if addr in seen:
                continue
            seen.add(addr)
            for value in self._cells[addr].values:
                if value != NIL_VALUE and value in self._cells and value not in seen:
                    stack.append(value)
        result = frozenset(seen)
        cache[key] = result
        return result

    # -- canonical labeling ----------------------------------------------------

    def canonical(self, root: int, structs=None) -> HeapCanon:
        """Canonical labeling of this heap with the DFS seeded at ``root``.

        Cached per root value.  The cache deliberately ignores ``structs``
        identity: a heap lives inside one program, whose struct registry does
        not change over the heap's lifetime.
        """
        cache = self._canon
        if cache is None:
            cache = self._canon = {}
        cached = cache.get(root)
        if cached is not None:
            return cached
        cells = self._cells
        to_id, to_tag, from_addr, encoded, exact = _build_labeling(
            cells, (root,), structs, label_outside=True
        )
        canon = HeapCanon(
            form=intern_form(("h", encoded)),
            exact=exact,
            to_id=to_id,
            to_tag=to_tag,
            from_addr=from_addr,
            root_tag=to_tag.get(root, root),
        )
        cache[root] = canon
        return canon


@dataclass(frozen=True)
class StackHeapModel:
    """A concrete trace: stack, heap and (optional) variable typing.

    ``var_types`` maps stack variable names to heaplang type names (e.g.
    ``"Node*"`` or ``"int"``); it is used by the inference to restrict
    predicate-argument candidates to type-consistent variables.

    ``freed_addresses`` records addresses that were reachable at snapshot
    time but had already been passed to ``free``; the paper observes that
    LLDB still reports the (now invalid) contents of such cells, which makes
    the resulting invariants spurious.  We keep the information so the
    evaluation can report spurious counts exactly like Table 1.
    """

    stack: tuple[tuple[str, int], ...]
    heap: Heap
    var_types: tuple[tuple[str, str], ...] = ()
    freed_addresses: frozenset[int] = frozenset()

    def __init__(
        self,
        stack: Mapping[str, int] | Iterable[tuple[str, int]],
        heap: Heap | Mapping[int, HeapCell],
        var_types: Mapping[str, str] | Iterable[tuple[str, str]] = (),
        freed_addresses: Iterable[int] = (),
    ):
        stack_items = tuple(stack.items()) if isinstance(stack, Mapping) else tuple(stack)
        object.__setattr__(self, "stack", stack_items)
        object.__setattr__(self, "heap", heap if isinstance(heap, Heap) else Heap(heap))
        type_items = (
            tuple(var_types.items()) if isinstance(var_types, Mapping) else tuple(var_types)
        )
        object.__setattr__(self, "var_types", type_items)
        object.__setattr__(self, "freed_addresses", frozenset(freed_addresses))

    def __hash__(self) -> int:
        # Models key memo tables (split sharing); cache the
        # (immutable) hash.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.stack, self.heap, self.var_types, self.freed_addresses))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # Drop the per-process caches (salted hashes, derived dicts) so a
        # pickled model re-derives them in the receiving interpreter.  The
        # digest is not salted, so it travels with the model.
        state = dict(self.__dict__)
        for cache in ("_hash", "_stack_map", "_types_map", "_canonical", "_pointer_vars"):
            state.pop(cache, None)
        return state

    def digest(self) -> bytes:
        """A 20-byte ``blake2b`` digest of the model's four fields.

        It covers the stack, the heap addresses in insertion order with each
        cell's :meth:`HeapCell.digest`, the typing and the sorted freed
        addresses, so equal digests mean equal models with equal heap order.
        Computed once per model: the location and validation memo keys of
        :mod:`repro.core.sling` fold it instead of the model itself.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            cells = self.heap._cells
            text = repr((self.stack, tuple(cells), self.var_types, sorted(self.freed_addresses)))
            digest = hashlib.blake2b(text.encode(), digest_size=20)
            digest.update(b"".join([cell.digest() for cell in cells.values()]))
            cached = digest.digest()
            object.__setattr__(self, "_digest", cached)
        return cached

    # -- stack access -----------------------------------------------------------

    @property
    def stack_dict(self) -> dict[str, int]:
        """The stack as a fresh dictionary (variable -> value)."""
        return dict(self.stack)

    @property
    def type_dict(self) -> dict[str, str]:
        """Variable typing as a fresh dictionary (variable -> type name)."""
        return dict(self.var_types)

    @property
    def stack_map(self) -> dict[str, int]:
        """The stack as a shared, cached dictionary.  Do not mutate."""
        cached = self.__dict__.get("_stack_map")
        if cached is None:
            cached = dict(self.stack)
            object.__setattr__(self, "_stack_map", cached)
        return cached

    @property
    def types_map(self) -> dict[str, str]:
        """Variable typing as a shared, cached dictionary.  Do not mutate."""
        cached = self.__dict__.get("_types_map")
        if cached is None:
            cached = dict(self.var_types)
            object.__setattr__(self, "_types_map", cached)
        return cached

    def value_of(self, var: str) -> int:
        """Value of a stack variable."""
        return self.stack_map[var]

    def has_var(self, var: str) -> bool:
        """True when the stack binds ``var``."""
        return var in self.stack_map

    def pointer_vars(self) -> tuple[str, ...]:
        """Stack variables with a pointer type (or untyped variables that hold addresses).

        Computed once per model (the variable-ordering heuristic, the heap
        splitter and pure inference all re-ask it); callers must not mutate
        the returned tuple's backing (they cannot -- it is a tuple).
        """
        cached = self.__dict__.get("_pointer_vars")
        if cached is not None:
            return cached
        types = self.types_map
        result = []
        for name, value in self.stack:
            var_type = types.get(name)
            if var_type is not None:
                if var_type.endswith("*"):
                    result.append(name)
            elif value == NIL_VALUE or value in self.heap:
                result.append(name)
        cached = tuple(result)
        object.__setattr__(self, "_pointer_vars", cached)
        return cached

    # -- canonical labeling -----------------------------------------------------

    def canonical(self, structs=None) -> ModelCanon:
        """Canonical labeling of the model, seeded from the sorted stack roots.

        Models with equal (``exact``) canonical forms are isomorphic: they
        have the same stack variables, types and data, and their heaps differ
        only by the address bijection ``other.from_addr . self.to_id``.
        Cached per model; the cache ignores ``structs`` identity (one program,
        one registry -- see :meth:`Heap.canonical`).
        """
        cached = self.__dict__.get("_canonical")
        if cached is not None:
            return cached
        cells = self.heap._cells
        types = self.types_map
        seeds = [value for _, value in sorted(self.stack)]
        to_id, to_tag, from_addr, encoded, exact = _build_labeling(cells, seeds, structs)
        stack_enc = []
        for name, value in self.stack:
            var_type = types.get(name)
            if var_type is None:
                # Untyped stack variable (e.g. the ghost ``res``): treated as
                # a pointer whenever it holds an allocated address, exactly
                # like :meth:`pointer_vars` does.
                stack_enc.append((name, to_tag.get(value, value)))
            elif var_type.endswith("*"):
                stack_enc.append((name, to_tag.get(value, value)))
            else:
                if value in to_tag:
                    # Integer variable coincidentally holding an address: the
                    # renaming could change its arithmetic meaning.
                    exact = False
                stack_enc.append((name, value))
        freed_enc = tuple(
            sorted(
                (to_tag.get(addr, addr) for addr in self.freed_addresses),
                key=lambda item: (1, item[1]) if type(item) is tuple else (0, item),
            )
        )
        key = ("m", tuple(stack_enc), self.var_types, encoded, freed_enc)
        canon = ModelCanon(
            form=intern_form(key),
            exact=exact,
            to_id=to_id,
            to_tag=to_tag,
            from_addr=from_addr,
        )
        object.__setattr__(self, "_canonical", canon)
        return canon

    def has_freed_cells(self) -> bool:
        """True when the snapshot observed cells that had already been freed."""
        return bool(self.freed_addresses)

    # -- heap constructions -------------------------------------------------------

    def with_heap(self, heap: Heap) -> "StackHeapModel":
        """Return a copy of the model with a different heap.

        The other fields are normalized already, so the copy skips
        ``__init__``.  It keeps the stack and typing dict caches, but not
        ``_hash``, ``_canonical``, ``_pointer_vars`` or ``_digest``: they
        depend on the heap.
        """
        copy = object.__new__(StackHeapModel)
        state = copy.__dict__
        state["stack"] = self.stack
        state["heap"] = heap
        state["var_types"] = self.var_types
        state["freed_addresses"] = self.freed_addresses
        for cache in ("_stack_map", "_types_map"):
            cached = self.__dict__.get(cache)
            if cached is not None:
                state[cache] = cached
        return copy


def models_union(
    models: Sequence[StackHeapModel], others: Sequence[StackHeapModel]
) -> list[StackHeapModel]:
    """Pointwise disjoint heap union of two equal-length model sequences."""
    if len(models) != len(others):
        raise HeapError("model sequences of different lengths cannot be combined")
    return [m.with_heap(m.heap.union(o.heap)) for m, o in zip(models, others)]


def models_difference(
    models: Sequence[StackHeapModel], others: Sequence[StackHeapModel]
) -> list[StackHeapModel]:
    """Pointwise heap difference of two equal-length model sequences."""
    if len(models) != len(others):
        raise HeapError("model sequences of different lengths cannot be combined")
    return [m.with_heap(m.heap.difference(o.heap)) for m, o in zip(models, others)]
