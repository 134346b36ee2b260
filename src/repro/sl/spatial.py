r"""Spatial formulae and symbolic heaps of the symbolic-heap SL fragment.

This module implements the ``Sigma`` (spatial formulae) and ``F`` (SL
formulae) productions of Figure 4.  The canonical formula shape used
throughout the reproduction is :class:`SymHeap`::

    F  =  exists u1 ... um .  Sigma  /\  Pi

with ``Sigma`` a ``*``-separated list of spatial atoms (``emp``, points-to
predicates and inductive-predicate applications) and ``Pi`` a conjunction of
pure formulae.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.sl.exprs import Expr, PureFormula, TrueF, Var, conjoin

_FRESH_COUNTER = itertools.count(1)

#: Shared empty renaming for structural keys of closed formulae.
_EMPTY_REN: dict[str, str] = {}


def fresh_var(prefix: str = "_v") -> str:
    """Return a globally fresh variable name with the given prefix."""
    return f"{prefix}{next(_FRESH_COUNTER)}"


def fresh_vars(count: int, prefix: str = "_v") -> list[str]:
    """Return ``count`` globally fresh variable names."""
    return [fresh_var(prefix) for _ in range(count)]


# ---------------------------------------------------------------------------
# Spatial atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spatial:
    """Base class of spatial formulae."""

    def free_vars(self) -> frozenset[str]:
        raise NotImplementedError

    def substitute(self, subst: Mapping[str, Expr]) -> "Spatial":
        raise NotImplementedError

    def skey(self, ren: Mapping[str, str]) -> object:
        """Structural key of the formula (see :meth:`repro.sl.exprs.Expr.skey`)."""
        raise NotImplementedError

    def atoms(self) -> tuple["Spatial", ...]:
        """Flatten the formula into its list of ``*``-separated atoms."""
        return (self,)


@dataclass(frozen=True)
class Emp(Spatial):
    """The empty-heap predicate ``emp``."""

    def free_vars(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, subst: Mapping[str, Expr]) -> Spatial:
        return self

    def skey(self, ren: Mapping[str, str]) -> object:
        return _EMP_KEY

    def atoms(self) -> tuple[Spatial, ...]:
        return ()


_EMP_KEY = ("emp",)


@dataclass(frozen=True)
class PointsTo(Spatial):
    """Singleton heap predicate ``x ->_tau t1, ..., tn``.

    ``source`` is the address expression, ``type_name`` the name of the
    ``n``-field structure type ``tau`` and ``args`` the field values in
    declaration order.
    """

    source: Expr
    type_name: str
    args: tuple[Expr, ...]

    def __init__(self, source: Expr, type_name: str, args: Iterable[Expr]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "type_name", type_name)
        object.__setattr__(self, "args", tuple(args))

    def free_vars(self) -> frozenset[str]:
        result = self.source.free_vars()
        for arg in self.args:
            result |= arg.free_vars()
        return result

    def substitute(self, subst: Mapping[str, Expr]) -> Spatial:
        return PointsTo(
            self.source.substitute(subst),
            self.type_name,
            tuple(arg.substitute(subst) for arg in self.args),
        )

    def skey(self, ren: Mapping[str, str]) -> object:
        return (
            "pt",
            self.source.skey(ren),
            self.type_name,
            *[arg.skey(ren) for arg in self.args],
        )


@dataclass(frozen=True)
class PredApp(Spatial):
    """Inductive heap predicate application ``p(t1, ..., tn)``."""

    name: str
    args: tuple[Expr, ...]

    def __init__(self, name: str, args: Iterable[Expr]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))

    def free_vars(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for arg in self.args:
            result |= arg.free_vars()
        return result

    def substitute(self, subst: Mapping[str, Expr]) -> Spatial:
        return PredApp(self.name, tuple(arg.substitute(subst) for arg in self.args))

    def skey(self, ren: Mapping[str, str]) -> object:
        return ("app", self.name, *[arg.skey(ren) for arg in self.args])


@dataclass(frozen=True)
class SepConj(Spatial):
    """Separating conjunction ``Sigma1 * Sigma2 * ...``."""

    parts: tuple[Spatial, ...]

    def __init__(self, parts: Iterable[Spatial]):
        flat: list[Spatial] = []
        for part in parts:
            if isinstance(part, SepConj):
                flat.extend(part.parts)
            elif isinstance(part, Emp):
                continue
            else:
                flat.append(part)
        object.__setattr__(self, "parts", tuple(flat))

    def free_vars(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for part in self.parts:
            result |= part.free_vars()
        return result

    def substitute(self, subst: Mapping[str, Expr]) -> Spatial:
        return SepConj(part.substitute(subst) for part in self.parts)

    def skey(self, ren: Mapping[str, str]) -> object:
        return ("sep", *[part.skey(ren) for part in self.parts])

    def atoms(self) -> tuple[Spatial, ...]:
        result: list[Spatial] = []
        for part in self.parts:
            result.extend(part.atoms())
        return tuple(result)


def star(*parts: Spatial) -> Spatial:
    """Combine spatial formulae with the separating conjunction.

    ``emp`` units are removed; a single remaining atom is returned as-is and
    an empty combination yields ``emp``.
    """
    conj = SepConj(parts)
    if not conj.parts:
        return Emp()
    if len(conj.parts) == 1:
        return conj.parts[0]
    return conj


# ---------------------------------------------------------------------------
# Symbolic heaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymHeap:
    """A symbolic heap ``exists xs . Sigma /\\ Pi``."""

    exists: tuple[str, ...] = ()
    spatial: Spatial = field(default_factory=Emp)
    pure: PureFormula = field(default_factory=TrueF)

    def __init__(
        self,
        exists: Iterable[str] = (),
        spatial: Spatial | None = None,
        pure: PureFormula | Iterable[PureFormula] | None = None,
    ):
        object.__setattr__(self, "exists", tuple(exists))
        object.__setattr__(self, "spatial", spatial if spatial is not None else Emp())
        if pure is None:
            pure_formula: PureFormula = TrueF()
        elif isinstance(pure, PureFormula):
            pure_formula = pure
        else:
            pure_formula = conjoin(pure)
        object.__setattr__(self, "pure", pure_formula)

    def __hash__(self) -> int:
        # Memo keys hold formulas: hash the tree once per formula.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.exists, self.spatial, self.pure))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # The cached hash is salted per process, and the cached rendering
        # (see :func:`repro.sl.pretty.pretty`) is rebuilt on demand.
        return {"exists": self.exists, "spatial": self.spatial, "pure": self.pure}

    # -- queries ------------------------------------------------------------

    def free_vars(self) -> frozenset[str]:
        """Free variables: all variables minus the existentially bound ones."""
        return (self.spatial.free_vars() | self.pure.free_vars()) - set(self.exists)

    def all_vars(self) -> frozenset[str]:
        """All variables occurring in the formula, bound or free."""
        return self.spatial.free_vars() | self.pure.free_vars() | frozenset(self.exists)

    def spatial_atoms(self) -> tuple[Spatial, ...]:
        """The ``*``-separated spatial atoms of the formula."""
        return self.spatial.atoms()

    def structural_key(self) -> tuple:
        """Alpha-normalized structural identity of the formula.

        Bound variables are renamed positionally to ``?e0, ?e1, ...`` (the
        ``?`` prefix cannot appear in parsed names), so alpha-variants --
        candidates that differ only in machine-generated existential names --
        share one key.  The existential *count* is part of the key: two
        formulae with identical bodies but different numbers of unused bound
        variables must not collide.  Building this tuple touches no strings
        beyond the ones already interned in the AST, which is what makes it
        cheap (no ``pretty()`` call).
        """
        if not self.exists:
            return (0, self.spatial.skey(_EMPTY_REN), self.pure.skey(_EMPTY_REN))
        ren = {name: f"?e{position}" for position, name in enumerate(self.exists)}
        return (len(self.exists), self.spatial.skey(ren), self.pure.skey(ren))

    def is_emp(self) -> bool:
        """True when the spatial part is (equivalent to) ``emp``."""
        return len(self.spatial_atoms()) == 0

    # -- construction helpers -------------------------------------------------

    def substitute(self, subst: Mapping[str, Expr]) -> "SymHeap":
        """Substitute free variables (bound variables are protected)."""
        filtered = {name: expr for name, expr in subst.items() if name not in self.exists}
        return SymHeap(
            self.exists,
            self.spatial.substitute(filtered),
            self.pure.substitute(filtered),
        )

    def with_pure(self, extra: Iterable[PureFormula]) -> "SymHeap":
        """Return a copy with additional pure conjuncts."""
        return SymHeap(self.exists, self.spatial, conjoin([self.pure, *extra]))

    def rename_exists_fresh(self, prefix: str = "_v") -> "SymHeap":
        """Alpha-rename bound variables to globally fresh names."""
        if not self.exists:
            return self
        renaming = {name: Var(fresh_var(prefix)) for name in self.exists}
        new_names = tuple(renaming[name].name for name in self.exists)
        return SymHeap(
            new_names,
            self.spatial.substitute(renaming),
            self.pure.substitute(renaming),
        )

    def star_with(self, other: "SymHeap") -> "SymHeap":
        """Separating conjunction of two symbolic heaps.

        Bound variables of both operands are freshened to avoid capture.
        """
        left = self.rename_exists_fresh()
        right = other.rename_exists_fresh()
        return SymHeap(
            left.exists + right.exists,
            star(left.spatial, right.spatial),
            conjoin([left.pure, right.pure]),
        )


def sym_heap(
    spatial: Spatial | Sequence[Spatial] | None = None,
    pure: PureFormula | Sequence[PureFormula] | None = None,
    exists: Iterable[str] = (),
) -> SymHeap:
    """Convenience constructor accepting lists of atoms/conjuncts."""
    if spatial is None:
        spatial_formula: Spatial = Emp()
    elif isinstance(spatial, Spatial):
        spatial_formula = spatial
    else:
        spatial_formula = star(*spatial)
    return SymHeap(exists=exists, spatial=spatial_formula, pure=pure)
