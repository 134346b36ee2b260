"""Pure expressions and pure formulae of the symbolic-heap fragment.

This module implements the ``e`` (integer expressions), ``a`` (spatial
expressions) and ``Pi`` (pure formulae) productions of Figure 4 in the
paper.  Values are plain Python integers; the null address ``nil`` is the
integer ``0`` (see :data:`NIL_VALUE`).

Expressions and formulae are immutable dataclasses.  They support

* evaluation under an environment (a mapping from variable names to values),
* substitution of variables by expressions,
* free-variable computation,
* structural keys (:meth:`Expr.skey`): nested tuples of plain strings and
  integers that identify a term up to a variable renaming supplied by the
  caller.  Formula keys (e.g. the predicate-registry fingerprint) are
  built from these instead of pretty-printed strings -- building a tuple is
  an order of magnitude cheaper than rendering, and tuple hashing reuses
  CPython's cached string hashes.

``Var`` instances are hash-consed: constructing the same name twice yields
the same object (up to an interning capacity), and the hash is computed once
and cached.  Candidate enumeration builds millions of variable nodes per
sweep, almost all of them drawn from a small set of program and boundary
names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.sl.errors import EvaluationError

#: The concrete value of the ``nil`` constant.  Address 0 is never allocated
#: by the heaplang runtime, mirroring the NULL pointer of C.
NIL_VALUE = 0

#: Interning table for :class:`Var` nodes (name -> instance).  Bounded so a
#: long-running process churning through globally fresh existential names
#: cannot grow it without limit; names beyond the cap get ordinary instances.
_VAR_INTERN: dict[str, "Var"] = {}
_VAR_INTERN_LIMIT = 65_536

#: Sentinel distinguishing "no argument" (unpickling goes through
#: ``__new__(cls)`` with no fields) from an empty variable name.
_UNSET = object()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class of pure (integer / spatial) expressions."""

    def eval(self, env: Mapping[str, int]) -> int:
        """Evaluate the expression under ``env``.

        Raises :class:`EvaluationError` if a variable is unbound.
        """
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        """Return the set of variable names occurring in the expression."""
        raise NotImplementedError

    def substitute(self, subst: Mapping[str, "Expr"]) -> "Expr":
        """Return the expression with variables replaced according to ``subst``."""
        raise NotImplementedError

    def skey(self, ren: Mapping[str, str]) -> object:
        """Structural key: a hashable tuple/str/int tree identifying the term.

        ``ren`` maps variable names to replacement tokens (used to alpha-
        normalize bound variables positionally); unmapped names appear
        verbatim.  Two expressions have equal keys iff they are equal up to
        that renaming.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Expr):
    """A program or existential variable (hash-consed)."""

    name: str

    def __new__(cls, name: object = _UNSET):
        if name is _UNSET or cls is not Var:  # unpickling / copy path
            return super().__new__(cls)
        if name.startswith("_") or (name.startswith("u") and name[1:].isdigit()):
            # Globally fresh names ("_v<N>" from the checker, "u<N>" from
            # the candidate loop) are constructed a handful of times and
            # never reused; interning them would only fill the bounded
            # table with dead entries and displace reusable program names.
            return super().__new__(cls)
        cached = _VAR_INTERN.get(name)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        if len(_VAR_INTERN) < _VAR_INTERN_LIMIT:
            _VAR_INTERN[name] = self
        return self

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(("var", self.name))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # The cached hash is salted per process (PYTHONHASHSEED); never let
        # it travel across a pickle boundary to a foreign interpreter.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def eval(self, env: Mapping[str, int]) -> int:
        if self.name not in env:
            raise EvaluationError(f"unbound variable {self.name!r}")
        return env[self.name]

    def free_vars(self) -> frozenset[str]:
        return frozenset({self.name})

    def substitute(self, subst: Mapping[str, Expr]) -> Expr:
        return subst.get(self.name, self)

    def skey(self, ren: Mapping[str, str]) -> object:
        return ren.get(self.name, self.name)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.name


@dataclass(frozen=True)
class IntConst(Expr):
    """An integer constant ``k``."""

    value: int

    def eval(self, env: Mapping[str, int]) -> int:
        return self.value

    def free_vars(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, subst: Mapping[str, Expr]) -> Expr:
        return self

    def skey(self, ren: Mapping[str, str]) -> object:
        return self.value

    def __str__(self) -> str:  # pragma: no cover
        return str(self.value)


@dataclass(frozen=True)
class Nil(Expr):
    """The ``nil`` spatial constant (the null address); a process singleton."""

    _instance = None

    def __new__(cls):
        if cls is Nil:
            cached = Nil._instance
            if cached is not None:
                return cached
            Nil._instance = cached = super().__new__(cls)
            return cached
        return super().__new__(cls)

    def eval(self, env: Mapping[str, int]) -> int:
        return NIL_VALUE

    def free_vars(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, subst: Mapping[str, Expr]) -> Expr:
        return self

    def skey(self, ren: Mapping[str, str]) -> object:
        return _NIL_KEY

    def __str__(self) -> str:  # pragma: no cover
        return "nil"


#: Shared structural-key atom for ``nil`` (a tuple so it can never collide
#: with a variable literally named "nil" -- variables key as plain strings).
_NIL_KEY = ("nil",)


@dataclass(frozen=True)
class Neg(Expr):
    """Arithmetic negation ``-e``."""

    operand: Expr

    def eval(self, env: Mapping[str, int]) -> int:
        return -self.operand.eval(env)

    def free_vars(self) -> frozenset[str]:
        return self.operand.free_vars()

    def substitute(self, subst: Mapping[str, Expr]) -> Expr:
        return Neg(self.operand.substitute(subst))

    def skey(self, ren: Mapping[str, str]) -> object:
        return ("neg", self.operand.skey(ren))


@dataclass(frozen=True)
class Add(Expr):
    """Addition ``e1 + e2``."""

    left: Expr
    right: Expr

    def eval(self, env: Mapping[str, int]) -> int:
        return self.left.eval(env) + self.right.eval(env)

    def free_vars(self) -> frozenset[str]:
        return self.left.free_vars() | self.right.free_vars()

    def substitute(self, subst: Mapping[str, Expr]) -> Expr:
        return Add(self.left.substitute(subst), self.right.substitute(subst))

    def skey(self, ren: Mapping[str, str]) -> object:
        return ("add", self.left.skey(ren), self.right.skey(ren))


@dataclass(frozen=True)
class Sub(Expr):
    """Subtraction ``e1 - e2``."""

    left: Expr
    right: Expr

    def eval(self, env: Mapping[str, int]) -> int:
        return self.left.eval(env) - self.right.eval(env)

    def free_vars(self) -> frozenset[str]:
        return self.left.free_vars() | self.right.free_vars()

    def substitute(self, subst: Mapping[str, Expr]) -> Expr:
        return Sub(self.left.substitute(subst), self.right.substitute(subst))

    def skey(self, ren: Mapping[str, str]) -> object:
        return ("sub", self.left.skey(ren), self.right.skey(ren))


@dataclass(frozen=True)
class Mul(Expr):
    """Multiplication by a constant, ``k * e`` (linear arithmetic only)."""

    factor: int
    operand: Expr

    def eval(self, env: Mapping[str, int]) -> int:
        return self.factor * self.operand.eval(env)

    def free_vars(self) -> frozenset[str]:
        return self.operand.free_vars()

    def substitute(self, subst: Mapping[str, Expr]) -> Expr:
        return Mul(self.factor, self.operand.substitute(subst))

    def skey(self, ren: Mapping[str, str]) -> object:
        return ("mul", self.factor, self.operand.skey(ren))


@dataclass(frozen=True)
class Max(Expr):
    """``max(e1, e2)`` -- used by height-indexed predicates such as AVL trees."""

    left: Expr
    right: Expr

    def eval(self, env: Mapping[str, int]) -> int:
        return max(self.left.eval(env), self.right.eval(env))

    def free_vars(self) -> frozenset[str]:
        return self.left.free_vars() | self.right.free_vars()

    def substitute(self, subst: Mapping[str, Expr]) -> Expr:
        return Max(self.left.substitute(subst), self.right.substitute(subst))

    def skey(self, ren: Mapping[str, str]) -> object:
        return ("max", self.left.skey(ren), self.right.skey(ren))


# ---------------------------------------------------------------------------
# Pure formulae
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureFormula:
    """Base class of pure (heap-independent) formulae."""

    def eval(self, env: Mapping[str, int]) -> bool:
        """Evaluate the formula under ``env`` (raises if a variable is unbound)."""
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        raise NotImplementedError

    def substitute(self, subst: Mapping[str, Expr]) -> "PureFormula":
        raise NotImplementedError

    def skey(self, ren: Mapping[str, str]) -> object:
        """Structural key of the formula (see :meth:`Expr.skey`)."""
        raise NotImplementedError


@dataclass(frozen=True)
class TrueF(PureFormula):
    """The trivially true pure formula."""

    def eval(self, env: Mapping[str, int]) -> bool:
        return True

    def free_vars(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, subst: Mapping[str, Expr]) -> PureFormula:
        return self

    def skey(self, ren: Mapping[str, str]) -> object:
        return _TRUE_KEY


@dataclass(frozen=True)
class FalseF(PureFormula):
    """The trivially false pure formula."""

    def eval(self, env: Mapping[str, int]) -> bool:
        return False

    def free_vars(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, subst: Mapping[str, Expr]) -> PureFormula:
        return self

    def skey(self, ren: Mapping[str, str]) -> object:
        return _FALSE_KEY


_TRUE_KEY = ("true",)
_FALSE_KEY = ("false",)


@dataclass(frozen=True)
class _BinRel(PureFormula):
    """Shared implementation of binary relations between expressions."""

    left: Expr
    right: Expr

    _op = staticmethod(lambda a, b: False)  # overridden by subclasses
    _tag = "rel"  # overridden by subclasses (structural-key tag)

    def eval(self, env: Mapping[str, int]) -> bool:
        return type(self)._op(self.left.eval(env), self.right.eval(env))

    def free_vars(self) -> frozenset[str]:
        return self.left.free_vars() | self.right.free_vars()

    def substitute(self, subst: Mapping[str, Expr]) -> PureFormula:
        return type(self)(self.left.substitute(subst), self.right.substitute(subst))

    def skey(self, ren: Mapping[str, str]) -> object:
        return (type(self)._tag, self.left.skey(ren), self.right.skey(ren))


@dataclass(frozen=True)
class Eq(_BinRel):
    """Equality ``e1 = e2`` (also used for spatial expressions)."""

    _op = staticmethod(lambda a, b: a == b)
    _tag = "="


@dataclass(frozen=True)
class Ne(_BinRel):
    """Disequality ``e1 != e2``."""

    _op = staticmethod(lambda a, b: a != b)
    _tag = "!="


@dataclass(frozen=True)
class Lt(_BinRel):
    """Strict less-than ``e1 < e2``."""

    _op = staticmethod(lambda a, b: a < b)
    _tag = "<"


@dataclass(frozen=True)
class Le(_BinRel):
    """Less-than-or-equal ``e1 <= e2``."""

    _op = staticmethod(lambda a, b: a <= b)
    _tag = "<="


@dataclass(frozen=True)
class Gt(_BinRel):
    """Strict greater-than ``e1 > e2``."""

    _op = staticmethod(lambda a, b: a > b)
    _tag = ">"


@dataclass(frozen=True)
class Ge(_BinRel):
    """Greater-than-or-equal ``e1 >= e2``."""

    _op = staticmethod(lambda a, b: a >= b)
    _tag = ">="


@dataclass(frozen=True)
class Not(PureFormula):
    """Negation of a pure formula."""

    operand: PureFormula

    def eval(self, env: Mapping[str, int]) -> bool:
        return not self.operand.eval(env)

    def free_vars(self) -> frozenset[str]:
        return self.operand.free_vars()

    def substitute(self, subst: Mapping[str, Expr]) -> PureFormula:
        return Not(self.operand.substitute(subst))

    def skey(self, ren: Mapping[str, str]) -> object:
        return ("not", self.operand.skey(ren))


@dataclass(frozen=True)
class And(PureFormula):
    """Conjunction of pure formulae."""

    parts: tuple[PureFormula, ...]

    def __init__(self, parts: Iterable[PureFormula]):
        object.__setattr__(self, "parts", tuple(parts))

    def eval(self, env: Mapping[str, int]) -> bool:
        return all(part.eval(env) for part in self.parts)

    def free_vars(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for part in self.parts:
            result |= part.free_vars()
        return result

    def substitute(self, subst: Mapping[str, Expr]) -> PureFormula:
        return And(part.substitute(subst) for part in self.parts)

    def skey(self, ren: Mapping[str, str]) -> object:
        return ("and", *[part.skey(ren) for part in self.parts])


@dataclass(frozen=True)
class Or(PureFormula):
    """Disjunction of pure formulae."""

    parts: tuple[PureFormula, ...]

    def __init__(self, parts: Iterable[PureFormula]):
        object.__setattr__(self, "parts", tuple(parts))

    def eval(self, env: Mapping[str, int]) -> bool:
        return any(part.eval(env) for part in self.parts)

    def free_vars(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for part in self.parts:
            result |= part.free_vars()
        return result

    def substitute(self, subst: Mapping[str, Expr]) -> PureFormula:
        return Or(part.substitute(subst) for part in self.parts)

    def skey(self, ren: Mapping[str, str]) -> object:
        return ("or", *[part.skey(ren) for part in self.parts])


def conjoin(parts: Iterable[PureFormula]) -> PureFormula:
    """Conjoin ``parts`` into a single pure formula, flattening nested ``And``."""
    flat: list[PureFormula] = []
    for part in parts:
        if isinstance(part, TrueF):
            continue
        if isinstance(part, And):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        return TrueF()
    if len(flat) == 1:
        return flat[0]
    return And(flat)
