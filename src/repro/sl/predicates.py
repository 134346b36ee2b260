"""Inductive heap predicate definitions and their registry.

An inductive predicate ``p(t1, ..., tn)`` is defined by a finite disjunction
of *cases*, each of which is a symbolic heap over the formal parameters
(plus case-local existential variables).  The canonical example from the
paper is the doubly-linked-list predicate::

    dll(hd, pr, tl, nx) :=  (emp  &  hd = nx  &  pr = tl)
                         |  (exists u. hd -> Node{next: u, prev: pr} * dll(u, hd, tl, nx))

Predicates carry optional parameter types, which the inference uses to prune
type-inconsistent argument permutations (Algorithm 2, line 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.sl.errors import SLError, UnknownPredicateError
from repro.sl.exprs import Expr, IntConst, Nil, Var
from repro.sl.spatial import PointsTo, PredApp, Spatial, SymHeap, fresh_var
from repro.telemetry.counters import CacheStats

#: Upper bound on memoized case templates per predicate (the key space is
#: tiny in practice: one entry per case and argument *shape*).
_UNFOLD_CACHE_LIMIT = 512


@dataclass(frozen=True)
class PredCase:
    """One disjunct of an inductive predicate definition."""

    body: SymHeap

    def instantiate(self, params: Sequence[str], args: Sequence[Expr]) -> SymHeap:
        """Substitute actual arguments for formal parameters, freshening locals."""
        if len(params) != len(args):
            raise SLError(
                f"predicate case expects {len(params)} arguments, got {len(args)}"
            )
        renamed = self.body.rename_exists_fresh()
        substitution = dict(zip(params, args))
        return renamed.substitute(substitution)


@dataclass(frozen=True)
class InductivePredicate:
    """A named inductive heap predicate definition."""

    name: str
    params: tuple[str, ...]
    cases: tuple[PredCase, ...]
    param_types: tuple[str | None, ...] = ()

    def __init__(
        self,
        name: str,
        params: Iterable[str],
        cases: Iterable[PredCase | SymHeap],
        param_types: Iterable[str | None] | None = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(params))
        normalized = tuple(
            case if isinstance(case, PredCase) else PredCase(case) for case in cases
        )
        object.__setattr__(self, "cases", normalized)
        if param_types is None:
            types: tuple[str | None, ...] = tuple(None for _ in self.params)
        else:
            types = tuple(param_types)
        if len(types) != len(self.params):
            raise SLError(
                f"predicate {name!r}: {len(self.params)} parameters but {len(types)} types"
            )
        object.__setattr__(self, "param_types", types)
        # Unfolding memo: (case index, canonical argument shape) -> compiled
        # template.  Not a dataclass field, so the instance stays frozen,
        # hashable and comparable on its definition alone.
        object.__setattr__(self, "_unfold_cache", {})
        # Per-case screening metadata (built lazily; see repro.sl.screen).
        object.__setattr__(self, "_case_screens", None)

    @property
    def arity(self) -> int:
        """Number of parameters."""
        return len(self.params)

    def instantiate_case_goals(
        self,
        index: int,
        args: Sequence[Expr],
        key: tuple[str, ...] | None,
        stats: CacheStats,
    ) -> tuple[tuple[str, ...], list[Spatial], list]:
        """Instantiate one case directly as search goals.

        Returns ``(existentials, spatial atoms, pure conjuncts)`` -- the
        exact inputs of the search's ``_solve`` -- equal, up to the names of
        the existentials, to the flattened :meth:`PredCase.instantiate`.
        The search unfolds the same predicates with the same argument
        *shapes* (e.g. ``sll(?)`` with one variable argument) thousands of
        times per inference run; only the variable names differ.  So each
        (case, shape) is compiled once into closure builders
        (:func:`_compile_spatial` / :func:`_compile_pure`) that build the
        instantiated goals straight from a placeholder -> argument mapping,
        skipping the generic ``substitute`` tree walk.  Case-local
        existentials are renamed to globally fresh names on every call, so
        two unfoldings of one case inside one search never share a binding.

        ``key`` is the caller-computed :func:`canonical_unfold_key` of
        ``args`` (callers unfolding several cases share one key
        computation); ``None`` falls back to the uncached instantiation.
        Each call counts one ``unfold_hits`` or ``unfold_misses`` in
        ``stats``: a miss compiles the template (or, for ``key=None``,
        instantiates uncached).
        """
        if key is None:
            stats.unfold_misses += 1
            body = self.cases[index].instantiate(self.params, args)
            return body.exists, list(body.spatial_atoms()), _flatten_pure(body.pure)
        entry = self._unfold_cache.get((index, key))
        if entry is None:
            stats.unfold_misses += 1
            entry = self._compile_template(index, key)
        else:
            stats.unfold_hits += 1
        template_exists, atom_slots, conj_slots = entry
        # Placeholder -> actual argument mapping.  ``zip`` may also pair the
        # "nil"/"int:k" tokens with their (constant) arguments; the compiled
        # builders never look those up, so no filtering is needed.
        mapping: dict[str, Expr] = dict(zip(key, args))
        if template_exists:
            new_exists = []
            for name in template_exists:
                fresh = Var(fresh_var())
                mapping[name] = fresh
                new_exists.append(fresh.name)
            exists: tuple[str, ...] = tuple(new_exists)
        else:
            exists = ()
        atoms = [
            fn(mapping) if fn is not None else const for fn, const in atom_slots
        ]
        conjuncts = [
            fn(mapping) if fn is not None else const for fn, const in conj_slots
        ]
        return exists, atoms, conjuncts

    def _compile_template(self, index: int, key: tuple[str, ...]) -> tuple:
        """Compile (and memoize) the unfolding template of one (case, shape).

        Entries are ``(existentials, atom slots, conjunct slots)``; slots
        pair an optional builder closure with the constant node it falls
        back to.
        """
        placeholders = [_placeholder_expr(token) for token in key]
        template = self.cases[index].instantiate(self.params, placeholders)
        known = {token for token in key if token.startswith("?a")}
        known.update(template.exists)
        entry = (
            template.exists,
            tuple(
                (_compile_spatial(atom, known), atom)
                for atom in template.spatial.atoms()
            ),
            tuple(
                (_compile_pure(conjunct, known), conjunct)
                for conjunct in _flatten_pure(template.pure)
            ),
        )
        if len(self._unfold_cache) < _UNFOLD_CACHE_LIMIT:
            self._unfold_cache[(index, key)] = entry
        return entry

    def case_screens(self):
        """Per-case screening metadata (see :mod:`repro.sl.screen`).

        Compiled once per definition and shared by the checker's case
        pruning and the candidate pre-filter.
        """
        screens = self._case_screens
        if screens is None:
            from repro.sl.screen import build_case_screens

            screens = build_case_screens(self.params, [case.body for case in self.cases])
            object.__setattr__(self, "_case_screens", screens)
        return screens

    def root_types(self) -> frozenset[str]:
        """Structure types that may anchor this predicate.

        Collected from the points-to atoms of the definition (including
        transitively referenced predicates is not needed: the first parameter
        of every benchmark predicate is dereferenced in its own body).
        """
        types: set[str] = set()
        for case in self.cases:
            for atom in case.body.spatial_atoms():
                if isinstance(atom, PointsTo):
                    types.add(atom.type_name)
        return frozenset(types)

    def singleton_count(self) -> int:
        """Number of points-to atoms across all cases (a complexity metric)."""
        return sum(
            1
            for case in self.cases
            for atom in case.body.spatial_atoms()
            if isinstance(atom, PointsTo)
        )

    def inductive_count(self) -> int:
        """Number of predicate applications across all cases (a complexity metric)."""
        return sum(
            1
            for case in self.cases
            for atom in case.body.spatial_atoms()
            if isinstance(atom, PredApp)
        )

    def apply(self, args: Sequence[Expr] | Sequence[str]) -> PredApp:
        """Build an application of this predicate; strings become variables."""
        exprs = [arg if isinstance(arg, Expr) else Var(arg) for arg in args]
        if len(exprs) != self.arity:
            raise SLError(f"{self.name} expects {self.arity} arguments, got {len(exprs)}")
        return PredApp(self.name, exprs)


class PredicateRegistry:
    """A collection of inductive predicate definitions, looked up by name."""

    def __init__(self, predicates: Iterable[InductivePredicate] = ()):
        self._predicates: dict[str, InductivePredicate] = {}
        #: :func:`repro.cache.fingerprint.registry_fingerprint` of the
        #: definitions, computed on first use; :meth:`add` drops it.
        self.fingerprint: str | None = None
        for predicate in predicates:
            self.add(predicate)

    def add(self, predicate: InductivePredicate) -> None:
        """Register (or replace) a predicate definition."""
        self._predicates[predicate.name] = predicate
        self.fingerprint = None

    def get(self, name: str) -> InductivePredicate:
        """Look up a predicate; raises :class:`UnknownPredicateError` if absent."""
        try:
            return self._predicates[name]
        except KeyError:
            raise UnknownPredicateError(f"unknown predicate {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._predicates

    def __iter__(self) -> Iterator[InductivePredicate]:
        return iter(self._predicates.values())

    def __len__(self) -> int:
        return len(self._predicates)

    def names(self) -> list[str]:
        """Names of all registered predicates."""
        return list(self._predicates)

    def subset(self, names: Iterable[str]) -> "PredicateRegistry":
        """A new registry containing only the named predicates (and their deps)."""
        wanted = set(names)
        closure: set[str] = set()
        frontier = list(wanted)
        while frontier:
            name = frontier.pop()
            if name in closure or name not in self._predicates:
                continue
            closure.add(name)
            for case in self._predicates[name].cases:
                for atom in case.body.spatial_atoms():
                    if isinstance(atom, PredApp) and atom.name not in closure:
                        frontier.append(atom.name)
        # Preserve definition order: iterating the ``closure`` set directly
        # would make the subset's candidate-enumeration order (and with it
        # tie-breaking among equally-ranked invariants) depend on
        # PYTHONHASHSEED from process to process.
        return PredicateRegistry(
            predicate for name, predicate in self._predicates.items() if name in closure
        )

    def candidates_for_type(self, type_name: str | None) -> list[InductivePredicate]:
        """Predicates whose definition dereferences the given structure type.

        This implements the filtering optimisation of Section 4.2: only
        predicates with at least one parameter of the root pointer's type
        are considered.  Predicates whose definitions never dereference any
        cell (degenerate) are always returned.
        """
        if type_name is None:
            return list(self._predicates.values())
        base = type_name.rstrip("*")
        result = []
        for predicate in self._predicates.values():
            roots = predicate.root_types()
            if not roots or base in roots:
                result.append(predicate)
        return result

    def merged_with(self, other: "PredicateRegistry") -> "PredicateRegistry":
        """Union of two registries (``other`` wins on name clashes)."""
        merged = PredicateRegistry(self)
        for predicate in other:
            merged.add(predicate)
        return merged


def _canonical_args(args: Sequence[Expr]) -> tuple[str, ...] | None:
    """Shape key of an argument tuple: variables numbered by first occurrence.

    ``(Var("u17"), Var("u17"), Nil())`` and ``(Var("n3"), Var("n3"), Nil())``
    both map to ``("?a0", "?a0", "nil")`` -- the same template applies to
    both.  Compound argument expressions are rare in unfoldings; they return
    ``None`` so the caller falls back to the uncached path.
    """
    tokens: list[str] = []
    numbering: dict[str, str] = {}
    for arg in args:
        cls = arg.__class__
        if cls is Var:
            token = numbering.get(arg.name)
            if token is None:
                count = len(numbering)
                token = _ARG_TOKENS[count] if count < len(_ARG_TOKENS) else f"?a{count}"
                numbering[arg.name] = token
            tokens.append(token)
        elif cls is Nil:
            tokens.append("nil")
        elif cls is IntConst:
            tokens.append(f"int:{arg.value}")
        else:
            return None
    return tuple(tokens)


#: Pre-built placeholder tokens (predicate arities are small).
_ARG_TOKENS = tuple(f"?a{index}" for index in range(16))

#: Public alias: the canonical argument-shape key used by the unfolding
#: caches.  The checker computes it once per predicate goal and shares it
#: across the cases it unfolds.
canonical_unfold_key = _canonical_args


def _flatten_pure(pure) -> list:
    """Top-level conjuncts of a pure formula (``TrueF`` contributes none)."""
    from repro.sl.exprs import And, TrueF

    if isinstance(pure, TrueF):
        return []
    if isinstance(pure, And):
        result: list = []
        for part in pure.parts:
            result.extend(_flatten_pure(part))
        return result
    return [pure]


def _placeholder_expr(token: str) -> Expr:
    """The placeholder expression standing for one canonical-argument token."""
    if token.startswith("?a"):
        return Var(token)
    if token == "nil":
        return Nil()
    return IntConst(int(token.removeprefix("int:")))


# ---------------------------------------------------------------------------
# Template compilation
# ---------------------------------------------------------------------------
#
# A cached unfolding template is specialized on every call with a mapping
# from placeholder/existential names to actual expressions.  Instead of the
# generic (and allocation-heavy) ``substitute`` tree walk, each template is
# compiled once into nested closures that rebuild exactly the nodes that
# mention substituted names; constant subtrees are shared with the template.
# A compiler returns ``None`` when the whole subtree is constant.


def _compile_expr(expr: Expr, known: set[str]):
    """Compile an expression into ``fn(mapping) -> Expr`` (``None`` = constant)."""
    from repro.sl.exprs import Add, Max, Mul, Neg, Sub

    cls = expr.__class__
    if cls is Var:
        if expr.name in known:
            name = expr.name
            return lambda m: m[name]
        return None
    if cls is Nil or cls is IntConst:
        return None
    if cls is Neg:
        operand = _compile_expr(expr.operand, known)
        if operand is None:
            return None
        return lambda m: Neg(operand(m))
    if cls is Mul:
        operand = _compile_expr(expr.operand, known)
        if operand is None:
            return None
        factor = expr.factor
        return lambda m: Mul(factor, operand(m))
    if cls in (Add, Sub, Max):
        left = _compile_expr(expr.left, known)
        right = _compile_expr(expr.right, known)
        if left is None and right is None:
            return None
        left_const, right_const = expr.left, expr.right
        if left is None:
            return lambda m: cls(left_const, right(m))
        if right is None:
            return lambda m: cls(left(m), right_const)
        return lambda m: cls(left(m), right(m))
    # Unknown expression kind: fall back to the generic substitution.
    return lambda m: expr.substitute(m)


def _compile_args(args: Sequence[Expr], known: set[str]):
    """Compile an argument tuple; ``None`` when every argument is constant.

    Arities 1-4 (every benchsuite predicate) get unrolled builders so the
    per-unfolding cost is a plain tuple display, not a generator pass.
    """
    compiled = [_compile_expr(arg, known) for arg in args]
    if not any(fn is not None for fn in compiled):
        return None
    slots = [
        fn if fn is not None else (lambda m, _c=arg: _c)
        for fn, arg in zip(compiled, args)
    ]
    if len(slots) == 1:
        (f0,) = slots
        return lambda m: (f0(m),)
    if len(slots) == 2:
        f0, f1 = slots
        return lambda m: (f0(m), f1(m))
    if len(slots) == 3:
        f0, f1, f2 = slots
        return lambda m: (f0(m), f1(m), f2(m))
    if len(slots) == 4:
        f0, f1, f2, f3 = slots
        return lambda m: (f0(m), f1(m), f2(m), f3(m))
    frozen = tuple(slots)
    return lambda m: tuple([fn(m) for fn in frozen])


def _compile_spatial(spatial: Spatial, known: set[str]):
    """Compile a spatial atom into ``fn(mapping) -> Spatial`` (``None`` = constant)."""
    cls = spatial.__class__
    if cls is PointsTo:
        source = _compile_expr(spatial.source, known)
        args = _compile_args(spatial.args, known)
        if source is None and args is None:
            return None
        type_name = spatial.type_name
        source_const, args_const = spatial.source, spatial.args

        def build_pt(m):
            atom = object.__new__(PointsTo)
            object.__setattr__(atom, "source", source(m) if source else source_const)
            object.__setattr__(atom, "type_name", type_name)
            object.__setattr__(atom, "args", args(m) if args else args_const)
            return atom

        return build_pt
    if cls is PredApp:
        args = _compile_args(spatial.args, known)
        if args is None:
            return None
        name = spatial.name

        def build_app(m):
            atom = object.__new__(PredApp)
            object.__setattr__(atom, "name", name)
            object.__setattr__(atom, "args", args(m))
            return atom

        return build_app
    # Emp (and any unknown leaf) is constant.
    return None


def _compile_pure(pure, known: set[str]):
    """Compile a pure formula into ``fn(mapping) -> PureFormula`` (``None`` = constant)."""
    from repro.sl.exprs import And, Not, Or, _BinRel

    cls = pure.__class__
    if isinstance(pure, _BinRel):
        left = _compile_expr(pure.left, known)
        right = _compile_expr(pure.right, known)
        if left is None and right is None:
            return None
        left_const, right_const = pure.left, pure.right

        def build_rel(m):
            rel = object.__new__(cls)
            object.__setattr__(rel, "left", left(m) if left else left_const)
            object.__setattr__(rel, "right", right(m) if right else right_const)
            return rel

        return build_rel
    if cls is Not:
        operand = _compile_pure(pure.operand, known)
        if operand is None:
            return None
        return lambda m: Not(operand(m))
    if cls in (And, Or):
        parts = [_compile_pure(part, known) for part in pure.parts]
        if not any(fn is not None for fn in parts):
            return None
        slots = tuple(
            fn if fn is not None else (lambda m, _c=part: _c)
            for fn, part in zip(parts, pure.parts)
        )

        def build_junction(m):
            junction = object.__new__(cls)
            object.__setattr__(junction, "parts", tuple(fn(m) for fn in slots))
            return junction

        return build_junction
    # TrueF / FalseF (and any unknown leaf) are constant.
    return None


def predicate_complexity(predicate: InductivePredicate) -> Mapping[str, int]:
    """Complexity metrics quoted in Section 5.2 (parameters, singletons, inductives)."""
    return {
        "params": predicate.arity,
        "singletons": predicate.singleton_count(),
        "inductives": predicate.inductive_count(),
    }
