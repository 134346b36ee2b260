"""The standard library of inductive heap predicates used by the benchmarks.

Section 5.2 of the paper explains that, for each benchmark category, SLING is
given the predicate definitions that come with that benchmark.  This module
collects the definitions used by our re-implementation of those benchmarks.
They are written in the textual syntax of :mod:`repro.sl.parser` so the
definitions stay readable and the parser gets exercised on realistic input.

Naming conventions for structure types follow :func:`repro.lang.types.standard_structs`:

========== =======================================
type        fields (in order)
========== =======================================
SllNode     next
SNode       next, data
DllNode     next, prev
CNode       next, data
TNode       left, right
BstNode     left, right, data
AvlNode     left, right, data, height
RbNode      left, right, color, data
PNode       left, right, data
QNode       next
Queue       head, tail
GSNode      next, data
GNode       next, prev, data
NlNode      next, child
BinNode     child, sibling, degree, data
SwNode      left, right, mark
MemChunk    next, prev, size
IterNode    next, current, list
========== =======================================
"""

from __future__ import annotations

from functools import cache

from repro.sl.parser import parse_predicates
from repro.sl.predicates import InductivePredicate, PredicateRegistry

#: Field names of every structure type, used by the pretty printer and
#: mirrored by the heaplang struct registry.
STRUCT_FIELDS: dict[str, tuple[str, ...]] = {
    "SllNode": ("next",),
    "SNode": ("next", "data"),
    "DllNode": ("next", "prev"),
    "CNode": ("next", "data"),
    "TNode": ("left", "right"),
    "BstNode": ("left", "right", "data"),
    "AvlNode": ("left", "right", "data", "height"),
    "RbNode": ("left", "right", "color", "data"),
    "PNode": ("left", "right", "data"),
    "QNode": ("next",),
    "Queue": ("head", "tail"),
    "GSNode": ("next", "data"),
    "GNode": ("next", "prev", "data"),
    "NlNode": ("next", "child"),
    "BinNode": ("child", "sibling", "degree", "data"),
    "SwNode": ("left", "right", "mark"),
    "MemChunk": ("next", "prev", "size"),
    "IterNode": ("next", "current", "list"),
}


_DEFINITIONS = """
# --- singly-linked lists -----------------------------------------------------

pred sll(x: SllNode*) :=
    (emp & x = nil)
  | (exists n. x -> SllNode{next: n} * sll(n));

pred lseg(x: SllNode*, y: SllNode*) :=
    (emp & x = y)
  | (exists n. x -> SllNode{next: n} * lseg(n, y));

# --- singly-linked lists carrying data ----------------------------------------

pred slldata(x: SNode*) :=
    (emp & x = nil)
  | (exists n, d. x -> SNode{next: n, data: d} * slldata(n));

pred slsegdata(x: SNode*, y: SNode*) :=
    (emp & x = y)
  | (exists n, d. x -> SNode{next: n, data: d} * slsegdata(n, y));

# --- sorted singly-linked lists ------------------------------------------------

pred sls(x: SNode*, mi) :=
    (emp & x = nil)
  | (exists n, d. x -> SNode{next: n, data: d} & mi <= d * sls(n, d));

pred slseg(x: SNode*, y: SNode*, mi) :=
    (emp & x = y)
  | (exists n, d. x -> SNode{next: n, data: d} & mi <= d * slseg(n, y, d));

# --- doubly-linked lists --------------------------------------------------------

pred dll(hd: DllNode*, pr: DllNode*, tl: DllNode*, nx: DllNode*) :=
    (emp & hd = nx & pr = tl)
  | (exists u. hd -> DllNode{next: u, prev: pr} * dll(u, hd, tl, nx));

# --- circular singly-linked lists ------------------------------------------------

pred cll(x: CNode*) :=
    (emp & x = nil)
  | (exists n, d. x -> CNode{next: n, data: d} * clseg(n, x));

pred clseg(x: CNode*, y: CNode*) :=
    (emp & x = y)
  | (exists n, d. x -> CNode{next: n, data: d} * clseg(n, y));

# --- binary trees -----------------------------------------------------------------

pred tree(x: TNode*) :=
    (emp & x = nil)
  | (exists l, r. x -> TNode{left: l, right: r} * tree(l) * tree(r));

pred treeseg(x: TNode*, y: TNode*) :=
    (emp & x = y)
  | (exists l, r. x -> TNode{left: l, right: r} * treeseg(l, y) * tree(r))
  | (exists l, r. x -> TNode{left: l, right: r} * tree(l) * treeseg(r, y));

# --- binary search trees ------------------------------------------------------------

pred bst(x: BstNode*, mi, ma) :=
    (emp & x = nil)
  | (exists l, r, d. x -> BstNode{left: l, right: r, data: d}
       & mi <= d & d <= ma * bst(l, mi, d) * bst(r, d, ma));

# --- AVL trees (height-balanced) ------------------------------------------------------

pred avl(x: AvlNode*, h) :=
    (emp & x = nil & h = 0)
  | (exists l, r, d, hl, hr. x -> AvlNode{left: l, right: r, data: d, height: h}
       & h = max(hl, hr) + 1 & hl <= hr + 1 & hr <= hl + 1
       * avl(l, hl) * avl(r, hr));

# --- priority trees / max-heaps --------------------------------------------------------

pred pheap(x: PNode*, ub) :=
    (emp & x = nil)
  | (exists l, r, d. x -> PNode{left: l, right: r, data: d}
       & d <= ub * pheap(l, d) * pheap(r, d));

# --- red-black trees ---------------------------------------------------------------------

pred rbt(x: RbNode*, c, bh) :=
    (emp & x = nil & c = 0 & bh = 1)
  | (exists l, r, d, cl, cr, bhc. x -> RbNode{left: l, right: r, color: c, data: d}
       & c = 1 & cl = 0 & cr = 0 & bh = bhc
       * rbt(l, cl, bhc) * rbt(r, cr, bhc))
  | (exists l, r, d, cl, cr, bhc. x -> RbNode{left: l, right: r, color: c, data: d}
       & c = 0 & bh = bhc + 1
       * rbt(l, cl, bhc) * rbt(r, cr, bhc));

# --- OpenBSD-style queues ---------------------------------------------------------------

pred qlseg(x: QNode*, y: QNode*) :=
    (emp & x = y)
  | (exists n. x -> QNode{next: n} * qlseg(n, y));

pred qlist(h: QNode*, t: QNode*) :=
    (emp & h = nil & t = nil)
  | (exists n. qlseg(h, t) * t -> QNode{next: n} & n = nil);

pred queue(q: Queue*) :=
    (exists h, t. q -> Queue{head: h, tail: t} * qlist(h, t));

# --- glib GSList (singly linked, data-carrying) --------------------------------------------

pred gsll(x: GSNode*) :=
    (emp & x = nil)
  | (exists n, d. x -> GSNode{next: n, data: d} * gsll(n));

pred gslseg(x: GSNode*, y: GSNode*) :=
    (emp & x = y)
  | (exists n, d. x -> GSNode{next: n, data: d} * gslseg(n, y));

# --- glib GList (doubly linked, data-carrying) -----------------------------------------------

pred gdll(hd: GNode*, pr: GNode*, tl: GNode*, nx: GNode*) :=
    (emp & hd = nx & pr = tl)
  | (exists u, d. hd -> GNode{next: u, prev: pr, data: d} * gdll(u, hd, tl, nx));

# --- nested lists (lists of singly-linked lists) -----------------------------------------------

pred nll(x: NlNode*) :=
    (emp & x = nil)
  | (exists n, c. x -> NlNode{next: n, child: c} * sll(c) * nll(n));

# --- binomial heaps ------------------------------------------------------------------------------

pred binheap(x: BinNode*) :=
    (emp & x = nil)
  | (exists c, s, dg, d. x -> BinNode{child: c, sibling: s, degree: dg, data: d}
       * binheap(c) * binheap(s));

# --- Schorr-Waite marked trees ---------------------------------------------------------------------

pred swtree(x: SwNode*) :=
    (emp & x = nil)
  | (exists l, r, m. x -> SwNode{left: l, right: r, mark: m} * swtree(l) * swtree(r));

# --- memory-region chunk lists (doubly linked with sizes) ---------------------------------------------

pred memdll(hd: MemChunk*, pr: MemChunk*, tl: MemChunk*, nx: MemChunk*) :=
    (emp & hd = nx & pr = tl)
  | (exists u, s. hd -> MemChunk{next: u, prev: pr, size: s} * memdll(u, hd, tl, nx));

# --- list iterators (a cursor over a singly-linked list) -----------------------------------------------

pred iter(it: IterNode*, lst: SllNode*) :=
    (exists n, cur. it -> IterNode{next: n, current: cur, list: lst}
       * lseg(lst, cur) * sll(cur));
"""


@cache
def _library() -> PredicateRegistry:
    """The library parsed once per process; only read, never handed out.

    Its :class:`PredCase` bodies are immutable and shared by every registry
    built below; its :class:`InductivePredicate` objects are templates whose
    unfold memos and counters are never touched.
    """
    return parse_predicates(_DEFINITIONS)


def _fresh(registry: PredicateRegistry) -> PredicateRegistry:
    """New predicate objects over the same cases, with empty unfold memos,
    counters and case screens, so no two registries share any of them."""
    return PredicateRegistry(
        InductivePredicate(
            predicate.name, predicate.params, predicate.cases, predicate.param_types
        )
        for predicate in registry
    )


def standard_predicates() -> PredicateRegistry:
    """Return the full standard predicate library as a fresh registry."""
    return _fresh(_library())


def predicates_for(*names: str) -> PredicateRegistry:
    """Return a fresh registry restricted to ``names`` and their dependencies.

    This mirrors the paper's setup where each benchmark category supplies
    only the predicates relevant to its data structures.
    """
    return _fresh(_library().subset(names))
