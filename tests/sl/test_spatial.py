"""Unit tests for spatial formulae and symbolic heaps."""

import pickle

from repro.sl.exprs import Eq, Nil, Var
from repro.sl.pretty import pretty
from repro.sl.spatial import (
    Emp,
    PointsTo,
    PredApp,
    SepConj,
    SymHeap,
    fresh_var,
    fresh_vars,
    star,
    sym_heap,
)


class TestSpatialAtoms:
    def test_emp_has_no_atoms(self):
        assert Emp().atoms() == ()
        assert Emp().free_vars() == frozenset()

    def test_points_to_free_vars(self):
        atom = PointsTo(Var("x"), "DllNode", [Var("n"), Nil()])
        assert atom.free_vars() == {"x", "n"}

    def test_pred_app_free_vars(self):
        atom = PredApp("dll", [Var("x"), Var("p"), Var("t"), Nil()])
        assert atom.free_vars() == {"x", "p", "t"}

    def test_substitution(self):
        atom = PredApp("sll", [Var("x")])
        assert atom.substitute({"x": Var("y")}) == PredApp("sll", [Var("y")])

    def test_sep_conj_flattens(self):
        inner = SepConj([PredApp("sll", [Var("x")]), Emp()])
        outer = SepConj([inner, PredApp("sll", [Var("y")])])
        assert len(outer.parts) == 2
        assert len(outer.atoms()) == 2

    def test_star_drops_emp_units(self):
        assert isinstance(star(Emp(), Emp()), Emp)
        single = star(Emp(), PredApp("sll", [Var("x")]))
        assert isinstance(single, PredApp)

    def test_star_combines(self):
        combined = star(PredApp("sll", [Var("x")]), PredApp("sll", [Var("y")]))
        assert isinstance(combined, SepConj)
        assert len(combined.atoms()) == 2


class TestSymHeap:
    def test_free_vars_exclude_bound(self):
        formula = SymHeap(
            exists=["u"],
            spatial=PredApp("lseg", [Var("x"), Var("u")]),
            pure=Eq(Var("u"), Nil()),
        )
        assert formula.free_vars() == {"x"}
        assert "u" in formula.all_vars()

    def test_substitute_protects_bound(self):
        formula = SymHeap(exists=["u"], spatial=PredApp("lseg", [Var("x"), Var("u")]))
        replaced = formula.substitute({"x": Var("y"), "u": Var("z")})
        assert replaced.free_vars() == {"y"}

    def test_rename_exists_fresh(self):
        formula = SymHeap(exists=["u"], spatial=PredApp("sll", [Var("u")]))
        renamed = formula.rename_exists_fresh()
        assert renamed.exists != formula.exists
        assert renamed.free_vars() == frozenset()

    def test_star_with_freshens_bound_variables(self):
        left = SymHeap(exists=["u"], spatial=PredApp("sll", [Var("u")]))
        right = SymHeap(exists=["u"], spatial=PredApp("sll", [Var("u")]))
        combined = left.star_with(right)
        assert len(combined.exists) == 2
        assert len(set(combined.exists)) == 2
        assert len(combined.spatial_atoms()) == 2

    def test_with_pure(self):
        formula = SymHeap(spatial=PredApp("sll", [Var("x")]))
        extended = formula.with_pure([Eq(Var("x"), Nil())])
        assert extended.pure.free_vars() == {"x"}

    def test_is_emp(self):
        assert SymHeap().is_emp()
        assert not SymHeap(spatial=PredApp("sll", [Var("x")])).is_emp()

    def test_sym_heap_convenience(self):
        formula = sym_heap([PredApp("sll", [Var("x")])], [Eq(Var("x"), Nil())], ["u"])
        assert formula.exists == ("u",)
        assert len(formula.spatial_atoms()) == 1

    def test_cached_hash_and_rendering_stay_in_process(self):
        """Memo keys hash a formula once and the serve records reuse the
        driver's rendering; neither cache crosses a pickle boundary."""
        formula = sym_heap([PointsTo(Var("x"), "SllNode", [Var("u")])], [], ["u"])
        fresh = pickle.loads(pickle.dumps(formula))
        assert hash(formula) == hash(fresh) and formula == fresh
        text = pretty(formula)
        assert pretty(formula) is text
        assert pretty(formula, {"SllNode": ("next",)}) == "exists u. x -> SllNode{next: u}"
        assert pretty(formula) is text
        assert pickle.dumps(formula) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(formula))
        assert "_hash" not in restored.__dict__ and "_pretty" not in restored.__dict__
        assert pretty(restored) == text and restored == formula


class TestFreshVariables:
    def test_fresh_vars_unique(self):
        names = fresh_vars(50)
        assert len(set(names)) == 50

    def test_fresh_var_prefix(self):
        assert fresh_var("q").startswith("q")
