import copy
import gc
import pickle

import pytest
from hypothesis import given
import hypothesis.strategies as st

from eclc import Atom, Bang, CostModel, Diamond, Lolli, Tensor, With, base_cost, coherence, curvature_cost
from eclc import formula
from gen import formulas

from oracles import flat_cost


def leaf_scan(phi):
    """Oracle: collect atomic leaves and AND their flags."""
    if isinstance(phi, Atom):
        return [phi.coherent]
    if isinstance(phi, (Tensor, Lolli, With)):
        return leaf_scan(phi.left) + leaf_scan(phi.right)
    return leaf_scan(phi.inner)


class TestCoherence:
    def test_coherent_atom(self):
        assert coherence(Atom("Entangled", ("A", "B"), True)) == 1

    def test_classical_atom(self):
        assert coherence(Atom("Classical", ("o",), False)) == 0

    def test_mixed_tensor_poisoned(self):
        phi = Tensor(Atom("Entangled", ("A", "B"), True), Atom("Classical", ("o",), False))
        assert coherence(phi) == all(leaf_scan(phi)) == 0

    @given(formulas())
    def test_matches_leaf_scan(self, phi):
        assert coherence(phi) == (1 if all(leaf_scan(phi)) else 0)

    @given(formulas())
    def test_zero_or_one(self, phi):
        assert coherence(phi) in (0, 1)


class TestBaseCost:
    def test_atom_lookup(self):
        model = CostModel({"E": 1.0}, default_cost=9.0)
        assert base_cost(Atom("E"), model) == 1.0

    def test_unknown_atom_falls_back(self):
        model = CostModel({"E": 1.0}, default_cost=4.0)
        assert base_cost(Atom("X"), model) == 4.0

    def test_tensor_sums(self):
        model = CostModel({"A": 1.0, "B": 2.0})
        assert base_cost(Tensor(Atom("A"), Atom("B")), model) == 3.0

    def test_with_takes_max(self):
        model = CostModel({"A": 1.0, "B": 2.0})
        assert base_cost(With(Atom("A"), Atom("B")), model) == 2.0

    def test_bang_and_diamond_pass_through(self):
        model = CostModel({"A": 1.5})
        assert base_cost(Bang(Atom("A")), model) == 1.5
        assert base_cost(Diamond(3.0, Atom("A")), model) == 1.5

    @given(formulas())
    def test_matches_recursive_oracle(self, phi):
        model = CostModel({"A": 0.5, "B": 2.0, "C": 0.0}, default_cost=1.25)
        assert base_cost(phi, model) == flat_cost(phi, model.atom_costs, model.default_cost)

    @given(formulas(), formulas())
    def test_tensor_structural_sum(self, left, right):
        model = CostModel({"A": 0.5}, default_cost=1.0)
        assert base_cost(Tensor(left, right), model) == base_cost(left, model) + base_cost(right, model)

    @given(formulas())
    def test_nonnegative(self, phi):
        assert base_cost(phi, CostModel({}, default_cost=1.0)) >= 0.0


class TestCurvatureCost:
    def test_kappa_zero_is_identity(self):
        model = CostModel({"A": 1.0}, alpha=0.5)
        assert curvature_cost(Atom("A"), model, 0.0) == 1.0

    def test_direct_evaluations(self):
        assert curvature_cost(Atom("A"), CostModel({"A": 2.0}, alpha=0.5), 2.0) == 4.0
        assert curvature_cost(Atom("A"), CostModel({"A": 1.0}, alpha=0.75), 2.0) == 2.5

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            curvature_cost(Atom("A"), CostModel({}), -1.0)

    @given(formulas(), st.floats(min_value=0, max_value=50, allow_nan=False))
    def test_equals_base_at_zero(self, phi, _):
        model = CostModel({}, default_cost=1.0, alpha=0.75)
        assert curvature_cost(phi, model, 0.0) == base_cost(phi, model)

    @given(
        formulas(),
        st.floats(min_value=0, max_value=40, allow_nan=False),
        st.floats(min_value=0.01, max_value=40, allow_nan=False),
    )
    def test_strictly_increasing_when_positive(self, phi, kappa, step):
        model = CostModel({}, default_cost=1.0, alpha=0.75)
        low = curvature_cost(phi, model, kappa)
        high = curvature_cost(phi, model, kappa + step)
        if base_cost(phi, model) > 0:
            assert high > low
        else:
            assert high == low == 0.0


class TestValidation:
    def test_atom_name_must_be_identifier(self):
        with pytest.raises(ValueError):
            Atom("")
        with pytest.raises(ValueError):
            Atom("not ok")

    def test_diamond_budget_nonnegative(self):
        with pytest.raises(ValueError):
            Diamond(-1.0, Atom("A"))

    def test_cost_model_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CostModel({"A": -1.0})
        with pytest.raises(ValueError):
            CostModel({}, alpha=0.0)
        with pytest.raises(ValueError):
            CostModel({}, default_cost=-0.5)

    def test_connectives_reject_non_formula_children(self):
        a = Atom("A")
        cases = (
            (lambda: Tensor(1, 2), "Tensor left"),
            (lambda: Lolli(a, "B"), "Lolli right"),
            (lambda: With(a, None), "With right"),
            (lambda: Bang(3), "Bang inner"),
            (lambda: Diamond(1.0, [a]), "Diamond inner"),
        )
        for build, named in cases:
            with pytest.raises(TypeError, match=f"{named} must be a formula"):
                build()

    def test_formulas_hashable_and_immutable(self):
        phi = Tensor(Atom("A"), Bang(Atom("B")))
        assert hash(phi) == hash(Tensor(Atom("A"), Bang(Atom("B"))))
        with pytest.raises(AttributeError):
            phi.left = Atom("C")

    def test_formulas_are_hash_consed(self):
        a, b = Atom("A"), Atom("B")
        assert Tensor(a, Bang(b)) is Tensor(Atom("A"), Bang(Atom("B")))
        assert Diamond(-0.0, a) is Diamond(0.0, a)
        assert Atom("A", coherent=False) is not a
        assert Atom("A", coherent=False) != a
        with pytest.raises(AttributeError):
            Bang(a).inner = b
        phi = Diamond(1.5, With(a, b))
        assert copy.deepcopy(phi) is phi
        assert pickle.loads(pickle.dumps(phi)) is phi

    def test_intern_table_holds_only_live_formulas(self):
        gc.collect()
        before = len(formula._interned)
        phi = Lolli(Atom("Probe_1", ("x",)), With(Atom("Probe_1", ("y",)), Atom("Probe_2")))
        assert len(formula._interned) == before + 5
        digest = hash(phi)
        del phi
        gc.collect()
        assert len(formula._interned) == before
        rebuilt = Lolli(Atom("Probe_1", ("x",)), With(Atom("Probe_1", ("y",)), Atom("Probe_2")))
        assert hash(rebuilt) == digest
