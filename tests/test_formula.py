import copy
import gc
import math
import pickle

import pytest
from hypothesis import given
import hypothesis.strategies as st

from eclc import (
    Atom,
    Bang,
    CostModel,
    Diamond,
    Frame,
    Lolli,
    Observer,
    Sequent,
    Tensor,
    With,
    World,
    base_cost,
    coherence,
    cost_valid,
    curvature_cost,
    prove,
)
from eclc import formula
from eclc.calculus import _signed_refuted
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

    def test_zero_cost_stays_zero_where_the_factor_overflows(self):
        # alpha * kappa is inf here; 0 * inf would be NaN
        model = CostModel({"A": 0.0}, default_cost=1.0, alpha=1e308)
        assert curvature_cost(Atom("A"), model, 4.0) == 0.0
        assert curvature_cost(Tensor(Atom("A"), Bang(Atom("A"))), model, 4.0) == 0.0
        assert curvature_cost(Atom("B"), model, 4.0) == math.inf

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


# Each site that takes a finite real >= 0: (name in its message, whether it
# converts its input through float first, a call that passes it the value).
REAL_SITES = {
    "World.energy": ("energy", True, lambda x: World("w", x, 0.0, 1)),
    "World.kappa": ("kappa", True, lambda x: World("w", 0.0, x, 1)),
    "Frame.deltaE": ("deltaE", True, lambda x: Frame([World("w", 0.0, 0.0, 1)], [("w", "w", x)])),
    "CostModel.atom_costs": ("cost for A", False, lambda x: CostModel({"A": x})),
    "CostModel.default_cost": ("default_cost", False, lambda x: CostModel({}, default_cost=x)),
    "Diamond.budget": ("diamond budget", True, lambda x: Diamond(x, Atom("A"))),
    "curvature_cost.kappa": ("kappa", False, lambda x: curvature_cost(Atom("A"), CostModel({}), x)),
    "cost_valid.kappa": ("kappa", False, lambda x: cost_valid(Sequent((Atom("A"),), ()), CostModel({}), x)),
    # a model whose costs are all 0 skips the walk, never the kappa check
    "cost_valid.kappa.zero_model": (
        "kappa", False, lambda x: cost_valid(Sequent((Atom("A"),), ()), CostModel({"A": 0.0}, default_cost=0.0), x)
    ),
}
# Each site that takes an integer >= a minimum: (name, minimum, call).
COUNT_SITES = {
    "World.lam": ("lambda", 1, lambda n: World("w", 0.0, 0.0, n)),
    "Observer.horizon": ("horizon", 0, lambda n: Observer("o", "w", n)),
    "prove.depth_bound": ("depth_bound", 1, lambda n: prove(Sequent((Atom("A"),), (Atom("A"),)), n, CostModel({}), 0.0)),
}


@pytest.mark.parametrize(
    "site, value",
    [(site, value) for site in REAL_SITES for value in (-1.0, math.nan, math.inf, -1)]
    + [(site, value) for site in COUNT_SITES for value in (True, 2.0, COUNT_SITES[site][1] - 1)],
)
def test_numeric_input_messages(site, value):
    # the exact text of each rejected input; a site that converts through
    # float shows the float it checked, so Diamond(-1, A) says -1.0
    if site in REAL_SITES:
        what, converts, call = REAL_SITES[site]
        shown = repr(float(value) if converts else value)
        expected = f"{what} must be finite and >= 0, got {shown}"
    else:
        what, minimum, call = COUNT_SITES[site]
        expected = f"{what} must be an integer >= {minimum}, got {value!r}"
    with pytest.raises(ValueError) as raised:
        call(value)
    assert str(raised.value) == expected


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

    def test_constructors_bound_the_height(self):
        # a node is one level taller than its tallest child, an atom one level:
        # every constructor refuses a node taller than MAX_FORMULA_NODES + 1,
        # the tallest a formula of MAX_FORMULA_NODES connectives can be, so no
        # formula walk nears the recursion limit however the formula was built
        message = f"formula would be more than {formula.MAX_FORMULA_NODES + 1} levels tall"
        assert formula.MAX_FORMULA_NODES == 200
        a = Atom("A")
        tallest = [a, a, a, a, a, a]
        for _ in range(formula.MAX_FORMULA_NODES):
            tallest = [
                Bang(tallest[0]),
                Tensor(tallest[1], a),
                Lolli(a, tallest[2]),
                With(tallest[3], tallest[3]),
                Diamond(0.5, tallest[4]),
                Tensor(tallest[5], tallest[0]),
            ]
        assert [node._height for node in tallest] == [201] * 6
        builds = (Bang, lambda x: Tensor(a, x), lambda x: Lolli(x, a), lambda x: With(x, x), lambda x: Diamond(1.0, x))
        for node in tallest:
            for build in builds:
                with pytest.raises(ValueError) as err:
                    build(node)
                assert str(err.value) == message
        # an API-built 2,000-deep chain stops at its 202nd level
        chain = a
        with pytest.raises(ValueError) as err:
            for depth in range(2, 2001):
                chain = Bang(chain)
        assert (str(err.value), depth, chain._height) == (message, 202, 201)
        assert coherence(chain) == 1 and formula.format_formula(chain) == "!" * 200 + "A"

    def test_formulas_hashable_and_immutable(self):
        phi = Tensor(Atom("A"), Bang(Atom("B")))
        assert hash(phi) == hash(Tensor(Atom("A"), Bang(Atom("B"))))
        with pytest.raises(AttributeError):
            phi.left = Atom("C")
        with pytest.raises(AttributeError):
            del phi.left

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
        digest, old_id = hash(phi), id(phi)
        del phi
        gc.collect()
        assert len(formula._interned) == before
        # live nodes of the same size take the freed memory, so the rebuilt
        # tree lives elsewhere and only a structural hash can match
        fillers = [Lolli(Atom("Filler", (f"x{i}",)), Atom("Probe_2")) for i in range(64)]
        rebuilt = Lolli(Atom("Probe_1", ("x",)), With(Atom("Probe_1", ("y",)), Atom("Probe_2")))
        assert id(rebuilt) != old_id
        assert hash(rebuilt) == digest
        del fillers

    def test_stored_signature_keeps_formulas_collectable_and_frozen(self):
        # the prover keeps a bucket signature on every formula it meets;
        # it must hold no reference back to a node, or the node would
        # outlive its last user until a gc pass
        zero = CostModel({}, default_cost=0.0)
        gc.collect()
        gc.disable()
        try:
            before = len(formula._interned)
            a, b = Atom("Probe_3", ("x",)), Atom("Probe_4")
            goal = Tensor(a, With(b, Bang(b)))
            assert prove(Sequent((a, Bang(b)), (goal,)), 6, zero, 0.0).proved
            for node in (a, b, Bang(b), goal.right, goal):
                assert node._buckets is not None
            assert len(formula._interned) == before + 5
            del a, b, goal, node
            assert len(formula._interned) == before
            # a root whose first death asks _hopeless keeps each member's & projections
            # on its node, and each projection's signed tallies and barrier flags on
            # the projection; none holds a node back, so all go with the last user
            a, b, c = Atom("Probe_7"), Atom("Probe_8"), Atom("Probe_9")
            left, right = Tensor(a, With(c, b)), Tensor(With(a, b), c)
            assert prove(Sequent((left,), (right,)), 4, zero, 0.0).failure_reason == "depth_exceeded"
            assert left._withs[1] == [Tensor(a, c), Tensor(a, b)] and right._withs[1] == [Tensor(a, c), Tensor(b, c)]
            for node in (*left._withs[1], *right._withs[1]):
                assert node._signed is not None
            assert len(formula._interned) == before + 10
            del a, b, c, left, right, node
            assert len(formula._interned) == before
        finally:
            gc.enable()
        phi = Lolli(Diamond(1.5, Atom("Probe_5")), With(Atom("Probe_5"), Bang(Atom("Probe_6"))))
        prove(Sequent((phi,), (phi,)), 3, zero, 0.0)
        assert phi._buckets is not None
        assert copy.deepcopy(phi) is phi
        assert pickle.loads(pickle.dumps(phi)) is phi
        assert _signed_refuted((), (phi,)) and phi._signed is not None  # its diamond sits outside slack
        for slot in ("_buckets", "_withs", "_height", "_signed"):
            assert slot not in repr(phi)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{slot}'"):
                setattr(phi, slot, None)
