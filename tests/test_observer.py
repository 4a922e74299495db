import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from eclc import (
    Atom,
    CostModel,
    Frame,
    Lolli,
    NOT_ESTABLISHED,
    Observer,
    PRESERVED,
    PreconditionError,
    Tensor,
    VIOLATED,
    World,
    observer_sees,
    observer_valuation,
    persistence_check,
    prove,
)
from eclc.calculus import _refuted, _tally, quantum_token
from eclc.formula import Bang, Diamond, With
from eclc.observer import truth_at
from gen import small_frames

import oracles

PHI = Atom("Phi")

# Props and goals over few atoms, so that many antecedents balance the goal.
OBSERVED = st.recursive(
    st.sampled_from((Atom("A"), Atom("B"), PHI, Atom("Quantum", ("q",)), quantum_token("q"))),
    lambda kids: st.one_of(
        st.builds(Tensor, kids, kids),
        st.builds(Lolli, kids, kids),
        st.builds(With, kids, kids),
        st.builds(Bang, kids),
        st.builds(Diamond, st.sampled_from((0.0, 2.5)), kids),
    ),
    max_leaves=3,
)


@st.composite
def observed_worlds(draw):
    """A one-world frame holding 1-4 OBSERVED props, and a goal that is
    often built from those props, so that some goals need a search."""
    world = World("w0", 10.0, 0.5, draw(st.integers(1, 6)))
    for psi, count in draw(st.lists(st.tuples(OBSERVED, st.integers(1, 2)), min_size=1, max_size=4)):
        world.props[psi] += count
    held = st.sampled_from(sorted(world.props, key=repr))
    goal = st.one_of(OBSERVED, st.builds(Tensor, held, held), st.builds(With, held, held), st.builds(Tensor, held, OBSERVED))
    return Frame([world], []), draw(goal)


def chain_frame(length=4, lam=8):
    worlds = [World(f"w{i}", 10.0, 0.0, lam) for i in range(length)]
    edges = [(f"w{i}", f"w{i+1}", 1.0) for i in range(length - 1)]
    return Frame(worlds, edges)


class TestObserver:
    def test_compares_prints_and_hashes_by_value(self):
        observer = Observer("o1", "w0", 3)
        assert observer == Observer("o1", "w0", 3) != Observer("o1", "w0", 2)
        assert hash(observer) == hash(Observer("o1", "w0", 3))
        assert repr(observer) == "Observer(id='o1', home='w0', horizon=3)"
        with pytest.raises(AttributeError):
            observer.horizon = 4

    def test_fields_validated(self):
        for horizon in (-1, 1.5):
            with pytest.raises(ValueError, match="horizon must be an integer >= 0"):
                Observer("o1", "w0", horizon)
        for bad in ("", "o 1", "1o", None, 7):
            with pytest.raises(ValueError, match="observer id must be a nonempty identifier"):
                Observer(bad, "w0", 1)


class TestObserverSees:
    def test_home_world_always_visible(self):
        frame = chain_frame()
        assert observer_sees(frame, Observer("o", "w0", 0), "w0")

    def test_beyond_horizon(self):
        frame = chain_frame()
        assert not observer_sees(frame, Observer("o", "w0", 2), "w3")

    def test_at_horizon_boundary(self):
        frame = chain_frame()
        assert observer_sees(frame, Observer("o", "w0", 2), "w2")

    @settings(max_examples=40)
    @given(small_frames(max_worlds=6), st.integers(0, 3), st.integers(0, 4))
    def test_monotone_in_horizon(self, frame, horizon, extra):
        ids = list(frame.worlds)
        observer = Observer("o", ids[0], horizon)
        wider = Observer("o", ids[0], horizon + extra)
        for wid in ids:
            if observer_sees(frame, observer, wid):
                assert observer_sees(frame, wider, wid)


class TestObserverValuation:
    def test_direct_membership(self, unit_model):
        frame = chain_frame()
        frame.worlds["w0"].props[PHI] += 1
        assert observer_valuation(frame, Observer("o", "w0", 1), "w0", PHI, unit_model) == 1

    def test_visibility_gate_dominates(self, unit_model):
        frame = chain_frame()
        frame.worlds["w3"].props[PHI] += 1
        assert observer_valuation(frame, Observer("o", "w0", 1), "w3", PHI, unit_model) == 0

    def test_derivable_from_small_antecedent(self, unit_model):
        frame = chain_frame()
        frame.worlds["w0"].props.update(Counter([Atom("A"), Lolli(Atom("A"), PHI)]))
        # the lolli-left derivation fits the capacity bound
        assert oracles.minimal_proof_depth(
            (Atom("A"), Lolli(Atom("A"), PHI)), (PHI,), 6
        ) <= frame.worlds["w0"].lam
        assert observer_valuation(frame, Observer("o", "w0", 0), "w0", PHI, unit_model) == 1

    def test_each_antecedent_multiset_proved_once_or_refuted(self, unit_model, monkeypatch):
        a, b = Atom("A"), Atom("B")
        held = Counter({a: 2, b: 1, Tensor(a, b): 1})
        frame = chain_frame(lam=1)  # too shallow for any proof, so every multiset is visited
        frame.worlds["w0"].props.update(held)
        tried, refuted, tallied = [], [], []

        def record(seq, *args):
            tried.append(frozenset(Counter(seq.gamma).items()))
            return prove(seq, *args)

        def tally(side):
            tallied.append(side)
            return _tally(side)

        def check(gamma_tally, delta_tally):
            # the antecedent's tally is taken just before each check
            verdict = _refuted(gamma_tally, delta_tally)
            if verdict:
                refuted.append(frozenset(Counter(tallied[-1]).items()))
            return verdict

        monkeypatch.setattr("eclc.observer.prove", record)
        monkeypatch.setattr("eclc.observer._tally", tally)
        monkeypatch.setattr("eclc.observer._refuted", check)
        goal = Tensor(a, Tensor(a, b))
        assert observer_valuation(frame, Observer("o", "w0", 0), "w0", goal, unit_model) == 0
        expected = {
            frozenset(Counter(combo).items())
            for size in (1, 2, 3)
            for combo in itertools.combinations(held.elements(), size)
        }
        assert len(expected) == 10
        assert len(tried) == len(set(tried)) and len(refuted) == len(set(refuted))
        assert set(tried).isdisjoint(refuted)
        assert set(tried) | set(refuted) == expected
        # only the multisets that balance A * (A * B) reach the prover
        assert set(tried) == {frozenset({(a, 2), (b, 1)}), frozenset({(a, 1), (Tensor(a, b), 1)})}
        # the goal's side is tallied once per call, not once per multiset
        assert tallied[0] == (goal,) and tallied.count((goal,)) == 1

    @settings(max_examples=100)
    @given(observed_worlds(), st.sampled_from((0.0, 1.0)))
    def test_truth_matches_proving_every_multiset(self, world_and_goal, default_cost):
        frame, phi = world_and_goal
        model = CostModel({}, default_cost=default_cost, alpha=0.75)
        assert truth_at(frame, "w0", phi, model) == oracles.reference_truth_at(frame, "w0", phi, model)

    @settings(max_examples=30)
    @given(small_frames(max_worlds=5), st.integers(0, 3))
    def test_never_exceeds_visibility(self, frame, horizon):
        model = CostModel({})
        ids = list(frame.worlds)
        for wid in ids:
            frame.worlds[wid].props[PHI] += 1
        observer = Observer("o", ids[0], horizon)
        for wid in ids:
            value = observer_valuation(frame, observer, wid, PHI, model)
            assert value <= int(observer_sees(frame, observer, wid))


class TestPersistenceCheck:
    def base_frame(self, lam_target=8):
        worlds = [World("w0", 10.0, 0.0, 8), World("w1", 10.0, 1.0, lam_target)]
        return Frame(worlds, [("w0", "w1", 1.0)])

    def test_preserved_when_held_both_sides(self, unit_model):
        frame = self.base_frame()
        frame.worlds["w0"].props[PHI] += 1
        frame.worlds["w1"].props[PHI] += 1
        observer = Observer("o", "w0", 3)
        assert persistence_check(frame, observer, "w0", "w1", PHI, unit_model) == PRESERVED

    def test_not_established(self, unit_model):
        frame = self.base_frame()
        observer = Observer("o", "w0", 3)
        assert persistence_check(frame, observer, "w0", "w1", PHI, unit_model) == NOT_ESTABLISHED

    def test_violated_when_target_capacity_too_small(self, unit_model):
        # establishing Phi needs a two-step lolli chain: depth 3 proofs
        gamma = (Atom("A"), Atom("B"), Lolli(Atom("A"), Lolli(Atom("B"), PHI)))
        needed = oracles.minimal_proof_depth(gamma, (PHI,), 8)
        assert needed == 3
        frame = self.base_frame(lam_target=needed - 1)
        frame.worlds["w0"].props.update(Counter(gamma))
        frame.worlds["w1"].props.update(Counter(gamma))
        observer = Observer("o", "w0", 3)
        assert persistence_check(frame, observer, "w0", "w1", PHI, unit_model) == VIOLATED

    def test_inaccessible_pair_raises(self, unit_model):
        frame = self.base_frame()
        with pytest.raises(PreconditionError):
            persistence_check(frame, Observer("o", "w0", 3), "w1", "w0", PHI, unit_model)

    @settings(max_examples=30)
    @given(small_frames(max_worlds=6), st.integers(0, 4), st.booleans())
    def test_violated_only_with_antecedent(self, frame, horizon, place_phi):
        model = CostModel({})
        ids = list(frame.worlds)
        if place_phi:
            for wid in ids[: max(1, len(ids) // 2)]:
                frame.worlds[wid].props[PHI] += 1
        observer = Observer("o", ids[0], horizon)
        for src, dst in frame.edges:
            from eclc import accessible

            if not accessible(frame, src, dst):
                continue
            verdict = persistence_check(frame, observer, src, dst, PHI, model)
            if verdict == VIOLATED:
                assert observer_valuation(frame, observer, src, PHI, model) == 1
