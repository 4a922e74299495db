import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
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
from eclc import calculus, observer, scenarios
from eclc.calculus import _copies_refuted, _refuted, _tally, quantum_token
from eclc.dsl import parse_scenario
from eclc.formula import Bang, Diamond, With
from eclc.observer import truth_at
from eclc.sim import run_scenario
from gen import small_frames
from test_prove_golden import _load_workloads

import oracles

PHI = Atom("Phi")


@pytest.fixture(autouse=True, scope="module")
def every_proof_checked():
    # each tree that the scenario runs and truth_at get derives its sequent within its bound
    with pytest.MonkeyPatch.context() as patched:
        for module in (calculus, observer):
            patched.setattr(module, "prove", oracles.checking(module.prove))
        yield


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


@st.composite
def shared_worlds(draw):
    """2-6 worlds over one pool of 2-6 OBSERVED props and implications or
    bangs of them, at lambda 1-8 and mixed kappa, and 1-12 visits (world,
    goal) in random order over 1-2 goals, often a pool prop, a pair of them
    or what one of them yields, so that visits meet one antecedent multiset
    at several bounds and some goals need a proof."""
    pool = draw(st.lists(OBSERVED, min_size=2, max_size=4, unique=True))
    extra = st.one_of(st.builds(Lolli, st.sampled_from(pool), OBSERVED), st.builds(Bang, st.sampled_from(pool)))
    pool = list(dict.fromkeys(pool + draw(st.lists(extra, max_size=2))))
    held = st.sampled_from(pool)
    yields = [psi.right for psi in pool if isinstance(psi, Lolli)] + [psi.inner for psi in pool if isinstance(psi, Bang)]
    goal = st.one_of(held, st.builds(Tensor, held, held), st.builds(With, held, held), st.sampled_from(yields or pool))
    goals = draw(st.lists(goal, min_size=1, max_size=2))
    worlds = []
    for i in range(draw(st.integers(2, 6))):
        world = World(f"w{i}", 10.0, draw(st.sampled_from((0.0, 0.5, 2.0))), draw(st.integers(1, 8)))
        world.props.update(draw(st.lists(held, min_size=1, max_size=4)))
        worlds.append(world)
    visits = draw(st.lists(st.tuples(st.sampled_from([w.id for w in worlds]), st.sampled_from(goals)), min_size=1, max_size=12))
    return Frame(worlds, []), visits


# Banged contexts for the counted refutation: plain formulas over a few
# atoms, each possibly under a bang, so that many balance by their counts.
COUNTED_ATOMS = (Atom("A"), Atom("B"), PHI, Atom("Quantum", ("q",)), Atom("Classical", ("o",), False))
COUNTED = st.recursive(
    st.sampled_from(COUNTED_ATOMS),
    lambda kids: st.one_of(st.builds(Tensor, kids, kids), st.builds(Lolli, kids, kids)),
    max_leaves=3,
)
COUNTED_MEMBER = st.one_of(
    COUNTED,
    st.builds(Bang, COUNTED),
    st.builds(Bang, st.one_of(st.builds(With, COUNTED, COUNTED), st.builds(Diamond, st.just(1.0), COUNTED))),
)


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
        for horizon in (-1, 1.5, True):
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
        frame = chain_frame(lam=1)  # too shallow for any proof
        frame.worlds["w0"].props.update(held)
        goal = Tensor(a, Tensor(a, b))
        multisets = {
            frozenset(Counter(combo).items())
            for size in (1, 2, 3)
            for combo in itertools.combinations(held.elements(), size)
        }
        assert len(multisets) == 10
        passed = {m for m in multisets if not _refuted(_tally(tuple(Counter(dict(m)).elements())), _tally((goal,)))}
        # only the multisets that balance A * (A * B) pass the filter
        assert passed == {frozenset({(a, 2), (b, 1)}), frozenset({(a, 1), (Tensor(a, b), 1)})}
        # the walk hands on exactly those, each once, and leaves out the
        # rest, each refuted on its own
        walked = list(calculus._balanced(frame.worlds["w0"].props, goal))
        assert len(walked) == len(passed) == len({frozenset(Counter(m).items()) for m in walked})
        assert {frozenset(Counter(m).items()) for m in walked} == passed
        for m in multisets - passed:
            assert _refuted(_tally(tuple(Counter(dict(m)).elements())), _tally((goal,)))
        tried = []

        def record(seq, *args):
            tried.append(frozenset(Counter(seq.gamma).items()))
            return prove(seq, *args)

        monkeypatch.setattr("eclc.observer.prove", record)
        verdicts = {}
        for _ in range(3):
            assert truth_at(frame, "w0", goal, unit_model, verdicts) == 0
        # one table proves each multiset once, at bound 1, and keeps it
        assert len(tried) == len(set(tried)) and set(tried) == passed
        assert set(verdicts.values()) == {(1, calculus._NO_DEPTH_LIMIT)}
        # without a table each call proves them again
        assert observer_valuation(frame, Observer("o", "w0", 0), "w0", goal, unit_model) == 0
        assert len(tried) == 2 * len(passed)

    @settings(max_examples=100)
    @given(observed_worlds(), st.sampled_from((0.0, 1.0)))
    # A & Phi is hopeless against Phi & B, as no branch of it proves B, so
    # truth_at never searches it; B & Phi proves the goal, and B alone is hopeless
    @example((Frame([World("w0", 10.0, 0.5, 4, [With(Atom("A"), PHI), With(Atom("B"), PHI)])], []), With(PHI, Atom("B"))), 0.0)
    @example((Frame([World("w0", 10.0, 0.5, 4, [With(Atom("A"), PHI), Atom("B")])], []), With(PHI, Atom("B"))), 1.0)
    def test_truth_matches_proving_every_multiset(self, world_and_goal, default_cost):
        frame, phi = world_and_goal
        model = CostModel({}, default_cost=default_cost, alpha=0.75)
        assert truth_at(frame, "w0", phi, model, {}) == oracles.reference_truth_at(frame, "w0", phi, model)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(OBSERVED, st.integers(1, 3)), min_size=1, max_size=9), st.data())
    def test_walk_yields_the_filter_pass_set_in_order(self, held, data):
        # the multisets the old loop sent on: every combination within the
        # counts, by size, that _refuted passes against phi's tally
        props = Counter()
        for psi, count in held:
            props[psi] += count
        some = st.sampled_from(sorted(props, key=repr))
        phi = data.draw(st.one_of(OBSERVED, st.builds(Tensor, some, some), st.builds(Tensor, some, st.builds(Tensor, some, some))))
        goal = _tally((phi,))
        expected = [
            combo
            for size in range(1, calculus.MAX_ANTECEDENT + 1)
            for combo in itertools.combinations_with_replacement(props, size)
            if all(combo.count(psi) <= props[psi] for psi in combo) and not _refuted(_tally(combo), goal)
        ]
        assert list(calculus._balanced(props, phi)) == expected

    def test_table_answers_by_bound(self, unit_model):
        # A, A -o Phi proves Phi at height 2: a deep world's proof does not
        # answer a lambda=1 world, and that world's failure does not answer
        # a deeper one
        held = [Atom("A"), Lolli(Atom("A"), PHI)]
        frame = Frame([World(f"w{lam}", 10.0, 0.0, lam, Counter(held)) for lam in (4, 1, 2)], [])
        verdicts = {}
        assert [truth_at(frame, w, PHI, unit_model, verdicts) for w in ("w4", "w1", "w2", "w1")] == [1, 0, 1, 0]
        assert list(verdicts.values()) == [(1, 2)]

    def test_table_answers_a_cost_invalid_multiset_by_bound(self, unit_model):
        # !Phi alone cannot pay for Phi * Phi, which !Phi, Phi proves at height 3:
        # the cost_invalid verdict answers lower bounds only, like any failure
        goal = Tensor(PHI, PHI)
        frame = Frame([World(f"w{lam}", 10.0, 0.0, lam, Counter([Bang(PHI), PHI])) for lam in (4, 1, 2)], [])
        verdicts, visits = {}, ("w4", "w1", "w2", "w1")
        warm = [truth_at(frame, w, goal, unit_model, verdicts) for w in visits]
        assert warm == [truth_at(frame, w, goal, unit_model, {}) for w in visits] == [1, 0, 0, 0]
        assert sorted(verdicts.values()) == [(2, 3), (4, calculus._NO_DEPTH_LIMIT)]

    def test_table_keeps_goals_apart(self, unit_model):
        # A, A -o Phi proves Phi but not Phi & C, though both pass the filter
        frame = chain_frame(lam=4)
        frame.worlds["w0"].props.update([Atom("A"), Lolli(Atom("A"), PHI)])
        verdicts = {}
        assert truth_at(frame, "w0", PHI, unit_model, verdicts) == 1
        assert truth_at(frame, "w0", With(PHI, Atom("C")), unit_model, verdicts) == 0
        assert truth_at(frame, "w0", PHI, unit_model, verdicts) == 1

    @settings(max_examples=60, deadline=None)
    @given(shared_worlds(), st.sampled_from((0.0, 1.0)))
    def test_one_table_across_worlds_matches_reference(self, drawn, default_cost):
        frame, visits = drawn
        model = CostModel({}, default_cost=default_cost, alpha=0.75)
        verdicts = {}
        for wid, phi in visits:
            assert truth_at(frame, wid, phi, model, verdicts) == oracles.reference_truth_at(frame, wid, phi, model)

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


class TestCountedRefutation:
    @pytest.mark.parametrize(
        "gamma, delta",
        [
            ((Bang(Lolli(Atom("A"), PHI)),), (PHI,)),
            ((Bang(Lolli(Atom("A"), Atom("Phi", ("x",)))),), (Atom("Phi", ("x",)),)),
            ((Bang(Lolli(Atom("A"), Atom("B"))), Atom("A")), (Tensor(Atom("B"), Atom("B")),)),
        ],
        ids=["bang-lolli-phi", "bang-lolli-phi-x", "bang-lolli-b-b"],
    )
    def test_banged_copies_that_cannot_balance(self, gamma, delta):
        # one copy of A -o Phi needs one A the goal lacks; each copy of
        # A -o B turns one A into one B, and no count gives one A and two Bs
        assert not _refuted(_tally(gamma), _tally(delta))
        assert _copies_refuted(gamma, delta)
        assert not oracles.provable(gamma, delta, 7)

    def test_banged_copies_that_balance(self):
        a, b = Atom("A"), Atom("B")
        # two copies of A -o B take two As to two Bs
        assert not _copies_refuted((Bang(Lolli(a, b)), a, a), (Tensor(b, b),))
        # a promoted copy: !A |- !A
        assert not _copies_refuted((Bang(a),), (Bang(a),))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(COUNTED_MEMBER, min_size=1, max_size=3), st.lists(COUNTED_MEMBER, min_size=1, max_size=2))
    def test_sound_on_goals_the_tally_passes(self, gamma, delta):
        # the counted check is asked only of goals that _refuted passes
        gamma, delta = tuple(gamma), tuple(delta)
        if not _refuted(_tally(gamma), _tally(delta)) and _copies_refuted(gamma, delta):
            assert not oracles.provable(gamma, delta, 6)

    def test_called_only_on_goals_the_tally_passes(self, monkeypatch):
        # _hopeless asks the counted check, and is asked only of what _balanced yields
        # (truth_at) and of a search root past the tally refutation (prove), so the
        # check need not repeat that refutation on any accessibility run or pool case
        passed, counted = [], calculus._copies_refuted

        def checked(gamma, delta):
            passed.append(not _refuted(_tally(gamma), _tally(delta)))
            return counted(gamma, delta)

        monkeypatch.setattr(calculus, "_copies_refuted", checked)
        wl = _load_workloads()
        builder = wl.Builder()
        texts = [scenarios.read("accessibility")]
        texts += [wl.observer_text(builder, index) for index in range(0, wl.POOL["observer-chain"], 10)]
        for text in texts:
            run_scenario(parse_scenario(text))
        observed = len(passed)
        for line in wl.load_golden("prove-corpus")[::25]:
            prove(*wl.corpus_case(builder, int(line.split()[2])))
        assert observed and len(passed) > observed and all(passed)


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
