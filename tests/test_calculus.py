import functools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from eclc import (
    Atom,
    Bang,
    CostModel,
    Diamond,
    Frame,
    Lolli,
    PreconditionError,
    ProofResult,
    Sequent,
    Tensor,
    With,
    World,
    cost_valid,
    measure,
    prove,
    render_proof,
    transition,
)
from eclc import calculus
from eclc.calculus import (
    COST_INVALID,
    DEPTH_EXCEEDED,
    NO_RULE_APPLIES,
    _applicable,
    _applications,
    _refuted_outright,
    _splits,
    measurement,
    proved_once,
)
from eclc.dsl import parse_formula

import oracles
from gen import random_sequent
from test_prove_golden import _load_workloads

A, B, C = Atom("A"), Atom("B"), Atom("C")


def snapshot(frame):
    return (
        {wid: (w.energy, w.kappa, w.lam, Counter(w.props)) for wid, w in frame.worlds.items()},
        dict(frame.edges),
    )


class TestCostValid:
    def test_simple_inequalities(self):
        model = CostModel({"A": 2.0, "B": 1.0})
        assert cost_valid(Sequent((A,), (B,)), model, 0.0) is True
        model = CostModel({"A": 1.0, "B": 2.0})
        assert cost_valid(Sequent((A,), (B,)), model, 0.0) is False

    def test_kappa_invariance(self):
        # both sides scale by the same factor, so the verdict cannot move
        model = CostModel({"A": 2.0, "B": 1.9}, alpha=0.75)
        for kappa in (0.0, 1.0, 10.0):
            assert cost_valid(Sequent((A,), (B,)), model, kappa) is True
        model = CostModel({"A": 1.9, "B": 2.0}, alpha=0.75)
        for kappa in (0.0, 1.0, 10.0):
            assert cost_valid(Sequent((A,), (B,)), model, kappa) is False

    @given(st.integers(0, 3), st.integers(0, 3), st.floats(0, 20, allow_nan=False))
    def test_kappa_invariance_random(self, n_gamma, n_delta, kappa):
        model = CostModel({"A": 0.7, "B": 1.3}, alpha=0.5)
        seq = Sequent((A,) * n_gamma + (B,), (B,) * n_delta)
        assert cost_valid(seq, model, kappa) == cost_valid(seq, model, 0.0)

    def test_verdict_does_not_round_with_kappa(self):
        # kappa-scaled sums of these costs round differently from one
        # kappa to the next; the verdict must not follow them
        model = CostModel({"A": 0.1, "B": 0.2, "C": 0.3}, alpha=0.75)
        grid = [step / 100 for step in range(1001)]
        for seq, want in ((Sequent((A, B), (C,)), True), (Sequent((C,), (A, B)), False)):
            assert [kappa for kappa in grid if cost_valid(seq, model, kappa) != want] == []
            reason = prove(seq, 5, model, 0.41).failure_reason
            assert (reason != COST_INVALID) == want

    @pytest.mark.parametrize("kappa", [-0.5, float("nan"), float("inf")])
    def test_bad_kappa_raises_on_every_prove_path(self, unit_model, kappa):
        # proved, cost-invalid, refuted, and an empty sequent with no cost to scale
        for seq in (Sequent((A,), (A,)), Sequent((A,), (Tensor(A, A),)), Sequent((A, B), (B,)), Sequent((), ())):
            with pytest.raises(ValueError, match="kappa"):
                prove(seq, 5, unit_model, kappa)


class TestProveBattery:
    """Structural rules, exercised under zero costs so the validity
    gate never interferes."""

    def test_identity(self, zero_model):
        result = prove(Sequent((A,), (A,)), 5, zero_model, 0.0)
        assert result.proved and result.depth == 1

    def test_no_contraction_without_bang(self, zero_model):
        result = prove(Sequent((A,), (Tensor(A, A),)), 10, zero_model, 0.0)
        assert not result.proved
        assert not oracles.provable((A,), (Tensor(A, A),), 6)

    def test_bang_enables_duplication(self, zero_model):
        result = prove(Sequent((Bang(A),), (Tensor(A, A),)), 10, zero_model, 0.0)
        assert result.proved
        assert oracles.provable((Bang(A),), (Tensor(A, A),), 6)

    def test_tensor_commutes(self, zero_model):
        result = prove(Sequent((Tensor(A, B),), (Tensor(B, A),)), 5, zero_model, 0.0)
        assert result.proved
        assert oracles.provable((Tensor(A, B),), (Tensor(B, A),), 6)

    def test_cost_gate_reported_at_root(self, unit_model):
        result = prove(Sequent((A,), (Tensor(A, A),)), 5, unit_model, 0.0)
        assert not result.proved and result.failure_reason == COST_INVALID

    def test_failure_reasons(self, zero_model):
        result = prove(Sequent((A,), (B,)), 5, zero_model, 0.0)
        assert result.failure_reason == NO_RULE_APPLIES
        # provable at depth 3 but not at depth 1
        seq = Sequent((Tensor(A, B),), (Tensor(A, B),))
        result = prove(seq, 1, zero_model, 0.0)
        assert result.failure_reason == DEPTH_EXCEEDED

    def test_depth_bound_is_respected(self, zero_model):
        seq = Sequent((Tensor(A, Tensor(B, C)),), (Tensor(Tensor(C, B), A),))
        for bound in range(1, 9):
            result = prove(seq, bound, zero_model, 0.0)
            if result.proved:
                assert result.tree.height == result.depth <= bound

    def test_collapse_axiom(self, zero_model):
        quantum = Atom("Quantum", ("psi",), True)
        classical = Atom("Classical", ("o",), False)
        result = prove(Sequent((quantum,), (classical,)), 5, zero_model, 0.0)
        assert result.proved and result.depth == 1
        banged = prove(Sequent((Bang(quantum),), (classical,)), 5, zero_model, 0.0)
        assert banged.proved and banged.depth == 2

    def test_settled_roots_make_no_search_state(self, zero_model, unit_model, monkeypatch):
        # the cost gate, an axiom or a refutation settles a root in prove;
        # only a root left open makes tables and enters the search
        made, entries = [], []
        new_tables, search = calculus._new_tables, calculus._search
        monkeypatch.setattr(calculus, "_new_tables", lambda: made.append(1) or new_tables())
        monkeypatch.setattr(calculus, "_search", lambda *args: entries.append(1) or search(*args))
        quantum, classical = Atom("Quantum", ("psi",), True), Atom("Classical", ("o",), False)
        for seq, axiom in ((Sequent((A,), (A,)), "identity"), (Sequent((quantum,), (classical,)), "collapse")):
            result = prove(seq, 6, zero_model, 0.0)
            assert result.tree == calculus.ProofTree(axiom, seq)
            oracles.check_proof(result.tree, 1)
        assert prove(Sequent((A,), (B,)), 6, zero_model, 0.0).failure_reason == NO_RULE_APPLIES
        assert prove(Sequent((A,), (Tensor(A, A),)), 6, unit_model, 0.0).failure_reason == COST_INVALID
        assert made == entries == []
        assert prove(Sequent((Tensor(A, B),), (Tensor(B, A),)), 6, zero_model, 0.0).proved
        assert len(made) == 1 and len(entries) > 1
        # prove tallies each side of a root it leaves open once, and the
        # search reads those tallies from its tables
        tallied, tally = Counter(), calculus._tally
        monkeypatch.setattr(calculus, "_tally", lambda side: tallied.update([side]) or tally(side))
        seq = Sequent((A, B), (Tensor(A, B),))
        assert prove(seq, 6, zero_model, 0.0).proved
        assert len(made) == 2 and tallied[seq.gamma] == tallied[seq.delta] == 1

    def test_invalid_bound_rejected(self, zero_model):
        for bound in (0, True):
            with pytest.raises(ValueError, match="depth_bound must be an integer >= 1"):
                prove(Sequent((A,), (A,)), bound, zero_model, 0.0)
        with pytest.raises(ValueError, match="tree must be present iff proved"):
            ProofResult(True, 1, None, None)


def random_side(rng, pool, max_size=2):
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, max_size)))


def reference_splits(side):
    """All two-way multiset splits, bitmask order, duplicates skipped."""
    n = len(side)
    ids = list(map(id, side))
    seen = set()
    for mask in range(1 << n):
        sig = tuple(sorted(ids[i] for i in range(n) if mask >> i & 1))
        if sig in seen:
            continue
        seen.add(sig)
        first = tuple(side[i] for i in range(n) if mask >> i & 1)
        second = tuple(side[i] for i in range(n) if not mask >> i & 1)
        yield first, second


class TestSplits:
    # reported depth is the first proof found, so split order is pinned
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([A, B, C, Bang(A), Tensor(A, B)]), max_size=6))
    def test_same_splits_in_same_order_as_bitmask_reference(self, side):
        side = tuple(side)
        assert list(_splits(side)) == list(reference_splits(side))


class TestOracleAgreement:
    def test_random_sequents_match_enumerator(self, zero_model):
        rng = random.Random(2024)
        atoms = [A, B, C]
        pool = atoms + [
            Tensor(A, B), Lolli(A, B), With(B, C), Bang(A), Bang(Tensor(A, B)), Lolli(Tensor(A, A), C),
        ]
        for _ in range(250):
            gamma = random_side(rng, pool)
            delta = random_side(rng, pool)
            got = prove(Sequent(gamma, delta), 5, zero_model, 0.0).proved
            want = oracles.provable(gamma, delta, 5)
            assert got == want, (gamma, delta)

    def test_cost_gate_matches_independent_sum(self):
        rng = random.Random(7)
        model = CostModel({"A": 0.5, "B": 2.0}, default_cost=1.0, alpha=0.75)
        pool = [A, B, C, Tensor(A, B), With(A, B), Bang(B)]
        for _ in range(200):
            gamma = random_side(rng, pool, 3)
            delta = random_side(rng, pool, 3)
            seq = Sequent(gamma, delta)
            want = oracles.cost_gate(gamma, delta, model.atom_costs, model.default_cost)
            assert cost_valid(seq, model, 0.0) == want

    def test_shortcut_refutation_is_sound(self):
        # sequents the occurrence filter rejects must also be rejected
        # by the raw, filter-free enumeration
        from eclc.formula import Diamond

        rng = random.Random(99)
        pool = [A, B, C, Tensor(A, B), Lolli(A, B), With(B, C), Bang(A), Diamond(1.0, A)]
        checked = 0
        for _ in range(400):
            gamma = random_side(rng, pool, 2)
            delta = random_side(rng, pool, 2)
            if oracles.hopeless(gamma, delta):
                checked += 1
                assert not oracles.provable(gamma, delta, 5, use_filter=False), (gamma, delta)
        assert checked > 50


QUANTUM_Q = Atom("Quantum", ("q",))
CLASSICAL_O = Atom("Classical", ("o",), False)
shortcut_leaves = st.sampled_from(
    [A, B, Atom("A", coherent=False), Atom("A", ("x",)), QUANTUM_Q, Atom("Quantum", ("r",)), CLASSICAL_O]
)


def leaf_formulas(max_leaves):
    return st.recursive(
        shortcut_leaves,
        lambda kids: st.one_of(
            st.builds(Tensor, kids, kids),
            st.builds(Lolli, kids, kids),
            st.builds(With, kids, kids),
            st.builds(Bang, kids),
            st.builds(Diamond, st.sampled_from([0.0, 1.5]), kids),
        ),
        max_leaves=max_leaves,
    )


shortcut_formulas = leaf_formulas(6)
shortcut_sides = st.lists(shortcut_formulas, max_size=3) | st.lists(shortcut_formulas.map(Bang), max_size=3)
NESTED = Lolli(Lolli(A, B), Lolli(B, QUANTUM_Q))


class TestRefutationShortcut:
    """Stored bucket signatures give the verdict of one walk per call."""

    @settings(max_examples=400, deadline=None)
    @given(shortcut_sides, shortcut_sides)
    @example([Bang(Diamond(1.5, A))], [With(A, Diamond(0.0, B))])
    @example([Diamond(1.5, A)], [A])
    @example([NESTED, Lolli(B, A)], [Lolli(NESTED, CLASSICAL_O)])
    @example([Bang(A), Bang(Tensor(QUANTUM_Q, B))], [Tensor(CLASSICAL_O, Atom("A", coherent=False))])
    def test_signature_sum_matches_reference_walk(self, gamma, delta):
        gamma, delta = tuple(gamma), tuple(delta)
        assert _refuted_outright(gamma, delta) == oracles.refuted_outright_walk(gamma, delta)
        # every member now has a stored signature; read each again on the other side too
        for phi in gamma + delta:
            g, d = gamma + (phi,), delta + (phi,)
            assert _refuted_outright(g, d) == oracles.refuted_outright_walk(g, d)
        assert _refuted_outright(delta, gamma) == oracles.refuted_outright_walk(delta, gamma)


search_formulas = leaf_formulas(3)
search_sides = st.lists(search_formulas, max_size=3) | st.lists(search_formulas.map(Bang), max_size=2)


@st.composite
def search_sequents(draw):
    """A random sequent, or one the corpus's provable templates build:
    a context against the tensor of its members, a modus ponens chain,
    or a banged formula against the tensor of its copies."""
    gamma = draw(search_sides)
    template = draw(st.integers(0, 3))
    if template == 1 and gamma:
        delta = [functools.reduce(Tensor, draw(st.permutations(gamma)))]
    elif template == 2:
        chain = draw(st.lists(shortcut_leaves, min_size=2, max_size=4))
        gamma = draw(st.permutations([chain[0]] + [Lolli(x, y) for x, y in zip(chain, chain[1:])]))
        delta = [chain[-1]]
    elif template == 3:
        phi = draw(search_formulas)
        gamma, delta = [Bang(phi)], [functools.reduce(Tensor, [phi] * draw(st.integers(1, 3)))]
    else:
        delta = draw(search_sides)
    return Sequent(gamma, delta)


COSTED = (CostModel({"A": 0.1, "B": 0.2, "Quantum": 0.3}, default_cost=0.15, alpha=0.75), 0.41)
ZERO = (CostModel({}, default_cost=0.0, alpha=0.75), 0.0)
# the worst acceptance-c01 case for search size; it dies to depth at bounds 5-8
WORST_C01 = Sequent(
    [parse_formula(text) for text in ("C * C -o A", "!C * (A -o A)", "(A -o B) -o C")],
    [parse_formula(text) for text in ("A * B", "!A -o C * A", "!(B -o C)")],
)


class TestSearchDifferential:
    """The search probes the memo before it recurses and builds memo keys
    once per split part; it must return what the search that built and
    checked every key on entry returned, trees included."""

    @settings(max_examples=300, deadline=None)
    @given(search_sequents(), st.integers(1, 6), st.sampled_from([ZERO, COSTED]))
    @example(Sequent((), (Bang(A),)), 1, ZERO)
    @example(Sequent((Bang(A),), (Tensor(A, Tensor(A, A)),)), 4, ZERO)
    @example(WORST_C01, 4, ZERO)
    # one search splits A, B and then B, A: a split list shared by the two
    # orders would give the second tree the first one's order
    @example(Sequent((), (parse_formula("(A -o B -o A * B) & (B -o A -o (A -o A) * (B * A))"),)), 6, ZERO)
    def test_same_results_as_reference_search(self, seq, bound, cost):
        model, kappa = cost
        assert (result := prove(seq, bound, model, kappa)) == oracles.reference_prove(seq, bound, model, kappa)
        # no field of a result reads kappa
        assert result == prove(seq, bound, model, 0.0)
        if result.proved:
            oracles.check_proof(result.tree, bound)
        # below the cost gate too, and the memo ends the same, died bits
        # included, once its int keys are read back as canon pairs
        memo, reference_memo, tables = {}, {}, calculus._new_tables()
        key = calculus._key(seq.gamma, seq.delta, tables[1])
        got = calculus._search(seq.gamma, seq.delta, bound, memo, key, tables)
        assert got == oracles._search(seq.gamma, seq.delta, bound, reference_memo)
        canons = {number: canon for canon, number in tables[1].items()}
        assert len(canons) == len(tables[1])
        assert {(canons[g], canons[d]): entry for (g, d), entry in memo.items()} == reference_memo

    @settings(max_examples=300, deadline=None)
    @given(search_sequents())
    @example(Sequent((), (Bang(A),)))
    @example(Sequent((Bang(A),), (Bang(B),)))
    @example(Sequent((A,), (Bang(B),)))
    @example(Sequent((Diamond(1.5, A), QUANTUM_Q), (Bang(A), B)))
    def test_last_level_test_matches_first_application(self, seq):
        tables = calculus._new_tables()
        key = calculus._key(seq.gamma, seq.delta, tables[1])
        got = _applicable(seq.gamma, seq.delta)
        assert got == (next(_applications(seq.gamma, seq.delta, key, tables), None) is not None)
        assert got == (next(oracles._applications(seq.gamma, seq.delta), None) is not None)

    def test_same_results_where_split_lists_are_reused(self, monkeypatch):
        # hypothesis sequents are too small to ask a search for one split
        # list twice; every 25th golden pool case and WORST_C01 at 5-7 do
        requests = builds = 0
        parts, splits = calculus._parts, calculus._splits

        def counting_parts(*args):
            nonlocal requests
            requests += 1
            return parts(*args)

        def counting_splits(side):
            nonlocal builds
            builds += 1
            return splits(side)

        monkeypatch.setattr(calculus, "_parts", counting_parts)
        monkeypatch.setattr(calculus, "_splits", counting_splits)
        wl = _load_workloads()
        builder = wl.Builder()
        cases = [wl.corpus_case(builder, int(line.split()[2])) for line in wl.load_golden("prove-corpus")[::25]]
        cases += [(WORST_C01, bound, *ZERO) for bound in (5, 6, 7)]
        for case in cases:
            assert (result := prove(*case)) == oracles.reference_prove(*case)
            if result.proved:
                oracles.check_proof(result.tree, case[1])
        assert len(cases) == 207
        assert requests > builds > 0

    @settings(max_examples=300, deadline=None)
    @given(search_sequents(), st.integers(1, 6))
    @example(Sequent((Diamond(1.5, A), QUANTUM_Q), (Bang(A), B)), 3)
    @example(Sequent((Bang(QUANTUM_Q), With(A, B)), (Tensor(CLASSICAL_O, A),)), 6)
    @example(WORST_C01, 4)
    def test_refutation_from_side_tallies_matches_reference_walk(self, seq, bound):
        # each side's tally is taken once per search and merged per key;
        # every entry's verdict must be the one walk over the whole sequent
        entries = []
        search = calculus._search

        def recording_search(gamma, delta, remaining, memo, key, tables):
            entries.append((gamma, delta, key))
            return search(gamma, delta, remaining, memo, key, tables)

        memo, tables = {}, calculus._new_tables()
        key = calculus._key(seq.gamma, seq.delta, tables[1])
        with mock.patch.object(calculus, "_search", recording_search):
            calculus._search(seq.gamma, seq.delta, bound, memo, key, tables)
        refuted = {k for k, (depth, _) in memo.items() if depth == calculus._NO_DEPTH_LIMIT}
        for gamma, delta, k in entries:
            if calculus._is_axiom(gamma, delta) is None:
                # memoized at any depth iff the reference walk refutes it
                assert (k in refuted) == oracles.refuted_outright_walk(gamma, delta), (gamma, delta)
        assert refuted <= {k for _, _, k in entries}

    def test_memo_hits_do_not_enter_the_search(self, monkeypatch):
        entries = 0
        search = calculus._search

        def counting_search(*args):
            nonlocal entries
            entries += 1
            return search(*args)

        monkeypatch.setattr(calculus, "_search", counting_search)
        result = prove(WORST_C01, 5, *ZERO)
        assert result.failure_reason == DEPTH_EXCEEDED
        # the search that checked the memo on entry made 38,164 entries
        assert entries <= 6000


ONE_PREMISE_LEFT = ("tensor-left", "with-left-1", "with-left-2", "dereliction", "contraction", "weakening")
BANGED_PAIR = Bang(Tensor(A, B))


@st.composite
def repeated_sequents(draw):
    """A sequent whose gamma holds 2-3 copies of one banged, with or
    tensor formula among up to two others, against a random delta, the
    tensor of gamma's members, or one of them."""
    parts = shortcut_leaves | search_formulas
    phi = draw(st.one_of(parts.map(Bang), st.builds(With, parts, parts), st.builds(Tensor, parts, parts)))
    others = draw(st.lists(parts | parts.map(Bang), max_size=2))
    gamma = draw(st.permutations([phi] * draw(st.integers(2, 3)) + others))
    template = draw(st.integers(0, 2))
    if template == 1:
        delta = [functools.reduce(Tensor, draw(st.permutations(gamma)))]
    elif template == 2:
        delta = [draw(st.sampled_from(gamma))]
    else:
        delta = draw(st.lists(search_formulas, min_size=1, max_size=2))
    return Sequent(gamma, delta)


class TestFirstCopyOnly:
    """Tensor-left, with-left and the three bang rules fire on the first
    copy of each formula in gamma; a later copy's premise is the same
    multiset, so the search must find what firing every copy found."""

    @settings(max_examples=200, deadline=None)
    @given(repeated_sequents())
    @example(Sequent((BANGED_PAIR, BANGED_PAIR), (BANGED_PAIR,)))
    def test_no_one_premise_left_rule_repeats_a_premise(self, seq):
        tables = calculus._new_tables()
        key = calculus._key(seq.gamma, seq.delta, tables[1])
        seen = Counter(
            (rule, k) for rule, _, _, k, g2, _ in _applications(seq.gamma, seq.delta, key, tables)
            if rule in ONE_PREMISE_LEFT and g2 is None
        )
        assert [item for item, count in seen.items() if count > 1] == []

    def test_banged_self_carry_work(self, monkeypatch):
        # firing every copy made 166,121 applications here, 142,850 of
        # them dereliction, contraction and weakening
        entries = applications = 0
        search, applications_of = calculus._search, calculus._applications

        def counting_search(*args):
            nonlocal entries
            entries += 1
            return search(*args)

        def counting_applications(*args):
            nonlocal applications
            for application in applications_of(*args):
                applications += 1
                yield application

        monkeypatch.setattr(calculus, "_search", counting_search)
        monkeypatch.setattr(calculus, "_applications", counting_applications)
        result = prove(Sequent((BANGED_PAIR,), (BANGED_PAIR,)), 32, *ZERO)
        assert result.proved and result.depth == 32
        assert entries == 7466
        assert applications <= 31_000

    @settings(max_examples=150, deadline=None)
    @given(repeated_sequents(), st.integers(1, 6), st.sampled_from([ZERO, COSTED]))
    @example(Sequent((BANGED_PAIR, BANGED_PAIR), (Tensor(B, BANGED_PAIR),)), 6, ZERO)
    @example(Sequent((Bang(A), Bang(A), B), (Tensor(A, Tensor(A, B)),)), 6, ZERO)
    @example(Sequent((With(A, B), With(A, B)), (Tensor(B, A),)), 5, ZERO)
    @example(Sequent((Tensor(A, B), Tensor(A, B)), (Tensor(Tensor(A, B), Tensor(A, B)),)), 6, COSTED)
    def test_same_results_as_per_copy_reference(self, seq, bound, cost):
        model, kappa = cost
        assert (result := prove(seq, bound, model, kappa)) == oracles.reference_prove(seq, bound, model, kappa)
        if result.proved:
            oracles.check_proof(result.tree, bound)
        memo, reference_memo, tables = {}, {}, calculus._new_tables()
        key = calculus._key(seq.gamma, seq.delta, tables[1])
        got = calculus._search(seq.gamma, seq.delta, bound, memo, key, tables)
        assert got == oracles._search(seq.gamma, seq.delta, bound, reference_memo)
        canons = {number: canon for canon, number in tables[1].items()}
        assert {(canons[g], canons[d]): entry for (g, d), entry in memo.items()} == reference_memo


class TestProofChecker:
    """``oracles.check_proof`` rejects a tree that is not a derivation."""

    def test_rejects_each_kind_of_broken_tree(self, zero_model):
        tree = prove(Sequent((Tensor(A, B),), (Tensor(B, A),)), 3, zero_model, 0.0).tree
        oracles.check_proof(tree, 3)
        # tensor-left, then tensor-right on A, B |- B * A, then two identities
        (inner,) = tree.premises
        assert (tree.rule, inner.rule) == ("tensor-left", "tensor-right")
        broken = {
            "not an instance of tensor-right": tree._replace(rule="tensor-right"),
            "not an instance of tensor-left": tree._replace(
                premises=(inner._replace(sequent=Sequent((A,), inner.sequent.delta)),)
            ),
            "leaf tensor-right is not an axiom": tree._replace(premises=(inner._replace(premises=()),)),
            "height 3 exceeds the bound 2": tree,
        }
        for message, candidate in broken.items():
            with pytest.raises(AssertionError, match=message):
                oracles.check_proof(candidate, 2 if candidate is tree else 3)


def collapse_frame(lam=8, delta_e=2.0, energy=10.0):
    """Two worlds with the entanglement-consumption resources at w1."""
    e, ent = Atom("E"), Atom("Entangled", ("A", "B"))
    dec = Atom("Decohered", ("A",), False)
    res = Atom("Residual", ("B",), False)
    step = Lolli(Tensor(e, ent), Tensor(dec, res))
    w1 = World("w1", energy, 0.0, lam, Counter([e, ent, step]))
    w2 = World("w2", 10.0, 1.0, lam)
    frame = Frame([w1, w2], [("w1", "w2", delta_e)])
    seq = Sequent((e, ent, step), (Tensor(dec, res),))
    return frame, seq, ent


class TestTransition:
    def test_entanglement_consumed(self, unit_model):
        frame, seq, ent = collapse_frame()
        outcome = transition(frame, "w1", "w2", seq, unit_model)
        assert outcome.valid
        assert ent not in frame.worlds["w1"].props
        assert Tensor(Atom("Decohered", ("A",), False), Atom("Residual", ("B",), False)) in frame.worlds["w2"].props
        assert outcome.energy_spent == 2.0
        assert frame.worlds["w1"].energy == 8.0

    def test_depth_bound_failure(self, unit_model):
        frame, seq, _ = collapse_frame(lam=1)
        before = snapshot(frame)
        outcome = transition(frame, "w1", "w2", seq, unit_model)
        assert not outcome.valid
        assert outcome.proof.failure_reason == DEPTH_EXCEEDED
        assert snapshot(frame) == before

    def test_inaccessible_pair(self, unit_model):
        frame, seq, _ = collapse_frame(delta_e=99.0)
        before = snapshot(frame)
        outcome = transition(frame, "w1", "w2", seq, unit_model)
        assert not outcome.valid
        assert snapshot(frame) == before

    def test_gamma_not_in_props_raises(self, unit_model):
        frame, seq, _ = collapse_frame()
        frame.worlds["w1"].props.clear()
        with pytest.raises(PreconditionError):
            transition(frame, "w1", "w2", seq, unit_model)

    def test_replay_after_success_raises(self, unit_model):
        frame, seq, _ = collapse_frame()
        assert transition(frame, "w1", "w2", seq, unit_model).valid
        with pytest.raises(PreconditionError):
            transition(frame, "w1", "w2", seq, unit_model)

    def test_source_remainder_reflects_consumption(self, unit_model):
        frame, seq, _ = collapse_frame()
        outcome = transition(frame, "w1", "w2", seq, unit_model)
        assert outcome.valid
        for phi in seq.gamma:
            assert phi not in frame.world("w1").props
        assert frame.world("w2").props == Counter(seq.delta)

    def test_props_update_in_place_like_rebinding(self, unit_model):
        # c03-style cases with extra props on both sides: the in-place
        # updates leave the same counts in the same key order as
        # rebinding to props - Counter(gamma) and props + Counter(delta)
        rng = random.Random(313)
        pool = [Atom(n) for n in "PQRST"]
        checked = 0
        for _ in range(300):
            atoms = rng.sample(pool, rng.randint(1, 4))
            gamma = tuple(atoms[: rng.randint(1, len(atoms))])
            goal = gamma[0]
            for phi in gamma[1:]:
                goal = Tensor(goal, phi)
            source = Counter(rng.choices(pool, k=rng.randint(0, 4)) + atoms)
            target = Counter(rng.choices(pool + [goal], k=rng.randint(0, 4)))
            frame = Frame(
                [
                    World("src", rng.uniform(5.0, 20.0), rng.uniform(0.0, 2.0), 8, source),
                    World("dst", 10.0, rng.uniform(0.0, 2.0), 8, target),
                ],
                [("src", "dst", rng.uniform(0.0, 4.0))],
            )
            seq = Sequent(gamma, (goal,))
            assert transition(frame, "src", "dst", seq, unit_model).valid
            assert list(frame.world("src").props.items()) == list((source - Counter(gamma)).items())
            assert list(frame.world("dst").props.items()) == list((target + Counter(seq.delta)).items())
            checked += 1
        assert checked == 300


def measurement_frame(lam_source=8, delta_e=1.0, energy=10.0):
    token = Bang(Atom("Quantum", ("psi",), True))
    wa = World("wa", energy, 0.0, lam_source, Counter([token]))
    wb = World("wb", 10.0, 0.0, 8)
    return Frame([wa, wb], [("wa", "wb", delta_e), ("wb", "wa", delta_e)])


class TestMeasure:
    def test_measure_then_replay(self, unit_model):
        frame = measurement_frame()
        outcome = measure(frame, "wa", "wb", "psi", "up", unit_model)
        assert outcome.valid
        assert Atom("Classical", ("up",), False) in frame.worlds["wb"].props
        with pytest.raises(PreconditionError):
            measure(frame, "wa", "wb", "psi", "up", unit_model)

    def test_minimal_depth_needs_dereliction(self, unit_model):
        token = Bang(Atom("Quantum", ("psi",), True))
        classical = Atom("Classical", ("o",), False)
        assert oracles.minimal_proof_depth((token,), (classical,), 6) == 2
        frame = measurement_frame(lam_source=1)
        outcome = measure(frame, "wa", "wb", "psi", "o", unit_model)
        assert not outcome.valid and outcome.proof.failure_reason == DEPTH_EXCEEDED

    def test_energy_gate(self, unit_model):
        frame = measurement_frame(delta_e=99.0)
        before = snapshot(frame)
        outcome = measure(frame, "wa", "wb", "psi", "o", unit_model)
        assert not outcome.valid
        assert snapshot(frame) == before

    def test_depth_bound_override(self, unit_model):
        frame = measurement_frame(lam_source=8)
        outcome = measure(frame, "wa", "wb", "psi", "o", unit_model, depth_bound=1)
        assert not outcome.valid
        outcome = measure(frame, "wa", "wb", "psi", "o", unit_model, depth_bound=2)
        assert outcome.valid and outcome.proof.depth == 2


def counted_prove(monkeypatch):
    """Route ``calculus.prove`` through a counter; returns the call list."""
    prove_ = calculus.prove
    calls = []

    def counted(seq, bound, model, kappa):
        calls.append((seq, bound, kappa))
        return prove_(seq, bound, model, kappa)

    monkeypatch.setattr(calculus, "prove", counted)
    return calls


def frame_order(frame):
    """Each world's energy and props in key order, and the edges."""
    return (
        [(wid, w.energy, list(w.props.items())) for wid, w in frame.worlds.items()],
        list(frame.edges.items()),
    )


def assert_fresh(proofs, model):
    """Each memo entry equals a fresh ``prove``, tree included, and each
    seq entry holds the search at its bound, or a ``cost_invalid`` result,
    which a fresh ``prove`` gives at every bound."""
    for key, value in proofs.items():
        if not isinstance(key, Sequent):  # a (seq, bound) key; a Sequent is a tuple too
            seq, bound = key
            assert value == prove(seq, bound, model, 0.0)
        else:
            seq, (bound, result) = key, value
            if result.proved:
                assert result == proofs[seq, bound]
            else:
                assert result.failure_reason == COST_INVALID and bound == calculus._NO_DEPTH_LIMIT
                assert all(result == prove(seq, b, model, 0.0) for b in (1, 2, 7))


class TestProofMemo:
    def test_measure_twice_still_raises(self, unit_model, monkeypatch):
        calls = counted_prove(monkeypatch)
        proofs = {}
        frame = measurement_frame()
        assert measure(frame, "wa", "wb", "psi", "o", unit_model, proofs=proofs).valid
        with pytest.raises(PreconditionError):
            measure(frame, "wa", "wb", "psi", "o", unit_model, proofs=proofs)
        # the replay raised before any memo lookup, so a fresh frame's
        # measurement is the memo's first hit; the one search is kept at
        # its bound and as the sequent's proof at the largest bound
        assert measure(measurement_frame(), "wa", "wb", "psi", "o", unit_model, proofs=proofs).valid
        seq = measurement("psi", "o")
        fresh = prove(seq, 8, unit_model, 0.0)
        assert len(calls) == 1
        assert proofs == {(seq, 8): fresh, seq: (8, fresh)}

    def test_failed_transition_on_memo_hit_changes_nothing(self, unit_model, monkeypatch):
        calls = counted_prove(monkeypatch)
        proofs = {}
        frame, seq, _ = collapse_frame()
        assert transition(frame, "w1", "w2", seq, unit_model, proofs=proofs).valid
        for frame, _, _ in (collapse_frame(delta_e=99.0), collapse_frame(energy=1.0)):
            before = snapshot(frame)
            outcome = transition(frame, "w1", "w2", seq, unit_model, proofs=proofs)
            assert not outcome.valid and outcome.proof.proved
            assert outcome.energy_spent == 0.0
            assert snapshot(frame) == before
        assert len(calls) == 1

    def test_bound_below_one_skips_prove_and_memo(self, unit_model, monkeypatch):
        calls = counted_prove(monkeypatch)
        proofs = {}
        for bound in (0, -3):
            frame = measurement_frame()
            before = snapshot(frame)
            outcome = measure(frame, "wa", "wb", "psi", "o", unit_model, depth_bound=bound, proofs=proofs)
            assert not outcome.valid and outcome.proof.failure_reason == DEPTH_EXCEEDED
            assert snapshot(frame) == before
            # the drivers look a proof up the same way, with no frame
            proof = proved_once(measurement("psi", "o"), bound, unit_model, proofs)
            assert not proof.proved and proof.failure_reason == DEPTH_EXCEEDED
        assert calls == [] and proofs == {}

    def test_memo_matches_memo_free_over_c03_cases(self, unit_model, monkeypatch):
        # c03-style cases, some sabotaged: with one memo shared by every
        # case, each transition gives the memo-free outcome and frame
        calls = counted_prove(monkeypatch)
        rng = random.Random(314)
        pool = [Atom(n) for n in "PQRST"]
        proofs = {}
        outcomes = Counter()
        for _ in range(300):
            atoms = rng.sample(pool, rng.randint(1, 4))
            gamma = tuple(atoms[: rng.randint(1, len(atoms))])
            goal = gamma[0]
            for phi in gamma[1:]:
                goal = Tensor(goal, phi)
            delta = rng.choice([(goal,), (goal,), (Tensor(goal, Atom("Unobtainable")),)])
            frame = Frame(
                [
                    World("src", rng.choice((2.0, 10.0)), rng.choice((0.0, 1.0)), rng.randint(1, 5),
                          Counter(rng.choices(pool, k=rng.randint(0, 3)) + atoms)),
                    World("dst", 10.0, 0.0, 8, Counter(rng.choices(pool, k=rng.randint(0, 3)))),
                ],
                [("src", "dst", rng.uniform(0.0, 4.0))],
            )
            plain = frame.copy()
            seq = Sequent(gamma, delta)
            memoized = transition(frame, "src", "dst", seq, unit_model, proofs=proofs)
            expected = transition(plain, "src", "dst", seq, unit_model)
            assert memoized == expected
            assert frame_order(frame) == frame_order(plain)
            outcomes[memoized.valid, memoized.proof.failure_reason] += 1
        assert len(outcomes) >= 3 and outcomes[True, None] >= 50
        # the memo-free side proves all 300; the memo side searches only
        # its misses, keeps each at its bound, and each entry is a fresh prove
        assert len(calls) - 300 == sum(not isinstance(key, Sequent) for key in proofs) < 250
        assert_fresh(proofs, unit_model)

    def test_every_bound_in_any_order_matches_fresh_prove(self, zero_model, unit_model, monkeypatch):
        # bounds 0-7 in random order through one memo per sequent and cost
        # model: each answer is a fresh prove, tree included, and proofs
        # found at a higher bound answer lower ones
        calls = counted_prove(monkeypatch)
        rng = random.Random(2024)
        answers = Counter()
        for _ in range(200):
            seq = random_sequent(rng)
            for model in (zero_model, unit_model):
                proofs, start = {}, len(calls)
                for bound in rng.sample(range(8), 8):
                    result = proved_once(seq, bound, model, proofs)
                    if bound == 0:
                        assert result == ProofResult(False, 0, None, DEPTH_EXCEEDED)
                    else:
                        assert result == prove(seq, bound, model, 0.0)
                    answers[result.failure_reason] += 1
                # one memo searches each (seq, bound) at most once
                searched = [(s, bound) for s, bound, _ in calls[start:]]
                assert len(searched) == len(set(searched))
        assert len(answers) == 4 and answers[None] >= 1000
        # of the 2,800 queries at bounds 1-7, reuse answers 421 here
        assert len(calls) < 2800 - 400


class TestRenderProof:
    def test_indented_layout(self, zero_model):
        result = prove(Sequent((Tensor(A, B),), (Tensor(B, A),)), 5, zero_model, 0.0)
        text = render_proof(result.tree)
        assert text.splitlines()[0] == "tensor-left  A * B |- B * A"
        assert "    identity  B |- B" in text.splitlines()
        assert text.count("identity") == 2


class TestIrreversibilityProperty:
    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_valid_then_replay_fails(self, seed):
        rng = random.Random(seed)
        names = ["P", "Q", "R", "S", "T"]
        atoms = [Atom(n) for n in rng.sample(names, rng.randint(1, 4))]
        gamma = tuple(atoms[: rng.randint(1, len(atoms))])
        goal = gamma[0]
        for phi in gamma[1:]:
            goal = Tensor(goal, phi)
        wa = World("wa", rng.uniform(5, 20), rng.uniform(0, 2), 8, Counter(atoms))
        wb = World("wb", 10.0, 0.0, 8)
        frame = Frame([wa, wb], [("wa", "wb", rng.uniform(0, 4))])
        model = CostModel({}, default_cost=1.0, alpha=0.75)
        outcome = transition(frame, "wa", "wb", Sequent(gamma, (goal,)), model)
        assert outcome.valid
        with pytest.raises(PreconditionError):
            transition(frame, "wa", "wb", Sequent(gamma, (goal,)), model)
