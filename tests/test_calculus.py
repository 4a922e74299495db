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
    SEARCH_BUDGET_EXCEEDED,
    _applicable,
    _applications,
    _refuted,
    _splits,
    _tally,
    measurement,
    proved_once,
)
from eclc.dsl import parse_formula
from eclc.observer import truth_at

import oracles
from gen import random_sequent
from test_prove_golden import _load_workloads

A, B, C, D = Atom("A"), Atom("B"), Atom("C"), Atom("D")


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

    def test_verdict_does_not_depend_on_side_order(self):
        # summed left to right, 0.1 + 0.3 + 0.2 and 0.2 + 0.3 + 0.1 round
        # apart, so one order of this gamma covered delta and its reversal did not
        model = CostModel({"A": 0.1, "Quantum": 0.3})
        gamma, delta = (A, QUANTUM_Q, Tensor(A, A)), (Tensor(Tensor(A, QUANTUM_Q), Tensor(A, A)),)
        assert cost_valid(Sequent(gamma, delta), model, 0.0) == cost_valid(Sequent(gamma[::-1], delta), model, 0.0)

    def test_verdict_does_not_round_with_kappa(self):
        # kappa-scaled sums of these costs round differently from one
        # kappa to the next; the verdict must not follow them
        model = CostModel({"A": 0.1, "B": 0.2, "C": 0.3}, alpha=0.75)
        grid = [step / 100 for step in range(1001)]
        for seq, want in ((Sequent((A, B), (C,)), True), (Sequent((C,), (A, B)), False)):
            assert [kappa for kappa in grid if cost_valid(seq, model, kappa) != want] == []
            reason = prove(seq, 5, model, 0.41).failure_reason
            assert (reason != COST_INVALID) == want

    def test_side_past_the_float_range_costs_inf(self):
        # 1e308 + 1e308 passes the largest float, so the side costs inf,
        # as the single formula A * A does, and the gate still decides
        model = CostModel({"A": 1e308, "B": 1.0})
        assert cost_valid(Sequent((A, A), (B,)), model, 0.0) is True
        assert prove(Sequent((B,), (A, A)), 5, model, 0.0).failure_reason == COST_INVALID

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
            if oracles.tally_refuted(gamma, delta):
                checked += 1
                assert not oracles.provable(gamma, delta, 5, use_filter=False), (gamma, delta)
        assert checked > 50


QUANTUM_Q = Atom("Quantum", ("q",))
CLASSICAL_O = Atom("Classical", ("o",), False)
shortcut_leaves = st.sampled_from(
    [A, B, Atom("A", coherent=False), Atom("A", ("x",)), QUANTUM_Q, Atom("Quantum", ("r",)), CLASSICAL_O]
)


def leaf_formulas(max_leaves, withs=1):
    return st.recursive(
        shortcut_leaves,
        lambda kids: st.one_of(
            st.builds(Tensor, kids, kids),
            st.builds(Lolli, kids, kids),
            *[st.builds(With, kids, kids)] * withs,
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
        assert _refuted(_tally(gamma), _tally(delta)) == oracles.refuted_outright_walk(gamma, delta)
        # every member now has a stored signature; read each again on the other side too
        for phi in gamma + delta:
            g, d = gamma + (phi,), delta + (phi,)
            assert _refuted(_tally(g), _tally(d)) == oracles.refuted_outright_walk(g, d)
        assert _refuted(_tally(delta), _tally(gamma)) == oracles.refuted_outright_walk(delta, gamma)


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


POOL = _load_workloads()
POOL_CASES = {case: POOL.corpus_case(POOL.Builder(), case) for case in (49, 732, 927, 1734, 2179)}
COSTED = (CostModel({"A": 0.1, "B": 0.2, "Quantum": 0.3}, default_cost=0.15, alpha=0.75), 0.41)
ZERO = (CostModel({}, default_cost=0.0, alpha=0.75), 0.0)
# the worst acceptance-c01 case for search size; it dies to depth at bounds 5-8
WORST_C01 = Sequent(
    [parse_formula(text) for text in ("C * C -o A", "!C * (A -o A)", "(A -o B) -o C")],
    [parse_formula(text) for text in ("A * B", "!A -o C * A", "!(B -o C)")],
)


def assert_memo_matches_reference(tables, reference_memo):
    """Each memo entry the search wrote equals the reference search's entry for its key, a
    canon pair in both, died bits included.  A reference key the search lacks holds a level-1
    value: a goal with two levels left and more than three formulas stops at its first death,
    and the level-1 premises it skips are pure functions of their sequents, so any later probe
    recomputes them alike."""
    memo = tables[2]
    assert {key: reference_memo.get(key) for key in memo} == memo
    skipped = {key: entry for key, entry in reference_memo.items() if key not in memo}
    assert all(entry[0] == 1 or entry == (calculus._NO_DEPTH_LIMIT, False) for entry in skipped.values()), skipped


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
    # pool roots that _hopeless accepts, so prove stops their search at its first death
    @example(POOL_CASES[49][0], 5, POOL_CASES[49][2:])
    @example(POOL_CASES[927][0], 5, POOL_CASES[927][2:])
    @example(POOL_CASES[1734][0], 5, POOL_CASES[1734][2:])
    # pool roots whose two-level goals of more than three formulas stop at their first death
    @example(POOL_CASES[2179][0], 5, POOL_CASES[2179][2:])
    @example(POOL_CASES[732][0], 5, POOL_CASES[732][2:])
    def test_same_results_as_reference_search(self, seq, bound, cost):
        model, kappa = cost
        assert (result := prove(seq, bound, model, kappa)) == oracles.reference_prove(seq, bound, model, kappa)
        # no field of a result reads kappa
        assert result == prove(seq, bound, model, 0.0)
        if result.proved:
            oracles.check_proof(result.tree, bound)
        # below the cost gate too, and the memo agrees with the reference's
        reference_memo, tables = {}, calculus._new_tables()
        key = calculus._key(seq.gamma, seq.delta)
        got = calculus._search(seq.gamma, seq.delta, bound, key, tables)
        assert got == oracles._search(seq.gamma, seq.delta, bound, reference_memo)
        assert_memo_matches_reference(tables, reference_memo)

    @settings(max_examples=300, deadline=None)
    @given(search_sequents())
    @example(Sequent((), (Bang(A),)))
    @example(Sequent((Bang(A),), (Bang(B),)))
    @example(Sequent((A,), (Bang(B),)))
    @example(Sequent((Diamond(1.5, A), QUANTUM_Q), (Bang(A), B)))
    def test_last_level_test_matches_first_application(self, seq):
        tables = calculus._new_tables()
        key = calculus._key(seq.gamma, seq.delta)
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

        def recording_search(gamma, delta, remaining, key, tables):
            entries.append((gamma, delta, key))
            return search(gamma, delta, remaining, key, tables)

        tables = calculus._new_tables()
        key = calculus._key(seq.gamma, seq.delta)
        with mock.patch.object(calculus, "_search", recording_search):
            calculus._search(seq.gamma, seq.delta, bound, key, tables)
        refuted = {k for k, (depth, _) in tables[2].items() if depth == calculus._NO_DEPTH_LIMIT}
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
        key = calculus._key(seq.gamma, seq.delta)
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
        # 7,466 before two-level goals of more than three formulas stopped at their first death
        assert entries == 6897
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
        reference_memo, tables = {}, calculus._new_tables()
        key = calculus._key(seq.gamma, seq.delta)
        got = calculus._search(seq.gamma, seq.delta, bound, key, tables)
        assert got == oracles._search(seq.gamma, seq.delta, bound, reference_memo)
        assert_memo_matches_reference(tables, reference_memo)


BANGED_SELF_CARRY = Sequent((BANGED_PAIR,), (BANGED_PAIR,))
SPENT_TWICE = Sequent((Bang(Lolli(A, B)), A), (Tensor(B, B),))


def recorded_states(monkeypatch):
    """The search states that ``prove`` makes from now on, in order."""
    states, new_tables = [], calculus._new_tables
    monkeypatch.setattr(calculus, "_new_tables", lambda: states.append(new_tables()) or states[-1])
    return states


class TestSearchBudget:
    """A search that spends more than MAX_SEARCH_WORK units, len(gamma) +
    len(delta) per entry past the axiom check and one per application tried,
    ends in search_budget_exceeded at any bound.  Work is counted, not
    seconds, so where it stops is fixed."""

    @pytest.mark.parametrize(
        "seq, bound, reason",
        [
            (BANGED_SELF_CARRY, 64, SEARCH_BUDGET_EXCEEDED),
            (BANGED_SELF_CARRY, 500, SEARCH_BUDGET_EXCEEDED),
            # no bound proves it, and the counted check says so at the root's first death
            (SPENT_TWICE, 64, DEPTH_EXCEEDED),
            # at bound 500 its first death comes only after the budget runs out
            (SPENT_TWICE, 500, SEARCH_BUDGET_EXCEEDED),
        ],
        ids=["banged-self-carry-64", "banged-self-carry-500", "spent-twice-64", "spent-twice-500"],
    )
    def test_large_searches_end_with_the_reason(self, monkeypatch, seq, bound, reason):
        # without a budget the self-carry proves at depth 64 after 2.35 million
        # slots, and the other ran 26 s at bound 64 (2-CPU machine)
        states, entries = recorded_states(monkeypatch), []
        if reason == DEPTH_EXCEEDED:  # a wrapped search at bound 500 would pass the recursion limit
            search = calculus._search
            monkeypatch.setattr(calculus, "_search", lambda *args: entries.append(1) or search(*args))
        assert prove(seq, bound, *ZERO) == ProofResult(False, 0, None, reason)
        (state,) = states
        if reason == SEARCH_BUDGET_EXCEEDED:
            assert calculus.MAX_SEARCH_WORK < state[3] < calculus.MAX_SEARCH_WORK + 1000
        else:
            # 1,088 entries; 71,144 and the whole budget when the root stop asked only the & polarities
            assert len(entries) < 2000

    def test_a_search_stops_at_the_same_slot_count(self, monkeypatch):
        monkeypatch.setattr(calculus, "MAX_SEARCH_WORK", 5000)
        states = recorded_states(monkeypatch)
        # WORST_C01's root dies early, and the goals its proof-only mode skips move its stop from 5,005
        for seq, bound, work in ((WORST_C01, 7, 5002), (BANGED_SELF_CARRY, 64, 5011), (SPENT_TWICE, 64, 5021)):
            for _ in range(3):
                assert prove(seq, bound, *ZERO).failure_reason == SEARCH_BUDGET_EXCEEDED
                assert states[-1][3] == work

    def test_proved_once_keeps_a_budget_failure_for_its_bound_only(self, monkeypatch):
        seq, proofs = Sequent((A, B), (Tensor(A, B),)), {}
        monkeypatch.setattr(calculus, "MAX_SEARCH_WORK", 1)
        assert proved_once(seq, 6, ZERO[0], proofs).failure_reason == SEARCH_BUDGET_EXCEEDED
        monkeypatch.undo()
        assert proved_once(seq, 6, ZERO[0], proofs).failure_reason == SEARCH_BUDGET_EXCEEDED
        assert proved_once(seq, 5, ZERO[0], proofs).proved

    def test_split_lists_count_against_the_budget(self, monkeypatch):
        # a side of many bang copies gets long: its split lists held 41,168,500
        # formulas, 12.9 s on a 2-CPU machine, before each list was charged
        built, splits = [], calculus._splits

        def counted(side):
            built.append(len(side) * len(parts := splits(side)))
            return parts

        monkeypatch.setattr(calculus, "_splits", counted)
        gamma = ("<1e+308>Classical(q0) & (Classical(q0) -o Quantum(q0)) & Classical(q1) * (Entangled(a,b) * B)", "!~Decohered_B")
        seq = Sequent(tuple(map(parse_formula, gamma)), (parse_formula("!B"),))
        assert prove(seq, 500, *ZERO).failure_reason == SEARCH_BUDGET_EXCEEDED
        assert sum(built) <= calculus.MAX_SEARCH_WORK

    def test_truth_at_records_nothing_for_a_budget_failure(self, monkeypatch):
        frame, phi, verdicts = Frame([World("w", 1.0, 0.0, 6, [A, B])], []), Tensor(A, B), {}
        monkeypatch.setattr(calculus, "MAX_SEARCH_WORK", 1)
        assert truth_at(frame, "w", phi, ZERO[0], verdicts) == 0
        monkeypatch.undo()
        assert truth_at(frame, "w", phi, ZERO[0], verdicts) == truth_at(frame, "w", phi, ZERO[0], {}) == 1


# &-rich members, and members over A and B, bare or banged, whose copies the counted check weighs
ab_formulas = st.recursive(
    st.sampled_from([A, B]), lambda kids: st.builds(Tensor, kids, kids) | st.builds(Lolli, kids, kids), max_leaves=3
)
with_rich_sides = st.lists(leaf_formulas(4, withs=3) | ab_formulas | ab_formulas.map(Bang), max_size=3)


class TestHopelessRoot:
    """``prove`` stops the search of a root that ``_hopeless`` accepts at its first
    death to depth: no depth proves that root, by the counted check or the ``&``
    polarities, so the result cannot change."""

    @settings(max_examples=300, deadline=None)
    @given(with_rich_sides, with_rich_sides)
    @example([With(A, B)], [A])  # a & in gamma is negative
    @example([], [Lolli(With(A, B), A)])  # and so is one in the antecedent of a lolli in delta
    @example([With(A, C)], [With(C, B)])  # hopeless: no projection of gamma proves B
    @example([Bang(Lolli(A, B)), A], [Tensor(B, B)])  # hopeless: no copy count of A -o B balances
    def test_hopeless_goals_are_unprovable(self, gamma, delta):
        gamma, delta = tuple(gamma), tuple(delta)
        if not _refuted(_tally(gamma), _tally(delta)) and calculus._hopeless(gamma, delta):
            assert not oracles.provable(gamma, delta, 5), (gamma, delta)

    def test_same_results_without_the_check(self, monkeypatch):
        cases = [POOL.corpus_case(POOL.Builder(), int(line.split()[2])) for line in POOL.load_golden("prove-corpus")[::25]]
        stopped = [prove(*case) for case in cases]
        assert any(calculus._hopeless(*case[0]) for case in cases)
        monkeypatch.setattr(calculus, "_hopeless", lambda gamma, delta: False)
        assert [prove(*case) for case in cases] == stopped

    def test_a_hopeless_pool_root_stops_at_its_first_death(self, monkeypatch):
        entries, search = [], calculus._search
        monkeypatch.setattr(calculus, "_search", lambda *args: entries.append(1) or search(*args))
        seq, _, model, kappa = POOL_CASES[49]
        assert POOL.proof_record(prove(seq, 5, model, kappa)) == "D0"
        # the whole search of this root makes 2,933 entries
        assert len(entries) < 100


# the connectives and atoms a short proof of a wide goal would have to spend
wide_formulas = st.recursive(
    shortcut_leaves | st.sampled_from([QUANTUM_Q, CLASSICAL_O]),
    lambda kids: st.one_of(*[st.builds(rule, kids, kids) for rule in (Tensor, Lolli, Lolli, With, With)], st.builds(Bang, kids)),
    max_leaves=3,
)


def wide_sequents(height):
    """Goals of 2**(height - 1) + 2 or + 3 formulas, one or two more than a height-``height`` proof concludes."""
    least = 2 ** (height - 1) + 2
    return st.lists(wide_formulas | wide_formulas.map(Bang), min_size=least, max_size=least + 1).flatmap(
        lambda side: st.integers(0, len(side)).map(lambda k: (tuple(side[:k]), tuple(side[k:])))
    )


class TestTwoLevelStop:
    """A proof of height h concludes at most 2**(h - 1) + 1 formulas: an axiom holds two, a
    one-premise rule adds at most one, tensor-right and lolli-left conclude n1 + n2 - 1 from
    premises of n1 and n2, and with-right as many as each premise.  So a goal with two levels
    left and more than three formulas stops at its first death (h = 2), and once the root has
    died, every goal wider than a proof of its height fails at once (proof-only mode)."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda height: st.tuples(st.just(height), wide_sequents(height))))
    # every drawn goal is wider than the bound; this one sits on it with a height-3 proof, so the bound is tight
    @example((3, ((A, B, C, D), (Tensor(Tensor(A, B), Tensor(C, D)),))))
    def test_no_goal_wider_than_the_bound_has_a_proof_of_that_height(self, drawn):
        height, (gamma, delta) = drawn
        fits = len(gamma) + len(delta) <= 2 ** (height - 1) + 1
        assert oracles.provable(gamma, delta, height, use_filter=False) == fits, drawn

    def test_a_pool_root_stops_its_two_level_goals(self, monkeypatch):
        entries, search = [], calculus._search
        monkeypatch.setattr(calculus, "_search", lambda *args: entries.append(1) or search(*args))
        seq, bound, model, kappa = POOL_CASES[2179]
        assert POOL.proof_record(prove(seq, bound, model, kappa)) == "D0"
        # 2,087 entries before proof-only mode, 5,658 when every two-level goal tried all its applications
        assert len(entries) == 850


# the 14 pool cases whose searches made the most entries without proof-only mode, largest first
LARGEST_WITHOUT_PROOF_ONLY = [2179, 732, 761, 1236, 2742, 108, 3498, 1734, 682, 415, 2389, 2298, 752, 2171]


class _ProofOnlyOff(list):
    """A search state whose proof-only slot stays off."""

    def __setitem__(self, i, value):
        super().__setitem__(i, False if i == 4 else value)


class TestProofOnlyMode:
    """Once the root has died and ``_hopeless`` lets it go on, only a proof can change the
    result, and skipping goals that no proof of their height concludes loses none."""

    def test_same_results_without_the_mode(self, monkeypatch):
        builder = POOL.Builder()
        every_25th = [int(line.split()[2]) for line in POOL.load_golden("prove-corpus")[::25]]
        cases = [POOL.corpus_case(builder, case) for case in every_25th + LARGEST_WITHOUT_PROOF_ONLY]
        new_tables, states = calculus._new_tables, recorded_states(monkeypatch)
        with_mode = [prove(*case) for case in cases]
        # 28 of the 96 searches go on past their root's first death, 13 of them among the largest
        assert (len(states), sum(state[4] for state in states)) == (96, 28)
        monkeypatch.setattr(calculus, "_new_tables", lambda: _ProofOnlyOff(new_tables()))
        assert [prove(*case) for case in cases] == with_mode


def assert_same_verdicts(seq, bound, model, kappa, rng):
    """``prove`` on the reversal of both sides and on two shuffles by ``rng``
    gives ``seq``'s verdict and cost-gate outcome."""
    result = prove(seq, bound, model, kappa)
    orders = [Sequent(seq.gamma[::-1], seq.delta[::-1])]
    orders += [Sequent(rng.sample(seq.gamma, len(seq.gamma)), rng.sample(seq.delta, len(seq.delta))) for _ in range(2)]
    for other in orders:
        got = prove(other, bound, model, kappa)
        assert (got.proved, got.failure_reason == COST_INVALID) == (result.proved, result.failure_reason == COST_INVALID), other


class TestFormulaOrder:
    """Gamma and delta are multisets, so their order must not move a verdict.
    Depth and failure reason are left unpinned: the first proof found and
    what the search met can depend on the order."""

    def test_golden_pool_verdicts(self):
        wl = _load_workloads()
        builder = wl.Builder()
        checked = 0
        for line in wl.load_golden("prove-corpus"):
            nodes, _, case, _ = line.split()
            if int(nodes) <= 3000:  # the recorded search size keeps this test short
                seq, bound, model, kappa = wl.corpus_case(builder, int(case))
                assert_same_verdicts(seq, bound, model, kappa, random.Random(int(case)))
                checked += 1
        assert checked == 4953

    @settings(max_examples=200, deadline=None)
    @given(search_sequents(), st.integers(1, 6), st.sampled_from([ZERO, COSTED]), st.randoms(use_true_random=False))
    @example(WORST_C01, 5, ZERO, random.Random(0))
    @example(Sequent((A, QUANTUM_Q, Tensor(A, A)), (Tensor(Tensor(A, QUANTUM_Q), Tensor(A, A)),)), 1, COSTED, random.Random(0))
    def test_random_sequent_verdicts(self, seq, bound, cost, rng):
        assert_same_verdicts(seq, bound, *cost, rng)


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
    seq entry holds a proof found at its bound."""
    for key, value in proofs.items():
        if not isinstance(key, Sequent):  # a (seq, bound) key; a Sequent is a tuple too
            seq, bound = key
            assert value == prove(seq, bound, model, 0.0)
        else:
            seq, (bound, result) = key, value
            assert result.proved and result == proofs[seq, bound]


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

    def test_cost_invalid_answers_its_own_bound(self, unit_model, monkeypatch):
        # !A covers one A's cost, not two: each bound asks prove again,
        # which settles it at the gate, and no seq entry answers other bounds
        calls = counted_prove(monkeypatch)
        monkeypatch.setattr(calculus, "_new_tables", None)  # a search state would raise
        seq = Sequent((Bang(A),), (Tensor(A, A),))
        proofs = {}
        for bound in (7, 2, 1, 2):
            result = proved_once(seq, bound, unit_model, proofs)
            assert result == prove(seq, bound, unit_model, 0.0)
            assert result.failure_reason == COST_INVALID
        assert [bound for _, bound, _ in calls] == [7, 2, 1]
        assert list(proofs) == [(seq, 7), (seq, 2), (seq, 1)]

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
        # of the 2,800 queries at bounds 1-7, reuse answers 403 here
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
