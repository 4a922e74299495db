import enum
import itertools
import math
import random
import re
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from eclc import (
    Atom,
    Bang,
    CostModel,
    Frame,
    Lolli,
    ScenarioError,
    Tensor,
    World,
    accessible,
    curvature_cost,
    decohere,
    derive_trial_seed,
    observer_valuation,
    parse_scenario,
    persistence_score,
    run_accessibility,
    run_coherence,
    run_reciprocity,
    run_scenario,
    shannon_entropy,
)
from eclc import calculus, observer
from eclc import scenarios
from eclc import sim
from eclc.metrics import ContingencyTable, FitResult, fisher_exact_two_tailed
from eclc.sim import (
    ScenarioReport,
    TrialRecord,
    WorldRow,
    _resolved_seed,
    _self_carry,
    chain_order,
    per_world_csv,
    report_to_json,
    trials_csv,
)

import oracles


@pytest.fixture(autouse=True, scope="module")
def every_proof_checked():
    # each tree that the scenario runs and truth_at get derives its sequent within its bound
    with pytest.MonkeyPatch.context() as patched:
        for module in (calculus, observer):
            patched.setattr(module, "prove", oracles.checking(module.prove))
        yield


def load(name):
    return parse_scenario(scenarios.read(name))


class TestDeriveTrialSeed:
    def test_deterministic(self):
        assert derive_trial_seed(42, 7) == derive_trial_seed(42, 7)

    def test_distinct_streams(self):
        assert derive_trial_seed(42, 0) != derive_trial_seed(42, 1)

    def test_64_bit_range(self):
        for index in range(50):
            assert 0 <= derive_trial_seed((1 << 64) - 1, index) < (1 << 64)


class _Itself(dict):
    """A class table whose class id of each jitter is the jitter."""

    def __missing__(self, j):
        return j


class TestDraw:
    def test_same_draws_as_randint(self):
        # run_reciprocity draws each leg's jitters with _draw, which copies
        # the rejection loop of random.py's _randbelow; a CPython whose randint
        # draws otherwise fails here instead of silently changing reports.
        # _draw looks each jitter up clamped to lambda, so at lambda = span it
        # returns the draws themselves, and at half the span their clamps
        seeds = [0, 1, (1 << 64) - 1] + [derive_trial_seed(master, i) for master in (9, 2**63 + 5) for i in range(5)]
        spans = [*range(501), 50_000, 2**16 - 1, 2**16, 2**31, 2**32 - 1, 2**40 + 3]
        for span in spans:
            n = span + 1
            for seed, lam in itertools.product(seeds, (span, span // 2)):
                ours, theirs = random.Random(seed), random.Random(seed)
                drawn = sim._draw(ours.getrandbits, n.bit_length(), n, lam, [_Itself()] * 3)
                assert drawn == tuple(min(theirs.randint(0, span), lam) for _ in range(3)), (span, seed, lam)
                assert ours.getstate() == theirs.getstate(), (span, seed, lam)


class TestDecohere:
    def test_atom_rewrite(self):
        assert decohere(Atom("Entangled", ("A", "B"))) == Atom("Decohered_Entangled", ("A", "B"), False)

    def test_classical_leaf_untouched(self):
        classical = Atom("Classical", ("o",), False)
        assert decohere(classical) == classical

    def test_composite_rewrites_each_coherent_leaf(self):
        phi = Tensor(Atom("E"), Atom("Classical", ("o",), False))
        out = decohere(phi)
        assert out == Tensor(Atom("Decohered_E", (), False), Atom("Classical", ("o",), False))

    def test_wrapper_preserved(self):
        assert decohere(Bang(Atom("Q"))) == Bang(Atom("Decohered_Q", (), False))


class TestChainOrder:
    def test_shipped_chain(self):
        assert chain_order(load("coherence").frame) == ["w1", "w2", "w3"]

    def test_rejects_branching(self):
        config = parse_scenario(
            "world a { energy=1.0, kappa=0.0, lambda=1 }\n"
            "world b { energy=1.0, kappa=0.0, lambda=1 }\n"
            "world c { energy=1.0, kappa=0.0, lambda=1 }\n"
            "edge a -> b { deltaE=0.0 }\nedge a -> c { deltaE=0.0 }\n"
        )
        with pytest.raises(ScenarioError):
            chain_order(config.frame)

    def test_rejects_two_components(self):
        config = parse_scenario(
            "world a { energy=1.0, kappa=0.0, lambda=1 }\n"
            "world b { energy=1.0, kappa=0.0, lambda=1 }\n"
        )
        with pytest.raises(ScenarioError):
            chain_order(config.frame)

    def test_every_graph_on_up_to_four_worlds(self):
        # every edge set over 1-4 worlds, self-loops included (65,536 at
        # four): an order comes back exactly when the edges are one path
        # through every world, and no graph is reported as a cycle
        messages = set()
        for n in range(1, 5):
            ids = [f"w{i}" for i in range(n)]
            worlds = [World(wid, 1.0, 0.0, 1) for wid in ids]
            pairs = list(itertools.product(ids, repeat=2))
            paths = {frozenset(zip(p, p[1:])): list(p) for p in itertools.permutations(ids)}
            for mask in range(1 << len(pairs)):
                edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
                frame = Frame(worlds, [(src, dst, 0.0) for src, dst in edges])
                try:
                    order = chain_order(frame)
                except ScenarioError as err:
                    order = None
                    messages.add(re.sub("'w[0-9]'", "w", str(err)))
                assert order == paths.get(frozenset(edges)), edges
        assert sorted(messages) == [
            "frame is not a single forward chain",
            "frame is not connected as a single chain",
            "world w has more than one outgoing edge; not a chain",
        ]


class TestRunCoherence:
    def test_shipped_trajectory(self):
        report = run_coherence(load("coherence"))
        pis = [row.pi for row in report.per_world]
        assert pis == [1.0, 0.61, 0.19]
        assert report.fit is not None
        assert report.fit.rate == pytest.approx(0.7631517470916164, abs=1e-9)

    def test_pi_strictly_decreasing(self):
        report = run_coherence(load("coherence"))
        pis = [row.pi for row in report.per_world]
        assert all(a > b for a, b in zip(pis, pis[1:]))

    def test_zero_inflation_limit(self):
        # vanishing coupling: the curvature surcharge goes to zero and
        # nothing decoheres, whatever the budgets
        config = load("coherence")
        config = config._replace(cost_model=CostModel({}, default_cost=1.0, alpha=1e-12))
        for world in config.frame.worlds.values():
            world.lam = 100
        report = run_coherence(config)
        assert [row.pi for row in report.per_world] == [1.0, 1.0, 1.0]

    def test_kind_mismatch(self):
        with pytest.raises(ScenarioError):
            run_coherence(load("reciprocity"))

    def test_no_fit_when_kappa_squares_leave_float_range(self):
        # 1e-200 squares to 0 (every kappa zero to the fit), 1e200 to inf
        for kappa in ("1e-200", "1e200"):
            config = parse_scenario(
                "scenario coherence\nworld a { energy=1, kappa=0, lambda=3 }\n"
                f"world b {{ energy=1, kappa={kappa}, lambda=3 }}\nedge a -> b {{ deltaE=0 }}\n"
            )
            assert run_coherence(config).fit is None

    def test_monotone_over_random_chains(self):
        rng = random.Random(31337)
        for _ in range(25):
            n = rng.randint(2, 5)
            kappas = sorted(round(rng.uniform(0, 3), 2) for _ in range(n))
            lines = ["scenario coherence", f"alpha = {rng.choice([0.25, 0.75, 1.5])}"]
            for i in range(n):
                lines.append(
                    f"world w{i} {{ energy={round(rng.uniform(0, 30), 1)}, kappa={kappas[i]}, lambda=6 }}"
                )
            for i in range(n - 1):
                lines.append(f"edge w{i} -> w{i+1} {{ deltaE=0.0 }}")
            for _ in range(rng.randint(1, 12)):
                phi = rng.choice(["E", "E * Entangled(A,B)", "~Junk", "Quantum(q)"])
                lines.append(f"prop w0 : {phi}")
            report = run_coherence(parse_scenario("\n".join(lines)))
            pis = [row.pi for row in report.per_world]
            assert all(a >= b for a, b in zip(pis, pis[1:])), pis

    def test_mean_depth_reported(self):
        report = run_coherence(load("coherence"))
        assert [row.mean_proof_depth for row in report.per_world] == [3.0, 3.0, 3.0]


class TestRunReciprocity:
    def test_shipped_split(self):
        report = run_reciprocity(load("reciprocity"))
        forward = [t for t in report.trials if t.direction == "forward"]
        reverse = [t for t in report.trials if t.direction == "reverse"]
        assert sum(t.success for t in forward) == 50
        assert sum(t.success for t in reverse) == 24
        assert len(report.trials) == 100

    def test_noise_zero_is_deterministic(self):
        config = load("reciprocity")._replace(noise=0.0)
        report = run_reciprocity(config)
        for direction in ("forward", "reverse"):
            rates = {t.success for t in report.trials if t.direction == direction}
            assert len(rates) == 1  # all trials identical: 0% or 100%

    def test_symmetry_control(self):
        # symmetric capacities, costs, and edge weights with no jitter:
        # any asymmetry would be an implementation artifact
        base = scenarios.read("reciprocity").replace("lambda=3", "lambda=12").replace("noise = 0.8", "noise = 0.0")
        report = run_reciprocity(parse_scenario(base))
        forward = sum(t.success for t in report.trials if t.direction == "forward")
        reverse = sum(t.success for t in report.trials if t.direction == "reverse")
        assert forward == reverse == 50
        starved = base.replace("lambda=12", "lambda=1")
        report = run_reciprocity(parse_scenario(starved))
        forward = sum(t.success for t in report.trials if t.direction == "forward")
        reverse = sum(t.success for t in report.trials if t.direction == "reverse")
        assert forward == reverse == 0

    def test_shorter_run_is_a_prefix(self):
        # each trial draws from its own derived seed and reused legs carry
        # the outcome a fresh measurement would, so k trials report the
        # first 2k records of any longer run
        rng = random.Random(17)
        configs = [load("reciprocity")] + [parse_scenario(random_reciprocity_text(rng)) for _ in range(8)]
        for config in configs:
            longer = run_reciprocity(config._replace(trials=120)).trials
            for k in (1, 7, 50):
                assert run_reciprocity(config._replace(trials=k)).trials == longer[: 2 * k]

    def test_matches_per_leg_reference(self):
        rng = random.Random(9)
        reasons, noises, qubits = Counter(), set(), set()
        for _ in range(40):
            config = parse_scenario(random_reciprocity_text(rng))
            report = run_reciprocity(config)
            assert report == reference_reciprocity(config)
            reasons.update(t.failure_reason for t in report.trials)
            noises.add(config.noise)
            qubits.add(len(sim._quantum_names(config.frame.world("wA").props)))
        assert noises == set(NOISES) and qubits == {1, 2, 3}
        assert reasons[None] and reasons["depth_exceeded"] and reasons["inaccessible"]

    def test_each_distinct_outcome_vector_measured_once(self, monkeypatch):
        calls = Counter()
        measure = sim.measure

        def counted(*args, **kwargs):
            calls["measure"] += 1
            return measure(*args, **kwargs)

        monkeypatch.setattr(sim, "measure", counted)
        report = run_reciprocity(load("reciprocity")._replace(trials=5000))
        assert len(report.trials) == 10_000
        # forward proves at depth 2 at every bound it draws; reverse meets
        # depth_exceeded or depth 2 at each of its two measurements: 1
        # forward and 4 reverse outcome vectors, two measurements each
        assert calls["measure"] == 2 * (1 + 4)

    def test_few_outcome_vectors_where_jitter_vectors_explode(self, monkeypatch):
        # four qubits draw thousands of distinct jitter vectors at 5000
        # trials, but their measurements meet few distinct proof outcomes
        extra = "".join(f"prop {w} : !Quantum({q})\n" for w in ("wA", "wB") for q in ("qC", "qD"))
        config = parse_scenario(scenarios.read("reciprocity") + extra)
        assert len(sim._quantum_names(config.frame.world("wA").props)) == 4
        # the reference proves every measurement afresh, so keep it short
        shorter = config._replace(trials=300)
        assert run_reciprocity(shorter) == reference_reciprocity(shorter)
        calls = Counter()
        measure_sequence = sim._measure_sequence

        def counted(*args):
            calls["legs"] += 1
            return measure_sequence(*args)

        monkeypatch.setattr(sim, "_measure_sequence", counted)
        report = run_reciprocity(config._replace(trials=5000))
        assert len(report.trials) == 10_000
        assert 1 <= calls["legs"] <= 17

    def test_matches_reference_with_costs_and_props_not_measured(self):
        # per-atom costs make some files' measurements cost-invalid, and
        # props that are not exactly !Quantum(q) sit beside the tokens
        rng = random.Random(47)
        reasons = Counter()
        for _ in range(30):
            text = costed_reciprocity_text(rng)
            config = parse_scenario(text)
            tokens = re.findall(r"^prop wA : !Quantum\((q\d)\)$", text, re.M)
            assert sim._quantum_names(config.frame.world("wA").props) == tokens
            report = run_reciprocity(config)
            assert report == reference_reciprocity(config)
            reasons.update(t.failure_reason for t in report.trials)
        assert reasons[None] and reasons["cost_invalid"] and reasons["depth_exceeded"]

    def test_matches_reference_when_energy_runs_out_mid_leg(self):
        # a memo hit supplies only the proof: a later measurement of a
        # leg whose edge has drained the source still fails as inaccessible
        rng = random.Random(31)
        reasons = Counter()
        for _ in range(30):
            config = parse_scenario(draining_reciprocity_text(rng))
            report = run_reciprocity(config)
            assert report == reference_reciprocity(config)
            reasons.update(t.failure_reason for t in report.trials)
        assert reasons[None] and reasons["inaccessible"] and reasons["depth_exceeded"]

    def test_one_prove_per_distinct_proof(self, monkeypatch):
        # the run searches each (sequent, bound) at most once, each
        # proof it resolves equals a fresh prove, it resolves every proof
        # the memo-free reference makes, and it writes the same bytes
        prove, proved_once = calculus.prove, calculus.proved_once
        calls = []
        resolved = {}

        def counted(seq, bound, model, kappa):
            calls.append((seq, bound))
            return prove(seq, bound, model, kappa)

        def recorded(seq, bound, model, proofs):
            resolved[seq, bound] = proved_once(seq, bound, model, proofs)
            return resolved[seq, bound]

        monkeypatch.setattr(calculus, "prove", counted)
        monkeypatch.setattr(calculus, "proved_once", recorded)
        monkeypatch.setattr(sim, "proved_once", recorded)
        below_one = calculus.ProofResult(False, 0, None, calculus.DEPTH_EXCEEDED)
        rng = random.Random(29)
        configs = [load("reciprocity")]
        configs += [parse_scenario(random_reciprocity_text(rng)) for _ in range(6)]
        configs += [parse_scenario(draining_reciprocity_text(rng)) for _ in range(6)]
        for index, config in enumerate(configs):
            calls.clear()
            resolved.clear()
            report = run_reciprocity(config)
            searched = list(calls)
            for (seq, bound), result in resolved.items():
                assert result == (prove(seq, bound, config.cost_model, 0.0) if bound >= 1 else below_one)
            run_resolved = set(resolved)
            calls.clear()
            expected = reference_reciprocity(config)
            assert len(searched) == len(set(searched))
            assert set(calls) <= run_resolved
            if index == 0:
                # each qubit at wA's bound, whose proof answers every bound
                # down to 2, and at bound 1
                assert len(searched) == 4 and len(calls) > 98
            assert report_to_json(report) == report_to_json(expected)
            assert trials_csv(report) == trials_csv(expected)

    def test_high_noise_table_stops_at_lambda(self, monkeypatch):
        # noise 100 at lambda 500 draws jitters up to 50,000, but each
        # qubit's table stops at jitter lambda, the first that leaves no
        # bound, and holds only the jitters that trials draw: each leg
        # resolves each qubit at lambda first, then once per other distinct
        # jitter, counting every jitter past lambda as lambda.  The memo
        # holds each qubit's search at bound 500 and the proof it found,
        # which answers bounds 2-499, and a search at bound 1 only for a
        # qubit that some trial drew jitter 499 for
        text = scenarios.read("reciprocity").replace("noise = 0.8", "noise = 100")
        text = re.sub(r"lambda=\d+", "lambda=500", text) + "prop wA : !Quantum(qC)\nprop wB : !Quantum(qC)\n"
        config = parse_scenario(text)._replace(trials=200)
        qubits = sim._quantum_names(config.frame.world("wA").props)
        assert qubits == ["qA", "qB", "qC"]
        proved_once = sim.proved_once
        resolved = Counter()
        memos = {}

        def counted(seq, bound, model, proofs):
            resolved[seq] += 1
            memos[id(proofs)] = proofs
            return proved_once(seq, bound, model, proofs)

        monkeypatch.setattr(sim, "proved_once", counted)
        report = run_reciprocity(config)
        drawn = {q: ({0}, {0}) for q in qubits}  # per qubit and leg, the jitters resolved
        for index in range(config.trials):
            rng = random.Random(derive_trial_seed(config.seed, index))
            for leg, order in enumerate((qubits, qubits[::-1])):
                for q in order:
                    drawn[q][leg].add(min(rng.randint(0, 50_000), 500))
        assert resolved == {calculus.measurement(q, f"o_{q}"): sum(map(len, drawn[q])) for q in qubits}
        assert all(count < 20 for count in resolved.values())  # eagerly filled, 2 * 501 each
        (memo,) = memos.values()
        assert len(memo) == 2 * 3 + sum(499 in forward | reverse for forward, reverse in drawn.values())
        expected = reference_reciprocity(config)
        assert report_to_json(report) == report_to_json(expected)
        assert trials_csv(report) == trials_csv(expected)

    def test_jitter_tables_fill_on_first_use(self, monkeypatch):
        # one trial at noise 100 and lambda 500 resolves each qubit at
        # lambda and at the one jitter each direction draws, where eager
        # tables resolved every jitter 0-500 in both directions, 1,002 calls
        text = scenarios.read("reciprocity").replace("noise = 0.8", "noise = 100")
        config = parse_scenario(re.sub(r"lambda=\d+", "lambda=500", text))._replace(trials=1)
        proved_once = sim.proved_once
        calls = Counter()

        def counted(seq, bound, model, proofs):
            calls[seq] += 1
            return proved_once(seq, bound, model, proofs)

        monkeypatch.setattr(sim, "proved_once", counted)
        run_reciprocity(config)
        assert set(calls) == {calculus.measurement(q, f"o_{q}") for q in ("qA", "qB")}
        assert all(count <= 4 for count in calls.values())
        # the bundled run still makes 4 searches: each qubit at wA's
        # lambda, whose proof answers bounds 2-12, and at bound 1
        prove = calculus.prove
        searched = []

        def searching(seq, bound, model, kappa):
            searched.append((seq, bound))
            return prove(seq, bound, model, kappa)

        monkeypatch.setattr(calculus, "prove", searching)
        run_reciprocity(load("reciprocity"))
        assert sorted(bound for _, bound in searched) == [1, 1, 12, 12]

    def test_cost_invalid_never_searched_at_high_noise(self, monkeypatch):
        # Classical costs more than !Quantum, so every measurement is
        # cost_invalid: the cost gate answers each bound, and no search state is made
        text = scenarios.read("reciprocity").replace("noise = 0.8", "noise = 100")
        text = re.sub(r"lambda=\d+", "lambda=500", text).replace("cost * = 1.0", "cost * = 1.0\ncost Classical = 3.0")
        config = parse_scenario(text)
        monkeypatch.setattr(calculus, "_new_tables", None)  # a search state would raise
        report = run_reciprocity(config)
        # a jitter of lambda or more leaves bound 0: depth_exceeded, unsearched
        assert {t.failure_reason for t in report.trials} == {calculus.COST_INVALID, calculus.DEPTH_EXCEEDED}
        monkeypatch.undo()
        expected = reference_reciprocity(config)
        assert report_to_json(report) == report_to_json(expected)
        assert per_world_csv(report) == per_world_csv(expected)
        assert trials_csv(report) == trials_csv(expected)

    def test_requires_two_worlds(self):
        with pytest.raises(ScenarioError):
            run_reciprocity(load("coherence")._replace(scenario_kind="reciprocity"))

    def test_per_world_rows(self):
        report = run_reciprocity(load("reciprocity"))
        assert [row.world for row in report.per_world] == ["wA", "wB"]
        assert report.per_world[0].access_fraction == 1.0
        assert report.per_world[1].access_fraction == pytest.approx(0.48)


def reference_leg(config, src, dst, qubits, jitters):
    """(success, depth, reason) of one leg, measured qubit by qubit through
    ``calculus.measure`` on its own frame copy, with no proof memo: the
    first failure's reason, "inaccessible" once the edge costs more than
    the source world's energy, and the largest depth of a valid measurement."""
    frame = config.frame.copy()
    depth, reason = 0, None
    for qubit, jitter in zip(qubits, jitters):
        bound = frame.world(src).lam - jitter
        outcome = calculus.measure(frame, src, dst, qubit, f"o_{qubit}", config.cost_model, bound)
        if outcome.valid:
            depth = max(depth, outcome.proof.depth)
        elif reason is None:
            fits = frame.edges[(src, dst)] <= frame.world(src).energy
            reason = outcome.proof.failure_reason if fits else "inaccessible"
    return reason is None, depth, reason


def reference_reciprocity(config):
    """The reciprocity driver measuring every leg of every trial on its
    own fresh frame copy."""
    first, second = list(config.frame.worlds)
    master_seed = _resolved_seed(config)
    trials = []
    for trial_index in range(config.trials):
        qubits = sim._quantum_names(config.frame.world(first).props)
        rng = random.Random(derive_trial_seed(master_seed, trial_index))
        legs = (("forward", first, second, qubits), ("reverse", second, first, qubits[::-1]))
        jitters = [
            [rng.randint(0, int(config.noise * config.frame.world(src).lam)) for _ in qubits]
            for _, src, _, _ in legs
        ]
        for (direction, src, dst, order), jitter in zip(legs, jitters):
            ok, depth, reason = reference_leg(config, src, dst, order, jitter)
            trials.append(TrialRecord(trial_index, direction, ok, depth, reason))
    forward_records = [t for t in trials if t.direction == "forward"]
    reverse_records = [t for t in trials if t.direction == "reverse"]
    table = ContingencyTable(
        a=sum(t.success for t in forward_records),
        b=sum(not t.success for t in forward_records),
        c=sum(t.success for t in reverse_records),
        d=sum(not t.success for t in reverse_records),
    )
    rows = []
    for wid, records in ((first, forward_records), (second, reverse_records)):
        world = config.frame.world(wid)
        bits = [1 if t.success else 0 for t in records]
        depths = [t.proof_depth for t in records if t.success]
        rows.append(
            WorldRow(
                world=wid,
                kappa=world.kappa,
                pi=persistence_score(world.props),
                access_fraction=sum(bits) / len(bits),
                entropy=shannon_entropy(bits),
                mean_proof_depth=sum(depths) / len(depths) if depths else 0.0,
            )
        )
    return ScenarioReport(
        "reciprocity", tuple(rows), None, fisher_exact_two_tailed(table), tuple(trials), master_seed
    )


NOISES = (0.0, 0.3, 0.8, 1.0, 2.5)


def random_reciprocity_text(rng):
    """A two-world reciprocity file whose edges may cost up to the whole
    source energy, so a later measurement of a leg can find its edge
    inaccessible after an earlier one spent the energy."""
    qubits = [f"q{i}" for i in range(rng.randint(1, 3))]
    lines = [
        "scenario reciprocity",
        "alpha = 0.75",
        "cost * = 1.0",
        f"trials = {rng.randint(1, 200)}",
        f"seed = {rng.getrandbits(63)}",
        f"noise = {rng.choice(NOISES)}",
    ]
    energies = {}
    for w in ("wA", "wB"):
        energies[w] = rng.choice((1.0, 2.0, 10.0))
        kappa = rng.choice((0.0, 0.5, 1.0))
        lines.append(f"world {w} {{ energy={energies[w]}, kappa={kappa}, lambda={rng.randint(1, 12)} }}")
    for src, dst in (("wA", "wB"), ("wB", "wA")):
        lines.append(f"edge {src} -> {dst} {{ deltaE={energies[src] * rng.choice((0.0, 0.5, 0.75, 1.0))} }}")
    lines.extend(f"prop {w} : !Quantum({q})" for w in ("wA", "wB") for q in qubits)
    return "\n".join(lines) + "\n"


def draining_reciprocity_text(rng):
    """A two-world reciprocity file with three or four qubits whose edges
    mostly cost over a third of the source energy, so a leg whose first
    two measurements succeed finds its edge inaccessible at the third."""
    qubits = [f"q{i}" for i in range(rng.randint(3, 4))]
    lines = [
        "scenario reciprocity",
        "alpha = 0.75",
        "cost * = 1.0",
        f"trials = {rng.randint(1, 60)}",
        f"seed = {rng.getrandbits(63)}",
        f"noise = {rng.choice((0.0, 0.3))}",
    ]
    for w in ("wA", "wB"):
        lines.append(f"world {w} {{ energy=6.0, kappa={rng.choice((0.0, 1.0))}, lambda={rng.randint(1, 8)} }}")
    for src, dst in (("wA", "wB"), ("wB", "wA")):
        lines.append(f"edge {src} -> {dst} {{ deltaE={rng.choice((1.5, 2.5, 3.0))} }}")
    lines.extend(f"prop {w} : !Quantum({q})" for w in ("wA", "wB") for q in qubits)
    return "\n".join(lines) + "\n"


def costed_reciprocity_text(rng):
    """A two-world reciprocity file whose per-atom costs may make every
    measurement cost-invalid (Classical dearer than Quantum), beside
    props at either world that are not exactly !Quantum(q) and so are
    never measured."""
    qubits = [f"q{i}" for i in range(rng.randint(1, 3))]
    lines = [
        "scenario reciprocity",
        "alpha = 0.75",
        "cost * = 1.0",
        f"cost Quantum = {rng.choice((0.0, 0.5, 1.0, 2.0))}",
        f"cost Classical = {rng.choice((0.0, 1.0, 3.0))}",
        f"trials = {rng.randint(1, 80)}",
        f"seed = {rng.getrandbits(63)}",
        f"noise = {rng.choice(NOISES)}",
    ]
    for w in ("wA", "wB"):
        lines.append(f"world {w} {{ energy=10.0, kappa={rng.choice((0.0, 1.0))}, lambda={rng.randint(1, 12)} }}")
    for src, dst in (("wA", "wB"), ("wB", "wA")):
        lines.append(f"edge {src} -> {dst} {{ deltaE={rng.choice((0.0, 1.0, 4.0))} }}")
    lines.extend(f"prop {w} : !Quantum({q})" for w in ("wA", "wB") for q in qubits)
    extras = ("A", "!Quantum(q0) * B", "Quantum(q0)", "!Quantum(q0, x)", "!~Quantum(q1)", "Classical(o_q0)", "!A -o B")
    lines.extend(f"prop {rng.choice(('wA', 'wB'))} : {phi}" for phi in rng.sample(extras, rng.randint(1, 4)))
    return "\n".join(lines) + "\n"


def reference_accessibility(config):
    """The accessibility driver with one ``observer_valuation`` per
    (observer, world), each running its own BFS and antecedent search."""
    frame = config.frame.copy()
    order = chain_order(frame)
    model = config.cost_model
    phi = next(iter(frame.world(order[0]).props))
    cache: dict = {}
    rows = []
    cumulative = 0.0
    alive = True
    for position, wid in enumerate(order):
        world = frame.world(wid)
        if position > 0:
            cumulative += curvature_cost(phi, model, world.kappa)
            if alive and cumulative > world.lam:
                alive = False
            world.props[phi if alive else decohere(phi)] += 1
        bits = [observer_valuation(frame, obs, wid, phi, model) for obs in config.observers]
        mean_depth = float(_self_carry(phi, world, model, cache).depth) if alive else 0.0
        rows.append(
            WorldRow(
                world=wid,
                kappa=world.kappa,
                pi=persistence_score(world.props),
                access_fraction=sum(bits) / len(bits),
                entropy=shannon_entropy(bits),
                mean_proof_depth=mean_depth,
            )
        )
    return ScenarioReport(
        "accessibility", tuple(rows), None, None, (), _resolved_seed(config)
    )


CHAIN_PROPS = ("Phi(a)", "A", "B", "!A", "A * B", "A -o Phi(a)", "B * C -o Phi(a)", "C & Phi(a)", "~Phi(b)")


def random_chain_text(rng):
    """An accessibility chain whose edges may cost more than their source
    world holds, with observers at the head, mid-chain and the tail."""
    n = rng.randint(3, 7)
    lines = ["scenario accessibility", "alpha = 0.75", "cost * = 1.0", "cost C = 0.5"]
    for w in range(n):
        energy, kappa = rng.choice((0.0, 1.0, 2.0, 5.0)), rng.choice((0.0, 0.5, 1.0, 2.0))
        lines.append(f"world w{w} {{ energy={energy}, kappa={kappa}, lambda={rng.randint(2, 6)} }}")
    for w in range(n - 1):
        lines.append(f"edge w{w} -> w{w + 1} {{ deltaE={rng.choice((0.0, 1.0, 3.0, 6.0))} }}")
    lines.append("prop w0 : Phi(a)")
    for w in range(n):
        lines.extend(f"prop w{w} : {rng.choice(CHAIN_PROPS)}" for _ in range(rng.randint(0, 3)))
    homes = [0, n // 2, n - 1] + [rng.randrange(n) for _ in range(rng.randint(0, 6))]
    lines.extend(f"observer o{i} home=w{h} horizon={rng.randint(0, 4)}" for i, h in enumerate(homes))
    return "\n".join(lines) + "\n"


class TestRunAccessibility:
    def test_matches_per_observer_reference(self):
        rng = random.Random(8)
        blocked, horizons = 0, set()
        for _ in range(60):
            config = parse_scenario(random_chain_text(rng))
            frame = config.frame
            blocked += sum(not accessible(frame, a, b) for a, b in frame.edges)
            horizons.update(o.horizon for o in config.observers)
            assert run_accessibility(config) == reference_accessibility(config)
        assert blocked > 0 and horizons == {0, 1, 2, 3, 4}

    def test_one_bfs_per_home_and_one_valuation_per_row(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(sim, "truth_at", counted("valuation", sim.truth_at))
        monkeypatch.setattr(sim, "_hop_distances", counted("bfs", sim._hop_distances))
        monkeypatch.setattr(sim, "_out_edges", counted("index", sim._out_edges))
        monkeypatch.setattr(observer, "hop_distance", counted("row bfs", observer.hop_distance))
        config = load("accessibility")
        report = run_accessibility(config)
        assert 1 <= calls["valuation"] <= len(report.per_world)
        assert 1 <= calls["bfs"] <= len({o.home for o in config.observers})
        # every home's BFS walks the one out-edge index of the run
        assert calls["index"] == 1
        # visibility comes from the per-home tables only, never a BFS per row
        assert calls["row bfs"] == 0

    @pytest.mark.parametrize("shape", ["!P{} -o Phi", "!P{}"])
    def test_wide_world_merges_grow_at_most_quadratically(self, shape, monkeypatch):
        # Phi decoheres at w1, a lambda=1 world that holds n props !Pi -o Phi:
        # each alone balances Phi, and every pair is cut at once, so the
        # walk's tally merges grow with n^2, not with the n^3 multisets; a
        # prop !Pi cannot give Phi, so each is cut alone
        spend, merges = calculus._spend, Counter()

        def counted(net, totals):
            merges[n] += 1
            return spend(net, totals)

        def reference(frame, w, phi, model, verdicts):
            world = frame.world(w)
            if world.lam > 1:
                return oracles.reference_truth_at(frame, w, phi, model)
            # at bound 1 only an axiom, one formula a side, proves a goal;
            # at n=60 the full reference checks this shortcut
            held = phi in world.props or any(
                calculus.prove(calculus.Sequent((psi,), (phi,)), 1, model, world.kappa).proved for psi in world.props
            )
            assert n > 60 or int(held) == oracles.reference_truth_at(frame, w, phi, model)
            return int(held)

        for n in (60, 120, 240):
            text = scenarios.read("accessibility").replace("kappa=1.0, lambda=8", "kappa=1.0, lambda=1")
            config = parse_scenario(text + "".join(f"prop w1 : {shape.format(i)}\n" for i in range(n)))
            with monkeypatch.context() as patched:
                patched.setattr(calculus, "_spend", counted)
                report = run_accessibility(config)
            with monkeypatch.context() as patched:
                patched.setattr(sim, "truth_at", reference)
                assert report == run_accessibility(config)
            assert [row.access_fraction for row in report.per_world] == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert merges[240] <= 4.5 * merges[120] and merges[120] <= 4.5 * merges[60]

    @pytest.mark.parametrize("n", [0, 240])
    def test_walk_judges_each_candidate_once(self, n, monkeypatch):
        # the walk decides each candidate from the net totals it carries: it
        # tallies each distinct prop and the goal once, and merges or refutes
        # no candidate, on the bundled run (n=0) and on the wide world
        text = scenarios.read("accessibility")
        if n:
            text = text.replace("kappa=1.0, lambda=8", "kappa=1.0, lambda=1") + "".join(f"prop w1 : !P{i} -o Phi\n" for i in range(n))
        walks = []

        def recorded(props, phi):
            walks.append((Counter(props), phi))
            return calculus._balanced(props, phi)

        monkeypatch.setattr(observer, "_balanced", recorded)
        run_accessibility(parse_scenario(text))
        assert walks and max(len(props) for props, _ in walks) == n + 1  # and the decohered Phi
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("_tally", "_refuted"):
            monkeypatch.setattr(calculus, name, counted(name, getattr(calculus, name)))
        for props, phi in walks:
            calls.clear()
            walked = list(calculus._balanced(props, phi))
            assert calls == {"_tally": len(props) + 1}
            assert walked == [(psi,) for psi in props if isinstance(psi, Lolli)]

    def test_shipped_decline(self):
        report = run_accessibility(load("accessibility"))
        access = [row.access_fraction for row in report.per_world]
        assert access[0] == 1.0
        assert access[-1] == 0.0
        assert all(a >= b for a, b in zip(access, access[1:]))
        assert access[2] == pytest.approx(22 / 30)

    def test_entropy_trace_starts_at_zero(self):
        report = run_accessibility(load("accessibility"))
        assert report.per_world[0].entropy == 0.0

    def test_unbounded_capacity_full_access(self):
        text = scenarios.read("accessibility").replace("lambda=8", "lambda=100")
        text = "\n".join(
            line if not line.startswith("observer") else line.rsplit("=", 1)[0] + "=4"
            for line in text.splitlines()
        )
        report = run_accessibility(parse_scenario(text))
        assert [row.access_fraction for row in report.per_world] == [1.0] * 5

    def test_kind_mismatch(self):
        with pytest.raises(ScenarioError):
            run_accessibility(load("coherence"))

    def test_needs_observers(self):
        text = "\n".join(
            line for line in scenarios.read("accessibility").splitlines() if not line.startswith("observer")
        )
        with pytest.raises(ScenarioError):
            run_accessibility(parse_scenario(text))


class TestReports:
    def test_bit_identical_runs(self):
        for name in scenarios.NAMES:
            first = run_scenario(load(name))
            second = run_scenario(load(name))
            assert report_to_json(first) == report_to_json(second)
            assert per_world_csv(first) == per_world_csv(second)
            assert trials_csv(first) == trials_csv(second)

    def test_unknown_kind_is_a_scenario_error(self):
        message = "unknown scenario kind 'Coherence', expected one of 'coherence', 'reciprocity', 'accessibility'"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            run_scenario(load("coherence")._replace(scenario_kind="Coherence"))

    def test_csv_shapes(self):
        report = run_scenario(load("reciprocity"))
        lines = trials_csv(report).splitlines()
        assert lines[0] == "trial,direction,success,proof_depth,failure_reason"
        assert len(lines) == 101
        per_world = per_world_csv(report).splitlines()
        assert per_world[0] == "world,kappa,pi,access_fraction,entropy,mean_proof_depth"
        assert len(per_world) == 3

    def test_json_fields_per_kind(self):
        coherence = run_scenario(load("coherence"))
        assert coherence.fit is not None and coherence.fisher_p is None
        reciprocity = run_scenario(load("reciprocity"))
        assert reciprocity.fit is None and reciprocity.fisher_p is not None
        accessibility = run_scenario(load("accessibility"))
        assert accessibility.fit is None and accessibility.fisher_p is None

    def test_seed_echoed(self):
        report = run_scenario(load("reciprocity"))
        assert report.seed == 9


# Cells a report may hold in any column: every JSON literal, ints in
# float columns, signed zeros, subnormals and the float extremes, and
# strings with quotes, backslashes, control and non-ASCII characters.
REPORT_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from((0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308)),
    st.text(),
    st.sampled_from(('"', "\\", "\x00\n\t\x1f\x7f", "é€😀", "\ud800", "%s %% {}")),
)


def scenario_reports():
    rows = st.builds(WorldRow, *[REPORT_CELLS] * 6)
    trials = st.builds(TrialRecord, *[REPORT_CELLS] * 5)
    numbers = st.one_of(st.integers(max_value=1), st.floats(max_value=1.0), st.sampled_from((-math.inf, math.nan)))
    fits = st.none() | st.builds(FitResult, REPORT_CELLS.filter(lambda v: not isinstance(v, str)), numbers)
    return st.builds(
        ScenarioReport,
        REPORT_CELLS,
        st.lists(rows, max_size=3).map(tuple),
        fits,
        REPORT_CELLS,
        st.lists(trials, max_size=3).map(tuple),
        REPORT_CELLS,
    )


# Trials whose cells after the index are equal but print apart (True, 1
# and 1.0; 0.0 and -0.0; 1 and 1.0), each beside a twin of the same
# objects, so that a writer that formats a trial's text once per equal
# tail would print some of them wrongly.
COLLIDING_TAILS = [
    ("forward", True, 2, None),
    ("forward", 1, 2, None),
    ("forward", 1.0, 2, None),
    ("reverse", False, 0.0, "x"),
    ("reverse", False, -0.0, "x"),
    ("reverse", 0, 1, None),
    ("reverse", 0, 1.0, None),
]
COLLIDING_TRIALS = ScenarioReport(
    "reciprocity", (), None, None, tuple(TrialRecord(i, *tail) for i, tail in enumerate(2 * COLLIDING_TAILS)), 0
)


class _Index(enum.IntEnum):
    ONE = 1


class _Real(float):
    def __repr__(self):
        return "_Real(" + float.__repr__(self) + ")"


# Cells of int and float subclasses, which json.dumps prints by int.__repr__
# and float.__repr__, where repr would print <_Index.ONE: 1> and _Real(0.5).
SUBCLASS_CELLS = ScenarioReport(
    "reciprocity",
    (WorldRow("wA", _Real(0.5), 1.0, None, _Real(-0.0), _Index.ONE),),
    None,
    _Real(0.25),
    (TrialRecord(_Index.ONE, "forward", True, _Index.ONE, None), TrialRecord(2, "reverse", False, 0, "x")),
    _Index.ONE,
)


class TestWriteInPlace:
    TEXT = "{\n  \"w\u00e9\": [1, 2]\n}\n" * 500

    def test_bytes_match_a_text_mode_write(self, tmp_path):
        # newlines as text mode writes them, so os.linesep where it is not \n
        sim._write_in_place(tmp_path / "fast", self.TEXT)
        with open(tmp_path / "text", "w", encoding="utf-8") as f:
            f.write(self.TEXT)
        assert (tmp_path / "fast").read_bytes() == (tmp_path / "text").read_bytes()

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        path.write_bytes(b"x" * 100_000)
        write = sim.os.write
        monkeypatch.setattr(sim.os, "write", lambda fd, data: write(fd, data[:7]))
        sim._write_in_place(path, self.TEXT)
        monkeypatch.undo()
        sim._write_in_place(tmp_path / "whole", self.TEXT)
        assert path.read_bytes() == (tmp_path / "whole").read_bytes()


class TestReportWriter:
    """``report_to_json`` writes the bytes of ``json.dumps(doc, indent=2)``
    with non-finite floats as null (``oracles.reference_report_json``), and
    the CSV tables are those that ``oracles.reference_csv`` builds a field
    at a time."""

    def test_bundled_scenarios_match_the_reference(self):
        for name in scenarios.NAMES:
            for seed in range(20):
                report = run_scenario(load(name)._replace(seed=seed))
                assert report_to_json(report) == oracles.reference_report_json(report), (name, seed)

    @settings(max_examples=300)
    @given(scenario_reports())
    @example(ScenarioReport("coherence", (), None, None, (), 0))
    @example(ScenarioReport("coherence", (), FitResult(1.0, 1.0), math.inf, (), 0))
    @example(COLLIDING_TRIALS)
    @example(SUBCLASS_CELLS)
    def test_generated_reports_match_the_reference(self, report):
        assert report_to_json(report) == oracles.reference_report_json(report)

    def test_bundled_csv_match_the_reference(self):
        for name in scenarios.NAMES:
            for seed in range(20):
                report = run_scenario(load(name)._replace(seed=seed))
                assert per_world_csv(report) == oracles.reference_csv(WorldRow, report.per_world), (name, seed)
                assert trials_csv(report) == oracles.reference_csv(TrialRecord, report.trials), (name, seed)

    @settings(max_examples=300)
    @given(scenario_reports())
    @example(ScenarioReport("coherence", (), None, None, (), 0))
    @example(COLLIDING_TRIALS)
    @example(SUBCLASS_CELLS)
    def test_generated_csv_match_the_reference(self, report):
        assert per_world_csv(report) == oracles.reference_csv(WorldRow, report.per_world)
        assert trials_csv(report) == oracles.reference_csv(TrialRecord, report.trials)
