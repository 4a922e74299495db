"""Acceptance suite: one test per criterion, tolerances pinned here.

Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion.  Criteria 4 and 7 each contain a clause pinning the
reference p-value 4.7e-6 to the contingency table (50,0,24,26); exact
enumeration puts the two-tailed Fisher p of that table at 3.47e-10, so
those clauses fail and are left failing deliberately rather than
loosened.  README's caveats section has the analysis.
"""

import random
import time
from collections import Counter

import pytest

from eclc import (
    Atom,
    Bang,
    ContingencyTable,
    CostModel,
    Frame,
    Lolli,
    PreconditionError,
    Sequent,
    Tensor,
    With,
    World,
    fisher_exact_two_tailed,
    fit_exponential,
    measure,
    parse_formula,
    parse_scenario,
    prove,
    run_accessibility,
    run_coherence,
    run_reciprocity,
    serialize_scenario,
    transition,
)
from eclc import scenarios
from eclc.cli import main
from eclc.formula import format_formula
from gen import random_config, random_formula

import oracles

A, B, C = Atom("A"), Atom("B"), Atom("C")
ZERO = CostModel({}, default_cost=0.0, alpha=0.75)
UNIT = CostModel({}, default_cost=1.0, alpha=0.75)


def report(criterion: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_c01_proof_search_matches_enumeration_oracle():
    rng = random.Random(11)
    atoms = [A, B, C]

    def rand_formula(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice(atoms)
        kind = rng.randint(0, 3)
        if kind == 0:
            return Tensor(rand_formula(depth - 1), rand_formula(depth - 1))
        if kind == 1:
            return Lolli(rand_formula(depth - 1), rand_formula(depth - 1))
        if kind == 2:
            return With(rand_formula(depth - 1), rand_formula(depth - 1))
        return Bang(rand_formula(depth - 1))

    cases = []
    for _ in range(3000):
        gamma = tuple(rand_formula(2) for _ in range(rng.randint(0, 3)))
        delta = tuple(rand_formula(2) for _ in range(rng.randint(0, 3)))
        cases.append((gamma, delta))

    started = time.perf_counter()
    disagreements = []
    for gamma, delta in cases:
        got = prove(Sequent(gamma, delta), 5, ZERO, 0.0).proved
        want = oracles.provable(gamma, delta, 5)
        if got != want:
            disagreements.append((gamma, delta, got, want))
    elapsed = time.perf_counter() - started
    assert not disagreements, disagreements[:5]
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    report("c01 proof-search oracle equivalence", f"({len(cases)} cases, {elapsed:.1f}s)")


def test_c02_linearity_battery():
    assert prove(Sequent((A,), (A,)), 10, ZERO, 0.0).proved
    assert not prove(Sequent((A,), (Tensor(A, A),)), 10, ZERO, 0.0).proved
    assert prove(Sequent((Bang(A),), (Tensor(A, A),)), 10, ZERO, 0.0).proved
    assert prove(Sequent((Tensor(A, B),), (Tensor(B, A),)), 10, ZERO, 0.0).proved
    # the enumeration oracle agrees on the headline non-theorem
    assert not oracles.provable((A,), (Tensor(A, A),), 10)
    report("c02 linearity battery")


def _random_irreversibility_case(rng, min_gamma=1):
    names = ["P", "Q", "R", "S", "T"]
    atoms = [Atom(n) for n in rng.sample(names, rng.randint(min_gamma, 4))]
    gamma = tuple(atoms[: rng.randint(min_gamma, len(atoms))])
    goal = gamma[0]
    for phi in gamma[1:]:
        goal = Tensor(goal, phi)
    delta_e = rng.uniform(0.0, 4.0)
    frame = Frame(
        [
            World("src", rng.uniform(5.0, 20.0), rng.uniform(0.0, 2.0), 8, Counter(atoms)),
            World("dst", 10.0, rng.uniform(0.0, 2.0), 8),
        ],
        [("src", "dst", delta_e)],
    )
    return frame, Sequent(gamma, (goal,))


def _frame_state(frame):
    return (
        {wid: (w.energy, w.kappa, w.lam, Counter(w.props)) for wid, w in frame.worlds.items()},
        dict(frame.edges),
    )


def test_c03_irreversibility_property():
    rng = random.Random(404)
    replayed = 0
    unchanged = 0
    for index in range(1000):
        kind = index % 4
        if kind == 0:
            frame, seq = _random_irreversibility_case(rng)
            assert transition(frame, "src", "dst", seq, UNIT).valid
            with pytest.raises(PreconditionError):
                transition(frame, "src", "dst", seq, UNIT)
            replayed += 1
        elif kind == 1:
            qubit = rng.choice(["q1", "q2"])
            token = Bang(Atom("Quantum", (qubit,), True))
            frame = Frame(
                [World("src", 10.0, 0.0, 8, Counter([token])), World("dst", 10.0, 0.0, 8)],
                [("src", "dst", rng.uniform(0.0, 4.0))],
            )
            assert measure(frame, "src", "dst", qubit, "o", UNIT).valid
            with pytest.raises(PreconditionError):
                measure(frame, "src", "dst", qubit, "o", UNIT)
            replayed += 1
        else:
            sabotage = rng.randint(0, 2)
            # a singleton gamma proves by bare identity, so the depth
            # sabotage needs a sequent whose proof takes two levels
            frame, seq = _random_irreversibility_case(rng, min_gamma=2 if sabotage == 0 else 1)
            if sabotage == 0:
                frame.worlds["src"].lam = 1  # depth bound too small
            elif sabotage == 1:
                frame.edges[("src", "dst")] = frame.worlds["src"].energy + 1.0
            else:
                seq = Sequent(seq.gamma, (Tensor(seq.delta[0], Atom("Unobtainable")),))
            before = _frame_state(frame)
            outcome = transition(frame, "src", "dst", seq, UNIT)
            assert not outcome.valid
            assert _frame_state(frame) == before
            unchanged += 1
    assert replayed >= 400 and unchanged >= 400
    report("c03 irreversibility", f"({replayed} replays, {unchanged} failed-transition checks)")


def test_c04a_fisher_matches_hypergeometric_enumeration():
    started = time.perf_counter()
    checked = 0
    for total in range(1, 21):
        for a in range(total + 1):
            for b in range(total + 1 - a):
                for c in range(total + 1 - a - b):
                    d = total - a - b - c
                    got = fisher_exact_two_tailed(ContingencyTable(a, b, c, d))
                    exact = float(oracles.fisher_two_tailed_fraction(a, b, c, d))
                    assert got == pytest.approx(exact, rel=1e-12), (a, b, c, d)
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"fisher sweep took {elapsed:.1f}s"
    report("c04a fisher enumeration agreement", f"({checked} tables, {elapsed:.1f}s)")


def test_c04b_fisher_reference_value():
    p = fisher_exact_two_tailed(ContingencyTable(50, 0, 24, 26))
    exact = float(oracles.fisher_two_tailed_fraction(50, 0, 24, 26))
    assert p == pytest.approx(exact, rel=1e-10)
    assert 4.7e-6 / 2 <= p <= 4.7e-6 * 2, (
        f"two-tailed Fisher exact p for (50,0,24,26) is {p:.4g} by direct "
        f"enumeration (oracle {exact:.4g}); the reference value 4.7e-6 is "
        f"not the Fisher exact p of this table, so this pinned clause "
        f"cannot pass"
    )
    report("c04b fisher reference value")


def test_c05_exponential_fit_recovery():
    import math

    for rate in (0.1, 0.75, 3.0):
        points = [(k * 0.5, math.exp(-rate * k * 0.5)) for k in range(8)]
        fit = fit_exponential(points)
        assert fit.rate == pytest.approx(rate, abs=1e-9)
        assert fit.r_squared > 1.0 - 1e-12
    reference = fit_exponential([(0.0, 1.0), (1.0, 0.61), (2.0, 0.19)])
    assert reference.rate == pytest.approx(0.7631517470916164, abs=1e-3)
    assert abs(reference.rate - 0.763) <= 1e-3
    report("c05 exponential fit", f"(reference rate {reference.rate:.6f})")


def test_c06_scenario1_calibration():
    started = time.perf_counter()
    config = parse_scenario(scenarios.read("coherence"))
    result = run_coherence(config)
    elapsed = time.perf_counter() - started
    pis = [row.pi for row in result.per_world]
    assert pis[0] == 1.0
    assert pis[1] == pytest.approx(0.61, abs=0.05)
    assert pis[2] == pytest.approx(0.19, abs=0.05)
    assert all(a > b for a, b in zip(pis, pis[1:])), pis
    assert result.fit is not None
    assert result.fit.rate == pytest.approx(0.75, abs=0.05)
    assert elapsed < 10.0, f"scenario 1 took {elapsed:.1f}s"
    report("c06 coherence calibration", f"(pi={pis}, rate={result.fit.rate:.4f}, {elapsed:.1f}s)")


def test_c07a_scenario2_calibration_and_symmetry_control():
    config = parse_scenario(scenarios.read("reciprocity"))
    result = run_reciprocity(config)
    forward = [t for t in result.trials if t.direction == "forward"]
    reverse = [t for t in result.trials if t.direction == "reverse"]
    assert len(forward) == len(reverse) == 50
    assert sum(t.success for t in forward) == 50
    assert 19 <= sum(t.success for t in reverse) <= 29
    # symmetry control: equal capacities, zero jitter -> equal rates
    symmetric = scenarios.read("reciprocity").replace("lambda=3", "lambda=12").replace(
        "noise = 0.8", "noise = 0.0"
    )
    control = run_reciprocity(parse_scenario(symmetric))
    forward_rate = sum(t.success for t in control.trials if t.direction == "forward")
    reverse_rate = sum(t.success for t in control.trials if t.direction == "reverse")
    assert forward_rate == reverse_rate
    report(
        "c07a reciprocity calibration + symmetry control",
        f"(forward 50/50, reverse {sum(t.success for t in reverse)}/50)",
    )


def test_c07b_scenario2_reference_fisher_value():
    config = parse_scenario(scenarios.read("reciprocity"))
    result = run_reciprocity(config)
    forward = sum(t.success for t in result.trials if t.direction == "forward")
    reverse = sum(t.success for t in result.trials if t.direction == "reverse")
    if (forward, reverse) != (50, 24):
        pytest.skip("realized table is not (50,0,24,26); clause does not apply")
    assert 4.7e-6 / 2 <= result.fisher_p <= 4.7e-6 * 2, (
        f"realized table (50,0,24,26) has exact two-tailed Fisher p "
        f"{result.fisher_p:.4g}; the reference value 4.7e-6 is inconsistent "
        f"with that table, so this pinned clause cannot pass"
    )
    report("c07b reciprocity reference fisher value")


def test_c08_scenario3_calibration():
    config = parse_scenario(scenarios.read("accessibility"))
    result = run_accessibility(config)
    access = [row.access_fraction for row in result.per_world]
    assert access[0] == 1.0
    assert access[-1] == 0.0
    assert all(a >= b for a, b in zip(access, access[1:])), access
    assert access[2] == pytest.approx(0.73, abs=0.10)
    assert result.per_world[0].entropy == 0.0
    report("c08 accessibility calibration", f"(access={[round(a, 3) for a in access]})")


def test_c09_cli_determinism(tmp_path):
    for name in scenarios.NAMES:
        first = tmp_path / f"{name}-1"
        second = tmp_path / f"{name}-2"
        assert main(["run", str(scenarios.path(name)), "--out", str(first)]) == 0
        assert main(["run", str(scenarios.path(name)), "--out", str(second)]) == 0
        for artifact in ("report.json", "per_world.csv", "trials.csv"):
            assert (first / artifact).read_bytes() == (second / artifact).read_bytes(), (
                name,
                artifact,
            )
    report("c09 determinism (byte-identical reruns)")


def test_c10_dsl_round_trip():
    for name in scenarios.NAMES:
        config = parse_scenario(scenarios.read(name))
        assert parse_scenario(serialize_scenario(config)) == config
    rng = random.Random(52_2025)
    for _ in range(1000):
        config = random_config(rng)
        assert parse_scenario(serialize_scenario(config)) == config
    for _ in range(1000):
        phi = random_formula(rng, depth=5)
        assert parse_formula(format_formula(phi)) == phi
    report("c10 dsl round-trip", "(corpus + 1000 configs + 1000 formulas)")
