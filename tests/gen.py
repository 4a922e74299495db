"""Shared generators: hypothesis strategies for formulas and frames,
a plain-random scenario-config generator for round-trip sweeps,
seeded faulty scenario texts for parser differentials, and seeded valid
scenario texts at the extremes of every field, for totality sweeps."""

from __future__ import annotations

import random
import re
import string

import hypothesis.strategies as st

from eclc.calculus import Sequent, quantum_token
from eclc import scenarios
from eclc.dsl import MAX_FORMULA_NODES, ScenarioConfig, serialize_scenario
from eclc.formula import CLASSICAL_ATOMS, Atom, Bang, Diamond, Lolli, Tensor, With
from eclc.formula import CostModel
from eclc.frame import Frame, World
from eclc.observer import Observer

identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)


@st.composite
def atoms(draw):
    name = draw(identifiers)
    args = tuple(draw(st.lists(identifiers, max_size=2)))
    if name in CLASSICAL_ATOMS:
        coherent = False  # coherent classical-named atoms have no textual form
    else:
        coherent = draw(st.booleans())
    return Atom(name, args, coherent)


budgets = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False).map(abs)


def formulas(max_leaves: int = 8):
    return st.recursive(
        atoms(),
        lambda kids: st.one_of(
            st.builds(Tensor, kids, kids),
            st.builds(Lolli, kids, kids),
            st.builds(With, kids, kids),
            st.builds(Bang, kids),
            st.builds(Diamond, budgets, kids),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def small_frames(draw, max_worlds: int = 8):
    count = draw(st.integers(min_value=1, max_value=max_worlds))
    ids = [f"w{i}" for i in range(count)]
    worlds = [
        World(
            wid,
            energy=draw(st.floats(min_value=0, max_value=20, allow_nan=False)),
            kappa=draw(st.floats(min_value=0, max_value=5, allow_nan=False)),
            lam=draw(st.integers(min_value=1, max_value=6)),
        )
        for wid in ids
    ]
    edges = []
    for src in ids:
        for dst in ids:
            if src != dst and draw(st.booleans()):
                edges.append((src, dst, draw(st.floats(min_value=0, max_value=25, allow_nan=False))))
    return Frame(worlds, edges)


@st.composite
def tangled_frames(draw, max_worlds: int = 6):
    """Frames whose edges are declared in shuffled order, not grouped by
    source, with several out-edges per world and self-loops.  Energies
    and deltaE come from small sets, so many edges cost more than their
    source can pay and equal-hop paths differ in summed deltaE."""
    ids = [f"w{i}" for i in range(draw(st.integers(min_value=1, max_value=max_worlds)))]
    worlds = [World(wid, draw(st.sampled_from((0.0, 0.5, 3.0, 8.0))), 0.0, 1) for wid in ids]
    pairs = draw(st.permutations([(src, dst) for src in ids for dst in ids]))
    kept = pairs[: draw(st.integers(min_value=0, max_value=len(pairs)))]
    deltas = st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.7, 2.5, 6.0))
    return Frame(worlds, [(src, dst, draw(deltas)) for src, dst in kept])


def random_formula(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        name = rng.choice(["A", "B", "C", "E", "Phi", "Token"])
        args = tuple(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(0, 2)))
        return Atom(name, args, rng.random() < 0.8)
    kind = rng.randint(0, 4)
    if kind == 0:
        return Tensor(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 1:
        return Lolli(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 2:
        return With(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 3:
        return Bang(random_formula(rng, depth - 1))
    return Diamond(round(rng.uniform(0, 9), 3), random_formula(rng, depth - 1))


def random_sequent(rng: random.Random) -> Sequent:
    """A small gamma |- delta of random formulas.  Two in three are built
    to be provable: gamma regrouped on the right, or a measurement; some
    gain a banged context to weaken or derelict."""
    gamma = [random_formula(rng, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
    kind = rng.randrange(3)
    if kind == 0:
        delta = [random_formula(rng, 1)]
    elif kind == 1:
        delta = [gamma[0] if len(gamma) == 1 else Tensor(*gamma)]
        if rng.random() < 0.3:
            delta = [With(delta[0], delta[0])]
    else:
        q = rng.choice("xy")
        gamma, delta = [Bang(Atom("Quantum", (q,), True))], [Atom("Classical", (q,), False)]
    if rng.random() < 0.4:
        gamma.append(Bang(random_formula(rng, rng.randint(0, 1))))
    rng.shuffle(gamma)
    return Sequent(gamma, delta)


def random_config(rng: random.Random) -> ScenarioConfig:
    """A structurally valid config with varied fields, for round-trips."""
    n = rng.randint(1, 6)
    ids = [f"w{i}" for i in range(n)]
    worlds = [
        World(
            wid,
            energy=round(rng.uniform(0, 50), 3),
            kappa=round(rng.uniform(0, 4), 3),
            lam=rng.randint(1, 12),
        )
        for wid in ids
    ]
    edges = []
    for src in ids:
        for dst in ids:
            if src != dst and rng.random() < 0.3:
                edges.append((src, dst, round(rng.uniform(0, 10), 3)))
    frame = Frame(worlds, edges)
    for wid in ids:
        for _ in range(rng.randint(0, 3)):
            frame.worlds[wid].props[random_formula(rng)] += 1
    observers = [
        Observer(f"o{i}", rng.choice(ids), rng.randint(0, 5)) for i in range(rng.randint(0, 4))
    ]
    sequents = {}
    for i in range(rng.randint(0, 3)):
        src, dst = rng.choice(ids), rng.choice(ids)
        gamma = [random_formula(rng, 1) for _ in range(rng.randint(0, 3))]
        delta = [random_formula(rng, 1) for _ in range(rng.randint(0, 2))]
        sequents[f"s{i}"] = (src, dst, Sequent(gamma, delta))
    atom_costs = {name: round(rng.uniform(0, 5), 2) for name in rng.sample(["A", "B", "C", "E"], rng.randint(0, 3))}
    return ScenarioConfig(
        frame=frame,
        cost_model=CostModel(atom_costs, default_cost=round(rng.uniform(0, 3), 2), alpha=round(rng.uniform(0.1, 2), 2)),
        observers=observers,
        sequents=sequents,
        scenario_kind=rng.choice(("coherence", "reciprocity", "accessibility")),
        trials=rng.randint(1, 100),
        seed=rng.randrange(1 << 64) if rng.random() < 0.8 else None,
        kappa0=round(rng.uniform(0, 3), 2),
        noise=round(rng.uniform(0, 2), 2),
    )


# Every line break of str.splitlines, "\r\n" included.
BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

# The pieces a fault drops, duplicates, swaps or replaces: roughly the
# parser's tokens, found without it.
_PIECE = re.compile(r"[A-Za-z_]\w*|[0-9.]+(?:[eE][+-]?[0-9]+)?|->|-o|\|-|\S")
_SPARES = ("A", "w0", "wA", "o1", "1", "2.5", "1e3", "->", "-o", "|-", ":", ",", "=", "{", "}", "(", ")",
           "*", "&", "!", "~", "<", ">", "⊗", "⊸", "world", "prop", "edge", "lambda", "home", "horizon")
_STRAYS = ("@", "$", "-", "|", "é", "²", "٣", "\x00", "?", "'")
# Numbers out of some field's range, or of every field's: zero, just past
# MAX_LAMBDA, MAX_TRIALS, MAX_NOISE and 64 bits, a fraction, an infinity,
# and more digits than int() converts.
_OUT_OF_RANGE = ("0", "501", "100001", "101", "18446744073709551616", "1.5", "1e999", "1" + "0" * 4300)


def _respelled(rng: random.Random, text: str) -> str:
    """``text`` with some ⊗/⊸ aliases, tabs, comments and other line breaks."""
    out = []
    for line in text.splitlines():
        if rng.random() < 0.2:
            line = line.replace(" * ", " ⊗ ").replace(" -o ", " ⊸ ")
        if rng.random() < 0.2:
            line = line.replace(" ", "\t", rng.randint(1, 3))
        if rng.random() < 0.1:
            line += rng.choice(("  # note", "#", "\t# -o @ é"))
        if rng.random() < 0.05:
            out.append("# " + rng.choice(("comment", "* -o", "")) + rng.choice(BREAKS))
        out.append(line + (rng.choice(BREAKS) if rng.random() < 0.15 else "\n"))
    if out and rng.random() < 0.2:
        out[-1] = out[-1].rstrip("".join(BREAKS))  # no final break
    return "".join(out)


def _with_fault(rng: random.Random, text: str) -> str:
    """``text`` with one fault: a token dropped, duplicated, swapped or
    replaced, a stray character or comment inserted, a formula pushed to
    about MAX_FORMULA_NODES, an unknown or duplicate id, or a number out
    of range."""
    spans = [m.span() for m in _PIECE.finditer(text)]
    k = rng.randrange(len(spans) - 1)
    i, j = spans[k]
    fault = rng.randrange(9)
    if fault == 0:
        return text[:i] + text[j:]
    if fault == 1:
        return text[:j] + rng.choice(("", " ")) + text[i:j] + text[j:]
    if fault == 2:
        i2, j2 = spans[k + 1]
        return text[:i] + text[i2:j2] + text[j:i2] + text[i:j] + text[j2:]
    if fault == 3:
        return text[:i] + rng.choice(_SPARES) + text[j:]
    if fault == 4:
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(_STRAYS) + text[at:]
    if fault == 5:
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(("#", " # x ", "#\t")) + text[at:]
    lines = text.splitlines(keepends=True)
    if fault == 6:
        at = rng.choice([n for n, line in enumerate(lines) if " : " in line] or [0])
        head, colon, tail = lines[at].partition(" : ")
        lines[at] = head + colon + "!" * rng.randint(MAX_FORMULA_NODES - 3, MAX_FORMULA_NODES + 1) + tail
        return "".join(lines)
    if fault == 7:
        at = rng.randrange(len(lines))
        if rng.random() < 0.5:
            lines.insert(at, lines[at] if lines[at].endswith(BREAKS) else lines[at] + "\n")
            return "".join(lines)
        return text[:i] + "nowhere" + text[j:]
    numbers = [span for span in spans if text[span[0]].isdigit()]
    i, j = rng.choice(numbers) if numbers else (i, j)
    return text[:i] + rng.choice(_OUT_OF_RANGE) + text[j:]


def faulty_scenario_texts(seed: int, count: int) -> list[str]:
    """``count`` scenario texts, each one fault away from a bundled file or
    a serialized ``random_config``, both respelled by ``_respelled``."""
    rng = random.Random(seed)
    bundled = [scenarios.read(name) for name in scenarios.NAMES]
    texts = []
    for _ in range(count):
        source = rng.choice(bundled) if rng.random() < 0.2 else serialize_scenario(random_config(rng))
        texts.append(_with_fault(rng, _respelled(rng, source)))
    return texts


# Costs at the edges of what a valid file may hold: two 1e308 sum past the largest float.
_EXTREME_COSTS = (0.0, 0.5, 1.0, 1e308)
_EXTREME_ATOMS = (Atom("A"), Atom("B"), Atom("Phi"), Atom("R", coherent=False), Atom("Entangled", ("a", "b")))


def _extreme_formula(rng: random.Random, qubits, depth: int):
    """A formula over few atoms, so that many antecedents balance: banged,
    with, diamond, Quantum/Classical and nested connectives."""
    if depth == 0 or rng.random() < 0.3:
        q = rng.choice(qubits)
        return rng.choice(_EXTREME_ATOMS + (Atom("Quantum", (q,)), Atom("Classical", (q,), False)))
    kind = rng.randrange(6)
    if kind == 0:
        return Bang(_extreme_formula(rng, qubits, depth - 1))
    if kind == 1:
        return Diamond(rng.choice((0.0, 2.5, 1e308)), _extreme_formula(rng, qubits, depth - 1))
    connective = (Tensor, Lolli, With, Tensor)[kind - 2]
    return connective(_extreme_formula(rng, qubits, depth - 1), _extreme_formula(rng, qubits, depth - 1))


def extreme_config(rng: random.Random) -> ScenarioConfig:
    """A config that each driver accepts, of a random kind: a forward chain
    of 2-5 worlds, or two worlds sharing 1-3 quantum tokens, with lambda,
    costs and noise at their extremes, up to about 30 props a world, up to
    40 observers, up to 2,000 trials and up to 3 declared sequents, some of
    them gamma regrouped on the right."""
    kind = rng.choice(("coherence", "reciprocity", "accessibility"))
    qubits = [f"q{i}" for i in range(rng.randint(1, 3))]
    ids = [f"w{i}" for i in range(2 if kind == "reciprocity" else rng.randint(2, 5))]
    worlds = [
        World(wid, rng.choice((0.0, 10.0, 1e308)), rng.choice((0.0, 1.0, 100.0)), rng.choice((1, 2, 8, 64, 500)))
        for wid in ids
    ]
    pairs = list(zip(ids, ids[1:])) + ([(ids[1], ids[0])] if kind == "reciprocity" else [])
    frame = Frame(worlds, [(src, dst, rng.choice((0.0, 1.0, 1e308))) for src, dst in pairs])
    for world in frame.worlds.values():
        if kind == "reciprocity":
            world.props.update(quantum_token(q) for q in qubits)
        for _ in range(rng.choice((0, 1, 3, 10, 30))):
            world.props[_extreme_formula(rng, qubits, rng.randint(0, 3))] += 1
    first = frame.world(ids[0]).props
    if not first:
        first[_extreme_formula(rng, qubits, 1)] += 1
    sequents = {}
    for i in range(rng.randint(0, 3)):
        src, dst = rng.choice(pairs)
        held = list(frame.world(src).props.elements())
        gamma = rng.sample(held, min(len(held), rng.randint(0, 3)))
        if len(gamma) > 1 and rng.random() < 0.5:
            delta = [Tensor(gamma[0], gamma[1])] + gamma[2:]  # a regrouping, so some searches prove
        else:
            delta = [_extreme_formula(rng, qubits, rng.randint(0, 2)) for _ in range(rng.randint(0, 2))]
        sequents[f"s{i}"] = (src, dst, Sequent(gamma, delta))
    observers = [Observer(f"o{i}", rng.choice(ids), rng.randint(0, 5)) for i in range(rng.choice((1, 2, 40)))]
    atom_costs = {name: rng.choice(_EXTREME_COSTS) for name in rng.sample(["A", "B", "Phi", "Quantum", "Classical"], 3)}
    return ScenarioConfig(
        frame=frame,
        cost_model=CostModel(atom_costs, default_cost=rng.choice(_EXTREME_COSTS), alpha=rng.choice((0.1, 0.75, 100.0))),
        observers=observers,
        sequents=sequents,
        scenario_kind=kind,
        trials=rng.choice((1, 50, 2000)),
        seed=rng.randrange(1 << 64),
        kappa0=rng.choice((0.0, 1.0, 100.0)),
        noise=rng.choice((0.0, 0.8, 100.0)),
    )


def extreme_scenario_texts(seed: int, count: int) -> list[str]:
    """``count`` serialized ``extreme_config`` texts."""
    rng = random.Random(seed)
    return [serialize_scenario(extreme_config(rng)) for _ in range(count)]
