"""Shared generators: hypothesis strategies for formulas and frames,
plus a plain-random scenario-config generator for round-trip sweeps."""

from __future__ import annotations

import random
import string

import hypothesis.strategies as st

from eclc.calculus import Sequent
from eclc.dsl import ScenarioConfig
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
