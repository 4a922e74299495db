"""What callers can see of eclc's fourteen records: construction by
position and by keyword with the defaults, the exact ``repr``, equality,
hashing, immutability, pickling and every validation message."""

import pickle
import re
from collections import Counter

import pytest

from eclc import (
    Atom,
    ContingencyTable,
    CostModel,
    FitResult,
    Frame,
    Observer,
    PathCost,
    ProofResult,
    ProofTree,
    ScenarioConfig,
    ScenarioReport,
    Sequent,
    TransitionOutcome,
    TrialRecord,
    World,
    WorldRow,
)

A = Atom("A")
B = Atom("B", ("x",), False)
A_REPR = "Atom(name='A', args=(), coherent=True)"
B_REPR = "Atom(name='B', args=('x',), coherent=False)"
SEQ = Sequent((A,), (A,))
SEQ_REPR = f"Sequent(gamma=({A_REPR},), delta=({A_REPR},))"
TREE = ProofTree("identity", SEQ)
TREE_REPR = f"ProofTree(rule='identity', sequent={SEQ_REPR}, premises=())"
PROVED = ProofResult(True, 1, TREE, None)
FAILED = ProofResult(False, 0, None, "no_rule_applies")
ROW = WorldRow("w0", 1.0, 0.5, None, 0.0, 1.0)
ROW_REPR = "WorldRow(world='w0', kappa=1.0, pi=0.5, access_fraction=None, entropy=0.0, mean_proof_depth=1.0)"
TRIAL = TrialRecord(0, "forward", True, 1, None)
TRIAL_REPR = "TrialRecord(trial_index=0, direction='forward', success=True, proof_depth=1, failure_reason=None)"


def frame():
    return Frame([World("w0", 2.0, 0.0, 3)], [])


# name -> (class, field names, sample, a different sample of the class,
#          the defaults, the sample's repr)
RECORDS = {
    "Sequent": (Sequent, ("gamma", "delta"), ((A,), (B,)), ((B,), (A,)), {}, f"Sequent(gamma=({A_REPR},), delta=({B_REPR},))"),
    "ProofTree": (
        ProofTree, ("rule", "sequent", "premises"), ("identity", SEQ, ()), ("weakening", SEQ, (TREE,)),
        {"premises": ()}, TREE_REPR,
    ),
    "ProofResult": (
        ProofResult, ("proved", "depth", "tree", "failure_reason"), (True, 1, TREE, None),
        (False, 0, None, "depth_exceeded"), {},
        f"ProofResult(proved=True, depth=1, tree={TREE_REPR}, failure_reason=None)",
    ),
    "TransitionOutcome": (
        TransitionOutcome, ("valid", "proof", "energy_spent"), (False, FAILED, 0.0), (True, PROVED, 1.5), {},
        "TransitionOutcome(valid=False, proof=ProofResult(proved=False, depth=0, tree=None, "
        "failure_reason='no_rule_applies'), energy_spent=0.0)",
    ),
    "CostModel": (
        CostModel, ("atom_costs", "default_cost", "alpha"), ({"A": 2.0}, 1.0, 1.0), ({"A": 3.0}, 0.5, 2.0),
        {"default_cost": 1.0, "alpha": 1.0}, "CostModel(atom_costs={'A': 2.0}, default_cost=1.0, alpha=1.0)",
    ),
    "PathCost": (PathCost, ("hops", "total_delta_e"), (2, 1.5), (3, 1.5), {}, "PathCost(hops=2, total_delta_e=1.5)"),
    "FitResult": (FitResult, ("rate", "r_squared"), (0.5, 0.9), (0.5, 1.0), {}, "FitResult(rate=0.5, r_squared=0.9)"),
    "ContingencyTable": (
        ContingencyTable, ("a", "b", "c", "d"), (1, 2, 3, 4), (4, 3, 2, 1), {}, "ContingencyTable(a=1, b=2, c=3, d=4)",
    ),
    "Observer": (Observer, ("id", "home", "horizon"), ("o", "w0", 2), ("o", "w0", 3), {}, "Observer(id='o', home='w0', horizon=2)"),
    "TrialRecord": (
        TrialRecord, ("trial_index", "direction", "success", "proof_depth", "failure_reason"),
        (0, "forward", True, 1, None), (1, "reverse", False, 0, "depth_exceeded"), {}, TRIAL_REPR,
    ),
    "WorldRow": (
        WorldRow, ("world", "kappa", "pi", "access_fraction", "entropy", "mean_proof_depth"),
        ("w0", 1.0, 0.5, None, 0.0, 1.0), ("w0", 1.0, 0.5, 0.25, 1.0, 1.0), {}, ROW_REPR,
    ),
    "ScenarioReport": (
        ScenarioReport, ("kind", "per_world", "fit", "fisher_p", "trials", "seed"),
        ("coherence", (ROW,), FitResult(0.5, 0.9), None, (TRIAL,), 7), ("coherence", (ROW,), None, None, (), 8), {},
        f"ScenarioReport(kind='coherence', per_world=({ROW_REPR},), fit=FitResult(rate=0.5, r_squared=0.9), "
        f"fisher_p=None, trials=({TRIAL_REPR},), seed=7)",
    ),
    "ScenarioConfig": (
        ScenarioConfig, ("frame", "cost_model", "observers", "sequents", "scenario_kind", "trials", "seed", "kappa0", "noise"),
        (frame(), CostModel({}), [Observer("o", "w0", 1)], {"s": ("w0", "w0", SEQ)}, "coherence", 1, None, 1.0, 0.0),
        (frame(), CostModel({}), [], {}, "reciprocity", 5, 9, 0.5, 0.1),
        {"trials": 1, "seed": None, "kappa0": 1.0, "noise": 0.0},
        "ScenarioConfig(frame=Frame(worlds=['w0'], edges=0), cost_model=CostModel(atom_costs={}, default_cost=1.0, "
        "alpha=1.0), observers=[Observer(id='o', home='w0', horizon=1)], sequents={'s': ('w0', 'w0', "
        f"{SEQ_REPR})}}, scenario_kind='coherence', trials=1, seed=None, kappa0=1.0, noise=0.0)",
    ),
    "World": (
        World, ("id", "energy", "kappa", "lam", "props"), ("w", 1.0, 0.0, 3, Counter({A: 1})), ("w", 2.0, 0.0, 3, Counter()),
        {"props": None}, f"World(id='w', energy=1.0, kappa=0.0, lam=3, props=Counter({{{A_REPR}: 1}}))",
    ),
}
UNHASHABLE = {"CostModel", "ScenarioConfig", "World"}  # a dict or list field, or mutable
NAMES = sorted(RECORDS)
FROZEN = [name for name in NAMES if name not in ("ScenarioConfig", "World")]


@pytest.mark.parametrize("name", NAMES)
class TestRecord:
    def test_construction_by_position_and_keyword(self, name):
        cls, fields, values, _, defaults, _ = RECORDS[name]
        record = cls(*values)
        assert type(record) is cls
        assert [getattr(record, f) for f in fields] == list(values)
        assert cls(**dict(zip(fields, values))) == record
        required = [v for f, v in zip(fields, values) if f not in defaults]
        assert list(fields[len(required) :]) == list(defaults)
        expected = cls(*required, *defaults.values())
        assert cls(*required) == expected
        assert cls(**dict(zip(fields, required))) == expected

    def test_repr(self, name):
        cls, _, values, _, _, text = RECORDS[name]
        assert repr(cls(*values)) == text

    def test_equality(self, name):
        cls, _, values, other, _, _ = RECORDS[name]
        assert cls(*values) == cls(*values)
        assert not cls(*values) != cls(*values)
        assert cls(*values) != cls(*other)
        assert not cls(*values) == cls(*other)

    def test_hash(self, name):
        cls, _, values, other, _, _ = RECORDS[name]
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(cls(*values))
            return
        # a record hashes as the tuple of its fields, so memo keys built
        # from records keep their hashes
        assert hash(cls(*values)) == hash(cls(*values)) == hash(tuple(values))
        assert {cls(*values): 1}[cls(*values)] == 1
        assert hash(cls(*other)) == hash(tuple(other))

    def test_pickle_round_trip(self, name):
        cls, _, values, _, _, _ = RECORDS[name]
        record = cls(*values)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls
        assert copy == record
        assert repr(copy) == repr(record)


@pytest.mark.parametrize("name", FROZEN)
def test_assignment_raises(name):
    cls, fields, values, other, _, _ = RECORDS[name]
    record = cls(*values)
    for field, value in zip(fields, other):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values)


def test_sequent_sides_become_tuples():
    seq = Sequent([A, A], iter([B]))
    assert seq.gamma == (A, A) and type(seq.gamma) is tuple
    assert seq.delta == (B,) and type(seq.delta) is tuple
    assert Sequent(gamma=[A], delta=[]) == Sequent((A,), ())
    assert hash(Sequent([A], [B])) == hash(((A,), (B,)))


def test_cost_model_copies_its_costs():
    costs = {"A": 2.0}
    model = CostModel(costs)
    costs["A"] = 5.0
    assert model.atom_costs == {"A": 2.0} and type(model.atom_costs) is dict
    assert CostModel([("B", 1.5)]).atom_costs == {"B": 1.5}
    assert model.atom_cost("A") == 2.0 and model.atom_cost("Z") == 1.0


def test_world_is_mutable_and_normalizes():
    world = World("w", 1, -0.0, 2, [A, A])
    assert (world.energy, type(world.energy), world.kappa, world.props) == (1.0, float, 0.0, Counter({A: 2}))
    assert repr(world.kappa) == "0.0"
    world.energy -= 0.5
    world.props -= Counter([A])
    assert world == World("w", 0.5, 0.0, 2, [A])
    assert World("w", 1.0, 0.0, 2) == World("w", 1.0, 0.0, 2, None) == World("w", 1.0, 0.0, 2, Counter())
    assert world != ("w", 0.5, 0.0, 2, Counter({A: 1}))
    copy = world.copy()
    assert copy == world and copy is not world and copy.props is not world.props


def test_scenario_config_is_unhashable_and_equal_by_fields():
    _, _, values, _, _, _ = RECORDS["ScenarioConfig"]
    assert ScenarioConfig(*values) == ScenarioConfig(*values)
    assert ScenarioConfig(*values) != ScenarioConfig(*values[:5], 2)


MESSAGES = [
    (lambda: World("1", 1.0, 0.0, 1), "world id must be a nonempty identifier, got '1'"),
    (lambda: World("w", -1, 0.0, 1), "energy must be finite and >= 0, got -1.0"),
    (lambda: World("w", 1.0, float("inf"), 1), "kappa must be finite and >= 0, got inf"),
    (lambda: World("w", 1.0, 0.0, 0), "lambda must be an integer >= 1, got 0"),
    (lambda: World("w", 1.0, 0.0, True), "lambda must be an integer >= 1, got True"),
    (lambda: World("w", 1.0, 0.0, 1, Counter({A: -1})), "prop count must be an integer >= 0, got -1"),
    (lambda: Observer("1", "w", 0), "observer id must be a nonempty identifier, got '1'"),
    (lambda: Observer("o", "w", -1), "horizon must be an integer >= 0, got -1"),
    (lambda: Observer("o", "w", True), "horizon must be an integer >= 0, got True"),
    (lambda: Observer("o", "w", 1.0), "horizon must be an integer >= 0, got 1.0"),
    (lambda: CostModel({"1": 1.0}), "cost atom name must be a nonempty identifier, got '1'"),
    (lambda: CostModel({"A": -1.0}), "cost for A must be finite and >= 0, got -1.0"),
    (lambda: CostModel({}, default_cost=float("nan")), "default_cost must be finite and >= 0, got nan"),
    (lambda: CostModel({}, alpha=0.0), "alpha must be finite and > 0, got 0.0"),
    (lambda: CostModel({}, alpha=float("inf")), "alpha must be finite and > 0, got inf"),
    (lambda: PathCost(-1, 0.0), "path cost components must be >= 0"),
    (lambda: PathCost(0, -1.0), "path cost components must be >= 0"),
    (lambda: ContingencyTable(0, 0, 0, 0), "at least one cell must be positive"),
    (lambda: ContingencyTable(True, 0, 0, 1), "cells must be nonnegative integers, got (True, 0, 0, 1)"),
    (lambda: ContingencyTable(1, -1, 0, 1), "cells must be nonnegative integers, got (1, -1, 0, 1)"),
    (lambda: ContingencyTable(1, 0, 0.5, 1), "cells must be nonnegative integers, got (1, 0, 0.5, 1)"),
    (lambda: FitResult(0.1, 1.5), "r_squared cannot exceed 1, got 1.5"),
    (lambda: ProofResult(True, 1, None, None), "tree must be present iff proved"),
    (lambda: ProofResult(False, 0, TREE, "no_rule_applies"), "tree must be present iff proved"),
]


@pytest.mark.parametrize("make, message", MESSAGES, ids=[m for _, m in MESSAGES])
def test_validation_message(make, message):
    with pytest.raises(ValueError, match=re.escape(message)) as caught:
        make()
    assert str(caught.value) == message



@pytest.mark.parametrize("name", [name for name in NAMES if name != "World"])
def test_replace_gives_the_constructed_record(name):
    cls, fields, values, other, _, _ = RECORDS[name]
    replaced = cls(*values)._replace(**dict(zip(fields, other)))
    assert type(replaced) is cls
    assert replaced == cls(*other) and repr(replaced) == repr(cls(*other))


def test_sequent_replace_makes_tuples():
    seq = Sequent((), ())._replace(gamma=[A], delta=iter([B]))
    assert seq == Sequent((A,), (B,)) and type(seq.gamma) is tuple and type(seq.delta) is tuple


# _replace builds its copy through the constructor, so a checked record
# refuses a bad field with construction's message
REPLACE_MESSAGES = [
    ("ProofResult", lambda: PROVED._replace(tree=None), "tree must be present iff proved"),
    ("CostModel", lambda: CostModel({})._replace(alpha=-1.0), "alpha must be finite and > 0, got -1.0"),
    ("CostModel", lambda: CostModel({})._replace(atom_costs={"A": -1.0}), "cost for A must be finite and >= 0, got -1.0"),
    ("PathCost", lambda: PathCost(2, 1.5)._replace(hops=-1), "path cost components must be >= 0"),
    ("FitResult", lambda: FitResult(0.5, 0.9)._replace(r_squared=1.5), "r_squared cannot exceed 1, got 1.5"),
    (
        "ContingencyTable", lambda: ContingencyTable(1, 2, 3, 4)._replace(b=-1),
        "cells must be nonnegative integers, got (1, -1, 3, 4)",
    ),
    ("Observer", lambda: Observer("o", "w0", 2)._replace(horizon=-1), "horizon must be an integer >= 0, got -1"),
    ("Observer", lambda: Observer("o", "w0", 2)._replace(id="1"), "observer id must be a nonempty identifier, got '1'"),
]


@pytest.mark.parametrize("name, make, message", REPLACE_MESSAGES, ids=[f"{n}: {m}" for n, _, m in REPLACE_MESSAGES])
def test_replace_runs_the_checks(name, make, message):
    with pytest.raises(ValueError, match=re.escape(message)) as caught:
        make()
    assert str(caught.value) == message
