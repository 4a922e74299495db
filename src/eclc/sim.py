"""Scenario drivers: coherence degradation along a chain, measurement
reciprocity between two worlds, and observer accessibility decline.

Every run is deterministic given (config, seed).  Per-trial randomness
is derived from the trial index with splitmix64, so trials are
independent of execution order.  Reports serialize to JSON and to two
CSV tables (per-world metrics and per-trial records).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

from .calculus import Sequent, measure, prove
from .dsl import ScenarioConfig
from .formula import Atom, Bang, Formula, base_cost, coherence, curvature_cost, decohere
from .frame import Frame, accessible
from .metrics import ContingencyTable, FitResult, fisher_exact_two_tailed, fit_exponential, persistence_score, shannon_entropy
from .observer import observer_valuation

FORWARD = "forward"
REVERSE = "reverse"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class ScenarioError(Exception):
    """Config does not satisfy the requirements of the requested scenario."""


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    direction: str
    success: bool
    proof_depth: int
    failure_reason: str | None


@dataclass(frozen=True)
class WorldRow:
    world: str
    kappa: float
    pi: float
    access_fraction: float | None
    entropy: float | None
    mean_proof_depth: float


@dataclass(frozen=True)
class ScenarioReport:
    kind: str
    per_world: tuple[WorldRow, ...]
    fit: FitResult | None
    fisher_p: float | None
    trials: tuple[TrialRecord, ...]
    seed: int


def _splitmix64(x: int) -> int:
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Platform-independent per-trial seed: splitmix64 over the master
    seed XOR (index+1) times the 64-bit golden-ratio increment."""
    return _splitmix64((master_seed ^ ((trial_index + 1) * _GAMMA & _MASK)) & _MASK)


def chain_order(frame: Frame) -> list[str]:
    """World ids of a forward chain in path order; raises otherwise."""
    succ: dict[str, str] = {}
    indegree = Counter()
    for src, dst in frame.edges:
        if src in succ:
            raise ScenarioError(f"world {src!r} has more than one outgoing edge; not a chain")
        succ[src] = dst
        indegree[dst] += 1
    starts = [wid for wid in frame.worlds if indegree[wid] == 0]
    if len(frame.worlds) == 1 and not frame.edges:
        return list(frame.worlds)
    if len(starts) != 1 or any(count > 1 for count in indegree.values()):
        raise ScenarioError("frame is not a single forward chain")
    order = [starts[0]]
    while order[-1] in succ:
        nxt = succ[order[-1]]
        if nxt in order:
            raise ScenarioError("frame contains a cycle; not a chain")
        order.append(nxt)
    if len(order) != len(frame.worlds):
        raise ScenarioError("frame is not connected as a single chain")
    return order


def _require_kind(config: ScenarioConfig, kind: str) -> None:
    if config.scenario_kind != kind:
        raise ScenarioError(f"config is for {config.scenario_kind!r}, expected {kind!r}")


def _resolved_seed(config: ScenarioConfig) -> int:
    return 0 if config.seed is None else config.seed


def _edge_sequent(config: ScenarioConfig, src: str, dst: str) -> Sequent | None:
    """First sequent declared for the edge, if any; it gates the hop."""
    for _, (s, d, seq) in config.sequents.items():
        if (s, d) == (src, dst):
            return seq
    return None


def _self_carry(phi, world, model, cache):
    """The proof of phi |- phi under the world's capacity and curvature,
    proved once per (phi, lambda, kappa) of a run."""
    key = (phi, world.lam, world.kappa)
    if key not in cache:
        cache[key] = prove(Sequent((phi,), (phi,)), world.lam, model, world.kappa)
    return cache[key]


def _sustain_stats(formulas, world, model, cache) -> float:
    """Mean height of the self-carry proofs of the coherent formulas."""
    depths = []
    for phi in formulas:
        if coherence(phi) != 1:
            continue
        result = _self_carry(phi, world, model, cache)
        if result.proved:
            depths.append(result.depth)
    return sum(depths) / len(depths) if depths else 0.0


def _coherence_row(world, formulas, model, cache) -> WorldRow:
    bits = [coherence(phi) for phi in formulas]
    return WorldRow(
        world=world.id,
        kappa=world.kappa,
        pi=persistence_score(formulas),
        access_fraction=None,
        entropy=shannon_entropy(bits) if bits else 0.0,
        mean_proof_depth=_sustain_stats(formulas, world, model, cache),
    )


def run_coherence(config: ScenarioConfig) -> ScenarioReport:
    """Propagate the first world's resource multiset down the chain.

    At each hop the source world's energy pays the curvature surcharge
    (curvature cost at the target minus flat cost) for every coherent
    formula carried; formulas that no longer fit the remaining budget,
    or whose self-carry proof fails the source capacity, are rewritten
    to their decohered counterparts.  A sequent declared for the hop
    edge is proved first under the source world's capacity and
    curvature; if it fails, the hop decoheres everything.
    """
    _require_kind(config, "coherence")
    frame = config.frame.copy()
    order = chain_order(frame)
    if len(order) < 2:
        raise ScenarioError("coherence scenario needs a chain of at least two worlds")
    model = config.cost_model
    cache: dict = {}
    current = list(frame.world(order[0]).props.elements())
    rows = [_coherence_row(frame.world(order[0]), current, model, cache)]
    for src, dst in zip(order, order[1:]):
        source = frame.world(src)
        target = frame.world(dst)
        hop_ok = accessible(frame, src, dst)
        gate = _edge_sequent(config, src, dst)
        if hop_ok and gate is not None:
            hop_ok = prove(gate, source.lam, model, source.kappa).proved
        budget = source.energy
        spent = 0.0
        carried: list[Formula] = []
        for phi in current:
            if hop_ok and coherence(phi) == 1:
                surcharge = curvature_cost(phi, model, target.kappa) - base_cost(phi, model)
                if _self_carry(phi, source, model, cache).proved and spent + surcharge <= budget:
                    spent += surcharge
                    carried.append(phi)
                    continue
            carried.append(decohere(phi) if coherence(phi) == 1 else phi)
        current = carried
        rows.append(_coherence_row(target, current, model, cache))
    points = [(row.kappa, row.pi) for row in rows if row.pi > 0]
    fit = None
    if len(points) >= 2 and any(k != 0 for k, _ in points):
        fit = fit_exponential(points)
    return ScenarioReport("coherence", tuple(rows), fit, None, (), _resolved_seed(config))


def _quantum_names(props: Counter) -> list[str]:
    names = []
    for phi in props:
        if isinstance(phi, Bang) and isinstance(phi.inner, Atom) and phi.inner.name == "Quantum":
            if phi.inner.args:
                names.append(phi.inner.args[0])
    return names


def _measure_sequence(frame, src, dst, qubits, jitters, model):
    """Apply the measurements in order; returns (success, depth, reason)."""
    success = True
    max_depth = 0
    reason = None
    for qubit, jitter in zip(qubits, jitters):
        bound = frame.world(src).lam - jitter
        outcome = measure(frame, src, dst, qubit, f"o_{qubit}", model, depth_bound=bound)
        if outcome.valid:
            max_depth = max(max_depth, outcome.proof.depth)
        else:
            success = False
            if reason is None:
                if not accessible(frame, src, dst):
                    reason = "inaccessible"
                else:
                    reason = outcome.proof.failure_reason
    return success, max_depth, reason


def run_reciprocity_trial(config: ScenarioConfig, trial_index: int, master_seed: int):
    """One independent trial: both measurement orders on fresh copies."""
    ids = list(config.frame.worlds)
    first, second = ids[0], ids[1]
    qubits = _quantum_names(config.frame.world(first).props)
    rng = random.Random(derive_trial_seed(master_seed, trial_index))
    lam_first = config.frame.world(first).lam
    lam_second = config.frame.world(second).lam
    jitter_first = [rng.randint(0, int(config.noise * lam_first)) for _ in qubits]
    jitter_second = [rng.randint(0, int(config.noise * lam_second)) for _ in qubits]
    model = config.cost_model

    forward_frame = config.frame.copy()
    ok, depth, reason = _measure_sequence(forward_frame, first, second, qubits, jitter_first, model)
    forward = TrialRecord(trial_index, FORWARD, ok, depth, reason)

    reverse_frame = config.frame.copy()
    ok, depth, reason = _measure_sequence(
        reverse_frame, second, first, list(reversed(qubits)), jitter_second, model
    )
    reverse = TrialRecord(trial_index, REVERSE, ok, depth, reason)
    return forward, reverse


def run_reciprocity(config: ScenarioConfig) -> ScenarioReport:
    """Measure the shared quantum tokens in both orders, many trials.

    The forward direction measures from the first declared world, the
    reverse from the second, each on a fresh frame copy.  Required
    proof depth is perturbed per measurement by an integer jitter drawn
    uniformly from [0, noise * lambda] of the measuring world.
    """
    _require_kind(config, "reciprocity")
    ids = list(config.frame.worlds)
    if len(ids) != 2:
        raise ScenarioError(f"reciprocity scenario needs exactly two worlds, got {len(ids)}")
    first, second = ids
    if (first, second) not in config.frame.edges or (second, first) not in config.frame.edges:
        raise ScenarioError("reciprocity scenario needs one edge in each direction")
    qubits = _quantum_names(config.frame.world(first).props)
    if not qubits:
        raise ScenarioError(f"no !Quantum(...) tokens declared at {first!r}")
    for qubit in qubits:
        token = Bang(Atom("Quantum", (qubit,), True))
        if token not in config.frame.world(second).props:
            raise ScenarioError(f"!Quantum({qubit}) missing at {second!r}")

    master_seed = _resolved_seed(config)
    trials: list[TrialRecord] = []
    for index in range(config.trials):
        forward, reverse = run_reciprocity_trial(config, index, master_seed)
        trials.extend((forward, reverse))

    forward_records = [t for t in trials if t.direction == FORWARD]
    reverse_records = [t for t in trials if t.direction == REVERSE]
    table = ContingencyTable(
        a=sum(t.success for t in forward_records),
        b=sum(not t.success for t in forward_records),
        c=sum(t.success for t in reverse_records),
        d=sum(not t.success for t in reverse_records),
    )
    fisher_p = fisher_exact_two_tailed(table)

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
                access_fraction=sum(bits) / len(bits) if bits else 0.0,
                entropy=shannon_entropy(bits) if bits else 0.0,
                mean_proof_depth=sum(depths) / len(depths) if depths else 0.0,
            )
        )
    return ScenarioReport(
        "reciprocity", tuple(rows), None, fisher_p, tuple(trials), master_seed
    )


def run_accessibility(config: ScenarioConfig) -> ScenarioReport:
    """Track observer access to the first world's proposition along the
    chain.  The proposition survives at a world while the cumulative
    curvature-scaled carry cost stays within that world's inference
    capacity; past that point it is decohered.  Access is the fraction
    of observers for which the proposition is visible and provable."""
    _require_kind(config, "accessibility")
    frame = config.frame.copy()
    order = chain_order(frame)
    if len(order) < 2:
        raise ScenarioError("accessibility scenario needs a chain of at least two worlds")
    if not config.observers:
        raise ScenarioError("accessibility scenario needs at least one observer")
    model = config.cost_model
    start_props = frame.world(order[0]).props
    if not start_props:
        raise ScenarioError(f"no proposition declared at {order[0]!r}")
    phi = next(iter(start_props))

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
        if alive or position == 0:
            sustain = prove(Sequent((phi,), (phi,)), world.lam, model, world.kappa)
            mean_depth = float(sustain.depth) if sustain.proved else 0.0
        else:
            mean_depth = 0.0
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


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    runner = {
        "coherence": run_coherence,
        "reciprocity": run_reciprocity,
        "accessibility": run_accessibility,
    }[config.scenario_kind]
    return runner(config)


# Report column of each record field written under another name.
_COLUMN = {"trial_index": "trial"}


def _table(cls, records) -> tuple[list[str], list[tuple]]:
    """The report columns of dataclass ``cls`` and each record's values."""
    names = [f.name for f in fields(cls)]
    values = attrgetter(*names)
    return [_COLUMN.get(name, name) for name in names], [values(r) for r in records]


def _dicts(cls, records) -> list[dict]:
    columns, rows = _table(cls, records)
    return [dict(zip(columns, row)) for row in rows]


def report_to_json(report: ScenarioReport) -> str:
    doc = {
        "kind": report.kind,
        "seed": report.seed,
        "per_world": _dicts(WorldRow, report.per_world),
        "fit": None if report.fit is None else _dicts(FitResult, [report.fit])[0],
        "fisher_p": report.fisher_p,
        "trials": _dicts(TrialRecord, report.trials),
    }
    return json.dumps(doc, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _csv(cls, records) -> str:
    columns, rows = _table(cls, records)
    return "\n".join([",".join(columns), *(",".join(map(_csv_cell, row)) for row in rows)]) + "\n"


def per_world_csv(report: ScenarioReport) -> str:
    return _csv(WorldRow, report.per_world)


def trials_csv(report: ScenarioReport) -> str:
    return _csv(TrialRecord, report.trials)


def write_report(report: ScenarioReport, out_dir, fmt: str = "both") -> list[Path]:
    """Write report files under out_dir; returns the paths written."""
    if fmt not in ("json", "csv", "both"):
        raise ValueError(f"format must be json, csv, or both, got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        path = out / "report.json"
        path.write_text(report_to_json(report), encoding="utf-8")
        written.append(path)
    if fmt in ("csv", "both"):
        for name, payload in (("per_world.csv", per_world_csv(report)), ("trials.csv", trials_csv(report))):
            path = out / name
            path.write_text(payload, encoding="utf-8")
            written.append(path)
    return written
