"""Scenario drivers: coherence degradation along a chain, measurement
reciprocity between two worlds, and observer accessibility decline.

Every run is deterministic given (config, seed).  Per-trial randomness
is derived from the trial index with splitmix64, so trials are
independent of execution order.  Reports serialize to JSON and to two
CSV tables (per-world metrics and per-trial records).
"""

from __future__ import annotations

import math
import os
import random
import stat
from collections import Counter
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import NamedTuple

from .calculus import Sequent, measure, measurement, prove, proved_once, quantum_token  # bench/tracer.py wraps sim.prove
from .dsl import ScenarioConfig
from .formula import Atom, Bang, Formula, base_cost, coherence, curvature_cost, decohere
from .frame import Frame, _hop_distances, _out_edges, accessible
from .metrics import ContingencyTable, FitResult, fisher_exact_two_tailed, fit_exponential, persistence_score, shannon_entropy
from .observer import observer_valuation, truth_at  # bench/tracer.py wraps sim.observer_valuation

FORWARD = "forward"
REVERSE = "reverse"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class ScenarioError(Exception):
    """Config does not satisfy the requirements of the requested scenario."""


class TrialRecord(NamedTuple):
    trial_index: int
    direction: str
    success: bool
    proof_depth: int
    failure_reason: str | None


class WorldRow(NamedTuple):
    world: str
    kappa: float
    pi: float
    access_fraction: float | None
    entropy: float | None
    mean_proof_depth: float


class ScenarioReport(NamedTuple):
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
    if len(starts) != 1 or any(count > 1 for count in indegree.values()):
        raise ScenarioError("frame is not a single forward chain")
    order = [starts[0]]
    while order[-1] in succ:  # indegrees are at most 1 and the start's is 0: no world comes twice
        order.append(succ[order[-1]])
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


def _self_carry(phi, world, model, proofs):
    """The proof of phi |- phi under the world's capacity."""
    return proved_once(Sequent((phi,), (phi,)), world.lam, model, proofs)


def _row(world, props, bits, depths) -> WorldRow:
    """``world``'s row: pi over ``props``, the access fraction and entropy
    of the 0/1 ``bits``, and the mean of ``depths`` (0.0 for none)."""
    return WorldRow(
        world=world.id,
        kappa=world.kappa,
        pi=persistence_score(props),
        access_fraction=sum(bits) / len(bits) if bits else None,
        entropy=shannon_entropy(bits) if bits else 0.0,
        mean_proof_depth=sum(depths) / len(depths) if depths else 0.0,
    )


def _coherence_row(world, formulas, model, proofs) -> WorldRow:
    """A row whose bits are the formulas' coherence flags, so it has no
    access fraction; its depths are the coherent formulas' self-carry
    proofs that succeed."""
    bits = [coherence(phi) for phi in formulas]
    carries = [_self_carry(phi, world, model, proofs) for phi, bit in zip(formulas, bits) if bit]
    return _row(world, formulas, bits, [r.depth for r in carries if r.proved])._replace(access_fraction=None)


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
    frame = config.frame
    order = chain_order(frame)
    if len(order) < 2:
        raise ScenarioError("coherence scenario needs a chain of at least two worlds")
    model = config.cost_model
    proofs: dict = {}
    current = list(frame.world(order[0]).props.elements())
    rows = [_coherence_row(frame.world(order[0]), current, model, proofs)]
    for src, dst in zip(order, order[1:]):
        source = frame.world(src)
        target = frame.world(dst)
        hop_ok = accessible(frame, src, dst)
        gate = _edge_sequent(config, src, dst)
        if hop_ok and gate is not None:
            hop_ok = proved_once(gate, source.lam, model, proofs).proved
        budget = source.energy
        spent = 0.0
        scale = 1.0 + model.alpha * target.kappa  # as curvature_cost scales
        carried: list[Formula] = []
        for phi in current:
            if hop_ok and coherence(phi) == 1:
                # a hop whose scale rounds to exactly 1 is flat, and an infinite cost less itself would be NaN
                surcharge = curvature_cost(phi, model, target.kappa) - base_cost(phi, model) if scale != 1.0 else 0.0
                if _self_carry(phi, source, model, proofs).proved and spent + surcharge <= budget:
                    spent += surcharge
                    carried.append(phi)
                    continue
            carried.append(decohere(phi) if coherence(phi) == 1 else phi)
        current = carried
        rows.append(_coherence_row(target, current, model, proofs))
    try:
        fit = fit_exponential([(row.kappa, row.pi) for row in rows if row.pi > 0])
    except ValueError:  # under two points, every kappa 0, or their squares overflow
        fit = None
    return ScenarioReport("coherence", tuple(rows), fit, None, (), _resolved_seed(config))


def _quantum_names(props: Counter) -> list[str]:
    """The psi of each token in props that is exactly !Quantum(psi)."""
    names = []
    for phi in props:
        if isinstance(phi, Bang) and isinstance(phi.inner, Atom) and phi.inner.args:
            if phi == quantum_token(phi.inner.args[0]):
                names.append(phi.inner.args[0])
    return names


def _outcome(qubit: str) -> str:
    """The Classical outcome a measurement of ``qubit`` lands."""
    return f"o_{qubit}"


class _Classes(dict):
    """One qubit's class ids in one leg, keyed by clamped jitter j: the index of the (proved, depth,
    reason) at bound lambda - j among those the qubit has met, kept from the jitter's first draw."""

    def __init__(self, seq: Sequent, lam: int, model, proofs: dict) -> None:
        self.cell, self.triples = (seq, lam, model, proofs), {}
        self[0]  # lambda first: its proof answers each lower bound down to its height

    def __missing__(self, j: int) -> int:
        seq, lam, model, proofs = self.cell
        p = proved_once(seq, lam - j, model, proofs)
        self[j] = found = self.triples.setdefault((p.proved, p.depth, p.failure_reason), len(self.triples))
        return found


def _draw(getrandbits, k: int, n: int, lam: int, classes) -> tuple[int, ...]:
    """A leg's class vector: for each of ``classes`` in turn, draw a jitter j as CPython 3.10-3.13's
    ``randint(0, n - 1)`` of the Random owning ``getrandbits`` does (k = n.bit_length()), and look up min(j, lam)."""
    key = []
    for ids in classes:
        while (r := getrandbits(k)) >= n:
            pass
        key.append(ids[r if r < lam else lam])
    return tuple(key)


def _measure_sequence(frame, src, dst, qubits, jitters, model, proofs):
    """Apply the measurements in order through the memo ``proofs``; returns (success, depth, reason)."""
    max_depth = 0
    reason = None
    for qubit, jitter in zip(qubits, jitters):
        bound = frame.world(src).lam - jitter
        outcome = measure(frame, src, dst, qubit, _outcome(qubit), model, bound, proofs)
        if outcome.valid:
            max_depth = max(max_depth, outcome.proof.depth)
        elif reason is None:
            reason = outcome.proof.failure_reason if accessible(frame, src, dst) else "inaccessible"
    return reason is None, max_depth, reason


def run_reciprocity(config: ScenarioConfig) -> ScenarioReport:
    """Measure the shared quantum tokens in both orders, many trials.

    The forward direction measures from the first declared world, the
    reverse from the second, each on a fresh frame copy.  Required
    proof depth is perturbed per measurement by an integer jitter drawn
    uniformly from [0, noise * lambda] of the measuring world; each
    trial draws every jitter of the first world before any of the
    second.  Each leg proves each qubit at its lambda first, whose proof
    answers each lower bound down to its height (``proved_once``), and at
    another bound only once a trial draws a jitter that leaves it.  A leg
    starts from a fresh copy of ``config.frame`` and each of its steps
    reads only the earlier ones and its jitter's class, the index of its
    proof's (proved, depth, reason) among those its qubit has met.  So a
    leg measures each class vector once per run, and a trial's record
    shares the field objects of its class vector's row.
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
        if quantum_token(qubit) not in config.frame.world(second).props:
            raise ScenarioError(f"!Quantum({qubit}) missing at {second!r}")

    master_seed = _resolved_seed(config)
    frame, model = config.frame, config.cost_model
    proofs: dict = {}
    legs: list[tuple] = []
    for direction, src, dst, order in ((FORWARD, first, second, qubits), (REVERSE, second, first, qubits[::-1])):
        lam, n = frame.world(src).lam, int(config.noise * frame.world(src).lam) + 1
        classes = [_Classes(measurement(q, _outcome(q)), lam, model, proofs) for q in order]
        legs.append((direction, src, dst, order, lam, n.bit_length(), n, classes, {}))  # {}: class vector -> row
    trials: list[TrialRecord] = []
    rng = random.Random(0)  # a constant seed reads no os.urandom; each trial reseeds it
    seed, getrandbits = super(random.Random, rng).seed, rng.getrandbits  # the C seed: random.py's adds only checks
    for index in range(config.trials):
        seed(derive_trial_seed(master_seed, index))
        for direction, src, dst, order, lam, k, n, classes, known in legs:
            if (row := known.get(key := _draw(getrandbits, k, n, lam, classes))) is None:
                # every jitter of a class meets the same proof: measure at each class's first
                jitters = [next(j for j, c in table.items() if c == cls) for table, cls in zip(classes, key)]
                row = known[key] = (direction, *_measure_sequence(frame.copy(), src, dst, order, jitters, model, proofs))
            trials.append(tuple.__new__(TrialRecord, (index,) + row))

    # trials alternate forward, reverse; each direction gives two table
    # cells (successes, failures) and the row of its measuring world
    cells: list[int] = []
    rows = []
    for offset, (_, wid, *_) in enumerate(legs):
        world = config.frame.world(wid)
        records = trials[offset::2]
        bits = [1 if t.success else 0 for t in records]
        cells += (sum(bits), len(bits) - sum(bits))
        rows.append(_row(world, world.props, bits, [t.proof_depth for t in records if t.success]))
    fisher_p = fisher_exact_two_tailed(ContingencyTable(*cells))
    return ScenarioReport("reciprocity", tuple(rows), None, fisher_p, tuple(trials), master_seed)


def run_accessibility(config: ScenarioConfig) -> ScenarioReport:
    """Track observer access to the first world's proposition along the
    chain.  The proposition survives at a world while the cumulative
    curvature-scaled carry cost stays within that world's inference
    capacity; past that point it is decohered.  Access is the fraction
    of observers for which the proposition is visible and provable.
    Visibility comes from one BFS per observer home, paired once per run
    with each observer's horizon; truth at a world is computed once per
    row and shared by every observer that sees it."""
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
    # The run changes only props, never energies or edges, so one out-edge
    # index serves every home, and its hop distances hold for the whole run.
    out = _out_edges(frame)
    distances = {home: _hop_distances(frame, home, out) for home in dict.fromkeys(o.home for o in config.observers)}
    sights = [(distances[o.home], o.horizon) for o in config.observers]

    proofs, verdicts = {}, {}
    rows = []
    cumulative = 0.0
    carried, alive = phi, True  # phi is decohered once, where it dies
    for position, wid in enumerate(order):
        world = frame.world(wid)
        if position > 0:
            cumulative += curvature_cost(phi, model, world.kappa)
            if alive and cumulative > world.lam:
                alive, carried = False, decohere(phi)
            world.props[carried] += 1
        seen = [wid in dist and dist[wid] <= horizon for dist, horizon in sights]
        truth = truth_at(frame, wid, phi, model, verdicts) if any(seen) else 0
        bits = [truth if sees else 0 for sees in seen]
        depths = [_self_carry(phi, world, model, proofs).depth] if alive else []
        rows.append(_row(world, world.props, bits, depths))
    return ScenarioReport(
        "accessibility", tuple(rows), None, None, (), _resolved_seed(config)
    )


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    runners = {"coherence": run_coherence, "reciprocity": run_reciprocity, "accessibility": run_accessibility}
    if (runner := runners.get(config.scenario_kind)) is None:
        raise ScenarioError(f"unknown scenario kind {config.scenario_kind!r}, expected one of {', '.join(map(repr, runners))}")
    return runner(config)


# Report column of each record field written under another name.
_COLUMN = {"trial_index": "trial"}


def _columns(cls) -> list[str]:
    """The report columns of record class ``cls``; a record is the tuple of its values."""
    return [_COLUMN.get(name, name) for name in cls._fields]


def _json_cell(value) -> str:
    """``value`` as ``json.dumps`` writes it, except that a non-finite
    float is ``null``, so every report is strict JSON."""
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    return _json_str(value) if isinstance(value, str) else (float if isinstance(value, float) else int).__repr__(value)


def _json_objects(cls, records, indent: str) -> list[str]:
    """Each record as the object ``json.dumps(..., indent=2)`` writes at ``indent``."""
    template = "{" + ",".join(f"\n{indent}  {_json_str(c)}: %s" for c in _columns(cls)) + f"\n{indent}}}"
    if cls is TrialRecord:
        return _trial_texts(records, _json_cell, template)
    return [template % tuple(map(_json_cell, r)) for r in records]


def _trial_texts(trials, cell, template: str) -> list[str]:
    """``template`` filled with each trial's cells, an ``int`` index as ``str`` prints it and the text after it once
    per distinct objects there: the same objects print alike, equal values may not (True, 1, 1.0; 0.0, -0.0)."""
    head, tail = template.split("%s", 1)
    tails: dict = {}
    texts = []
    for index, direction, success, depth, reason in trials:
        if (text := tails.get(key := (id(direction), id(success), id(depth), id(reason)))) is None:
            text = tails[key] = tail % (cell(direction), cell(success), cell(depth), cell(reason))
        texts.append(f"{head}{index}{text}" if type(index) is int else head + cell(index) + text)
    return texts


def _json_list(cls, records) -> str:
    """The records as the list value of a top-level key."""
    items = _json_objects(cls, records, "    ")
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def report_to_json(report: ScenarioReport) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for the report's document, in
    the same bytes, built a row at a time without the pure-Python encoder."""
    fit = "null" if report.fit is None else _json_objects(FitResult, [report.fit], "  ")[0]
    return (
        f'{{\n  "kind": {_json_cell(report.kind)},\n  "seed": {_json_cell(report.seed)},\n'
        f'  "per_world": {_json_list(WorldRow, report.per_world)},\n'
        f'  "fit": {fit},\n  "fisher_p": {_json_cell(report.fisher_p)},\n'
        f'  "trials": {_json_list(TrialRecord, report.trials)}\n}}\n'
    )


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return float.__repr__(value) if isinstance(value, float) else str(value)


def _csv(cls, rows) -> str:
    return "\n".join([",".join(_columns(cls)), *rows]) + "\n"


def per_world_csv(report: ScenarioReport) -> str:
    return _csv(WorldRow, (",".join(map(_csv_cell, r)) for r in report.per_world))


def trials_csv(report: ScenarioReport) -> str:
    return _csv(TrialRecord, _trial_texts(report.trials, _csv_cell, ",".join(["%s"] * len(TrialRecord._fields))))


def _write_in_place(path: Path, text: str) -> None:
    """``path.write_text(text, encoding="utf-8")``, but over the old bytes
    and then cut to length: truncating a file to zero first makes ext4
    start writeback on close, which costs more than the write.  The bytes
    (newlines as text mode writes them) go out by ``os.write`` calls."""
    data = text.replace("\n", os.linesep).encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):  # a device or a pipe cannot be cut
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_report(report: ScenarioReport, out_dir, fmt: str = "both") -> list[Path]:
    """Write report files under out_dir; returns the paths written."""
    if fmt not in ("json", "csv", "both"):
        raise ValueError(f"format must be json, csv, or both, got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        path = out / "report.json"
        _write_in_place(path, report_to_json(report))
        written.append(path)
    if fmt in ("csv", "both"):
        for name, payload in (("per_world.csv", per_world_csv(report)), ("trials.csv", trials_csv(report))):
            path = out / name
            _write_in_place(path, payload)
            written.append(path)
    return written
