"""Cost-annotated linear sequent calculus with bounded-depth search.

Judgments are two-sided sequents over formula multisets.  Weakening and
contraction are available only under the bang modality, so plain
resources are consumed exactly once.  Proof search is a complete
backward search over a fixed rule order with a hard depth bound, and a
measurement axiom lets a coherent Quantum atom collapse to a Classical
one.  World-indexed transitions apply a proved sequent to frame state,
consuming the antecedent irreversibly and spending edge energy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .formula import (
    Atom,
    Bang,
    CostModel,
    Formula,
    Lolli,
    Tensor,
    With,
    curvature_cost,
    format_formula,
)
from .frame import Frame, accessible

DEPTH_EXCEEDED = "depth_exceeded"
NO_RULE_APPLIES = "no_rule_applies"
COST_INVALID = "cost_invalid"

# memo sentinel for refutations that hold at any depth
_NO_DEPTH_LIMIT = 1 << 30

# Reserved atom names for the measurement-collapse axiom.
QUANTUM = "Quantum"
CLASSICAL = "Classical"


class PreconditionError(Exception):
    """Raised when an operation's stated precondition does not hold."""


@dataclass(frozen=True)
class Sequent:
    """Judgment gamma |- delta over formula multisets.

    Both sides preserve order and multiplicity as given; proof search
    treats them as multisets.
    """

    gamma: tuple[Formula, ...]
    delta: tuple[Formula, ...]

    def __init__(self, gamma, delta) -> None:
        object.__setattr__(self, "gamma", tuple(gamma))
        object.__setattr__(self, "delta", tuple(delta))


@dataclass(frozen=True)
class ProofTree:
    """One derivation node: rule name, concluded sequent, premises."""

    rule: str
    sequent: Sequent
    premises: tuple["ProofTree", ...] = ()

    @property
    def height(self) -> int:
        return 1 + max((p.height for p in self.premises), default=0)


@dataclass(frozen=True)
class ProofResult:
    proved: bool
    depth: int
    tree: ProofTree | None
    consumed_cost: float
    failure_reason: str | None

    def __post_init__(self) -> None:
        if self.proved != (self.tree is not None):
            raise ValueError("tree must be present iff proved")


@dataclass(frozen=True)
class TransitionOutcome:
    valid: bool
    proof: ProofResult
    source_remainder: Counter
    target_additions: Counter
    energy_spent: float


def cost_valid(seq: Sequent, model: CostModel, kappa: float) -> bool:
    """True iff the curvature-scaled cost of gamma covers delta's.

    Both sides scale by the same (1 + alpha*kappa) factor, so the
    verdict is independent of kappa.
    """
    spent = sum(curvature_cost(phi, model, kappa) for phi in seq.gamma)
    produced = sum(curvature_cost(phi, model, kappa) for phi in seq.delta)
    return spent >= produced


# Formulas are hash-consed, so an object id stands for a whole tree.
# A search meets only subformulas of the root sequent, which the caller
# holds, so no id is freed and reused while its memo entries live.
def _canon(side: tuple[Formula, ...]) -> tuple:
    return tuple(sorted(map(id, side)))


def _splits(side: tuple[Formula, ...]):
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


def _applications(gamma, delta):
    """Yield (rule, premises) in the fixed rule order."""
    # tensor-right: split gamma and the remaining delta across premises
    for i, phi in enumerate(delta):
        if isinstance(phi, Tensor):
            rest = delta[:i] + delta[i + 1 :]
            for g1, g2 in _splits(gamma):
                for d1, d2 in _splits(rest):
                    yield "tensor-right", ((g1, d1 + (phi.left,)), (g2, d2 + (phi.right,)))
    # tensor-left
    for i, phi in enumerate(gamma):
        if isinstance(phi, Tensor):
            expanded = gamma[:i] + (phi.left, phi.right) + gamma[i + 1 :]
            yield "tensor-left", ((expanded, delta),)
    # lolli-right
    for i, phi in enumerate(delta):
        if isinstance(phi, Lolli):
            rest = delta[:i] + delta[i + 1 :]
            yield "lolli-right", ((gamma + (phi.left,), rest + (phi.right,)),)
    # lolli-left: one premise proves the antecedent, the other spends the result
    for i, phi in enumerate(gamma):
        if isinstance(phi, Lolli):
            rest = gamma[:i] + gamma[i + 1 :]
            for g1, g2 in _splits(rest):
                for d1, d2 in _splits(delta):
                    yield "lolli-left", ((g1, d1 + (phi.left,)), (g2 + (phi.right,), d2))
    # with-right: additive, same context in both premises
    for i, phi in enumerate(delta):
        if isinstance(phi, With):
            rest = delta[:i] + delta[i + 1 :]
            yield "with-right", ((gamma, rest + (phi.left,)), (gamma, rest + (phi.right,)))
    # with-left, either projection
    for i, phi in enumerate(gamma):
        if isinstance(phi, With):
            yield "with-left-1", ((gamma[:i] + (phi.left,) + gamma[i + 1 :], delta),)
    for i, phi in enumerate(gamma):
        if isinstance(phi, With):
            yield "with-left-2", ((gamma[:i] + (phi.right,) + gamma[i + 1 :], delta),)
    # exponentials
    for i, phi in enumerate(gamma):
        if isinstance(phi, Bang):
            yield "dereliction", ((gamma[:i] + (phi.inner,) + gamma[i + 1 :], delta),)
    for phi in gamma:
        if isinstance(phi, Bang):
            yield "contraction", ((gamma + (phi,), delta),)
    for i, phi in enumerate(gamma):
        if isinstance(phi, Bang):
            yield "weakening", ((gamma[:i] + gamma[i + 1 :], delta),)
    if (
        len(delta) == 1
        and isinstance(delta[0], Bang)
        and all(isinstance(phi, Bang) for phi in gamma)
    ):
        yield "promotion", ((gamma, (delta[0].inner,)),)


def _is_axiom(gamma, delta) -> str | None:
    if len(gamma) == 1 and len(delta) == 1:
        left, right = gamma[0], delta[0]
        if isinstance(left, Atom) and isinstance(right, Atom):
            if left == right:
                return "identity"
            if left.name == QUANTUM and right.name == CLASSICAL:
                return "collapse"
    return None


# shared balance bucket for the measurement axiom: one Quantum on the
# left cancels one Classical on the right, whatever their arguments
_QC_BUCKET = ("QC",)


def _refuted_outright(gamma, delta) -> bool:
    """Depth-independent refutation by signed occurrence accounting.

    Axioms consume one left and one right occurrence of the same
    bucket, and every rule preserves signed bucket totals, except that
    with-projections and bang-weakening may drop occurrences and
    bang-contraction may replay them.  A provable sequent therefore
    needs each bucket's fixed total to be repairable by slack of the
    right direction.  A diamond that is not discardable (not under a
    bang or a with-branch) eventually surfaces at top level where no
    rule and no axiom can consume it, which refutes the goal outright.
    """
    fixed: Counter = Counter()
    can_increase: set = set()
    can_decrease: set = set()
    fatal = False

    def walk(phi, sign: int, slack: bool) -> None:
        nonlocal fatal
        if fatal:
            return
        if isinstance(phi, Atom):
            bucket = _QC_BUCKET if phi.name in (QUANTUM, CLASSICAL) else phi
            if slack:
                (can_increase if sign > 0 else can_decrease).add(bucket)
            else:
                fixed[bucket] += sign
        elif isinstance(phi, Tensor):
            walk(phi.left, sign, slack)
            walk(phi.right, sign, slack)
        elif isinstance(phi, Lolli):
            walk(phi.left, -sign, slack)
            walk(phi.right, sign, slack)
        elif isinstance(phi, With):
            walk(phi.left, sign, True)
            walk(phi.right, sign, True)
        elif isinstance(phi, Bang):
            walk(phi.inner, sign, True)
        elif not slack:
            fatal = True

    for phi in gamma:
        walk(phi, -1, False)
    for phi in delta:
        walk(phi, +1, False)
    if fatal:
        return True
    for bucket, total in fixed.items():
        if total > 0 and bucket not in can_decrease:
            return True
        if total < 0 and bucket not in can_increase:
            return True
    return False


def _search(gamma, delta, remaining, memo):
    """Depth-first backward search; returns (tree or None, died_to_depth).

    Failures memoize monotonically: a goal refuted with ``remaining``
    levels is refuted with fewer.  Each contraction spends a depth
    level, so the depth bound also bounds contraction.
    """
    if remaining <= 0:
        return None, True
    key = (_canon(gamma), _canon(delta))
    hit = memo.get(key)
    if hit is not None and hit[0] >= remaining:
        return None, hit[1]
    axiom = _is_axiom(gamma, delta)
    if axiom is not None:
        return ProofTree(axiom, Sequent(gamma, delta)), False
    if _refuted_outright(gamma, delta):
        memo[key] = (_NO_DEPTH_LIMIT, False)
        return None, False
    died = False
    for rule, premises in _applications(gamma, delta):
        subtrees = []
        for g, d in premises:
            tree, sub_died = _search(g, d, remaining - 1, memo)
            if tree is None:
                died = died or sub_died
                break
            subtrees.append(tree)
        else:
            return ProofTree(rule, Sequent(gamma, delta), tuple(subtrees)), False
    memo[key] = (remaining, died)
    return None, died


def prove(seq: Sequent, depth_bound: int, model: CostModel, kappa: float) -> ProofResult:
    """Backward proof search bounded by ``depth_bound`` (tree height).

    The cost-validity inequality is checked once at the root; failure is
    reported as a value, never an exception.  The first proof found in
    the fixed rule order is returned.
    """
    if not (isinstance(depth_bound, int) and depth_bound >= 1):
        raise ValueError(f"depth_bound must be an integer >= 1, got {depth_bound!r}")
    if not cost_valid(seq, model, kappa):
        return ProofResult(False, 0, None, 0.0, COST_INVALID)
    tree, died = _search(seq.gamma, seq.delta, depth_bound, {})
    if tree is not None:
        consumed = sum(curvature_cost(phi, model, kappa) for phi in seq.gamma)
        return ProofResult(True, tree.height, tree, consumed, None)
    return ProofResult(False, 0, None, 0.0, DEPTH_EXCEEDED if died else NO_RULE_APPLIES)


def format_sequent(seq: Sequent) -> str:
    left = ", ".join(format_formula(phi) for phi in seq.gamma)
    right = ", ".join(format_formula(phi) for phi in seq.delta)
    return f"{left} |- {right}"


def render_proof(tree: ProofTree) -> str:
    """Indented plain-text rendering: rule name, sequent, children."""
    lines: list[str] = []

    def walk(node: ProofTree, depth: int) -> None:
        lines.append(f"{'  ' * depth}{node.rule}  {format_sequent(node.sequent)}")
        for premise in node.premises:
            walk(premise, depth + 1)

    walk(tree, 0)
    return "\n".join(lines)


def transition(
    frame: Frame,
    w: str,
    w_prime: str,
    seq: Sequent,
    model: CostModel,
    depth_bound: int | None = None,
) -> TransitionOutcome:
    """Apply gamma |- delta across the edge w -> w'.

    Valid iff the edge is accessible, the sequent is cost-valid at the
    source world's curvature, and it is provable within the source
    world's inference capacity (or ``depth_bound`` when given).  On
    success gamma leaves w, delta lands in w', and the edge deltaE is
    deducted from w's energy.  Failure changes nothing.
    """
    source = frame.world(w)
    frame.world(w_prime)
    need = Counter(seq.gamma)
    if need - source.props:
        missing = ", ".join(format_formula(phi) for phi in (need - source.props))
        raise PreconditionError(f"gamma not contained in props({w}): missing {missing}")
    bound = source.lam if depth_bound is None else depth_bound
    if bound >= 1:
        proof = prove(seq, bound, model, source.kappa)
    else:
        proof = ProofResult(False, 0, None, 0.0, DEPTH_EXCEEDED)
    if accessible(frame, w, w_prime) and proof.proved:
        spent = frame.edges[(w, w_prime)]
        source.props = source.props - need
        source.energy -= spent
        target = frame.world(w_prime)
        target.props = target.props + Counter(seq.delta)
        return TransitionOutcome(True, proof, Counter(source.props), Counter(seq.delta), spent)
    return TransitionOutcome(False, proof, Counter(source.props), Counter(), 0.0)


def measure(
    frame: Frame,
    w: str,
    w_prime: str,
    psi: str,
    outcome: str,
    model: CostModel,
    depth_bound: int | None = None,
) -> TransitionOutcome:
    """Collapse !Quantum(psi) at w into Classical(outcome) at w'.

    The banged quantum token must still be present; measuring the same
    psi twice raises, enforcing logical irreversibility.
    """
    token = Bang(Atom(QUANTUM, (psi,), True))
    if frame.world(w).props[token] < 1:
        raise PreconditionError(f"!Quantum({psi}) absent at {w}: already measured or never present")
    seq = Sequent((token,), (Atom(CLASSICAL, (outcome,), False),))
    return transition(frame, w, w_prime, seq, model, depth_bound=depth_bound)
