"""Independent reference implementations used only as test oracles.

Deliberately built on different machinery than the package: multisets
are Counters, splits come from per-count products, derivations are
enumerated exhaustively rather than searched in rule order, a proof
checker checks returned trees rule by rule over Counters, and the
Fisher oracle uses exact rational arithmetic.  The exceptions are
earlier versions of the package's own code, kept so that a faster one
can be checked against them result for result: the reference prover
search; the reference lexer, the scenario lexer as it was when it lexed
one line at a time; the reference observer truth, which proves every
antecedent sub-multiset; the reference report writer, which renders
``report.json`` with ``json.dumps``; the reference ``&`` projection
check, which rebuilds every projection through the constructors; and
the recursive proof renderer.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from fractions import Fraction
from math import comb, isfinite

from eclc.calculus import (
    _NO_DEPTH_LIMIT,
    COST_INVALID,
    DEPTH_EXCEEDED,
    MAX_ANTECEDENT,
    NO_RULE_APPLIES,
    ProofResult,
    ProofTree,
    Sequent,
    _canon,
    _copies_refuted,
    _is_axiom,
    _refuted,
    _splits,
    _tally,
    cost_valid,
    format_sequent,
    prove,
)
from eclc.dsl import ParseError
from eclc.formula import Atom, Bang, CostModel, Diamond, Lolli, Tensor, With


def _ms_key(ms: Counter) -> frozenset:
    return frozenset((f, c) for f, c in ms.items() if c > 0)


def counter_splits(ms: Counter):
    """Every (first, second) multiset split, one per distinct pair."""
    items = [(f, c) for f, c in ms.items() if c > 0]
    keys = [f for f, _ in items]
    for take in itertools.product(*(range(c + 1) for _, c in items)):
        first = Counter({f: t for f, t in zip(keys, take) if t})
        second = ms - first
        yield first, second


def _single(ms: Counter):
    (formula, count), = [(f, c) for f, c in ms.items() if c > 0]
    assert count == 1
    return formula


def occurrence_profile(gamma, delta):
    """(fixed totals, upward-slack buckets, downward-slack buckets,
    has undiscardable diamond), computed iteratively.

    Quantum/Classical atoms share one bucket because a measurement
    axiom cancels one of each across the turnstile.
    """
    fixed = Counter()
    up, down = set(), set()
    undiscardable_diamond = False
    stack = [(f, -1, False) for f in Counter(gamma).elements()]
    stack += [(f, +1, False) for f in Counter(delta).elements()]
    while stack:
        phi, sign, droppable = stack.pop()
        if isinstance(phi, Atom):
            key = "QC" if phi.name in ("Quantum", "Classical") else phi
            if droppable:
                (up if sign > 0 else down).add(key)
            else:
                fixed[key] += sign
        elif isinstance(phi, Tensor):
            stack += [(phi.left, sign, droppable), (phi.right, sign, droppable)]
        elif isinstance(phi, Lolli):
            stack += [(phi.left, -sign, droppable), (phi.right, sign, droppable)]
        elif isinstance(phi, With):
            stack += [(phi.left, sign, True), (phi.right, sign, True)]
        elif isinstance(phi, Bang):
            stack.append((phi.inner, sign, True))
        elif not droppable:
            undiscardable_diamond = True
    return fixed, up, down, undiscardable_diamond


def tally_refuted(gamma, delta) -> bool:
    """Depth-independent refutation by the occurrence tally alone: an
    undiscardable diamond, or a fixed occurrence imbalance with no slack
    in the repairing direction.  The reference for the prover's tallies
    kept per node (``calculus._tally`` and ``_refuted``)."""
    fixed, up, down, dead = occurrence_profile(gamma, delta)
    if dead:
        return True
    for key, total in fixed.items():
        if (total > 0 and key not in down) or (total < 0 and key not in up):
            return True
    return False


QUANTUM = "Quantum"
CLASSICAL = "Classical"


# The prover's search as it was before callers probed the memo and memo
# keys were built once per split part: each node builds its own key and
# checks the memo on entry.  ``_search`` and ``_applications`` are kept
# verbatim, on the package's unchanged helpers, as the reference that
# the faster search must match result for result, trees included.
def _applications(gamma, delta):
    """Yield (rule, premises) in the fixed rule order."""
    # tensor-right: split gamma and the remaining delta across premises
    for i, phi in enumerate(delta):
        if isinstance(phi, Tensor):
            rest_splits = _splits(delta[:i] + delta[i + 1 :])
            for g1, g2 in _splits(gamma):
                for d1, d2 in rest_splits:
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
            delta_splits = _splits(delta)
            for g1, g2 in _splits(gamma[:i] + gamma[i + 1 :]):
                for d1, d2 in delta_splits:
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



def _search(gamma, delta, remaining, memo):
    """Depth-first backward search; returns (tree or None, died_to_depth).

    Failures memoize monotonically: a goal refuted with ``remaining``
    levels is refuted with fewer.  Each contraction spends a depth
    level, so the depth bound also bounds contraction.  At the last
    level only an axiom can close the goal: the rule loop stops at the
    first application, which dies to depth, so no premises are searched.
    """
    key = (_canon(gamma), _canon(delta))
    hit = memo.get(key)
    if hit is not None and hit[0] >= remaining:
        return None, hit[1]
    axiom = _is_axiom(gamma, delta)
    if axiom is not None:
        return ProofTree(axiom, Sequent(gamma, delta)), False
    if _refuted(_tally(gamma), _tally(delta)):
        memo[key] = (_NO_DEPTH_LIMIT, False)
        return None, False
    died = False
    for rule, premises in _applications(gamma, delta):
        if remaining == 1:
            died = True
            break
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


def reference_prove(seq: Sequent, depth_bound: int, model: CostModel, kappa: float) -> ProofResult:
    """Backward proof search bounded by ``depth_bound`` (tree height).

    The cost-validity inequality is checked once at the root; failure is
    reported as a value, never an exception.  The first proof found in
    the fixed rule order is returned.
    """
    if not (isinstance(depth_bound, int) and depth_bound >= 1):
        raise ValueError(f"depth_bound must be an integer >= 1, got {depth_bound!r}")
    if not cost_valid(seq, model, kappa):
        return ProofResult(False, 0, None, COST_INVALID)
    tree, died = _search(seq.gamma, seq.delta, depth_bound, {})
    if tree is not None:
        return ProofResult(True, tree.height, tree, None)
    return ProofResult(False, 0, None, DEPTH_EXCEEDED if died else NO_RULE_APPLIES)



def provable(gamma, delta, depth: int, memo=None, use_filter: bool = True) -> bool:
    """True iff some derivation of height <= depth concludes the sequent.

    ``use_filter=False`` disables the shortcut refutation and runs the
    raw enumeration, for validating the shortcut itself.
    """
    g = Counter(gamma)
    d = Counter(delta)
    if memo is None:
        memo = {}

    def go(g: Counter, d: Counter, remaining: int) -> bool:
        # provability is monotone in remaining: proved with r levels
        # stays proved with more, refuted with r stays refuted with less
        if remaining < 1:
            return False
        key = (_ms_key(g), _ms_key(d))
        proved_at, refuted_at = memo.get(key, (None, 0))
        if proved_at is not None and remaining >= proved_at:
            return True
        if remaining <= refuted_at:
            return False
        result = decide(g, d, remaining)
        if result:
            memo[key] = (remaining if proved_at is None else min(proved_at, remaining), refuted_at)
        else:
            memo[key] = (proved_at, max(refuted_at, remaining))
        return result

    def decide(g: Counter, d: Counter, remaining: int) -> bool:
        ng, nd = sum(g.values()), sum(d.values())
        if ng == 1 and nd == 1:
            left, right = _single(g), _single(d)
            if isinstance(left, Atom) and isinstance(right, Atom):
                if left == right:
                    return True
                if left.name == "Quantum" and right.name == "Classical":
                    return True
        if use_filter and tally_refuted(g, d):
            return False
        r = remaining - 1
        for f in list(d):
            if isinstance(f, Tensor):
                rest = d - Counter([f])
                for g1, g2 in counter_splits(g):
                    for d1, d2 in counter_splits(rest):
                        if go(g1, d1 + Counter([f.left]), r) and go(g2, d2 + Counter([f.right]), r):
                            return True
            if isinstance(f, Lolli):
                if go(g + Counter([f.left]), (d - Counter([f])) + Counter([f.right]), r):
                    return True
            if isinstance(f, With):
                rest = d - Counter([f])
                if go(g, rest + Counter([f.left]), r) and go(g, rest + Counter([f.right]), r):
                    return True
        for f in list(g):
            if isinstance(f, Tensor):
                if go((g - Counter([f])) + Counter([f.left, f.right]), d, r):
                    return True
            if isinstance(f, Lolli):
                rest = g - Counter([f])
                for g1, g2 in counter_splits(rest):
                    for d1, d2 in counter_splits(d):
                        if go(g1, d1 + Counter([f.left]), r) and go(g2 + Counter([f.right]), d2, r):
                            return True
            if isinstance(f, With):
                base = g - Counter([f])
                if go(base + Counter([f.left]), d, r) or go(base + Counter([f.right]), d, r):
                    return True
            if isinstance(f, Bang):
                if go((g - Counter([f])) + Counter([f.inner]), d, r):  # dereliction
                    return True
                if go(g + Counter([f]), d, r):  # contraction
                    return True
                if go(g - Counter([f]), d, r):  # weakening
                    return True
        if nd == 1:
            goal = _single(d)
            if isinstance(goal, Bang) and all(isinstance(f, Bang) for f in g):
                if go(g, Counter([goal.inner]), r):  # promotion
                    return True
        return False

    return go(g, d, depth)


def minimal_proof_depth(gamma, delta, max_depth: int) -> int | None:
    memo = {}
    for depth in range(1, max_depth + 1):
        if provable(gamma, delta, depth, memo=memo):
            return depth
    return None


def _axiom(g: Counter, d: Counter) -> str | None:
    if sum(g.values()) == 1 == sum(d.values()):
        (left,), (right,) = g, d
        if isinstance(left, Atom) and isinstance(right, Atom):
            if left == right:
                return "identity"
            if left.name == QUANTUM and right.name == CLASSICAL:
                return "collapse"
    return None


def _one(phi) -> Counter:
    return Counter([phi])


# each one-premise left rule: its principal connective, and what the
# premise's gamma holds in place of the principal formula
_LEFT_RULES = {
    "tensor-left": (Tensor, lambda f: (f.left, f.right)),
    "with-left-1": (With, lambda f: (f.left,)),
    "with-left-2": (With, lambda f: (f.right,)),
    "dereliction": (Bang, lambda f: (f.inner,)),
    "contraction": (Bang, lambda f: (f, f)),
    "weakening": (Bang, lambda f: ()),
}


def _instance(rule: str, g: Counter, d: Counter, premises: list) -> bool:
    """True iff ``rule`` concludes g |- d from ``premises``, (gamma, delta)
    Counter pairs, for some principal formula."""
    if not premises:
        return _axiom(g, d) == rule
    if len(premises) == 1:
        ((pg, pd),) = premises
        if rule in _LEFT_RULES:
            kind, replacement = _LEFT_RULES[rule]
            return pd == d and any(pg == g - _one(f) + Counter(replacement(f)) for f in g if isinstance(f, kind))
        if rule == "lolli-right":
            return any(pg == g + _one(f.left) and pd == d - _one(f) + _one(f.right) for f in d if isinstance(f, Lolli))
        if rule == "promotion":
            (goal,) = d if sum(d.values()) == 1 else (None,)
            return isinstance(goal, Bang) and all(isinstance(f, Bang) for f in g) and (pg, pd) == (g, _one(goal.inner))
        return False
    (g1, d1), (g2, d2) = premises
    if rule == "tensor-right":
        return g1 + g2 == g and any(
            d1[f.left] and d2[f.right] and d1 - _one(f.left) + (d2 - _one(f.right)) + _one(f) == d
            for f in d
            if isinstance(f, Tensor)
        )
    if rule == "lolli-left":
        return any(
            d1[f.left] and g2[f.right] and g1 + (g2 - _one(f.right)) + _one(f) == g and d1 - _one(f.left) + d2 == d
            for f in g
            if isinstance(f, Lolli)
        )
    if rule == "with-right":
        return g1 == g == g2 and any(
            d1 == d - _one(f) + _one(f.left) and d2 == d - _one(f) + _one(f.right) for f in d if isinstance(f, With)
        )
    return False


def check_proof(tree, bound: int) -> None:
    """Raise AssertionError unless ``tree`` derives its sequent within
    ``bound`` levels: every node an instance of its named rule over
    multisets, with the premise shapes of the package's rules, every leaf
    an axiom, and the height at most ``bound``.  Reads only the trees'
    ``rule``, ``sequent`` and ``premises`` and the sequents' sides."""

    def walk(node) -> int:
        g, d = Counter(node.sequent.gamma), Counter(node.sequent.delta)
        if not node.premises and _axiom(g, d) is None:
            raise AssertionError(f"leaf {node.rule} is not an axiom: {node.sequent}")
        premises = [(Counter(p.sequent.gamma), Counter(p.sequent.delta)) for p in node.premises]
        if not _instance(node.rule, g, d, premises):
            raise AssertionError(f"not an instance of {node.rule}: {node.sequent}")
        return 1 + max(map(walk, node.premises), default=0)

    if (height := walk(tree)) > bound:
        raise AssertionError(f"height {height} exceeds the bound {bound}")


def _with_polarities(phi, sign: int, out: list) -> list:
    """The polarity of each ``&`` in ``phi`` outside ``!`` and diamonds, children
    first: ``sign`` (-1 in gamma, +1 in delta), flipped under a lolli's left side."""
    if isinstance(phi, (Tensor, With, Lolli)):
        _with_polarities(phi.left, -sign if isinstance(phi, Lolli) else sign, out)
        _with_polarities(phi.right, sign, out)
    if isinstance(phi, With):
        out.append(sign)
    return out


def _project(phi, bits):
    """``phi`` with each ``&`` that ``_with_polarities`` lists replaced by the branch the next of ``bits`` picks (1: right)."""
    if isinstance(phi, With):
        return (_project(phi.left, bits), _project(phi.right, bits))[next(bits)]
    if isinstance(phi, (Tensor, Lolli)):
        return type(phi)(_project(phi.left, bits), _project(phi.right, bits))
    return phi


def signed_profile(gamma, delta):
    """(net totals by atom, atoms that slack can raise, atoms that it can
    lower, has a diamond outside slack), computed iteratively by each
    occurrence's polarity: -1 in gamma, +1 in delta, flipped under a
    lolli's left side.  ``&`` and a negative ``!`` are slack; a positive
    ``!`` is not, as only promotion removes it, leaving its inner formula
    once.  Quantum and Classical atoms count apart."""
    net: Counter = Counter()
    up, down, fatal = set(), set(), False
    stack = [(phi, -1, False) for phi in gamma] + [(phi, +1, False) for phi in delta]
    while stack:
        phi, sign, slack = stack.pop()
        if isinstance(phi, Atom):
            if slack:
                (up if sign > 0 else down).add(phi)
            else:
                net[phi] += sign
        elif isinstance(phi, Tensor):
            stack += [(phi.left, sign, slack), (phi.right, sign, slack)]
        elif isinstance(phi, Lolli):
            stack += [(phi.left, -sign, slack), (phi.right, sign, slack)]
        elif isinstance(phi, With):
            stack += [(phi.left, sign, True), (phi.right, sign, True)]
        elif isinstance(phi, Bang):
            stack.append((phi.inner, sign, slack or sign < 0))
        elif not slack:
            fatal = True
    return net, up, down, fatal


def signed_refuted(gamma, delta) -> bool:
    """Refutation by axiom links: every axiom links a negative atom to a
    positive one, the same atom or, by collapse, a negative Quantum to a
    positive Classical.  So a provable goal has each atom's net total
    repairable by slack, except that a Quantum may run negative and a
    Classical positive, and the collapses out of the Quantums (a range,
    from what no slack absorbs to all, or any count under a negative
    Quantum slack) meet the collapses into the Classicals (likewise)."""
    net, up, down, fatal = signed_profile(gamma, delta)
    if fatal:
        return True
    quantum, classical = (lambda atom: atom.name == QUANTUM), (lambda atom: atom.name == CLASSICAL)
    for atom, total in net.items():
        if total > 0 and atom not in down and not classical(atom):
            return True
        if total < 0 and atom not in up and not quantum(atom):
            return True
    out_low = sum(-t for a, t in net.items() if quantum(a) and t < 0 and a not in up)
    out_high = sum(-t for a, t in net.items() if quantum(a) and t < 0) if not any(map(quantum, down)) else float("inf")
    in_low = sum(t for a, t in net.items() if classical(a) and t > 0 and a not in down)
    in_high = sum(t for a, t in net.items() if classical(a) and t > 0) if not any(map(classical, up)) else float("inf")
    return max(out_low, in_low) > min(out_high, in_high)


def reference_blocked(gamma, delta) -> bool:
    """The barrier: gamma holds no lolli outside diamonds, and delta is
    empty, or one ``!`` while some member of gamma cannot be cleared to
    banged parts by left rules (a ``!`` clears, a tensor when both parts
    do, a ``&`` when either branch does)."""

    def has_lolli(phi) -> bool:
        stack = [phi]
        while stack:
            phi = stack.pop()
            if isinstance(phi, Lolli):
                return True
            if isinstance(phi, (Tensor, With)):
                stack += [phi.left, phi.right]
            elif isinstance(phi, Bang):
                stack.append(phi.inner)
        return False

    def clears(phi) -> bool:
        if isinstance(phi, Tensor):
            return clears(phi.left) and clears(phi.right)
        if isinstance(phi, With):
            return clears(phi.left) or clears(phi.right)
        return isinstance(phi, Bang)

    if any(map(has_lolli, gamma)):
        return False
    return not delta or len(delta) == 1 and isinstance(delta[0], Bang) and not all(map(clears, gamma))


def reference_hopeless(gamma, delta) -> bool:
    """``calculus._hopeless`` rebuilt from the references: the counted check,
    the barrier and the signed refutation, then, with every projected member
    rebuilt through the constructors for each mask and for 8 ``&``s at most,
    some choice at the positive ones that leaves every choice at the
    negative ones refuted by the signed check."""
    if _copies_refuted(gamma, delta) or reference_blocked(gamma, delta) or signed_refuted(gamma, delta):
        return True
    signs = [s for sign, side in ((-1, gamma), (1, delta)) for phi in side for s in _with_polarities(phi, sign, [])]
    if not signs or len(signs) > 8:
        return False
    full, positive = 1 << len(signs), sum(1 << i for i, sign in enumerate(signs) if sign > 0)

    def refuted(mask):
        bits = iter([mask >> i & 1 for i in range(len(signs))])  # gamma's &s, then delta's
        return signed_refuted(*(tuple(_project(phi, bits) for phi in side) for side in (gamma, delta)))

    return any(all(refuted(p | m) for m in range(full) if not m & positive) for p in range(full) if not p & ~positive)


def reference_render_proof(tree) -> str:
    """``calculus.render_proof`` as it was, recursing once per tree level."""
    lines: list[str] = []

    def walk(node, depth: int) -> None:
        lines.append(f"{'  ' * depth}{node.rule}  {format_sequent(node.sequent)}")
        for premise in node.premises:
            walk(premise, depth + 1)

    walk(tree, 0)
    return "\n".join(lines)


def checking(prove):
    """``prove`` that runs ``check_proof`` on every tree it returns, against
    the bound it was asked for."""

    def checked(seq, depth_bound, model, kappa):
        result = prove(seq, depth_bound, model, kappa)
        if result.proved:
            check_proof(result.tree, depth_bound)
        return result

    return checked


def flat_cost(phi, atom_costs: dict, default: float) -> float:
    """Independent recursion mirroring the documented cost rules."""
    if isinstance(phi, Atom):
        return atom_costs.get(phi.name, default)
    if isinstance(phi, (Tensor, Lolli)):
        return flat_cost(phi.left, atom_costs, default) + flat_cost(phi.right, atom_costs, default)
    if isinstance(phi, With):
        return max(flat_cost(phi.left, atom_costs, default), flat_cost(phi.right, atom_costs, default))
    if isinstance(phi, (Bang, Diamond)):
        return flat_cost(phi.inner, atom_costs, default)
    raise TypeError(phi)


def cost_gate(gamma, delta, atom_costs: dict, default: float) -> bool:
    return sum(flat_cost(f, atom_costs, default) for f in gamma) >= sum(
        flat_cost(f, atom_costs, default) for f in delta
    )


def fisher_two_tailed_fraction(a: int, b: int, c: int, d: int) -> Fraction:
    """Exact two-tailed Fisher p as a rational number."""
    row1 = a + b
    col1 = a + c
    total = a + b + c + d
    lo = max(0, row1 - (total - col1))
    hi = min(row1, col1)

    def prob(x: int) -> Fraction:
        return Fraction(comb(col1, x) * comb(total - col1, row1 - x), comb(total, row1))

    observed = prob(a)
    return sum((prob(x) for x in range(lo, hi + 1) if prob(x) <= observed), Fraction(0))


def brute_force_hop_distance(frame, src: str, dst: str) -> int | None:
    """Shortest feasible path by exhaustive simple-path enumeration."""
    if src == dst:
        return 0
    best = None

    def feasible(a: str, b: str) -> bool:
        delta = frame.edges.get((a, b))
        return delta is not None and delta <= frame.worlds[a].energy

    def walk(here: str, visited: set, length: int) -> None:
        nonlocal best
        if best is not None and length >= best:
            return
        for (a, b) in frame.edges:
            if a != here or b in visited or not feasible(a, b):
                continue
            if b == dst:
                if best is None or length + 1 < best:
                    best = length + 1
                continue
            walk(b, visited | {b}, length + 1)

    walk(src, {src}, 0)
    return best


def brute_force_path_costs(frame, src: str, dst: str) -> list[tuple[int, float]]:
    """(hops, summed deltaE) of every feasible simple path src -> dst,
    summed from src in path order; [(0, 0.0)] when src == dst."""
    if src == dst:
        return [(0, 0.0)]
    costs = []

    def walk(here: str, visited: set, hops: int, spent: float) -> None:
        for (a, b), delta in frame.edges.items():
            if a != here or b in visited or delta > frame.worlds[a].energy:
                continue
            if b == dst:
                costs.append((hops + 1, spent + delta))
            else:
                walk(b, visited | {b}, hops + 1, spent + delta)

    walk(src, {src}, 0, 0.0)
    return costs


# Blanks, then one token: a comment or the end of the line (no group),
# a number, an identifier, punctuation, or any other character (an error).
_LINE_LEX = re.compile(
    r"([ \t\r]*)(?:#.*|\Z"
    r"|([0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|(->|-o|\|-|[{}()=,:*&!~<>⊗⊸])"
    r"|(.))",
    re.DOTALL,
)
_LINE_ALIASES = {"⊗": "*", "⊸": "-o"}


def reference_tokenize_line(text: str, line_no: int) -> list[tuple[str, str, int, int]]:
    """The tokens of one line, without its break, as (kind, text, line,
    column), closed by ("end", "", line, column).  The end token sits on
    the last token's last source character (a ⊸ is one character, though
    its token text is ``-o``), else on the line's last character, else at
    column 1.  A stray character raises ParseError at its column."""
    tokens: list[tuple[str, str, int, int]] = []
    col = 1
    last_col = 0
    for blanks, number, ident, punct, other in _LINE_LEX.findall(text):
        col += len(blanks)
        if ident:
            tokens.append(("ident", ident, line_no, col))
        elif punct:
            word = _LINE_ALIASES.get(punct, punct)
            tokens.append((word, word, line_no, col))
        elif number:
            tokens.append(("number", number, line_no, col))
        elif other:
            raise ParseError(line_no, col, f"unexpected character {other!r}")
        else:
            break
        col += len(ident or punct or number)
        last_col = col - 1
    tokens.append(("end", "", line_no, last_col if tokens else max(1, len(text))))
    return tokens


def reference_truth_at(frame, w: str, phi, model) -> int:
    """``observer.truth_at`` with one ``prove`` call per antecedent
    sub-multiset of at most ``MAX_ANTECEDENT`` props, none skipped."""
    world = frame.world(w)
    if phi in world.props:
        return 1
    for size in range(1, MAX_ANTECEDENT + 1):
        for combo in itertools.combinations_with_replacement(world.props, size):
            if any(combo.count(psi) > world.props[psi] for psi in combo):
                continue
            if prove(Sequent(combo, (phi,)), world.lam, model, world.kappa).proved:
                return 1
    return 0


def reference_report_json(report) -> str:
    """``report.json`` through ``json.dumps(doc, indent=2)``, with every
    non-finite float written as ``None``."""

    def cell(value):
        return None if isinstance(value, float) and not isfinite(value) else value

    def rows(records):
        return [
            {("trial" if name == "trial_index" else name): cell(getattr(r, name)) for name in r._fields}
            for r in records
        ]

    doc = {
        "kind": cell(report.kind),
        "seed": cell(report.seed),
        "per_world": rows(report.per_world),
        "fit": None if report.fit is None else rows([report.fit])[0],
        "fisher_p": cell(report.fisher_p),
        "trials": rows(report.trials),
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_csv(cls, records) -> str:
    """A report CSV table, one field at a time: a header of ``cls``'s
    columns, then a line per record, every line ending in a newline.
    Cells are not quoted: a cell is empty for None, ``true`` or ``false``
    for a bool, the repr of a float and the str of anything else."""
    lines = [",".join("trial" if name == "trial_index" else name for name in cls._fields)]
    for record in records:
        cells = []
        for name in cls._fields:
            value = getattr(record, name)
            if value is None:
                cells.append("")
            elif value is True or value is False:
                cells.append(str(value).lower())
            else:
                cells.append(float.__repr__(value) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)
