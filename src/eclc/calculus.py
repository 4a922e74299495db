"""Cost-annotated linear sequent calculus with bounded-depth search.

Judgments are two-sided sequents over formula multisets.  Weakening and
contraction are available only under the bang modality, so plain
resources are consumed exactly once.  Proof search is a complete
backward search over a fixed rule order with a hard depth bound, and a
measurement axiom lets a coherent Quantum atom collapse to a Classical
one.  An occurrence tally refutes sequents and picks antecedents that balance
a goal (``_balanced``).  World-indexed transitions apply a proved sequent to
frame state, consuming the antecedent irreversibly and spending edge energy.
"""

from __future__ import annotations

from collections import Counter
from math import fsum, inf
from typing import NamedTuple

from .formula import (
    Atom,
    Bang,
    CostModel,
    Formula,
    Lolli,
    Tensor,
    With,
    _Checked,
    _check_count,
    _check_real,
    base_cost,
    curvature_cost,  # bench/tracer.py wraps calculus.curvature_cost
    format_formula,
)
from .frame import MAX_LAMBDA, Frame, accessible

DEPTH_EXCEEDED = "depth_exceeded"
NO_RULE_APPLIES = "no_rule_applies"
COST_INVALID = "cost_invalid"
SEARCH_BUDGET_EXCEEDED = "search_budget_exceeded"
MAX_SEARCH_WORK = 1_000_000  # len(gamma) + len(delta) per entry past the axiom check, 1 per application tried, len(side) per split
MAX_ANTECEDENT = 3  # formulas per antecedent multiset that _balanced yields, so valuations stay decidable

# memo sentinel for refutations that hold at any depth
_NO_DEPTH_LIMIT = 1 << 30

# Reserved atom names for the measurement-collapse axiom.
QUANTUM = "Quantum"
CLASSICAL = "Classical"


class PreconditionError(Exception):
    """Raised when an operation's stated precondition does not hold."""


class _SearchBudgetExceeded(Exception):
    """Raised inside a search that spends more than MAX_SEARCH_WORK units of work."""


class _Sequent(NamedTuple):
    gamma: tuple[Formula, ...]
    delta: tuple[Formula, ...]


class Sequent(_Checked, _Sequent):
    """Judgment gamma |- delta over formula multisets.

    Both sides preserve order and multiplicity as given; proof search
    treats them as multisets.
    """

    __slots__ = ()

    def __new__(cls, gamma, delta) -> Sequent:
        return tuple.__new__(cls, (tuple(gamma), tuple(delta)))


class ProofTree(NamedTuple):
    """One derivation node: rule name, concluded sequent, premises."""

    rule: str
    sequent: Sequent
    premises: tuple["ProofTree", ...] = ()

    @property
    def height(self) -> int:  # level by level, so a tall tree stays under the recursion limit
        level, height = [self], 0
        while level:
            level, height = [p for node in level for p in node.premises], height + 1
        return height


class _ProofResult(NamedTuple):
    proved: bool
    depth: int
    tree: ProofTree | None
    failure_reason: str | None


class ProofResult(_Checked, _ProofResult):
    __slots__ = ()

    def __new__(cls, proved: bool, depth: int, tree: ProofTree | None, failure_reason: str | None) -> ProofResult:
        if proved != (tree is not None):
            raise ValueError("tree must be present iff proved")
        return tuple.__new__(cls, (proved, depth, tree, failure_reason))


class TransitionOutcome(NamedTuple):
    valid: bool
    proof: ProofResult
    energy_spent: float


def _side_cost(costs) -> float:
    """A side's per-formula ``costs`` summed exactly, rounded once (``fsum``), or ``inf`` past the largest float, as none is negative."""
    try:
        return fsum(costs)
    except OverflowError:
        return inf


def cost_valid(seq: Sequent, model: CostModel, kappa: float) -> bool:
    """True iff the curvature-scaled cost of gamma covers delta's.

    Both sides scale by the same positive (1 + alpha*kappa) factor, so the unscaled sums
    decide it, and rounding cannot make the verdict depend on kappa; each sum is rounded
    once (``_side_cost``), so neither can a side's order.  A negative or non-finite kappa still raises,
    and then a model whose costs are all 0 passes without a walk: both sides cost 0.0.
    """
    _check_real(kappa, "kappa")
    if not model.default_cost and not any(model.atom_costs.values()):
        return True
    return _side_cost(base_cost(phi, model) for phi in seq.gamma) >= _side_cost(base_cost(phi, model) for phi in seq.delta)


# Formulas are hash-consed, so an object id stands for a whole tree.
# A search meets only subformulas of the root sequent, which the caller
# holds, so no id is freed and reused while its search state lives.
def _canon(side: tuple[Formula, ...]) -> tuple:
    return tuple(sorted(map(id, side)))


def _splits(side: tuple[Formula, ...]) -> list[tuple[tuple, tuple]]:
    """Every distinct two-way multiset split of ``side``, each once.

    Splits come in increasing order of the least bitmask over positions
    that selects the first part; that mask takes a formula's k copies
    from its k lowest positions.  Each part keeps position order.  A
    position joins the first part only where its previous copy already
    has, so each formula's count is enumerated, not each subset of its
    copies.  With all formulas distinct the masks are ``range(1 << n)``.
    """
    splits = [(0, (), ())]
    last_bit: dict[int, int] = {}
    for i, phi in enumerate(side):
        bit = 1 << i
        need = last_bit.get(id(phi), 0)
        last_bit[id(phi)] = bit
        one = (phi,)
        splits = [(mask, first, second + one) for mask, first, second in splits] + [
            (mask | bit, first + one, second) for mask, first, second in splits if mask & need == need
        ]
    return [(first, second) for _, first, second in splits]


def _new_tables():
    """One search's state: split lists, side tallies by canon, the memo, the work spent and proof-only mode."""
    return [{}, {}, {}, 0, False]


def _key(gamma, delta) -> tuple[tuple, tuple]:
    """The memo key of gamma |- delta: each side's canon."""
    return _canon(gamma), _canon(delta)


def _parts(tables, side, i, left, right):
    """The splits of ``side`` less position ``i`` (None: none) as parts [first + left,
    its canon, second + right, its canon], built once per search for ``len(side)`` units
    each; the second canon stays None until ``_second`` reads it, as most are never read.
    They are keyed by the side's ids in position order, since split order decides
    first-found trees, and by ``i``, whose connective decides what is added, or else ``left``."""
    key = (tuple(map(id, side)), left if i is None else i)
    if (parts := tables[0].get(key)) is None:
        rest = _splits(side if i is None else side[:i] + side[i + 1 :])
        tables[3] += len(side) * len(rest)
        if tables[3] > MAX_SEARCH_WORK:
            raise _SearchBudgetExceeded
        parts = tables[0][key] = [[f, _canon(f), s + right, None] for f1, s in rest for f in (f1 + left,)]
    return parts


def _second(part) -> tuple:
    """The canon of a part's second half (``_parts``), built on first use and kept in the part."""
    if part[3] is None:
        part[3] = _canon(part[2])
    return part[3]


def _applications(gamma, delta, key, tables):
    """Yield (rule, g1, d1, key1, pg, pd) in the fixed rule order.  A two-premise rule's
    second premise is pg[2] |- pd[2], keyed by their ``_second`` canons: pg and pd are split
    parts from ``tables`` (``_parts``), or parts made for with-right; both are None for a
    one-premise rule.  A rule reuses ``key``'s canon of a side it keeps: delta's in a
    one-premise left rule, gamma's in with-right and promotion.  One-premise left rules
    fire on first copies only: a later copy's premise is already memoized."""

    def on_gamma(rule, i, middle):
        g = gamma[:i] + middle + gamma[i + 1 :]
        return rule, g, delta, (_canon(g), key[1]), None, None

    # tensor-right: split gamma and the remaining delta across premises
    for i, phi in enumerate(delta):
        if isinstance(phi, Tensor):
            parts = _parts(tables, delta, i, (phi.left,), (phi.right,))
            for pg in _parts(tables, gamma, None, (), ()):
                for pd in parts:
                    yield "tensor-right", pg[0], pd[0], (pg[1], pd[1]), pg, pd
    # tensor-left
    for i, phi in enumerate(gamma):
        if isinstance(phi, Tensor) and gamma.index(phi) == i:
            yield on_gamma("tensor-left", i, (phi.left, phi.right))
    # lolli-right
    for i, phi in enumerate(delta):
        if isinstance(phi, Lolli):
            g, d = gamma + (phi.left,), delta[:i] + delta[i + 1 :] + (phi.right,)
            yield "lolli-right", g, d, _key(g, d), None, None
    # lolli-left: one premise proves the antecedent, the other spends the result
    for i, phi in enumerate(gamma):
        if isinstance(phi, Lolli):
            parts = _parts(tables, delta, None, (phi.left,), ())
            for pg in _parts(tables, gamma, i, (), (phi.right,)):
                for pd in parts:
                    yield "lolli-left", pg[0], pd[0], (pg[1], pd[1]), pg, pd
    # with-right: additive, same context in both premises
    for i, phi in enumerate(delta):
        if isinstance(phi, With):
            rest = delta[:i] + delta[i + 1 :]
            d1 = rest + (phi.left,)
            pd = [d1, _canon(d1), rest + (phi.right,), None]
            yield "with-right", gamma, d1, (key[0], pd[1]), (gamma, key[0], gamma, key[0]), pd
    # with-left, either projection
    withs = [(i, phi) for i, phi in enumerate(gamma) if isinstance(phi, With) and gamma.index(phi) == i]
    for i, phi in withs:
        yield on_gamma("with-left-1", i, (phi.left,))
    for i, phi in withs:
        yield on_gamma("with-left-2", i, (phi.right,))
    # exponentials
    bangs = [(i, phi) for i, phi in enumerate(gamma) if isinstance(phi, Bang) and gamma.index(phi) == i]
    for i, phi in bangs:
        yield on_gamma("dereliction", i, (phi.inner,))
    for _, phi in bangs:
        yield on_gamma("contraction", len(gamma), (phi,))
    for i, phi in bangs:
        yield on_gamma("weakening", i, ())
    if _promotes(gamma, delta):
        yield "promotion", gamma, (delta[0].inner,), (key[0], _canon((delta[0].inner,))), None, None


def _promotes(gamma, delta) -> bool:
    return len(delta) == 1 and isinstance(delta[0], Bang) and all(isinstance(phi, Bang) for phi in gamma)


def _applicable(gamma, delta) -> bool:
    """True iff ``_applications`` yields anything; builds none of it."""
    for phi in delta:
        if isinstance(phi, (Tensor, Lolli, With)):
            return True
    for phi in gamma:
        if isinstance(phi, (Tensor, Lolli, With, Bang)):
            return True
    return _promotes(gamma, delta)


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


def _tally(side) -> tuple:
    """``side``'s sign-blind bucket tally on the right of the turnstile, the sum of its members'
    (``_kept`` entry 2): ``(fatal, fixed totals, buckets that can go up, buckets that can go down)``.
    A fatal member's tally stands for a fatal side, and a one-member side's tally is its member's."""
    if len(side) == 1:
        return (kept := side[0]._kept) and kept[2] or _kept(side[0], 2)
    fixed: dict = {}
    ups = downs = frozenset()
    for phi in side:
        fatal, totals, up, down = (kept := phi._kept) and kept[2] or _kept(phi, 2)
        if fatal:
            return fatal, totals, up, down
        for bucket, total in totals.items():
            fixed[bucket] = fixed.get(bucket, 0) + total
        if up:
            ups = ups | up
        if down:
            downs = downs | down
    return False, fixed, ups, downs


def _refuted(gamma_tally, delta_tally) -> bool:
    """Depth-independent refutation of gamma |- delta from its sides' tallies: delta's
    as stored, gamma's with each fixed total negated and the two slack directions swapped,
    so a bucket that only gamma holds totals minus its count.  Sound: an axiom consumes one
    left and one right occurrence of a bucket, and every rule keeps signed totals, except
    that with-projections and weakening may drop occurrences and contraction replay them,
    so a provable sequent has each fixed total repairable by slack of the right direction.
    A diamond outside slack (under no bang or with-branch) surfaces where no rule or axiom
    consumes it, which refutes the goal."""
    gamma_fatal, spent, spent_up, spent_down = gamma_tally
    fatal, fixed, up, down = delta_tally
    if fatal or gamma_fatal:
        return True
    for bucket, total in fixed.items():
        total -= spent.get(bucket, 0)
        if total > 0 and bucket not in down and bucket not in spent_up:
            return True
        if total < 0 and bucket not in up and bucket not in spent_down:
            return True
    for bucket, total in spent.items():
        if bucket not in fixed:
            if total < 0 and bucket not in down and bucket not in spent_up:
                return True
            if total > 0 and bucket not in up and bucket not in spent_down:
                return True
    return False


def _balanced(props, phi):
    """Yield the sub-multisets of ``props`` with 1 to MAX_ANTECEDENT members that
    ``_refuted`` passes against ``phi``, level by level: the distinct props in order, each
    at most its count times.  The walk carries the net totals (goal less antecedent) and
    slack, passes a multiset where no bucket is off, and cuts where one is off that neither
    slack nor a prop from the current one on can repair, as all below are refuted."""
    fatal, want, up, down = _tally((phi,))  # a fatal goal or prop refutes every multiset it meets
    signed = [] if fatal else [(psi, count, sig) for psi, count in props.items() if not (sig := _tally((psi,)))[0]]
    lowers, raises = {}, {}  # bucket -> the last position of a prop that can lower (raise) its net
    for i, (_, _, (_, totals, ups, downs)) in enumerate(signed):
        for bucket, total in totals.items():
            if total:
                (lowers if total > 0 else raises)[bucket] = i
        lowers.update(dict.fromkeys(ups, i))
        raises.update(dict.fromkeys(downs, i))
    level = [((), want, down, up, 0)]  # the goal's down-slack lowers its net, its up-slack raises it
    while level:
        deeper = []
        for combo, net, can_lower, can_raise, start in level:
            for i in range(start, len(signed)):
                psi, count, (_, totals, ups, downs) = signed[i]
                net_i, passes = _spend(net, totals), True
                for bucket, total in net_i.items():
                    if total > 0 and bucket not in can_lower and bucket not in ups or total < 0 and bucket not in can_raise and bucket not in downs:
                        if (lowers if total > 0 else raises).get(bucket, -1) < i:
                            break
                        passes = False  # off, but a later prop can repair it
                else:
                    members = combo + (psi,)
                    if passes:
                        yield members
                    if len(members) < MAX_ANTECEDENT:
                        deeper.append((members, net_i, can_lower | ups, can_raise | downs, i + (members.count(psi) == count)))
        level = deeper


def _spend(net: dict, totals: dict) -> dict:  # one tally merge
    net = dict(net)
    for bucket, total in totals.items():
        net[bucket] = net.get(bucket, 0) - total
    return net


def _copies_refuted(gamma, delta) -> bool:
    """True iff no rational copy counts ``k_i`` solve ``fixed + sum(k_i * v_i) = 0`` (Kanovich 1995;
    fraction-free elimination), the counted half of ``_hopeless``, so no member is fatal.  A banged
    member, either side, whose inner tally has no slack (no ``&``, ``!`` or diamond) adds ``v_i``
    per copy; any other adds its fixed totals and frees its slack buckets."""
    fixed, free, vectors = Counter(), set(), []
    for sign, side in ((-1, gamma), (1, delta)):
        for phi in side:
            inner = _tally((phi.inner,)) if isinstance(phi, Bang) else None
            if inner is not None and not (inner[0] or inner[2] or inner[3]):
                vectors.append({bucket: sign * total for bucket, total in inner[1].items()})
                continue
            _, totals, up, down = _tally((phi,))
            (fixed.update if sign > 0 else fixed.subtract)(totals)
            free |= up | down
    rows = [[v.get(b, 0) for v in vectors] + [fixed.get(b, 0)] for b in set(fixed).union(*vectors) - free]
    for col in range(len(vectors)):
        if (pivot := next((row for row in rows if row[col]), None)) is not None:
            rows.remove(pivot)
            rows = [[x * pivot[col] - p * row[col] for x, p in zip(row, pivot)] for row in rows]
    return any(row[-1] for row in rows)


def _withs(phi) -> tuple:
    """``phi``'s ``&`` polarities in delta, outside ``!`` and diamonds, children first and flipped under a lolli's left
    side, and, for 8 at most, its projections by a mask whose bits pick those ``&``s' branches in that order (1: right);
    () if none.  Built from the children's and kept as ``_kept`` entry 5: a projection has no ``&`` outside ``!`` and
    diamonds, so it holds no ``&`` data back, and a node stays collectable."""
    if not isinstance(phi, (Tensor, Lolli, With)):
        return ()
    left, lefts = _kept(phi.left, 5) or ((), [phi.left])
    right, rights = _kept(phi.right, 5) or ((), [phi.right])
    if isinstance(phi, Lolli):
        left = tuple(-sign for sign in left)
    signs = left + right + ((1,) if isinstance(phi, With) else ())
    if len(signs) > 8:
        return signs, None
    if isinstance(phi, With):  # its own bit the highest: the left branch's at every mask of the lower bits, then the right's
        return signs, lefts * len(rights) + [p for p in rights for _ in lefts]
    return (signs, [type(phi)(p, q) for q in rights for p in lefts]) if signs else ()  # the left part's bits low


def _polar_walk(phi, sign: int, slack: bool, fixed: dict, up: set, down: set, blind: bool, zoned: bool) -> bool:
    """Tally ``phi``'s atom occurrences by polarity (Girard 1987) into ``fixed`` or, under slack, into the buckets that
    can go ``up`` or ``down``; True iff ``phi`` holds a diamond that is not under slack.  ``sign`` is -1 in gamma and +1
    in delta, flipped under a lolli's left side, and both branches of a ``&`` are slack.  Quantum and Classical atoms
    keep their own buckets (rule c, read by ``_signed_refuted``), and a positive ``!`` keeps the slack state it is in
    (rule b): only promotion removes it, and its premise holds the inner formula once.  Walked ``blind`` (the tally of
    ``_refuted``), every ``!`` is slack and every Quantum and Classical atom shares ``_QC_BUCKET``.  Walked ``zoned``
    (rule d), it leaves out each positive ``!``'s content: promotion alone surfaces it, where no unbanged formula is."""
    if isinstance(phi, Atom):
        bucket = _QC_BUCKET if blind and phi.name in (QUANTUM, CLASSICAL) else (phi.name, phi.args, phi.coherent)
        if slack:
            (up if sign > 0 else down).add(bucket)
        else:
            fixed[bucket] = fixed.get(bucket, 0) + sign
        return False
    if isinstance(phi, Tensor):
        return _polar_walk(phi.left, sign, slack, fixed, up, down, blind, zoned) or _polar_walk(phi.right, sign, slack, fixed, up, down, blind, zoned)
    if isinstance(phi, Lolli):
        return _polar_walk(phi.left, -sign, slack, fixed, up, down, blind, zoned) or _polar_walk(phi.right, sign, slack, fixed, up, down, blind, zoned)
    if isinstance(phi, With):
        return _polar_walk(phi.left, sign, True, fixed, up, down, blind, zoned) or _polar_walk(phi.right, sign, True, fixed, up, down, blind, zoned)
    if isinstance(phi, Bang):
        if zoned and sign > 0:
            return False
        return _polar_walk(phi.inner, sign, slack or blind or sign < 0, fixed, up, down, blind, zoned)
    return not slack


def _kept(phi, i: int):
    """Entry ``i`` of the one list kept on ``phi``, each built on first read, each but the last a ``_polar_walk``: its
    signed tally as a gamma (0) and as a delta member (1), its sign-blind tally (2), its zoned tally as a gamma (3) and
    as a delta member (4), and its ``_withs`` (5).  Buckets are atom fields and projections hold no ``&`` data, so the
    list holds no node that holds it back."""
    if (kept := phi._kept) is None:
        object.__setattr__(phi, "_kept", kept := [None] * 6)
    if kept[i] is None:
        if i < 5:
            fixed, up, down = {}, set(), set()
            kept[i] = (_polar_walk(phi, 1 if i % 3 else -1, False, fixed, up, down, i == 2, i > 2), fixed, frozenset(up), frozenset(down))
        else:
            kept[5] = _withs(phi)
    return kept[i]


def _signed_refuted(gamma, delta, zoned: int = 0) -> bool:
    """True iff the signed tallies (``_kept`` 0, 1), or with ``zoned`` 3 the zoned ones (3, 4), refute gamma |- delta.  An
    axiom links a negative atom to a positive one, the same atom or a negative Quantum to a positive Classical (collapse),
    so each net total is repairable by slack, but a Quantum may run negative and a Classical positive if the Quantums that
    must collapse fit the Classicals that may.  The signed tallies also need an occurrence of each polarity for a leaf."""
    net, up, down = Counter(), set(), set()
    for i, side in enumerate((gamma, delta)):
        for phi in side:
            fatal, fixed, ups, downs = _kept(phi, i + zoned)
            if fatal:
                return True
            net.update(fixed)
            up, down = up | ups, down | downs
    if not (net or zoned or up and down):
        return True
    out = into = out_room = into_room = 0  # negative Quantums that must (may) collapse, positive Classicals likewise
    for bucket, total in net.items():
        if bucket[0] == QUANTUM and total < 0:
            out, out_room = out - (0 if bucket in up else total), out_room - total
        elif bucket[0] == CLASSICAL and total > 0:
            into, into_room = into + (0 if bucket in down else total), into_room + total
        elif total > 0 and bucket not in down or total < 0 and bucket not in up:
            return True
    return out > into_room and all(b[0] != CLASSICAL for b in up) or into > out_room and all(b[0] != QUANTUM for b in down)


def _hopeless(gamma, delta) -> bool:
    """True iff no depth proves gamma |- delta, a goal that ``_refuted`` passes: its banged copies cannot balance
    (``_copies_refuted``), or some choice at its positive ``&``s (8 at most) leaves every choice at the negative ones
    refuted by the signed or the zoned tally (``_signed_refuted``; Andreoli 1992), as only with-right removes a positive
    ``&``, keeping the rest in each premise, and only with-left a negative one: a proof kept to those premises derives
    one projection per path.  A mask picks each member's projection from its ``_withs``.  Past 8 ``&``s only the goal
    is asked, so a goal stuck only through a ``&``, as ``A & B`` beside eight more ``&``s ``|- !A``, passes."""
    if _copies_refuted(gamma, delta):
        return True
    members = [(sign > 0, phi, _kept(phi, 5)) for sign, side in ((-1, gamma), (1, delta)) for phi in side]
    signs = [s if right else -s for right, _, withs in members if withs for s in withs[0]]
    if not signs or len(signs) > 8:  # else the projections decide: a goal so refuted refutes each one
        return _signed_refuted(gamma, delta) or _signed_refuted(gamma, delta, 3)
    full, positive = 1 << len(signs), sum(1 << i for i, sign in enumerate(signs) if sign > 0)

    def refuted(mask):  # gamma's &s in the low bits, then delta's
        sides = ([], [])
        for right, phi, withs in members:
            if withs:
                phi, mask = withs[1][mask & (len(withs[1]) - 1)], mask >> len(withs[0])
            sides[right].append(phi)
        return _signed_refuted(*sides) or _signed_refuted(*sides, 3)

    return any(all(refuted(p | m) for m in range(full) if not m & positive) for p in range(full) if not p & ~positive)


def _fails(gamma, delta, remaining, key, tables) -> bool | None:
    """The memoized died bit of a goal the tally refutes or, in proof-only mode, too wide for ``remaining`` levels; else None."""
    tallies = tables[1]
    if _refuted(
        tallies.get(key[0]) or tallies.setdefault(key[0], _tally(gamma)),
        tallies.get(key[1]) or tallies.setdefault(key[1], _tally(delta)),
    ):
        tables[2][key] = (_NO_DEPTH_LIMIT, False)
        return False
    if tables[4] and len(gamma) + len(delta) > 2 ** (remaining - 1) + 1:
        tables[2][key] = (remaining, True)
        return True
    return None


def _search(gamma, delta, remaining, key, tables, spine=False, root=False):
    """Depth-first backward search; returns (tree or None, died_to_depth).

    Entered on a memo miss only: the caller probes the memo in ``tables``, the
    one state ``prove`` makes per search (``_new_tables``), with each premise's
    key, a pair of canons (``_key``); a second premise's key is its parts' kept canons (``_second``).
    Failures memoize monotonically: a goal refuted with ``remaining`` levels is
    refuted with fewer.  Contraction spends a level, so the depth bound bounds it.
    At the last level only an axiom can close the goal: it dies to depth iff some
    rule applies.  Past MAX_SEARCH_WORK units it raises ``_SearchBudgetExceeded``.
    A death fixes the answer, and two goals stop at their first: the ``root``, if no
    depth proves it (``_hopeless``, asked then, once), and a goal with two levels left
    and more than three formulas, which has no height-2 proof (its premises would all be axioms).
    The second skips only level-1 premises, which any later probe recomputes alike; no other
    subgoal stops before proof-only mode, as that would leave part of its subtree out of the memo.
    The first death of a goal on the ``spine`` (the root, and the last premise of a spine goal's
    rule: its only one, or the second of tensor-right, lolli-left or with-right) turns that mode on
    (``tables[4]``): that goal now ends in a proof or a death, so its parent does, and so the root,
    whose result only a proof can change.  A goal the tally passes then fails at once past
    2**(remaining - 1) + 1 formulas, as no proof of that height concludes more (an axiom holds 2,
    a one-premise rule adds at most 1, tensor-right and lolli-left n1 + n2 - 1), and an application
    whose second premise fails so (``_fails``) or is memoized failed skips its first premise."""
    if len(gamma) == 1 == len(delta) and (axiom := _is_axiom(gamma, delta)) is not None:
        return ProofTree(axiom, Sequent(gamma, delta)), False
    tables[3] += len(gamma) + len(delta)
    if tables[3] > MAX_SEARCH_WORK:
        raise _SearchBudgetExceeded
    if (failed := _fails(gamma, delta, remaining, key, tables)) is not None:
        return None, failed
    memo = tables[2]
    died = remaining == 1 and _applicable(gamma, delta)
    for rule, g, d, k, pg, pd in _applications(gamma, delta, key, tables) if remaining > 1 else ():
        tables[3] += 1
        if tables[3] > MAX_SEARCH_WORK:
            raise _SearchBudgetExceeded
        subtrees = ()
        while True:
            hit = memo.get(k)
            if hit is not None and hit[0] >= remaining - 1:
                died = died or hit[1]
                break
            if tables[4] and pg is not None:  # a failed second premise makes the first one moot
                hit = memo.get(k2 := (_second(pg), _second(pd)))
                if hit is not None and hit[0] >= remaining - 1 or _fails(pg[2], pd[2], remaining - 1, k2, tables) is not None:
                    break
            tree, sub_died = _search(g, d, remaining - 1, k, tables, spine and pg is None)
            if tree is None:
                died = died or sub_died
                break
            subtrees += (tree,)
            if pg is None:
                return ProofTree(rule, Sequent(gamma, delta), subtrees), False
            g, d, k, pg = pg[2], pd[2], (_second(pg), _second(pd)), None
        if died and (remaining == 2 and len(gamma) + len(delta) > 3 or root and _hopeless(gamma, delta)):
            break
        if spine and died:
            root, tables[4] = False, True
    memo[key] = (remaining, died)
    return None, died


def prove(seq: Sequent, depth_bound: int, model: CostModel, kappa: float) -> ProofResult:
    """Backward proof search bounded by ``depth_bound`` (tree height).

    The cost gate, an axiom or a refutation settles the root where it can; only a
    root left open gets a search state (``_new_tables``), seeded with its side tallies.
    Its search stops at its first death if ``_hopeless`` says no depth proves it, and looks
    only for a proof once a goal on its last-premise spine has died (``_search``'s proof-only mode).
    Failure is a value, never an exception: past MAX_SEARCH_WORK units, at any bound up to
    ``MAX_LAMBDA`` (500), it is ``search_budget_exceeded``; a larger bound raises ``ValueError``.
    The first proof found in the fixed rule order is returned.  ``kappa`` is validated, never read.
    """
    _check_count(depth_bound, 1, "depth_bound")
    if depth_bound > MAX_LAMBDA:
        raise ValueError(f"depth_bound must be at most {MAX_LAMBDA}, got {depth_bound}")
    if not cost_valid(seq, model, kappa):
        return ProofResult(False, 0, None, COST_INVALID)
    tree, died = None, False
    if (axiom := _is_axiom(seq.gamma, seq.delta)) is not None:
        tree = ProofTree(axiom, seq)
    elif not _refuted(*(sides := (_tally(seq.gamma), _tally(seq.delta)))):
        tables = _new_tables()
        tables[1].update(zip(key := _key(seq.gamma, seq.delta), sides))
        try:
            tree, died = _search(seq.gamma, seq.delta, depth_bound, key, tables, True, True)
        except _SearchBudgetExceeded:
            return ProofResult(False, 0, None, SEARCH_BUDGET_EXCEEDED)
    if tree is not None:
        return ProofResult(True, tree.height, tree, None)
    return ProofResult(False, 0, None, DEPTH_EXCEEDED if died else NO_RULE_APPLIES)


def proved_once(seq: Sequent, bound: int, model: CostModel, proofs: dict) -> ProofResult:
    """``prove`` through a run's memo, which serves one cost model and takes no kappa,
    as no result reads it: each result keyed (seq, bound), and per seq the proof
    found at the largest bound b so far.  It answers every bound from its height
    up to b: each application tried before it has a premise unprovable within
    b - 1 levels, so within fewer, and its own premises fit.  A failure answers its
    own bound only, as its reason can rest on what the search met (a budget failure
    included).  A bound below 1 is ``depth_exceeded`` without a search."""
    if bound < 1:
        return ProofResult(False, 0, None, DEPTH_EXCEEDED)
    key = (seq, bound)
    if (result := proofs.get(key)) is None:
        top, best = proofs.get(seq, (0, None))
        if best is not None and best.depth <= bound <= top:
            return best
        result = proofs[key] = prove(seq, bound, model, 0.0)  # prove only checks kappa
        if result.proved and bound > top:
            proofs[seq] = bound, result
    return result


def format_sequent(seq: Sequent) -> str:
    left = ", ".join(format_formula(phi) for phi in seq.gamma)
    right = ", ".join(format_formula(phi) for phi in seq.delta)
    return f"{left} |- {right}"


def render_proof(tree: ProofTree) -> str:
    """Indented plain-text rendering: rule name, sequent, children.  It walks an
    explicit stack, so a tall tree stays under the recursion limit."""
    lines: list[str] = []
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append(f"{'  ' * depth}{node.rule}  {format_sequent(node.sequent)}")
        stack.extend((premise, depth + 1) for premise in reversed(node.premises))
    return "\n".join(lines)


def transition(
    frame: Frame,
    w: str,
    w_prime: str,
    seq: Sequent,
    model: CostModel,
    depth_bound: int | None = None,
    proofs: dict | None = None,
) -> TransitionOutcome:
    """Apply gamma |- delta across the edge w -> w'.

    Valid iff the edge is accessible, the sequent is cost-valid (unscaled
    sums decide, so no kappa is read), and it is provable within the
    source world's inference capacity (or ``depth_bound`` when given).
    On success gamma leaves w, delta lands in w', and the edge deltaE is
    deducted from w's energy; both worlds' props are updated in place.
    Failure changes nothing.  A run's memo ``proofs`` may supply the
    proof (``proved_once``), never the checks on the frame.
    """
    source = frame.world(w)
    target = frame.world(w_prime)
    need = Counter(seq.gamma)
    if missing := need - source.props:
        shown = ", ".join(format_formula(phi) for phi in missing)
        raise PreconditionError(f"gamma not contained in props({w}): missing {shown}")
    bound = source.lam if depth_bound is None else depth_bound
    proof = proved_once(seq, bound, model, {} if proofs is None else proofs)
    if accessible(frame, w, w_prime) and proof.proved:
        spent = frame.edges[(w, w_prime)]
        source.props -= need
        source.energy -= spent
        target.props.update(seq.delta)
        return TransitionOutcome(True, proof, spent)
    return TransitionOutcome(False, proof, 0.0)


def quantum_token(psi: str) -> Bang:
    """The banged coherent token !Quantum(psi) that a measurement collapses."""
    return Bang(Atom(QUANTUM, (psi,), True))


def measurement(psi: str, outcome: str) -> Sequent:
    """The sequent !Quantum(psi) |- Classical(outcome) that measuring psi proves."""
    return Sequent((quantum_token(psi),), (Atom(CLASSICAL, (outcome,), False),))


def measure(
    frame: Frame,
    w: str,
    w_prime: str,
    psi: str,
    outcome: str,
    model: CostModel,
    depth_bound: int | None = None,
    proofs: dict | None = None,
) -> TransitionOutcome:
    """Collapse !Quantum(psi) at w into Classical(outcome) at w'.

    The banged quantum token must still be present: ``transition``
    raises PreconditionError naming it otherwise, so measuring the same
    psi twice raises, memo or not, enforcing logical irreversibility.
    """
    return transition(frame, w, w_prime, measurement(psi, outcome), model, depth_bound, proofs)
