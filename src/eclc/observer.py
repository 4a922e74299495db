"""Observer-indexed valuations with epistemic horizons.

An observer sees a world within a bounded hop distance of its home over
accessibility-feasible edges; one BFS from the home gives every distance.
A proposition is true for an observer at a visible world when it is present
there or provable from at most MAX_ANTECEDENT of the world's propositions.
Neither depends on who asks: the accessibility driver runs one BFS per
home, calls ``truth_at`` once per row and keeps one verdict table per run.
"""

from __future__ import annotations

from typing import NamedTuple

from .calculus import _NO_DEPTH_LIMIT, COST_INVALID, PreconditionError, Sequent, _copies_refuted, _refuted, _tally, prove
from .formula import CostModel, Formula, _check_count, _check_ident
from .frame import Frame, accessible, hop_distance

PRESERVED = "preserved"
VIOLATED = "violated"
NOT_ESTABLISHED = "not_established"

# Antecedent search is capped at this many formulas to stay decidable.
MAX_ANTECEDENT = 3


class _Observer(NamedTuple):
    id: str
    home: str
    horizon: int


class Observer(_Observer):
    __slots__ = ()

    def __new__(cls, id: str, home: str, horizon: int) -> Observer:
        _check_ident(id, "observer id")
        _check_count(horizon, 0, "horizon")
        return tuple.__new__(cls, (id, home, horizon))


def observer_sees(frame: Frame, o: Observer, w: str) -> bool:
    """True iff w is reachable from the observer's home within its horizon."""
    distance = hop_distance(frame, o.home, w)
    return distance is not None and distance <= o.horizon


def _balanced(props, goal):
    """Yield the sub-multisets of ``props`` with 1 to MAX_ANTECEDENT members that
    ``_refuted`` passes against the ``goal`` tally, smallest first.  A walk adds the
    distinct props in order, each at most its count times, carrying the net totals
    (goal less antecedent) and slack; it cuts where a bucket is off and neither slack
    nor a prop from the current one on can repair it, as all below are refuted."""
    fatal, want, up, down = goal  # a fatal goal or prop refutes every multiset it meets
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
                net_i = _spend(net, totals)
                for bucket, total in net_i.items():
                    if total > 0 and bucket not in can_lower and bucket not in ups and lowers.get(bucket, -1) < i:
                        break
                    if total < 0 and bucket not in can_raise and bucket not in downs and raises.get(bucket, -1) < i:
                        break
                else:
                    members = combo + (psi,)
                    if not _refuted(_tally(members), goal):
                        yield members
                    if len(members) < MAX_ANTECEDENT:
                        deeper.append((members, net_i, can_lower | ups, can_raise | downs, i + (members.count(psi) == count)))
        level = deeper


def _spend(net: dict, totals: dict) -> dict:  # one tally merge
    net = dict(net)
    for bucket, total in totals.items():
        net[bucket] = net.get(bucket, 0) - total
    return net


def truth_at(frame: Frame, w: str, phi: Formula, model: CostModel, verdicts: dict) -> int:
    """Truth at w for whoever sees it: phi is present or provable at w, under
    its own capacity and curvature, from a multiset that ``_balanced`` yields.
    ``verdicts``, a run's table for one cost model, keeps per (multiset, phi) the
    highest bound found unprovable and the lowest proof height found; no proof
    result reads kappa.  A new multiset meets ``_copies_refuted`` first, for every bound."""
    world = frame.world(w)
    if phi in world.props:
        return 1
    lam, goal = world.lam, (phi,)
    for combo in _balanced(world.props, _tally(goal)):
        key = (tuple(sorted(combo, key=hash)), phi)
        low, high = verdicts.get(key) or (_NO_DEPTH_LIMIT if _copies_refuted(combo, goal) else 0, _NO_DEPTH_LIMIT)
        if low < lam < high:
            result = prove(Sequent(combo, goal), lam, model, world.kappa)
            if result.proved:
                high = result.depth
            else:
                low = _NO_DEPTH_LIMIT if result.failure_reason == COST_INVALID else lam
        verdicts[key] = low, high
        if lam >= high:
            return 1
    return 0


def observer_valuation(frame: Frame, o: Observer, w: str, phi: Formula, model: CostModel) -> int:
    """Observer-relative truth: the observer sees w, and phi is true at w."""
    frame.world(w)  # an unknown w is reported before an unknown home
    return truth_at(frame, w, phi, model, {}) if observer_sees(frame, o, w) else 0


def persistence_check(
    frame: Frame, o: Observer, w: str, w_prime: str, phi: Formula, model: CostModel
) -> str:
    """Classify how an observer-established truth fares across w -> w'.

    Returns NOT_ESTABLISHED when phi never held at w for the observer,
    PRESERVED when it holds on both sides, and VIOLATED when the
    transition loses it, the marker of logical decoherence.
    """
    if not accessible(frame, w, w_prime):
        raise PreconditionError(f"pair {w!r} -> {w_prime!r} is not accessible")
    if not observer_valuation(frame, o, w, phi, model):
        return NOT_ESTABLISHED
    if observer_valuation(frame, o, w_prime, phi, model):
        return PRESERVED
    return VIOLATED
