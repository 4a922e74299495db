"""Observer-indexed valuations with epistemic horizons.

An observer sees a world within a bounded hop distance of its home over
accessibility-feasible edges; one BFS from the home gives every distance.
A proposition is true for an observer at a visible world when it is present
there or provable from a multiset that ``calculus._balanced`` yields, of at most
``calculus.MAX_ANTECEDENT`` props; a multiset that ``calculus._hopeless`` says no depth proves
is never searched.  Neither depends on who asks: ``sim.run_accessibility`` runs one BFS per
home, calls ``truth_at`` once per row and keeps one verdict table per run.
"""

from __future__ import annotations

from typing import NamedTuple

from .calculus import _NO_DEPTH_LIMIT, SEARCH_BUDGET_EXCEEDED, PreconditionError, Sequent, _balanced, _hopeless, prove
from .formula import CostModel, Formula, _Checked, _check_count, _check_ident
from .frame import Frame, accessible, hop_distance

PRESERVED = "preserved"
VIOLATED = "violated"
NOT_ESTABLISHED = "not_established"

class _Observer(NamedTuple):
    id: str
    home: str
    horizon: int


class Observer(_Checked, _Observer):
    __slots__ = ()

    def __new__(cls, id: str, home: str, horizon: int) -> Observer:
        _check_ident(id, "observer id")
        _check_count(horizon, 0, "horizon")
        return tuple.__new__(cls, (id, home, horizon))


def observer_sees(frame: Frame, o: Observer, w: str) -> bool:
    """True iff w is reachable from the observer's home within its horizon."""
    distance = hop_distance(frame, o.home, w)
    return distance is not None and distance <= o.horizon


def truth_at(frame: Frame, w: str, phi: Formula, model: CostModel, verdicts: dict) -> int:
    """Truth at w for whoever sees it: phi is present or provable at w, under its own capacity
    and curvature, from a multiset that ``_balanced`` yields.  ``verdicts``, a run's table for one
    cost model, keeps per (multiset in ``_canon``'s id order, phi) the highest bound found
    unprovable and the lowest proof height found; no proof result reads kappa, and a budget failure
    records nothing, so a warm call answers as a fresh one.  A new multiset that ``_hopeless``
    accepts is never searched."""
    world = frame.world(w)
    if phi in world.props:
        return 1
    lam, goal = world.lam, (phi,)
    for combo in _balanced(world.props, phi):
        key = (tuple(sorted(combo, key=id)), phi)
        low, high = verdicts.get(key) or (_NO_DEPTH_LIMIT if _hopeless(combo, goal) else 0, _NO_DEPTH_LIMIT)
        if low < lam < high:
            result = prove(Sequent(combo, goal), lam, model, world.kappa)
            if result.proved:
                high = result.depth
            elif result.failure_reason != SEARCH_BUDGET_EXCEEDED:
                low = lam
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
