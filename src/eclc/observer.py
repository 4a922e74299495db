"""Observer-indexed valuations with epistemic horizons.

An observer sees a world only if it lies within a bounded hop distance
of the observer's home world over accessibility-feasible edges; one BFS
from the home gives the distance to every world.  A proposition counts
as true for an observer at a world when the world is visible and the
proposition is directly present or provable there from a small
antecedent drawn from the world's propositions.  Neither distances nor
provability depend on who asks, so the accessibility driver runs one
BFS per home and calls ``truth_at`` once per row that some observer sees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .calculus import PreconditionError, Sequent, _refuted, _tally, prove
from .formula import CostModel, Formula, _check_ident
from .frame import Frame, accessible, hop_distance

PRESERVED = "preserved"
VIOLATED = "violated"
NOT_ESTABLISHED = "not_established"

# Antecedent search is capped at this many formulas to stay decidable.
MAX_ANTECEDENT = 3


@dataclass(frozen=True)
class Observer:
    id: str
    home: str
    horizon: int

    def __post_init__(self) -> None:
        _check_ident(self.id, "observer id")
        if not (isinstance(self.horizon, int) and self.horizon >= 0):
            raise ValueError(f"horizon must be an integer >= 0, got {self.horizon!r}")


def observer_sees(frame: Frame, o: Observer, w: str) -> bool:
    """True iff w is reachable from the observer's home within its horizon."""
    distance = hop_distance(frame, o.home, w)
    return distance is not None and distance <= o.horizon


def truth_at(frame: Frame, w: str, phi: Formula, model: CostModel) -> int:
    """Truth at w for whoever sees it: phi is present or provable at w.

    Provability searches antecedent sub-multisets of props(w) of size
    at most MAX_ANTECEDENT under the world's own inference capacity and
    curvature.  A sub-multiset that the prover's own refutation check
    refutes at the root is skipped without building its sequent; phi's
    side of that check is tallied once per call.
    """
    world = frame.world(w)
    if phi in world.props:
        return 1
    goal = _tally((phi,))
    for size in range(1, MAX_ANTECEDENT + 1):
        for combo in itertools.combinations_with_replacement(world.props, size):
            if any(combo.count(psi) > world.props[psi] for psi in combo) or _refuted(_tally(combo), goal):
                continue
            if prove(Sequent(combo, (phi,)), world.lam, model, world.kappa).proved:
                return 1
    return 0


def observer_valuation(frame: Frame, o: Observer, w: str, phi: Formula, model: CostModel) -> int:
    """Observer-relative truth: the observer sees w, and phi is true at w."""
    frame.world(w)  # an unknown w is reported before an unknown home
    return truth_at(frame, w, phi, model) if observer_sees(frame, o, w) else 0


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
