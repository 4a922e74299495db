"""Energy-weighted Kripke frames and resource-indexed modal evaluation.

A frame is a finite set of worlds joined by directed edges, each edge
annotated with a transition cost deltaE.  A transition w -> w' is
accessible iff the edge exists and its deltaE does not exceed the
source world's current energy budget.  Queries are pure; only the
calculus transition operations mutate world state.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import NamedTuple

from .formula import Diamond, Formula, _check_count, _check_ident, _check_real


class UnknownWorldError(Exception):
    """Raised when a query names a world absent from the frame."""


class World:
    """Logical context: proposition multiset, energy budget, curvature,
    and inference capacity (maximum proof depth).  Mutable and equal by
    fields, so unhashable."""

    __slots__ = ("id", "energy", "kappa", "lam", "props")

    def __init__(self, id: str, energy: float, kappa: float, lam: int, props: Counter | None = None) -> None:
        _check_ident(id, "world id")
        self.id = id
        self.energy = _check_real(float(energy) + 0.0, "energy")
        self.kappa = _check_real(float(kappa) + 0.0, "kappa")
        _check_count(lam, 1, "lambda")
        self.lam = lam
        for count in (props := Counter(props)).values():
            _check_count(count, 0, "prop count")
        self.props = +props if 0 in props.values() else props  # no zero counts, as transition's -= leaves none

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, name) for name in self.__slots__] == [getattr(other, name) for name in self.__slots__]

    def __repr__(self) -> str:
        return "World(" + ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"

    def copy(self) -> World:
        return World(self.id, self.energy, self.kappa, self.lam, self.props)


class _PathCost(NamedTuple):
    hops: int
    total_delta_e: float


class PathCost(_PathCost):
    """Hop count and summed deltaE of a feasible directed path."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs the checks

    def __new__(cls, hops: int, total_delta_e: float) -> PathCost:
        if hops < 0 or total_delta_e < 0:
            raise ValueError("path cost components must be >= 0")
        return tuple.__new__(cls, (hops, total_delta_e))


class Frame:
    """Directed graph of worlds; at most one edge per ordered pair."""

    def __init__(self, worlds, edges) -> None:
        self.worlds: dict[str, World] = {}
        for world in worlds:
            if world.id in self.worlds:
                raise ValueError(f"duplicate world id {world.id!r}")
            self.worlds[world.id] = world
        self.edges: dict[tuple[str, str], float] = {}
        for src, dst, delta_e in edges:
            if src not in self.worlds or dst not in self.worlds:
                raise ValueError(f"edge {src!r} -> {dst!r} names an undeclared world")
            if (src, dst) in self.edges:
                raise ValueError(f"duplicate edge {src!r} -> {dst!r}")
            self.edges[(src, dst)] = _check_real(float(delta_e) + 0.0, "deltaE")

    def world(self, world_id: str) -> World:
        try:
            return self.worlds[world_id]
        except KeyError:
            raise UnknownWorldError(f"unknown world {world_id!r}") from None

    def successors(self, world_id: str):
        """Yield (target id, deltaE) pairs in edge declaration order."""
        self.world(world_id)
        for (src, dst), delta_e in self.edges.items():
            if src == world_id:
                yield dst, delta_e

    def copy(self) -> "Frame":
        dup = Frame.__new__(Frame)
        dup.worlds = {wid: world.copy() for wid, world in self.worlds.items()}
        dup.edges = dict(self.edges)
        return dup

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.worlds == other.worlds and self.edges == other.edges

    def __repr__(self) -> str:
        return f"Frame(worlds={list(self.worlds)}, edges={len(self.edges)})"


def accessible(frame: Frame, w: str, w_prime: str) -> bool:
    """True iff an edge w -> w' exists and its deltaE fits w's energy."""
    source = frame.world(w)
    frame.world(w_prime)
    delta_e = frame.edges.get((w, w_prime))
    return delta_e is not None and delta_e <= source.energy


def eval_diamond(frame: Frame, w: str, phi: Formula, budget: float) -> bool:
    """True iff some accessible successor holds ``phi`` (syntactic
    membership) over an edge whose deltaE is within ``budget``."""
    for dst, delta_e in frame.successors(w):
        if delta_e <= budget and accessible(frame, w, dst) and phi in frame.world(dst).props:
            return True
    return False


def eval_prop(frame: Frame, w: str, phi: Formula) -> int:
    """Valuation V(w, phi): diamonds dispatch to their budgeted search,
    everything else is direct membership in the world's propositions."""
    if isinstance(phi, Diamond):
        return 1 if eval_diamond(frame, w, phi.inner, phi.budget) else 0
    return 1 if phi in frame.world(w).props else 0


def _cheapest_paths(frame: Frame, w: str) -> dict[str, tuple[int, float]]:
    """(fewest hops, then least summed deltaE) of a path from w to every
    world it reaches over accessible edges, each step gated by its own
    source world's energy; w maps to (0, 0.0).  The BFS dequeues a world
    only after every world one hop closer, so its label is final by then."""
    frame.world(w)
    best = {w: (0, 0.0)}
    queue = deque([w])
    while queue:
        here = queue.popleft()
        hops, spent = best[here]
        for dst, delta_e in frame.successors(here):
            if not accessible(frame, here, dst):
                continue
            candidate = (hops + 1, spent + delta_e)
            if dst not in best:
                best[dst] = candidate
                queue.append(dst)
            elif candidate < best[dst]:
                best[dst] = candidate
    return best


def hop_distances(frame: Frame, w: str) -> dict[str, int]:
    """Hop count of the shortest accessible path from w to every world
    it reaches: one BFS for all targets.  w maps to 0; unreachable
    worlds are absent."""
    return {dst: hops for dst, (hops, _) in _cheapest_paths(frame, w).items()}


def hop_distance(frame: Frame, w: str, w_prime: str) -> int | None:
    """Length of the shortest accessible path w -> w', looked up in
    ``hop_distances(frame, w)``; None if unreachable."""
    dist = hop_distances(frame, w)
    frame.world(w_prime)
    return dist.get(w_prime)


def path_cost(frame: Frame, w: str, w_prime: str) -> PathCost | None:
    """Cheapest feasible path as (hops, total deltaE), minimizing hops
    first and summed deltaE among equal-hop paths; None if unreachable."""
    best = _cheapest_paths(frame, w)
    frame.world(w_prime)
    return PathCost(*best[w_prime]) if w_prime in best else None
