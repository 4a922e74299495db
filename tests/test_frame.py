import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from eclc import (
    Atom,
    Diamond,
    Frame,
    PathCost,
    UnknownWorldError,
    World,
    accessible,
    eval_diamond,
    eval_prop,
    hop_distance,
    hop_distances,
    path_cost,
)
from eclc import frame as frame_module
from gen import small_frames, tangled_frames

from oracles import brute_force_hop_distance, brute_force_path_costs

PHI = Atom("Phi")


def chain(energies=(10.0, 10.0, 10.0), deltas=(2.0, 2.0)):
    worlds = [World(f"w{i}", e, 0.0, 4) for i, e in enumerate(energies)]
    edges = [(f"w{i}", f"w{i+1}", d) for i, d in enumerate(deltas)]
    return Frame(worlds, edges)


class TestAccessible:
    def test_edge_within_budget(self):
        frame = chain(energies=(10.0, 10.0), deltas=(2.0,))
        assert accessible(frame, "w0", "w1") is True

    def test_edge_exceeding_budget(self):
        frame = chain(energies=(10.0, 10.0), deltas=(12.0,))
        assert accessible(frame, "w0", "w1") is False

    def test_reverse_of_one_way_chain(self):
        frame = chain()
        assert accessible(frame, "w1", "w0") is False

    def test_unknown_world_raises(self):
        frame = chain()
        with pytest.raises(UnknownWorldError):
            accessible(frame, "w0", "zz")
        with pytest.raises(UnknownWorldError):
            accessible(frame, "zz", "w0")

    @given(small_frames())
    def test_accessible_implies_edge(self, frame):
        for src in frame.worlds:
            for dst in frame.worlds:
                if accessible(frame, src, dst):
                    assert (src, dst) in frame.edges

    @given(small_frames(), st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_monotone_in_energy(self, frame, boost):
        before = {
            (s, d): accessible(frame, s, d) for s in frame.worlds for d in frame.worlds
        }
        richer = frame.copy()
        for world in richer.worlds.values():
            world.energy += boost
        for (s, d), was in before.items():
            if was:
                assert accessible(richer, s, d)


class TestEvalDiamond:
    def test_reachable_within_budget(self):
        frame = chain(deltas=(2.0, 2.0))
        frame.worlds["w1"].props[PHI] += 1
        assert eval_diamond(frame, "w0", PHI, 3.0) is True

    def test_zero_budget_with_positive_edges(self):
        frame = chain(deltas=(2.0, 2.0))
        frame.worlds["w1"].props[PHI] += 1
        assert eval_diamond(frame, "w0", PHI, 0.0) is False

    def test_absent_everywhere(self):
        frame = chain()
        assert eval_diamond(frame, "w0", PHI, 99.0) is False

    def test_brute_force_successor_scan(self):
        frame = Frame(
            [World("a", 5.0, 0.0, 2), World("b", 5.0, 0.0, 2), World("c", 5.0, 0.0, 2)],
            [("a", "b", 2.0), ("a", "c", 7.0)],
        )
        frame.worlds["b"].props[PHI] += 1
        frame.worlds["c"].props[PHI] += 1
        expected = any(
            delta <= frame.worlds["a"].energy and delta <= 3.0 and PHI in frame.worlds[dst].props
            for (src, dst), delta in frame.edges.items()
            if src == "a"
        )
        assert eval_diamond(frame, "a", PHI, 3.0) is expected is True

    @given(small_frames(), st.floats(min_value=0, max_value=30, allow_nan=False),
           st.floats(min_value=0, max_value=30, allow_nan=False))
    def test_monotone_in_budget(self, frame, budget, extra):
        for wid in frame.worlds:
            frame.worlds[wid].props[PHI] += 1
        for src in frame.worlds:
            if eval_diamond(frame, src, PHI, budget):
                assert eval_diamond(frame, src, PHI, budget + extra)

    @settings(max_examples=200)
    @given(tangled_frames(), st.data())
    def test_matches_brute_force_over_tangled_frames(self, frame, data):
        ids = list(frame.worlds)
        for wid in data.draw(st.sets(st.sampled_from(ids))):
            frame.worlds[wid].props[PHI] += 1
        for budget in {0.0, 1e300, *frame.edges.values()}:
            for w in ids:
                expected = any(
                    src == w and d <= budget and d <= frame.worlds[w].energy and PHI in frame.worlds[dst].props
                    for (src, dst), d in frame.edges.items()
                )
                assert eval_diamond(frame, w, PHI, budget) is expected

    def test_edge_added_to_undeclared_world(self):
        # edges are tried in declaration order, and a target is looked up
        # only once its edge's deltaE fits the budget
        frame = chain(deltas=(2.0, 2.0))
        frame.edges[("w0", "ghost")] = 0.5
        with pytest.raises(UnknownWorldError, match="unknown world 'ghost'"):
            eval_diamond(frame, "w0", PHI, 1.0)
        assert eval_diamond(frame, "w0", PHI, 0.25) is False
        frame.worlds["w1"].props[PHI] += 1
        assert eval_diamond(frame, "w0", PHI, 3.0) is True  # w0 -> w1 holds PHI before the ghost edge is tried
        with pytest.raises(UnknownWorldError, match="unknown world 'zz'"):
            eval_diamond(frame, "zz", PHI, 3.0)


class TestEvalProp:
    def test_membership(self):
        frame = chain()
        frame.worlds["w0"].props[PHI] += 1
        assert eval_prop(frame, "w0", PHI) == 1
        assert eval_prop(frame, "w1", PHI) == 0

    def test_diamond_dispatch(self):
        frame = chain(deltas=(2.0, 2.0))
        frame.worlds["w1"].props[PHI] += 1
        assert eval_prop(frame, "w0", Diamond(3.0, PHI)) == 1
        assert eval_prop(frame, "w0", Diamond(1.0, PHI)) == 0


class TestHopDistance:
    def test_identity(self):
        frame = chain()
        assert hop_distance(frame, "w0", "w0") == 0

    def test_two_step_chain(self):
        frame = chain()
        assert hop_distance(frame, "w0", "w2") == 2

    def test_unreachable_reverse(self):
        frame = chain()
        assert hop_distance(frame, "w2", "w0") is None

    def test_infeasible_edge_blocks(self):
        frame = chain(energies=(1.0, 10.0, 10.0), deltas=(5.0, 2.0))
        assert hop_distance(frame, "w0", "w2") is None

    @given(small_frames())
    def test_matches_brute_force(self, frame):
        ids = list(frame.worlds)
        for src in ids:
            for dst in ids:
                assert hop_distance(frame, src, dst) == brute_force_hop_distance(frame, src, dst)

    def test_unknown_world_raises(self):
        frame = chain()
        with pytest.raises(UnknownWorldError):
            hop_distances(frame, "zz")
        with pytest.raises(UnknownWorldError):
            hop_distance(frame, "w0", "zz")

    @given(small_frames())
    def test_one_search_gives_every_distance(self, frame):
        ids = list(frame.worlds)
        for src in ids:
            distances = hop_distances(frame, src)
            assert set(distances) <= set(ids)
            for dst in ids:
                want = brute_force_hop_distance(frame, src, dst)
                assert distances.get(dst) == want == hop_distance(frame, src, dst)

    @given(small_frames())
    def test_triangle_inequality(self, frame):
        ids = list(frame.worlds)
        dist = {(a, b): hop_distance(frame, a, b) for a in ids for b in ids}
        for a in ids:
            for b in ids:
                for c in ids:
                    ab, bc, ac = dist[(a, b)], dist[(b, c)], dist[(a, c)]
                    if ab is not None and bc is not None:
                        assert ac is not None and ac <= ab + bc


class TestPathCost:
    def test_chain_cost(self):
        frame = chain(deltas=(2.0, 3.0))
        assert path_cost(frame, "w0", "w2") == PathCost(2, 5.0)

    def test_unreachable(self):
        frame = chain()
        assert path_cost(frame, "w2", "w0") is None

    def test_prefers_fewer_hops(self):
        frame = Frame(
            [World("a", 9.0, 0.0, 2), World("b", 9.0, 0.0, 2), World("c", 9.0, 0.0, 2)],
            [("a", "c", 9.0), ("a", "b", 0.5), ("b", "c", 0.5)],
        )
        assert path_cost(frame, "a", "c") == PathCost(1, 9.0)

    def test_matches_brute_force(self):
        rng = random.Random(12)
        alternatives = 0
        for _ in range(150):
            ids = [f"w{i}" for i in range(rng.randint(1, 6))]
            worlds = [World(wid, rng.choice((0.0, 0.5, 3.0, 8.0)), 0.0, 1) for wid in ids]
            edges = [
                (src, dst, rng.choice((0.0, 0.1, 0.2, 0.3, 0.7, 2.5, 6.0)))
                for src in ids for dst in ids if src != dst and rng.random() < 0.5
            ]
            frame = Frame(worlds, edges)
            for src in ids:
                for dst in ids:
                    costs = brute_force_path_costs(frame, src, dst)
                    if not costs:
                        assert path_cost(frame, src, dst) is None
                        continue
                    hops, spent = min(costs)
                    assert path_cost(frame, src, dst) == PathCost(hops, spent)
                    alternatives += len({s for h, s in costs if h == hops}) > 1
        assert alternatives > 20  # pairs with equal-hop paths of different deltaE


class TestIndexedSearch:
    """The BFS walks an out-edge index; on frames declared out of source
    order, with self-loops and energy-gated edges, it agrees with
    exhaustive enumeration of simple paths."""

    @settings(max_examples=200)
    @given(tangled_frames())
    def test_matches_brute_force(self, frame):
        ids, out = list(frame.worlds), frame_module._out_edges(frame)
        for src in ids:
            distances = hop_distances(frame, src)
            # the run-wide helper reads one index for every source
            assert frame_module._hop_distances(frame, src, out) == distances
            assert set(distances) <= set(ids)
            for dst in ids:
                hops = brute_force_hop_distance(frame, src, dst)
                assert hop_distance(frame, src, dst) == distances.get(dst) == hops
                costs = brute_force_path_costs(frame, src, dst)
                if costs:
                    assert min(costs)[0] == hops and path_cost(frame, src, dst) == PathCost(*min(costs))
                else:
                    assert hops is None and path_cost(frame, src, dst) is None

    @pytest.mark.parametrize("delta_e", [0.5, 50.0])
    def test_edge_added_to_undeclared_world_raises(self, delta_e):
        # checked before the source's energy gates the edge, as accessible does
        frame = chain()
        frame.edges[("w1", "ghost")] = delta_e
        searches = (
            lambda: hop_distances(frame, "w0"),
            lambda: frame_module._hop_distances(frame, "w0", frame_module._out_edges(frame)),
            lambda: path_cost(frame, "w0", "w2"),
        )
        for search in searches:
            with pytest.raises(UnknownWorldError, match="unknown world 'ghost'"):
                search()
        assert hop_distances(frame, "w2") == {"w2": 0}  # no search reaches w1


class TestFrameValidation:
    def test_duplicate_world(self):
        with pytest.raises(ValueError):
            Frame([World("w", 1.0, 0.0, 1), World("w", 2.0, 0.0, 1)], [])
        with pytest.raises(ValueError, match="duplicate edge 'w' -> 'w'"):
            Frame([World("w", 1.0, 0.0, 1)], [("w", "w", 1.0), ("w", "w", 2.0)])

    def test_edge_to_undeclared_world(self):
        with pytest.raises(ValueError):
            Frame([World("w", 1.0, 0.0, 1)], [("w", "zz", 1.0)])

    def test_negative_delta_e(self):
        with pytest.raises(ValueError):
            Frame([World("a", 1.0, 0.0, 1), World("b", 1.0, 0.0, 1)], [("a", "b", -1.0)])
        with pytest.raises(ValueError, match="path cost components must be >= 0"):
            PathCost(-1, 0.0)

    def test_world_invariants(self):
        with pytest.raises(ValueError):
            World("w", -1.0, 0.0, 1)
        with pytest.raises(ValueError):
            World("w", 1.0, -0.5, 1)
        for lam in (0, True):
            with pytest.raises(ValueError, match="lambda must be an integer >= 1"):
                World("w", 1.0, 0.0, lam)
        for bad in ("", "w 1", "1w", None, 7):
            with pytest.raises(ValueError, match="world id must be a nonempty identifier"):
                World(bad, 1.0, 0.0, 1)

    def test_records_compare_and_print(self):
        world = World("w0", 2.0, 0.5, 3, Counter({PHI: 2}))
        assert world == World("w0", 2.0, 0.5, 3, {PHI: 2})
        assert world != World("w0", 2.0, 0.5, 3)
        assert repr(world) == (
            "World(id='w0', energy=2.0, kappa=0.5, lam=3, "
            "props=Counter({Atom(name='Phi', args=(), coherent=True): 2}))"
        )
        frame = Frame([world, World("w1", 1.0, 0.0, 1)], [("w0", "w1", 1.0)])
        assert frame == Frame([World("w0", 2.0, 0.5, 3, {PHI: 2}), World("w1", 1.0, 0.0, 1)], [("w0", "w1", 1.0)])
        assert frame != Frame([world, World("w1", 1.0, 0.0, 1)], [])
        assert (frame == object()) is False
        assert repr(frame) == "Frame(worlds=['w0', 'w1'], edges=1)"

    def test_world_numbers_become_floats(self):
        for value in (-0.0, 0, 3):
            world = World("w0", value, value, 1)
            for got in (world.energy, world.kappa):
                assert type(got) is float and got == value and math.copysign(1.0, got) == 1.0

    def test_world_props_are_its_own_counter(self):
        first, second = World("a", 1.0, 0.0, 1), World("b", 1.0, 0.0, 1)
        assert type(first.props) is Counter and first.props == Counter()
        assert first.props is not second.props
        assert repr(first) == "World(id='a', energy=1.0, kappa=0.0, lam=1, props=Counter())"
        props = Counter({PHI: 1})
        world = World("w0", 2.0, 0.5, 3, props)
        props[PHI] += 1  # the caller's Counter is copied, not kept
        assert world.props == Counter({PHI: 1})

    def test_copy_is_deep(self):
        frame = chain()
        frame.worlds["w0"].props[PHI] += 1
        dup = frame.copy()
        dup.worlds["w0"].props[PHI] += 5
        dup.worlds["w0"].energy = 0.0
        assert frame.worlds["w0"].props[PHI] == 1
        assert frame.worlds["w0"].energy == 10.0
        # a copy equals its source and shares no Counter with it; a count set
        # to zero by hand is dropped from the copy, as World() drops it
        dup = frame.copy()
        assert dup == frame
        for w, world in frame.worlds.items():
            props = dup.worlds[w].props
            assert type(props) is Counter and props == world.props and props is not world.props
        frame.worlds["w0"].props[PHI] = 0
        assert frame.copy().worlds["w0"].props == Counter() and PHI in frame.worlds["w0"].props
