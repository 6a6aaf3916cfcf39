"""Graph primitives, cross-checked against networkx where it has an answer."""

import math
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diameter_games import graph_from_edges, has_expansion
from diameter_games.graph_metrics import (
    INFINITE,
    Graph,
    InvalidGraph,
    ball,
    closed_masks,
    degree_profile,
    diameter,
    diameter_within,
    dist,
    set_bits,
    sphere,
    spheres,
)


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestConstruction:
    def test_edges_are_normalized(self):
        g = graph_from_edges(4, [(3, 1), (0, 2)])
        assert g.edges == frozenset({(1, 3), (0, 2)})

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InvalidGraph):
            Graph(3, frozenset({(0, 3)}))

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidGraph):
            Graph(3, frozenset({(1, 1)}))

    def test_rejects_reversed_pair(self):
        """Graph itself never canonicalises; only graph_from_edges does."""
        with pytest.raises(InvalidGraph, match=r"^edge \(1, 0\) is not canonical for n=3$"):
            Graph(3, frozenset({(1, 0)}))

    def test_one_shot_generator(self):
        g = graph_from_edges(4, ((i, i + 1) for i in range(3)))
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        # A reversed pair makes the frozen input be read a second time.
        g = graph_from_edges(4, ((i + 1, i) for i in range(3)))
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        assert g.closed == closed_masks(4, g.edges)

    def test_reversed_pairs(self):
        g = graph_from_edges(3, [(1, 0), (2, 1)])
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.closed == [0b011, 0b111, 0b110]

    def test_both_orientations_of_one_edge(self):
        g = graph_from_edges(3, [(0, 1), (1, 0)])
        assert g.edges == frozenset({(0, 1)})
        assert g.closed == [0b011, 0b011, 0b100]

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(1, 1)], r"edge \(1, 1\)"),
            ([(0, 1), (2, 2)], r"edge \(2, 2\)"),
            ([(0, 3)], r"edge \(0, 3\)"),
            ([(3, 0)], r"edge \(0, 3\)"),
            ([(1, 0), (0, 3)], r"edge \(0, 3\)"),
            ([(-1, 0)], r"edge \(-1, 0\)"),
            ([(0, -1)], r"edge \(-1, 0\)"),
        ],
    )
    def test_rejects_loops_and_outside_vertices(self, edges, message):
        """The message names the bad edge in its canonical orientation."""
        with pytest.raises(InvalidGraph, match=message + " is not canonical for n=3$"):
            graph_from_edges(3, edges)

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(InvalidGraph, match="vertex count must be nonnegative"):
            graph_from_edges(-1, [])

    def test_equal_graphs_hash_alike_and_stay_immutable(self):
        g, h = graph_from_edges(4, [(2, 1), (0, 3)]), Graph(4, frozenset({(1, 2), (0, 3)}))
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1
        assert g != Graph(4, frozenset({(1, 2)})) and g != Graph(5, h.edges) and g != h.edges
        assert repr(g) == repr(h) == f"Graph(n=4, edges={h.edges!r})"
        for name in ("n", "edges", "closed"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
            with pytest.raises(AttributeError):
                delattr(g, name)

    def test_neighbors_sorted(self):
        g = graph_from_edges(5, [(0, 4), (0, 2), (0, 1)])
        assert g.neighbors(0) == [1, 2, 4]
        assert g.neighbors(3) == []
        for v in (5, -1):
            with pytest.raises(InvalidGraph):
                g.neighbors(v)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=9),
    data=st.data(),
)
def test_graph_from_edges_matches_canonicalising_construction(n, data):
    """Any mix of orientations and repeats gives the Graph of the canonical
    pairs, with the closed masks closed_masks builds from them."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3 * len(pairs))) if pairs else []
    canon = frozenset((u, v) if u < v else (v, u) for u, v in edges)
    g = graph_from_edges(n, edges)
    assert g.edges == canon
    assert g.closed == closed_masks(n, canon)
    assert g == Graph(n, canon)


class TestDistance:
    def test_path_distances(self):
        g = path_graph(5)
        assert dist(g, 0, 4) == 4
        assert dist(g, 1, 3) == 2
        assert dist(g, 2, 2) == 0

    def test_disconnected_is_infinite(self):
        g = graph_from_edges(4, [(0, 1)])
        assert dist(g, 0, 3) == INFINITE
        assert dist(g, 0, 3) > 10**9
        assert math.isinf(dist(g, 0, 3))

    def test_diameter_examples(self):
        assert diameter(complete_graph(6)) == 1
        assert diameter(path_graph(7)) == 6
        assert diameter(graph_from_edges(3, [])) == INFINITE
        # Star: every leaf pair is at distance 2.
        star = graph_from_edges(5, [(0, i) for i in range(1, 5)])
        assert diameter(star) == 2

    def test_diameter_needs_two_vertices(self):
        with pytest.raises(InvalidGraph):
            diameter(graph_from_edges(1, []))


class TestBallsAndSpheres:
    @pytest.fixture
    def g(self):
        return path_graph(6)

    def test_ball_growth(self, g):
        assert ball(g, 2, 0) == frozenset({2})
        assert ball(g, 2, 1) == frozenset({1, 2, 3})
        assert ball(g, 2, 2) == frozenset({0, 1, 2, 3, 4})

    def test_sphere_is_ball_boundary(self, g):
        assert sphere(g, 0, 0) == frozenset({0})
        for r in range(1, 4):
            assert sphere(g, 0, r) == ball(g, 0, r) - ball(g, 0, r - 1)

    def test_negative_radius_rejected(self, g):
        with pytest.raises(InvalidGraph):
            ball(g, 0, -1)

    def test_sphere_exact_levels(self, g):
        assert sphere(g, 0, 3) == frozenset({3})
        assert sphere(g, 5, 1) == frozenset({4})
        assert sphere(g, 0, 9) == frozenset()

    def test_sphere_checks_vertex_and_radius(self):
        g = path_graph(4)
        with pytest.raises(InvalidGraph):
            sphere(g, 9, 1)
        with pytest.raises(InvalidGraph):
            sphere(g, -1, 1)
        with pytest.raises(InvalidGraph):
            sphere(g, 0, -1)


def test_degree_profile():
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2)])
    prof = degree_profile(g)
    assert prof.degrees == (3, 2, 2, 1, 0)
    assert prof.min_degree == 0
    assert prof.max_degree == 3


class TestExpansion:
    def test_complete_graph_expands(self):
        assert has_expansion(complete_graph(5), 2, 2)

    def test_empty_graph_does_not(self):
        assert not has_expansion(graph_from_edges(5, []), 2, 2)

    def test_star_misses_leaf_pairs(self):
        # Two leaves vs two other leaves have no edge between them.
        star = graph_from_edges(6, [(0, i) for i in range(1, 6)])
        assert not has_expansion(star, 2, 2)
        # But any single vertex set misses only if some vertex is isolated
        # from it; the hub covers everything.
        assert not has_expansion(star, 1, 1)

    def test_rejects_oversized_sets(self):
        with pytest.raises(InvalidGraph):
            has_expansion(complete_graph(4), 3, 2)

    def test_brute_force_agreement(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
        for r, s in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            assert has_expansion(g, r, s) == _expansion_by_pairs(g, r, s), (r, s)


def _expansion_by_pairs(g, r, s):
    """Reference: enumerate every disjoint (R, S) pair and look for a crossing edge."""
    for rset in combinations(range(g.n), r):
        rest = [v for v in range(g.n) if v not in rset]
        for sset in combinations(rest, s):
            if not any((min(u, v), max(u, v)) in g.edges for u in rset for v in sset):
                return False
    return True


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return graph_from_edges(n, edges)


@settings(max_examples=100, deadline=None)
@given(random_graphs())
@example(graph_from_edges(9, []))
@example(complete_graph(9))
@example(graph_from_edges(9, [(0, i) for i in range(1, 9)]))
@example(graph_from_edges(4, [(0, 1), (2, 3)]))
@example(complete_graph(2))
@example(graph_from_edges(2, []))
@example(graph_from_edges(5, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]))
def test_has_expansion_matches_pair_enumeration(g):
    """Every (r, s) with r + s <= n, so S may be all of R's complement.

    The last example is K_4 plus an isolated vertex 0: at r = 2, s = 2 only
    vertex 0 has a closed mask of at most n - s bits, one fewer than r, so
    expansion_of_closed answers True without trying any R-set."""
    for r in range(1, g.n):
        for s in range(1, g.n - r + 1):
            assert has_expansion(g, r, s) == _expansion_by_pairs(g, r, s), (r, s)


@settings(max_examples=120, deadline=None)
@given(random_graphs())
def test_diameter_matches_networkx(g):
    """diameter, diameter_within and the spheres of every vertex, against networkx."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    expected = nx.diameter(h) if nx.is_connected(h) else INFINITE
    assert diameter(g) == expected
    for d in range(5):
        assert diameter_within(g.closed, d) == (expected <= d), d
    for v in range(g.n):
        levels = nx.single_source_shortest_path_length(h, v)
        rings = [set_bits(ring) for ring in spheres(g.closed, v)]
        assert rings == [sorted(w for w, k in levels.items() if k == r) for r in range(max(levels.values()) + 1)]
        assert [set_bits(ring) for ring in spheres(g.closed, v, 1)] == rings[:2]


@settings(max_examples=80, deadline=None)
@given(random_graphs(), st.data())
def test_dist_matches_networkx(g, data):
    if g.n < 2:
        return
    u = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    try:
        expected = nx.shortest_path_length(h, u, v)
    except nx.NetworkXNoPath:
        expected = INFINITE
    assert dist(g, u, v) == expected
