"""Family constructors: shapes, symmetry validation, and the values
that pin each construction down; and the fan graphs with their Fibonacci
tree counts, as references for the circulant quotients."""

import pytest

from critgroups.actions import classify_dihedral_orbits, require_harmonic
from critgroups.divisors import critical_group
from critgroups.families import (
    CHAIN_BASES,
    chained_copies,
    circulant,
    concentric_polygon,
    intro_counterexample,
    klein_example,
)
from critgroups.multigraph import DisconnectedGraphError, Multigraph, spanning_tree_count
from critgroups.quotients import quotient_graph


def h_graph(k: int) -> Multigraph:
    """Fan on v1..vk plus an end vertex: a path with doubled last edge
    and chords two steps ahead (the chord from v_{k-1} lands on the end
    vertex).  Spanning trees count 2, 5, 13, ... as k grows."""
    if k < 1:
        raise ValueError("need k >= 1")
    end = k  # index of the extra vertex
    edges = []
    for i in range(k - 1):
        edges.append((i, i + 1))
    edges.append((k - 1, end))
    edges.append((k - 1, end))
    for i in range(k - 1):
        edges.append((i, i + 2))  # i+2 == end exactly for the last chord
    labels = [f"v{i + 1}" for i in range(k)] + ["vinf"]
    return Multigraph.from_edges(k + 1, edges, labels=labels)


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def test_fibonacci():
    assert [fibonacci(i) for i in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ValueError):
        fibonacci(0)


def test_h_graph_counts_and_recurrence():
    counts = [spanning_tree_count(h_graph(k)) for k in range(1, 9)]
    assert counts[0] == 2 and counts[1] == 5
    for k in range(3, 9):
        assert counts[k - 1] == 3 * counts[k - 2] - counts[k - 3]
    for k in range(1, 9):
        assert counts[k - 1] == fibonacci(2 * k + 1)


def test_h_graph_group_cyclic_with_end_difference_generator():
    for k in range(1, 8):
        g = h_graph(k)
        cg = critical_group(g)
        assert len(cg.group.factors) <= 1
        gamma = [0] * (k + 1)
        gamma[k - 1] = 1   # second-to-last path vertex
        gamma[k] = -1      # the end vertex
        assert cg.order_of(gamma) == cg.group.order == fibonacci(2 * k + 1)
    with pytest.raises(ValueError):
        h_graph(0)


def test_circulant_shapes():
    g7, a7 = circulant(7, [1, 2])
    assert g7.vertex_count == 7 and len(g7.edges) == 14
    assert spanning_tree_count(g7) == 7 * 13 * 13
    g9, _ = circulant(9, [1, 3])
    assert g9.vertex_count == 9 and len(g9.edges) == 18
    g14, _ = circulant(14, [2, 5])
    assert g14.vertex_count == 14 and len(g14.edges) == 28
    # a step and its negative double the edges; exact duplicates drop
    g3, _ = circulant(3, [1, 2])
    assert len(g3.edges) == 6 and spanning_tree_count(g3) == 12
    g5a, _ = circulant(5, [1, 1])
    g5b, _ = circulant(5, [1])
    assert g5a.edges == g5b.edges


def test_circulant_validation():
    with pytest.raises(ValueError):
        circulant(2, [1])
    with pytest.raises(ValueError):
        circulant(5, [0])
    with pytest.raises(ValueError):
        circulant(5, [5])
    with pytest.raises(DisconnectedGraphError):
        circulant(4, [2])
    with pytest.raises(DisconnectedGraphError):
        circulant(6, [2])


def test_circulant_action_is_harmonic_dihedral():
    for n, steps in ((7, [1, 2]), (9, [1, 3]), (14, [2, 5]), (8, [1, 4])):
        g, act = circulant(n, steps)
        assert act.n == n
        assert len(act.elements) == 2 * n
        require_harmonic(g, act.elements)
        lab = classify_dihedral_orbits(g, act)
        assert (lab.s, lab.t) == (1, 0)


def test_circulant_quotient_matches_h_graph():
    """Quotient by the first reflection equals the fan graph after the
    explicit relabeling (mirror of the index order)."""
    for n in (5, 7, 9, 11, 13):
        k = (n - 1) // 2
        g, act = circulant(n, [1, 2])
        q = quotient_graph(g, [act.sigma1])
        hk = h_graph(k)
        mapping = {}
        for qv in range(q.quotient.vertex_count):
            m = min(v for v, img in enumerate(q.vertex_map) if img == qv)
            if m == k:
                mapping[qv] = 0       # the reflection-fixed vertex
            elif m == 0:
                mapping[qv] = k       # orbit {v1, vn} plays the end vertex
            else:
                mapping[qv] = k - m
        mapped = sorted(
            tuple(sorted((mapping[u], mapping[v]))) for u, v in q.quotient.edges
        )
        assert mapped == list(hk.edges)


def test_concentric_shapes():
    g4, act4 = concentric_polygon(4)
    assert g4.vertex_count == 12 and len(g4.edges) == 20
    g3, act3 = concentric_polygon(3)
    assert g3.vertex_count == 9 and len(g3.edges) == 15
    for n in (3, 4, 5, 6):
        g, act = concentric_polygon(n)
        assert act.n == n
        lab = classify_dihedral_orbits(g, act)
        assert (lab.s, lab.t) == (1, 1)
        qhat = quotient_graph(g, act.elements)
        tree = qhat.quotient
        assert tree.is_connected() and len(tree.edges) == tree.vertex_count - 1
    with pytest.raises(ValueError):
        concentric_polygon(2)


def test_concentric_quotient_groups():
    g4, act4 = concentric_polygon(4)
    q1 = quotient_graph(g4, [act4.sigma1])
    q2 = quotient_graph(g4, [act4.sigma2])
    q3 = quotient_graph(g4, act4.rotation_subgroup())
    assert critical_group(q1.quotient).group.factors == (40,)
    assert critical_group(q2.quotient).group.factors == (30,)
    assert critical_group(q3.quotient).group.factors == (5,)
    assert (q1.quotient.vertex_count, len(q1.quotient.edges)) == (7, 9)
    assert (q2.quotient.vertex_count, len(q2.quotient.edges)) == (6, 8)
    assert (q3.quotient.vertex_count, len(q3.quotient.edges)) == (3, 4)


def test_klein_shapes():
    g, act = klein_example()
    assert g.vertex_count == 6 and len(g.edges) == 8
    assert critical_group(g).group.factors == (2, 2, 8)
    q1 = quotient_graph(g, [act.sigma1])
    tree = q1.quotient
    assert tree.is_connected() and len(tree.edges) == tree.vertex_count - 1
    q2 = quotient_graph(g, [act.sigma2])
    assert (q2.quotient.vertex_count, len(q2.quotient.edges)) == (4, 4)
    assert all(m == 1 for m in q2.quotient.pair_multiplicities().values())
    q3 = quotient_graph(g, act.rotation_subgroup())
    # two doubled edges sharing a vertex
    assert (q3.quotient.vertex_count, len(q3.quotient.edges)) == (3, 4)
    assert sorted(q3.quotient.pair_multiplicities().values()) == [2, 2]


# The five-vertex counterexample as the paper gives it: labeled edges
# and the two involutions as permutations of them.
_INTRO_EDGES = {
    "a1": (0, 1), "a2": (0, 1),
    "b1": (0, 2), "b2": (0, 2),
    "c1": (0, 3), "c2": (0, 3),
    "d1": (1, 4), "d2": (1, 4),
    "e1": (2, 4), "e2": (2, 4),
    "f1": (3, 4), "f2": (3, 4),
}
_INTRO_SIGMA1_EDGES = {
    "a1": "a2", "a2": "a1", "b1": "c2", "c2": "b1", "b2": "c1", "c1": "b2",
    "d1": "d2", "d2": "d1", "e1": "f2", "f2": "e1", "e2": "f1", "f1": "e2",
}
_INTRO_SIGMA2_EDGES = {
    "a1": "b2", "b2": "a1", "a2": "b1", "b1": "a2", "c1": "c2", "c2": "c1",
    "d1": "e2", "e2": "d1", "d2": "e1", "e1": "d2", "f1": "f2", "f2": "f1",
}


def _vertex_perm_from_edge_map(edge_map):
    """Vertex permutation induced by a permutation of labeled edges."""
    img = {}
    for e, f in edge_map.items():
        (u1, v1), (u2, v2) = _INTRO_EDGES[e], _INTRO_EDGES[f]
        # endpoints 0/4 (the hubs) are fixed by every symmetry here, which
        # orients each edge and determines the vertex images
        img.setdefault(u1, u2)
        img.setdefault(v1, v2)
        if img[u1] != u2 or img[v1] != v2:
            raise ValueError("edge map does not induce a vertex permutation")
    return tuple(img[v] for v in range(5))


def test_intro_counterexample_values():
    g, act = intro_counterexample()
    assert g.vertex_count == 5 and len(g.edges) == 12
    assert g.edges == Multigraph.from_edges(5, _INTRO_EDGES.values()).edges
    assert spanning_tree_count(g) == 192
    assert critical_group(g).group.factors == (2, 2, 4, 12)
    # the induced vertex maps: sigma1 swaps the second and third middles,
    # sigma2 the first and second; hubs stay put
    assert act.sigma1 == (0, 1, 3, 2, 4) == _vertex_perm_from_edge_map(_INTRO_SIGMA1_EDGES)
    assert act.sigma2 == (0, 2, 1, 3, 4) == _vertex_perm_from_edge_map(_INTRO_SIGMA2_EDGES)
    assert act.n == 3
    require_harmonic(g, act.elements)


def test_chained_copies_edge_base_gives_cycles():
    base = Multigraph.from_edges(2, [(0, 1)], labels=["a", "b"])
    g, act = chained_copies(base, [1, 0], 0, 1, 5)
    assert g.vertex_count == 5 and len(g.edges) == 5
    assert critical_group(g).group.factors == (5,)
    assert act.n == 5


def test_chained_copies_path_base():
    base = Multigraph.from_edges(3, [(0, 1), (1, 2)], labels=["a", "m", "b"])
    g, act = chained_copies(base, [2, 1, 0], 0, 2, 3)
    assert g.vertex_count == 6 and len(g.edges) == 6
    require_harmonic(g, act.elements)
    lab = classify_dihedral_orbits(g, act)
    assert (lab.s, lab.t) == (2, 0)


def test_chained_copies_cycle_base():
    base = Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels=["a", "p", "b", "q"])
    g, act = chained_copies(base, [2, 3, 0, 1], 0, 2, 3)
    assert g.vertex_count == 9 and len(g.edges) == 12
    lab = classify_dihedral_orbits(g, act)
    assert (lab.s, lab.t) == (1, 1)


def test_chained_copies_validation():
    base = Multigraph.from_edges(3, [(0, 1), (1, 2)], labels=["a", "m", "b"])
    with pytest.raises(ValueError):
        chained_copies(base, [1, 0, 2], 0, 2, 3)  # not an automorphism
    with pytest.raises(ValueError):
        chained_copies(base, [2, 1, 0], 0, 1, 3)  # phi(a) != b
    with pytest.raises(ValueError):
        chained_copies(base, [2, 1, 0], 0, 0, 3)  # endpoints equal
    # The gluing vertices and the copy count are ints, and the gluing
    # vertices are vertices of the base: (False, True) would otherwise glue
    # the edge at 0 and 1, and -4 on the 4-cycle end in a KeyError.
    edge, phi, _, _ = CHAIN_BASES["edge"]
    for a, b, n in ((False, True, 3), (0.0, 1, 3), (0, 1, 3.0)):
        with pytest.raises(TypeError, match="is not an int"):
            chained_copies(edge, phi, a, b, n)
    square, phi, _, _ = CHAIN_BASES["cycle4"]
    for a, b in ((-4, 2), (-2, 0), (0, 4)):
        with pytest.raises(ValueError, match="out of range"):
            chained_copies(square, phi, a, b, 3)


@pytest.mark.parametrize("steps", [[1.9, 2.0], [1, "2"], [True, 2]], ids=["float", "string", "bool"])
def test_circulant_steps_must_be_ints(steps):
    """A step that is not an int is rejected, never converted: [1.9, 2.0]
    would otherwise build the circulant with steps 1 and 2."""
    with pytest.raises(TypeError, match="is not an int"):
        circulant(7, steps)
