"""Multigraph basics: adjacency, Laplacian, reduced determinants, and
the matrix-tree count against exhaustive enumeration."""

import random

import pytest

from critgroups.divisors import critical_group
from critgroups.families import chained_copies, circulant, concentric_polygon
from critgroups.intmatrix import IntMatrix, det_bareiss
from critgroups.multigraph import (
    DisconnectedGraphError,
    Multigraph,
    laplacian,
    reduced_laplacian,
    spanning_tree_count,
)
from critgroups.oracles import brute_force_spanning_trees

TRIANGLE = Multigraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def random_connected(rng, max_extra=4):
    n = rng.randint(2, 6)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]  # random spanning tree
    for _ in range(rng.randint(0, max_extra)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append((u, v))  # may create loops and parallels
    return Multigraph.from_edges(n, edges)


def adjacency_matrix(g):
    """Reference for the Laplacian: the symmetric matrix of parallel-edge
    counts, loops excluded."""
    n = g.vertex_count
    a = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        if u != v:
            a[u][v] += 1
            a[v][u] += 1
    return IntMatrix.from_rows(a, n)


def test_adjacency_examples():
    assert adjacency_matrix(TRIANGLE) == IntMatrix.from_rows(
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]], 3
    )
    doubled = Multigraph.from_edges(2, [(0, 1), (0, 1)])
    assert adjacency_matrix(doubled) == IntMatrix.from_rows([[0, 2], [2, 0]], 2)
    loop = Multigraph.from_edges(1, [(0, 0)])
    assert adjacency_matrix(loop) == IntMatrix.from_rows([[0]], 1)


def test_laplacian_examples():
    p2 = Multigraph.from_edges(2, [(0, 1)])
    assert laplacian(p2) == IntMatrix.from_rows([[1, -1], [-1, 1]], 2)
    assert laplacian(TRIANGLE) == IntMatrix.from_rows(
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 3
    )


def test_laplacian_ignores_loops():
    withloop = Multigraph.from_edges(3, [(0, 1), (1, 2), (0, 2), (1, 1)])
    assert laplacian(withloop) == laplacian(TRIANGLE)
    assert spanning_tree_count(withloop) == spanning_tree_count(TRIANGLE)


def test_laplacian_rows_and_cols_sum_to_zero():
    rng = random.Random(3)
    for _ in range(50):
        g = random_connected(rng)
        lap = laplacian(g)
        for i in range(g.vertex_count):
            assert sum(lap.row(i)) == 0
            assert sum(lap.col(i)) == 0


def test_laplacian_is_degree_minus_adjacency():
    rng = random.Random(8)
    for _ in range(50):
        g = random_connected(rng)
        a = adjacency_matrix(g).to_rows()
        lap = laplacian(g).to_rows()
        for i, row in enumerate(a):
            assert lap[i] == [sum(row) if j == i else -x for j, x in enumerate(row)]


def test_reduced_laplacian_examples():
    p2 = Multigraph.from_edges(2, [(0, 1)])
    assert reduced_laplacian(p2, 0) == IntMatrix.from_rows([[1]], 1)
    assert reduced_laplacian(p2, 1) == IntMatrix.from_rows([[1]], 1)
    red = reduced_laplacian(TRIANGLE, 0)
    assert red == IntMatrix.from_rows([[2, -1], [-1, 2]], 2)
    assert det_bareiss(red) == 3
    c4 = Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert det_bareiss(reduced_laplacian(c4, 2)) == 4
    assert brute_force_spanning_trees(c4) == 4


@pytest.mark.parametrize(
    "g",
    [
        # loops at 0 and 3, a double edge 0-1 and a triple edge 2-3
        Multigraph.from_edges(4, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (2, 3), (3, 3), (0, 3)]),
        concentric_polygon(8)[0],
    ],
    ids=["looped_multigraph", "concentric_polygon(8)"],
)
def test_reduced_laplacian_deletes_the_root_row_and_column(g):
    lap = laplacian(g).to_rows()
    for r in range(g.vertex_count):
        kept = [row[:r] + row[r + 1 :] for i, row in enumerate(lap) if i != r]
        assert reduced_laplacian(g, r) == IntMatrix.from_rows(kept, g.vertex_count - 1)


def test_reduced_laplacian_root_independent():
    rng = random.Random(9)
    for _ in range(40):
        g = random_connected(rng)
        dets = {abs(det_bareiss(reduced_laplacian(g, r))) for r in range(g.vertex_count)}
        assert len(dets) == 1
        assert dets.pop() > 0


def test_reduced_laplacian_errors():
    single = Multigraph.from_edges(1, [])
    assert reduced_laplacian(single, 0) == IntMatrix(0, 0, [])
    with pytest.raises(ValueError):
        reduced_laplacian(single, 1)
    with pytest.raises(ValueError):
        reduced_laplacian(Multigraph.from_edges(0, []), 0)
    disconnected = Multigraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        reduced_laplacian(disconnected, 0)
    with pytest.raises(DisconnectedGraphError):
        spanning_tree_count(disconnected)


def test_tree_count_on_trees():
    path = Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Multigraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert spanning_tree_count(path) == 1
    assert spanning_tree_count(star) == 1


def test_is_tree():
    assert Multigraph.from_edges(1, []).is_tree()
    assert Multigraph.from_edges(4, [(0, 1), (1, 2), (1, 3)]).is_tree()
    assert not TRIANGLE.is_tree()
    assert not Multigraph.from_edges(4, [(0, 1), (1, 2), (0, 2)]).is_tree()  # 3 edges, disconnected
    assert not Multigraph.from_edges(2, [(0, 1), (1, 1)]).is_tree()  # a loop is a cycle
    assert not Multigraph.from_edges(0, []).is_tree()


def test_tree_count_matches_enumeration_on_small_graphs():
    rng = random.Random(17)
    for _ in range(60):
        g = random_connected(rng)
        if len(g.edges) <= 10:
            assert spanning_tree_count(g) == brute_force_spanning_trees(g)


def random_dense_multigraph(seed, n, extra):
    """A random recursive tree plus ``extra`` random edges, repeats kept
    as parallel edges (the shape of the benchmark's random instance)."""
    rng = random.Random(seed)
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    return Multigraph.from_edges(n, edges)


CYCLE4_CHAIN = (Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), [2, 3, 0, 1], 0, 2)

# The compute benchmark's families at small sizes, and its top rung.
TREE_COUNT_GRAPHS = {
    **{f"concentric_polygon({n})": (lambda n=n: concentric_polygon(n)[0]) for n in (3, 4, 7, 12)},
    **{f"chained_copies(cycle4,{n})": (lambda n=n: chained_copies(*CYCLE4_CHAIN, n)[0]) for n in (3, 5, 11)},
    **{f"circulant({n},[1,2])": (lambda n=n: circulant(n, [1, 2])[0]) for n in (5, 8, 17)},
    **{f"circulant({n},[1,3])": (lambda n=n: circulant(n, [1, 3])[0]) for n in (7, 10, 20)},
    **{f"random_multigraph(seed={s})": (lambda s=s: random_dense_multigraph(s, 12, 96)) for s in (1, 2)},
    "concentric_polygon(64)": lambda: concentric_polygon(64)[0],
}


@pytest.mark.parametrize("name", TREE_COUNT_GRAPHS)
def test_tree_count_is_the_critical_group_order(name):
    """The matrix-tree count (Bareiss) and the group order (Smith form)
    are two exact routes to the same number."""
    g = TREE_COUNT_GRAPHS[name]()
    assert spanning_tree_count(g) == critical_group(g).group.order


def test_canonical_edge_order_and_equality():
    a = Multigraph.from_edges(3, [(2, 0), (1, 0), (2, 1)])
    b = Multigraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert a == b
    assert a.edges == ((0, 1), (0, 2), (1, 2))


def test_label_validation():
    with pytest.raises(ValueError):
        Multigraph.from_edges(2, [(0, 1)], labels=["a", "a"])
    with pytest.raises(ValueError):
        Multigraph.from_edges(2, [(0, 2)])


def test_bool_endpoints_are_rejected():
    """True is an int subclass: the edges (0, True), (True, 2), (0, 2)
    would otherwise build the triangle, with group Z/3."""
    with pytest.raises(TypeError, match="edge endpoint True is not an int"):
        Multigraph(3, ((0, True), (True, 2), (0, 2)))


def test_float_endpoints_are_rejected():
    """A float endpoint would pass the range check and fail only inside
    critical_group, as a list index."""
    with pytest.raises(TypeError, match="edge endpoint 1.0 is not an int"):
        Multigraph(3, ((0, 1.0), (1, 2)))


def test_float_vertex_count_is_rejected():
    with pytest.raises(TypeError, match="vertex count 2.0 is not an int"):
        Multigraph(2.0, ((0, 1),))
