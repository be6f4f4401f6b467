"""Multigraph basics: adjacency, Laplacian, reduced determinants, and
the matrix-tree count against exhaustive enumeration."""

import random
from math import prod

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


def dense_laplacian(g):
    """Reference for the sparse Laplacian: degree minus adjacency as a
    dense list of rows."""
    a = adjacency_matrix(g).to_rows()
    return [[sum(row) if j == i else -x for j, x in enumerate(row)] for i, row in enumerate(a)]


@pytest.mark.parametrize(
    "g",
    [
        # loops at 0 and 3, a double edge 0-1 and a triple edge 2-3
        Multigraph.from_edges(4, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (2, 3), (3, 3), (0, 3)]),
        concentric_polygon(8)[0],
        circulant(6, [1, 3])[0],  # step 3 doubles the edges on the reflection axis
        Multigraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)] + [(i, i) for i in range(5)]),
        chained_copies(Multigraph.from_edges(3, [(0, 1), (0, 1), (1, 2), (1, 2)]), [2, 1, 0], 0, 2, 4)[0],
    ],
    ids=[
        "looped_multigraph",
        "concentric_polygon(8)",
        "circulant(6,[1,3])",
        "looped_cycle5",
        "doubled_path_chain",
    ],
)
def test_reduced_laplacian_deletes_the_root_row_and_column(g):
    """For every root, the reduced Laplacian built from the edge list is
    the dense reference with that row and column deleted; it compares
    and hashes equal to the matrix built from those dense rows."""
    lap = dense_laplacian(g)
    assert laplacian(g).to_rows() == lap
    for r in range(g.vertex_count):
        kept = [row[:r] + row[r + 1 :] for i, row in enumerate(lap) if i != r]
        red = reduced_laplacian(g, r)
        assert red.to_rows() == kept
        dense = IntMatrix.from_rows(kept, g.vertex_count - 1)
        assert red == dense and hash(red) == hash(dense)


def test_reduced_laplacian_root_independent():
    rng = random.Random(9)
    for _ in range(40):
        g = random_connected(rng)
        dets = {abs(det_bareiss(reduced_laplacian(g, r))) for r in range(g.vertex_count)}
        assert len(dets) == 1
        assert dets.pop() > 0


@pytest.mark.parametrize("root", [True, False, 1.0, "1", None])
def test_reduced_laplacian_root_must_be_an_int(root):
    """A bool root would be read as the index 1 or 0, and a float one
    failed inside list indexing with a message naming no argument."""
    with pytest.raises(TypeError, match=f"root {root!r} is not an int"):
        reduced_laplacian(TRIANGLE, root)


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


def test_compute_path_reads_no_dense_row(monkeypatch):
    """The critical group and the tree count of concentric_polygon(64)
    come out right with IntMatrix.row and IntMatrix.to_rows disabled:
    the reduced Laplacian, the Smith form and Bareiss read only the
    stored nonzeros."""

    def dense(*args):
        raise AssertionError("read a dense row on the compute path")

    monkeypatch.setattr(IntMatrix, "row", dense)
    monkeypatch.setattr(IntMatrix, "to_rows", dense)
    g = concentric_polygon(64)[0]
    factors = (160, 7374930956874974904143023879840, 176998342964999397699432573116160)
    assert critical_group(g).group.factors == factors
    assert spanning_tree_count(g) == prod(factors)


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
