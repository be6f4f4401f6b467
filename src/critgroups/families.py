"""Constructors for the graph families used throughout: circulants,
chained copies of a base graph, concentric polygons, the complete
bipartite Klein example and the five-vertex doubled-edge counterexample.

Each constructor returns the graph together with its dihedral action
(two involutions), already validated: automorphisms, involutions,
group order, and harmonicity.
"""

from __future__ import annotations

from math import gcd

from .actions import DihedralAction, check_automorphism, compose, identity_perm
from .actions import _dihedral_offender, _refuse_offender
from .intmatrix import int_tuple
from .multigraph import DisconnectedGraphError, Multigraph


def _harmonic_action(
    g: Multigraph, sigma1: list[int], sigma2: list[int]
) -> tuple[Multigraph, DihedralAction]:
    """The graph with the dihedral action of the two involutions, checked
    to be harmonic."""
    action = DihedralAction.build(g, sigma1, sigma2)
    _refuse_offender(g, _dihedral_offender(g, action))
    return g, action


def circulant(n: int, steps: list[int]) -> tuple[Multigraph, DihedralAction]:
    """Circulant graph on n vertices with the reflection pair fixing the
    vertex indexing: the first involution sends v_j to v_{n+1-j}, the
    second to v_{n+2-j}.

    Each step contributes one edge per vertex, so a step pair {a, n-a}
    doubles its edges (the triangle with both steps 1 and 2 has twelve
    spanning trees, not three).  Exact duplicate steps are dropped; the
    graph must come out connected.
    """
    if n < 3:
        raise ValueError("circulant needs n >= 3")
    canon = []
    for a in int_tuple(steps, "circulant step"):
        if not 1 <= a < n:
            raise ValueError(f"step {a} out of range 1..{n - 1}")
        if a not in canon:
            canon.append(a)
    canon.sort()
    if gcd(n, *canon) != 1:
        raise DisconnectedGraphError(
            f"circulant with steps {canon} on {n} vertices is disconnected"
        )
    edges = [(i, (i + a) % n) for a in canon for i in range(n)]
    g = Multigraph.from_edges(n, edges, labels=[f"v{i + 1}" for i in range(n)])
    sigma1 = [(n - 1 - i) % n for i in range(n)]
    sigma2 = [(n - i) % n for i in range(n)]
    return _harmonic_action(g, sigma1, sigma2)


def chained_copies(
    base: Multigraph, phi: list[int], a: int, b: int, n: int
) -> tuple[Multigraph, DihedralAction]:
    """Cycle of n copies of a base graph glued along an involution.

    Copy i contributes every base vertex except b; the vertex b of copy
    i is identified with the vertex a of copy i+1 (indices mod n, so the
    chain closes into a cycle).  The dihedral action is generated by the
    copy-reversing involutions (v, i) -> (phi(v), -i) and
    (v, i) -> (phi(v), 1 - i).
    """
    a, b, n = int_tuple((a, b, n), "chain argument")
    if n < 2:
        raise ValueError("need at least two copies")
    for v in (a, b):
        if v not in range(base.vertex_count):
            raise ValueError(f"gluing vertex {v} out of range 0..{base.vertex_count - 1}")
    perm = check_automorphism(base, phi)
    if compose(perm, perm) != identity_perm(base.vertex_count):
        raise ValueError("phi is not an involution")
    if a == b:
        raise ValueError("gluing endpoints must be distinct")
    if perm[a] != b:
        raise ValueError("phi must send the first endpoint to the second")

    kept = [v for v in range(base.vertex_count) if v != b]
    pos = {v: k for k, v in enumerate(kept)}
    m = len(kept)

    def vid(v: int, i: int) -> int:
        i %= n
        if v == b:
            v, i = a, (i + 1) % n
        return i * m + pos[v]

    edges = []
    for i in range(n):
        for u, w in base.edges:
            edges.append((vid(u, i), vid(w, i)))
    labels = [f"{base.label(v)}@{i}" for i in range(n) for v in kept]
    g = Multigraph.from_edges(n * m, edges, labels=labels)

    sigma1 = [0] * (n * m)
    sigma2 = [0] * (n * m)
    for i in range(n):
        for v in kept:
            sigma1[vid(v, i)] = vid(perm[v], -i)
            sigma2[vid(v, i)] = vid(perm[v], 1 - i)
    return _harmonic_action(g, sigma1, sigma2)


# Named base graphs for chained_copies, as (base, phi, a, b).
CHAIN_BASES = {
    "edge": (Multigraph.from_edges(2, [(0, 1)], labels=["a", "b"]), [1, 0], 0, 1),
    "path": (
        Multigraph.from_edges(3, [(0, 1), (1, 2)], labels=["a", "m", "b"]),
        [2, 1, 0],
        0,
        2,
    ),
    "cycle4": (
        Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels=["a", "p", "b", "q"]),
        [2, 3, 0, 1],
        0,
        2,
    ),
}


def concentric_polygon(n: int) -> tuple[Multigraph, DihedralAction]:
    """Inner n-cycle, outer 2n-cycle, and spokes tying them together.

    Vertices: inner z1..zn, outer x1..xn and y1..yn arranged around the
    outer cycle as x1, y2, x2, y3, ...; each z_i holds spokes to x_i and
    y_i.  The first involution is the reflection fixing z1 (it maps
    indices by j -> n+2-j, exchanging the strands); the second is the
    adjacent reflection j -> n+3-j.
    """
    if n < 3:
        raise ValueError("concentric polygon needs n >= 3")

    def z(i):
        return i % n

    def x(i):
        return n + i % n

    def y(i):
        return 2 * n + i % n

    edges = []
    for i in range(n):
        edges.append((z(i), z(i + 1)))
        edges.append((x(i), y(i)))
        edges.append((x(i), y(i + 1)))
        edges.append((z(i), x(i)))
        edges.append((z(i), y(i)))
    labels = (
        [f"z{i + 1}" for i in range(n)]
        + [f"x{i + 1}" for i in range(n)]
        + [f"y{i + 1}" for i in range(n)]
    )
    g = Multigraph.from_edges(3 * n, edges, labels=labels)

    sigma1 = [0] * (3 * n)
    sigma2 = [0] * (3 * n)
    for i in range(n):  # 0-based index i is 1-based j = i+1
        sigma1[z(i)] = z(n - i)  # j -> n+2-j
        sigma1[x(i)] = y(n - i)
        sigma1[y(i)] = x(n - i)
        sigma2[z(i)] = z(n + 1 - i)  # j -> n+3-j
        sigma2[x(i)] = y(n + 1 - i)
        sigma2[y(i)] = x(n + 1 - i)
    return _harmonic_action(g, sigma1, sigma2)


def klein_example() -> tuple[Multigraph, DihedralAction]:
    """Complete bipartite graph on {x1, x2} and {a1, a2, b1, b2} with
    the involutions swapping x1/x2 and a_i/b_i."""
    g = Multigraph.from_edges(
        6,
        [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)],
        labels=["x1", "x2", "a1", "a2", "b1", "b2"],
    )
    return _harmonic_action(g, [1, 0, 2, 3, 4, 5], [0, 1, 4, 5, 2, 3])


def intro_counterexample() -> tuple[Multigraph, DihedralAction]:
    """Five vertices v1, x1, x2, x3, v2 with doubled edges from each hub
    to each middle vertex.  The action fixes both hubs, so its orbits
    are too small for the decomposition machinery; it is still harmonic
    because the edge doubling lets stabilizers act freely.  The paper
    gives the involutions as permutations of the twelve edges; on the
    vertices they are (x2 x3) and (x1 x2).
    """
    edges = [e for m in (1, 2, 3) for e in [(0, m), (m, 4)] * 2]
    g = Multigraph.from_edges(5, edges, labels=["v1", "x1", "x2", "x3", "v2"])
    return _harmonic_action(g, [0, 1, 3, 2, 4], [0, 2, 1, 3, 4])
