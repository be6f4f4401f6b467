"""Finite undirected multigraphs with exact Laplacian computations.

Parallel edges are first-class citizens (repeated endpoint pairs) and
loops are representable but never contribute to degrees, adjacency, or
the Laplacian: chip-firing cannot see them.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain
from typing import Iterable, Sequence

from .intmatrix import IntMatrix, det_bareiss, int_tuple


class DisconnectedGraphError(ValueError):
    pass


class Multigraph(namedtuple("Multigraph", "vertex_count edges labels")):
    """Undirected multigraph on vertices 0..n-1 with optional labels.

    The edge list is canonicalized (each pair sorted, list sorted) so
    equal graphs compare equal; no isomorphism testing happens here.
    """

    __slots__ = ()

    def __new__(
        cls,
        vertex_count: int,
        edges: tuple[tuple[int, int], ...],
        labels: tuple[str, ...] | None = None,
    ):
        int_tuple((vertex_count,), "vertex count")
        int_tuple(chain.from_iterable(edges), "edge endpoint")
        if vertex_count < 0:
            raise ValueError("negative vertex count")
        canon = []
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            canon.append((u, v) if u <= v else (v, u))
        canon.sort()
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != vertex_count:
                raise ValueError("label count mismatch")
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate vertex labels")
        return super().__new__(cls, vertex_count, tuple(canon), labels)

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "Multigraph":
        return cls(vertex_count, tuple(edges), tuple(labels) if labels else None)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def pair_multiplicities(self) -> Counter:
        """Counter over distinct non-loop endpoint pairs."""
        return Counter(e for e in self.edges if e[0] != e[1])

    def is_connected(self) -> bool:
        n = self.vertex_count
        if n <= 1:
            return True
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in self.edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    def is_tree(self) -> bool:
        return len(self.edges) == self.vertex_count - 1 and self.is_connected()


def _laplacian_rows(g: Multigraph) -> list[dict[int, int]]:
    """Each row's nonzeros of degree minus adjacency matrix, by column, in O(V + E)."""
    rows: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
    for (u, v), mult in g.pair_multiplicities().items():
        rows[u][v] = rows[v][u] = -mult
        rows[u][u] = rows[u].get(u, 0) + mult
        rows[v][v] = rows[v].get(v, 0) + mult
    return rows


def laplacian(g: Multigraph) -> IntMatrix:
    """Degree matrix minus adjacency matrix (positive semidefinite)."""
    return IntMatrix._of(g.vertex_count, g.vertex_count, _laplacian_rows(g))


def reduced_laplacian(g: Multigraph, root: int) -> IntMatrix:
    """Laplacian with the root's row and column deleted; 0 x 0 on one vertex."""
    int_tuple((root,), "root")
    if not g.is_connected():
        raise DisconnectedGraphError("reduced Laplacian needs a connected graph")
    if not (0 <= root < g.vertex_count):
        raise ValueError("root out of range")
    rows = [{j - (j > root): x for j, x in row.items() if j != root} for row in _laplacian_rows(g)]
    del rows[root]  # its column went above, and later columns moved one to the left
    return IntMatrix._of(len(rows), len(rows), rows)


def spanning_tree_count(g: Multigraph) -> int:
    """Matrix-tree count; root-independent, loops ignored."""
    if not g.is_connected():
        raise DisconnectedGraphError("spanning trees need a connected graph")
    if g.vertex_count <= 1:
        return 1
    return abs(det_bareiss(reduced_laplacian(g, 0)))
