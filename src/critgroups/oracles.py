"""Brute-force reference computations.

These are deliberately naive and exponential; they exist to cross-check
the production algorithms on small inputs and are capped accordingly.
"""

from __future__ import annotations

from itertools import combinations

from .multigraph import Multigraph

BRUTE_VERTEX_CAP = 12
BRUTE_EDGE_CAP = 20


class OracleRefused(ValueError):
    """Input too large for an exponential cross-check."""


def brute_force_spanning_trees(g: Multigraph) -> int:
    """Count spanning trees by enumerating edge subsets."""
    if g.vertex_count > BRUTE_VERTEX_CAP or len(g.edges) > BRUTE_EDGE_CAP:
        raise OracleRefused(
            f"brute-force tree count refused beyond {BRUTE_VERTEX_CAP} vertices "
            f"/ {BRUTE_EDGE_CAP} edges (got {g.vertex_count}/{len(g.edges)})"
        )
    n = g.vertex_count
    if n <= 1:
        return 1
    count = 0
    for subset in combinations(range(len(g.edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for k in subset:
            u, v = g.edges[k]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count

