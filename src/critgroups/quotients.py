"""Quotients of multigraphs by harmonic group actions.

The quotient identifies each vertex orbit to a point.  Edge orbits
running between two distinct vertex orbits descend to quotient edges
(one per orbit); edge orbits inside a single vertex orbit would become
loops and are dropped.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .actions import generate_group, orbits, require_harmonic
from .intmatrix import int_tuple
from .multigraph import Multigraph


class QuotientResult(NamedTuple):
    """A harmonic quotient together with its covering data.

    ``order`` is |group|, ``vertex_map`` sends each source vertex to its
    quotient vertex and ``multiplicity`` is the horizontal multiplicity
    |stabilizer(v)| = |group| / orbit size.
    """

    source: Multigraph
    order: int
    quotient: Multigraph
    vertex_map: tuple[int, ...]
    multiplicity: tuple[int, ...]


def quotient_graph(g: Multigraph, group: Sequence[Sequence[int]]) -> QuotientResult:
    """Quotient of g by the group generated by the given automorphisms.

    The action must be harmonic; that is what makes every edge orbit
    between distinct vertex orbits have exactly |group| members, so the
    quotient edge count is the plain quotient of edge counts.
    """
    elements = tuple(generate_group(g, list(group)))
    require_harmonic(g, elements)
    return orbit_quotient(g, elements, len(elements))


def orbit_quotient(g: Multigraph, generators: Sequence[Sequence[int]], order: int) -> QuotientResult:
    """The quotient by the group of the given order that the automorphisms
    generate, without closing it; the action must be known to be harmonic."""
    orbs = orbits(generators, g.vertex_count)

    orbit_index = [0] * g.vertex_count
    for qi, orb in enumerate(orbs):
        for v in orb:
            orbit_index[v] = qi

    labels = [f"o_{g.label(min(orb))}" for orb in orbs]
    between: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        a, b = orbit_index[u], orbit_index[v]
        if a != b:
            key = (a, b) if a < b else (b, a)
            between[key] = between.get(key, 0) + 1

    qedges: list[tuple[int, int]] = []
    for (a, b), count in sorted(between.items()):
        if count % order != 0:
            raise AssertionError(
                "edge orbit count is not |group|; harmonicity check failed to "
                "catch a degenerate action"
            )
        qedges.extend([(a, b)] * (count // order))

    quotient = Multigraph.from_edges(len(orbs), qedges, labels)
    mult = tuple(order // len(orbs[orbit_index[v]]) for v in range(g.vertex_count))
    return QuotientResult(
        source=g,
        order=order,
        quotient=quotient,
        vertex_map=tuple(orbit_index),
        multiplicity=mult,
    )


def pullback(q: QuotientResult, dhat: Sequence[int]) -> list[int]:
    """Pull a quotient divisor back: value m(v) * dhat(image of v)."""
    dhat = int_tuple(dhat, "chip count")
    if len(dhat) != q.quotient.vertex_count:
        raise ValueError("divisor not indexed by quotient vertices")
    return [
        q.multiplicity[v] * dhat[q.vertex_map[v]]
        for v in range(q.source.vertex_count)
    ]


def pullback_witness(q: QuotientResult, delta: Sequence[int]) -> list[int] | None:
    """The quotient divisor pulling back to delta, or None.

    delta is a pullback iff it is constant on fibers and each value is
    divisible by the horizontal multiplicity there.
    """
    delta = int_tuple(delta, "chip count")
    if len(delta) != q.source.vertex_count:
        raise ValueError("divisor not indexed by source vertices")
    if sum(delta) != 0:
        raise ValueError("pullback criterion applies to degree-zero divisors")
    dhat = [None] * q.quotient.vertex_count
    for v, val in enumerate(delta):
        m = q.multiplicity[v]
        if val % m != 0:
            return None
        w = val // m
        img = q.vertex_map[v]
        if dhat[img] is None:
            dhat[img] = w
        elif dhat[img] != w:
            return None
    return [x if x is not None else 0 for x in dhat]


def is_pullback(q: QuotientResult, delta: Sequence[int]) -> bool:
    return pullback_witness(q, delta) is not None
