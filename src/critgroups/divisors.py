"""Divisors, chip-firing, and the critical group of a connected multigraph.

The critical group is the cokernel of the reduced Laplacian.  A divisor
class is always carried as an explicit divisor plus a projection into
the group's own invariant-factor coordinates, and every question about
classes is answered there: a divisor is principal exactly when its
projection vanishes, and quotients are taken over the k invariant
factors.  The tests and the ``--oracle`` sweep check principality
against lattice membership in the firing lattice.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .abelian import Cokernel, FinAbGroup
from .intmatrix import IntMatrix, int_tuple
from .multigraph import DisconnectedGraphError, Multigraph, laplacian, reduced_laplacian


class Divisor:
    """Integer chip counts on the vertices of a fixed graph.

    Immutable, and equal to another divisor with the same graph and
    values.  A slotted class rather than a named tuple, because it reads
    as the sequence of its chip counts (``len``, iteration)."""

    __slots__ = ("graph", "values")

    def __init__(self, graph: Multigraph, values: tuple[int, ...]):
        values = int_tuple(values, "chip count")
        if len(values) != graph.vertex_count:
            raise ValueError("divisor length differs from vertex count")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Divisor is immutable; {name!r} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not Divisor:
            return NotImplemented
        return (self.graph, self.values) == (other.graph, other.values)

    def __hash__(self):
        return hash((self.graph, self.values))

    def __repr__(self) -> str:
        return f"Divisor(graph={self.graph!r}, values={self.values!r})"

    def __reduce__(self):
        return Divisor, (self.graph, self.values)

    @property
    def degree(self) -> int:
        return sum(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def to_json(self) -> dict:
        return {self.graph.label(v): x for v, x in enumerate(self.values) if x}


class FiringScript(namedtuple("FiringScript", "graph counts")):
    """How many times each vertex fires (negative means borrowing)."""

    __slots__ = ()

    def __new__(cls, graph: Multigraph, counts: tuple[int, ...]):
        counts = int_tuple(counts, "firing count")
        if len(counts) != graph.vertex_count:
            raise ValueError("script length differs from vertex count")
        return super().__new__(cls, graph, counts)


def apply_firing(d: Divisor, s: FiringScript) -> Divisor:
    """Result of running the script: d minus Laplacian times s."""
    if d.graph != s.graph:
        raise ValueError("divisor and script live on different graphs")
    lap = laplacian(d.graph)
    moved = lap.apply(list(s.counts))
    return Divisor(d.graph, tuple(a - b for a, b in zip(d.values, moved)))


class CriticalGroupData:
    """Critical group of a connected multigraph with projection data.

    The root vertex is the lowest index; dropping its coordinate turns
    degree-zero divisors into arbitrary integer vectors on the other
    vertices, and the group is the cokernel of the reduced Laplacian.
    """

    def __init__(self, graph: Multigraph):
        if not graph.is_connected():
            raise DisconnectedGraphError("critical group needs a connected graph")
        self.graph = graph
        self.root = 0
        # The empty graph has no root; its group is trivial.
        n = graph.vertex_count
        self.reduced = reduced_laplacian(graph, self.root) if n else IntMatrix(0, 0, [])
        self._coker = Cokernel(self.reduced)
        self.group = self._coker.group

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.group.factors

    def _degree_zero(self, d: Sequence[int]) -> list[int]:
        """d's chip counts, checked: ints, one per vertex, summing to 0."""
        vals = list(int_tuple(d, "chip count"))
        if len(vals) != self.graph.vertex_count:
            raise ValueError("divisor length differs from vertex count")
        if sum(vals) != 0:
            raise ValueError("operation requires a degree-zero divisor")
        return vals

    def _dropped(self, d: Sequence[int]) -> list[int]:
        vals = self._degree_zero(d)
        return vals[: self.root] + vals[self.root + 1 :]

    def project(self, d: Sequence[int]) -> tuple[int, ...]:
        """Class of a degree-zero divisor in invariant-factor coordinates."""
        return self._coker.project(self._dropped(d))

    def order_of(self, d: Sequence[int]) -> int:
        """Order of the divisor class in the critical group."""
        return self._coker.element_order(self.project(d))

    def generator_divisors(self) -> list[Divisor]:
        """Divisors whose classes are the invariant-factor generators."""
        out = []
        for lift in self._coker.generator_lifts():
            vals = list(lift)
            vals.insert(self.root, -sum(lift))
            out.append(Divisor(self.graph, tuple(vals)))
        return out


def critical_group(g: Multigraph) -> CriticalGroupData:
    return CriticalGroupData(g)


def is_principal(cg: CriticalGroupData, d: Sequence[int]) -> bool:
    """Is d an integral combination of Laplacian columns?

    Decided by projection: the class of d vanishes in every
    invariant-factor coordinate.
    """
    return not any(cg.project(d))


def subgroup_generated(cg: CriticalGroupData, gens: Sequence[Sequence[int]]) -> FinAbGroup:
    """Structure of the subgroup generated by the classes of gens: the
    kernel of the projection onto the quotient by them."""
    return cg._coker.kernel_onto(quotient_by_subgroup(cg, gens))


def quotient_by_subgroup(cg: CriticalGroupData, gens: Sequence[Sequence[int]]) -> Cokernel:
    """Critical group modulo the subgroup generated by gens, as a
    cokernel over the group's own invariant-factor coordinates."""
    return cg._coker.quotient_by([cg._dropped(d) for d in gens])
