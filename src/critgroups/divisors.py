"""The critical group of a connected multigraph, and divisor classes in it.

A divisor is a sequence of int chip counts, one per vertex, returned as
a tuple.  The critical group is the cokernel of the reduced Laplacian.
A divisor class is always carried as an explicit divisor plus a
projection into the group's own invariant-factor coordinates, and every
question about classes is answered there: a divisor is principal
exactly when its projection vanishes, and quotients are taken over the
k invariant factors.  The tests and the ``--oracle`` sweep check
principality against lattice membership in the firing lattice.
"""

from __future__ import annotations

from typing import Sequence

from .abelian import Cokernel, FinAbGroup
from .intmatrix import IntMatrix, int_tuple
from .multigraph import DisconnectedGraphError, Multigraph, reduced_laplacian


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

    def generator_divisors(self) -> list[tuple[int, ...]]:
        """Divisors whose classes are the invariant-factor generators."""
        return [
            (*lift[: self.root], -sum(lift), *lift[self.root :])
            for lift in self._coker.generator_lifts()
        ]


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
