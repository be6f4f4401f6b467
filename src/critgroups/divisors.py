"""The critical group of a connected multigraph, and divisor classes in it.

A divisor is a sequence of int chip counts, one per vertex, returned as
a tuple.  The critical group is the ``Cokernel`` of the reduced
Laplacian at vertex 0, over degree-zero divisors: its ``project`` and
``quotient_by`` take a divisor and drop vertex 0's chip count.  Every
question about classes is answered in the group's own invariant-factor
coordinates: a divisor is principal exactly when its projection
vanishes, and quotients are taken over the k invariant factors.  The
tests and the ``--oracle`` sweep check principality against lattice
membership in the firing lattice.
"""

from __future__ import annotations

from typing import Sequence

from .abelian import Cokernel, FinAbGroup
from .intmatrix import IntMatrix, int_tuple
from .multigraph import DisconnectedGraphError, Multigraph, reduced_laplacian


class CriticalGroupData(Cokernel):
    """Critical group of a connected multigraph: the cokernel of the
    reduced Laplacian at vertex 0, whose ambient vectors are degree-zero
    divisors; dropping vertex 0's chip count makes them arbitrary integer
    vectors on the other vertices."""

    def __init__(self, graph: Multigraph):
        if not graph.is_connected():
            raise DisconnectedGraphError("critical group needs a connected graph")
        self.graph = graph
        # The empty graph has no root; its group is trivial.
        self.reduced = reduced_laplacian(graph, 0) if graph.vertex_count else IntMatrix(0, 0, [])
        super().__init__(self.reduced)

    def _degree_zero(self, d: Sequence[int]) -> list[int]:
        """d's chip counts, checked: ints, one per vertex, summing to 0."""
        vals = list(int_tuple(d, "chip count"))
        if len(vals) != self.graph.vertex_count:
            raise ValueError("divisor length differs from vertex count")
        if sum(vals) != 0:
            raise ValueError("operation requires a degree-zero divisor")
        return vals

    def _dropped(self, d: Sequence[int]) -> list[int]:
        return self._degree_zero(d)[1:]

    def project(self, d: Sequence[int]) -> tuple[int, ...]:
        """Class of a degree-zero divisor in invariant-factor coordinates."""
        return super().project(self._dropped(d))

    def order_of(self, d: Sequence[int]) -> int:
        """Order of the divisor class in the critical group."""
        return self.element_order(self.project(d))

    def generator_divisors(self) -> list[tuple[int, ...]]:
        """Divisors whose classes are the invariant-factor generators."""
        return [(-sum(lift), *lift) for lift in self._lifts]


def critical_group(g: Multigraph) -> CriticalGroupData:
    return CriticalGroupData(g)


def is_principal(cg: CriticalGroupData, d: Sequence[int]) -> bool:
    """Is d an integral combination of Laplacian columns?

    Decided by projection: the class of d vanishes in every
    invariant-factor coordinate.
    """
    return not any(cg.project(d))


def subgroup_generated(cg: CriticalGroupData, gens: Sequence[Sequence[int]]) -> FinAbGroup:
    """The subgroup the classes of gens generate: the kernel onto the quotient by them."""
    return cg.kernel_onto(cg.quotient_by(gens))


def quotient_by_subgroup(cg: CriticalGroupData, gens: Sequence[Sequence[int]]) -> Cokernel:
    """The critical group modulo the subgroup the classes of gens generate."""
    return cg.quotient_by(gens)
