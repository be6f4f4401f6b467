"""Finite abelian groups presented by invariant factors.

A group is stored canonically as a chain d1 | d2 | ... | dk with every
di >= 2; the empty chain is the trivial group.  Construction accepts any
list of cyclic moduli and refolds it into the canonical chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .intmatrix import IntMatrix, Lattice, smith_normal_form


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def canonical_chain(moduli: Sequence[int]) -> tuple[int, ...]:
    """Refold arbitrary cyclic moduli into the invariant-factor chain.

    Splits each modulus into prime powers and regroups them so that the
    result satisfies d1 | d2 | ... with no factor equal to 1.
    """
    powers: dict[int, list[int]] = {}
    for m in moduli:
        m = int(m)
        if m < 0:
            m = -m
        if m in (0,):
            raise ValueError("infinite cyclic factor not supported")
        if m == 1:
            continue
        for p, e in _factorint(m).items():
            powers.setdefault(p, []).append(e)
    if not powers:
        return ()
    depth = max(len(v) for v in powers.values())
    factors = []
    for slot in range(depth):
        d = 1
        for p, exps in powers.items():
            exps_sorted = sorted(exps, reverse=True)
            if slot < len(exps_sorted):
                d *= p ** exps_sorted[slot]
        factors.append(d)
    factors.reverse()  # largest slot holds the biggest factor
    return tuple(factors)


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group as a canonical invariant-factor chain."""

    factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", canonical_chain(self.factors))

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(())

    @classmethod
    def cyclic(cls, n: int) -> "FinAbGroup":
        return cls((n,))

    @property
    def order(self) -> int:
        return prod(self.factors) if self.factors else 1

    @property
    def exponent(self) -> int:
        """Largest element order (the last invariant factor)."""
        return self.factors[-1] if self.factors else 1

    def is_trivial(self) -> bool:
        return not self.factors

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        return " + ".join(f"Z/{d}" for d in self.factors)

    def to_json(self) -> dict:
        return {"invariant_factors": list(self.factors)}


def is_isomorphic(a: FinAbGroup, b: FinAbGroup) -> bool:
    return a.factors == b.factors


def direct_sum(*groups: FinAbGroup) -> FinAbGroup:
    moduli: list[int] = []
    for g in groups:
        moduli.extend(g.factors)
    return FinAbGroup(tuple(moduli))


def cokernel(relations: IntMatrix) -> "Cokernel":
    """Structure and coordinate map of Z^rows / column-span(relations)."""
    return Cokernel(relations)


class Cokernel:
    """Z^n modulo the integer column span of a relation matrix, in its
    own invariant-factor coordinates.

    Of the Smith form only the k rows of the row transform whose factor
    d_r exceeds 1 are kept, each reduced mod d_r, with the k matching
    columns of its inverse.  The quotient must be finite (the relations
    have full row rank); this is asserted at construction.
    """

    def __init__(self, relations: IntMatrix):
        self.relations = relations
        snf = smith_normal_form(relations)
        n = relations.rows
        diag = [snf.S[i, i] for i in range(min(n, relations.cols))]
        if len(diag) < n or any(d == 0 for d in diag):
            raise ValueError("cokernel is infinite: relations not full rank")
        kept = [(r, d) for r, d in enumerate(diag) if d != 1]
        self.moduli = tuple(d for _, d in kept)
        self._rows = [[x % d for x in snf.U.row(r)] for r, d in kept]
        self._lifts = [snf.Uinv.col(r) for r, _ in kept]
        self.group = FinAbGroup(self.moduli)

    def project(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Class of an ambient vector, in generator coordinates."""
        if len(vec) != self.relations.rows:
            raise ValueError("dimension mismatch")
        return tuple(
            sum(a * x for a, x in zip(row, vec)) % d
            for row, d in zip(self._rows, self.moduli)
        )

    def generator_lifts(self) -> list[list[int]]:
        """Ambient vectors whose classes are the standard generators."""
        return [list(lift) for lift in self._lifts]

    def quotient_by(self, vectors: Sequence[Sequence[int]]) -> FinAbGroup:
        """This group modulo the subgroup generated by the classes of
        ambient vectors: the cokernel of [diag(d) | projected vectors]."""
        coords = [self.project(v) for v in vectors]
        relations = IntMatrix.diagonal(list(self.moduli))
        return cokernel(relations.hstack(IntMatrix.from_cols(coords, len(self.moduli)))).group

    def element_order(self, coords: Sequence[int]) -> int:
        from math import gcd, lcm

        if len(coords) != len(self.moduli):
            raise ValueError("coordinate length mismatch")
        orders = [d // gcd(d, c) for c, d in zip(coords, self.moduli)]
        return lcm(*orders) if orders else 1


def lattice_quotient(outer: IntMatrix, inner: IntMatrix) -> FinAbGroup:
    """Structure of (column span of outer) / (column span of inner).

    Both spans must have full rank in the ambient space and the inner
    span must lie inside the outer one.
    """
    lattice = Lattice(outer)
    if lattice.rank != outer.rows:
        raise ValueError("outer lattice does not have full rank")
    # Coordinates over the outer lattice's Hermite basis, one HNF for all.
    coords = []
    for j in range(inner.cols):
        x = lattice.hermite_coords(inner.col(j))
        if x is None:
            raise ValueError("inner lattice not contained in outer lattice")
        coords.append(x)
    return cokernel(IntMatrix.from_cols(coords, lattice.rank)).group


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between groups given by generator presentations.

    ``source_moduli`` and ``target_moduli`` are the cyclic orders of the
    chosen generating sets (not necessarily canonical chains); ``matrix``
    maps source generator coordinates to target generator coordinates.
    """

    source_moduli: tuple[int, ...]
    target_moduli: tuple[int, ...]
    matrix: IntMatrix

    def __post_init__(self):
        k, m = len(self.source_moduli), len(self.target_moduli)
        if self.matrix.rows != m or self.matrix.cols != k:
            raise ValueError("hom matrix shape mismatch")
        for j, a in enumerate(self.source_moduli):
            for i, b in enumerate(self.target_moduli):
                if (a * self.matrix[i, j]) % b != 0:
                    raise ValueError(
                        f"ill-defined hom: relation {a}*e{j} maps outside "
                        f"the target lattice at row {i}"
                    )


def kernel_of_hom(h: GroupHom) -> FinAbGroup:
    """Invariant factors of ker(h), as the cokernel of the dual map.

    Finite abelian groups are self-dual, and ker(h) is dual to the
    cokernel of h's dual map.  On the characters e_j -> 1/a_j that map
    sends target character i to column i of N[j][i] = matrix[i, j] *
    a_j / b_i, integral as h is well defined; so ker(h) is the cokernel
    of [diag(a) | N].
    """
    a, b = h.source_moduli, h.target_moduli
    dual = [[h.matrix[i, j] * a[j] // b[i] for j in range(len(a))] for i in range(len(b))]
    return cokernel(IntMatrix.diagonal(list(a)).hstack(IntMatrix.from_cols(dual, len(a)))).group
