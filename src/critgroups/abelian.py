"""Finite abelian groups presented by invariant factors.

A group is stored canonically as a chain d1 | d2 | ... | dk with every
di >= 2; the empty chain is the trivial group.  Construction accepts any
list of cyclic moduli and refolds it into the canonical chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .intmatrix import IntMatrix, Lattice, integer_kernel, smith_normal_form


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
    """Z^n modulo the integer column span of a relation matrix.

    The quotient must be finite (the relations have full row rank);
    this is asserted at construction.
    """

    def __init__(self, relations: IntMatrix):
        self.relations = relations
        snf = smith_normal_form(relations)
        n = relations.rows
        diag = [snf.S[i, i] for i in range(min(n, relations.cols))]
        if len(diag) < n or any(d == 0 for d in diag):
            raise ValueError("cokernel is infinite: relations not full rank")
        self._snf = snf
        self.moduli = tuple(d for d in diag if d != 1)
        self._rows_kept = tuple(i for i, d in enumerate(diag) if d != 1)
        self.group = FinAbGroup(self.moduli)

    def project(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Class of an ambient vector, in generator coordinates."""
        if len(vec) != self.relations.rows:
            raise ValueError("dimension mismatch")
        img = self._snf.U.apply(list(vec))
        return tuple(img[r] % d for r, d in zip(self._rows_kept, self.moduli))

    def generator_lifts(self) -> list[list[int]]:
        """Ambient vectors whose classes are the standard generators."""
        return [self._snf.Uinv.col(r) for r in self._rows_kept]

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
    return cokernel(IntMatrix.from_cols(coords)).group


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

    @property
    def source_order(self) -> int:
        return prod(self.source_moduli) if self.source_moduli else 1


def kernel_of_hom(h: GroupHom) -> FinAbGroup:
    """Invariant factors of ker(h), computed on integer lattices.

    Lifts the condition  matrix @ x == 0 in the target  to the integer
    lattice {x : matrix @ x in relation lattice of target}, then divides
    by the source relations.
    """
    k = len(h.source_moduli)
    if k == 0:
        return FinAbGroup.trivial()
    target_rel = IntMatrix.diagonal(list(h.target_moduli))
    stacked = h.matrix.hstack(target_rel) if target_rel.cols else h.matrix
    ker = integer_kernel(stacked)
    preimage_cols = [ker.col(j)[:k] for j in range(ker.cols)]
    source_rel = IntMatrix.diagonal(list(h.source_moduli))
    for j in range(source_rel.cols):
        preimage_cols.append(source_rel.col(j))
    preimage = IntMatrix.from_cols(preimage_cols)
    return lattice_quotient(preimage, source_rel)


def image_order(h: GroupHom) -> int:
    """|source| / |kernel|."""
    return h.source_order // kernel_of_hom(h).order
