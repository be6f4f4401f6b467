"""Finite abelian groups presented by invariant factors.

A group is stored canonically as a chain d1 | d2 | ... | dk with every
di >= 2; the empty chain is the trivial group.  Construction accepts any
list of int moduli (no other type) and refolds it into the canonical chain.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import gcd, isqrt, lcm, prod
from typing import Sequence

from .intmatrix import IntMatrix, Lattice, _walk_log, int_tuple, smith_normal_form


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division over a 2·3·5·7 wheel.

    After 2, 3, 5 and 7, the 48 residues mod 210 coprime to 210 are tried in
    blocks of 64 turns capped at isqrt(n) + 1; only a block in which C finds
    a divisor is walked, in increasing order.  The p·p > n stop and O(1) memory
    stay: the time still grows with n's second-largest prime or √ of its largest.
    """
    out: dict[int, int] = {}
    walk, base, wheel = (2, 3, 5, 7), 0, ()
    while True:
        for p in walk:
            if p * p > n:
                break
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        if (base + 11) ** 2 > n:  # the next block holds base + 11 .. base + 64·210 + 10
            break
        wheel = wheel or [r for r in range(11, 221) if gcd(r, 210) == 1]
        stop = min(base + 64 * 210 + 11, isqrt(n) + 1)
        spans = [range(base + r, stop, 210) for r in wheel]
        walk = sorted(p for s in spans for p in s) if any(0 in map(n.__mod__, s) for s in spans) else ()
        base += 64 * 210
    if n > 1:
        out[n] = 1
    return out


def canonical_chain(moduli: Sequence[int]) -> tuple[int, ...]:
    """Refold arbitrary cyclic moduli into the invariant-factor chain.

    Splits each modulus into prime powers and regroups them so that the
    result satisfies d1 | d2 | ... with no factor equal to 1.  Each prime
    is found once: a modulus is first divided by the primes of the earlier
    moduli, and only what is left is trial-divided.
    """
    powers: dict[int, list[int]] = {}
    for m in int_tuple(moduli, "cyclic modulus"):
        if m == 0:
            raise ValueError("infinite cyclic factor not supported")
        m = abs(m)
        for p, exps in powers.items():
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                exps.append(e)
        for p, e in _factorint(m).items():
            powers.setdefault(p, []).append(e)
    depth = max((len(v) for v in powers.values()), default=0)
    factors = [1] * depth
    for p, exps in powers.items():
        # the largest exponents go to the last slots, so d1 | d2 | ...
        for slot, e in enumerate(sorted(exps), depth - len(exps)):
            factors[slot] *= p**e
    return tuple(factors)


def chain_text(factors: Sequence[int]) -> str:
    """An invariant-factor chain as ``Z/d1 + Z/d2 + ...``; ``0`` if empty."""
    return " + ".join(f"Z/{d}" for d in factors) or "0"


class FinAbGroup(namedtuple("FinAbGroup", "factors")):
    """Finite abelian group as a canonical invariant-factor chain."""

    __slots__ = ()

    def __new__(cls, factors: Sequence[int]):
        return super().__new__(cls, canonical_chain(factors))

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
        return chain_text(self.factors)


def is_isomorphic(a: FinAbGroup, b: FinAbGroup) -> bool:
    return a.factors == b.factors


def direct_sum(*groups: FinAbGroup) -> FinAbGroup:
    return FinAbGroup(tuple(m for g in groups for m in g.factors))


class Cokernel:
    """Z^n modulo the integer column span of a relation matrix, in its
    own invariant-factor coordinates.

    Of the Smith form only the k rows of the row transform U whose factor
    d_r exceeds 1 are kept, each reduced mod d_r, with the k matching
    columns of U⁻¹; each is read on first use by one walk of the row-op
    log over k vectors, so a cokernel read only for its group, or
    trivial, walks nothing.  The quotient must be finite (n nonzero
    invariant factors); this is asserted at construction.
    """

    def __init__(self, relations: IntMatrix):
        self.relations = relations
        self._snf = smith_normal_form(relations)
        factors = self._snf.invariant_factors()
        if len(factors) != relations.rows:
            raise ValueError("cokernel is infinite: relations not full rank")
        self._kept = [r for r, d in enumerate(factors) if d != 1]
        self.moduli = tuple(factors[r] for r in self._kept)
        self.group = FinAbGroup(self.moduli)

    def _walk(self, inverse: bool) -> list[list[int]]:
        """n×k: column c is U's kept row c mod d_c, or U⁻¹'s kept column c."""
        if not self._kept:
            return []
        units = [[int(i == r) for r in self._kept] for i in range(self.relations.rows)]
        return _walk_log(self._snf._row_ops, units, inverse, () if inverse else self.moduli)

    @cached_property
    def _rows(self) -> list[list[int]]:
        w = self._walk(inverse=False)
        return [[v[c] % d for v in w] for c, d in enumerate(self.moduli)]

    @cached_property
    def _lifts(self) -> list[tuple[int, ...]]:
        return list(zip(*self._walk(inverse=True)))

    def project(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Class of an ambient vector, in generator coordinates."""
        vec = int_tuple(vec, "vector entry")
        if len(vec) != self.relations.rows:
            raise ValueError("dimension mismatch")
        return tuple(
            sum(a * x for a, x in zip(row, vec)) % d
            for row, d in zip(self._rows, self.moduli)
        )

    def quotient_by(self, vectors: Sequence[Sequence[int]]) -> "Cokernel":
        """This group modulo the subgroup generated by the classes of
        ambient vectors: the cokernel of [diag(d) | projected vectors]."""
        return _presented(self.moduli, [self.project(v) for v in vectors])

    def kernel_onto(self, quotient: "Cokernel") -> FinAbGroup:
        """H = ker(G -> G/H) for G/H = ``quotient`` from ``quotient_by``: e_i
        maps to column i of the quotient's projection rows, well defined
        as diag(d) is among the quotient's relations."""
        matrix = IntMatrix.from_rows(quotient._rows, len(self.moduli))
        return kernel_of_hom(GroupHom(self.moduli, quotient.moduli, matrix))

    def element_order(self, coords: Sequence[int]) -> int:
        coords = int_tuple(coords, "coordinate")
        if len(coords) != len(self.moduli):
            raise ValueError("coordinate length mismatch")
        return lcm(*(d // gcd(d, c) for c, d in zip(coords, self.moduli)))


def _presented(moduli: Sequence[int], columns: Sequence[Sequence[int]]) -> Cokernel:
    """The cokernel of [diag(moduli) | columns]: the group with these
    cyclic moduli modulo the subgroup the columns generate."""
    relations = IntMatrix.diagonal(list(moduli))
    return Cokernel(relations.hstack(IntMatrix.from_cols(columns, len(moduli))))


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
    return Cokernel(IntMatrix.from_cols(coords, lattice.rank)).group


class GroupHom(namedtuple("GroupHom", "source_moduli target_moduli matrix")):
    """Homomorphism between groups given by generator presentations.

    ``source_moduli`` and ``target_moduli`` are the cyclic orders of the
    chosen generating sets (not necessarily canonical chains); ``matrix``
    maps source generator coordinates to target generator coordinates.
    """

    __slots__ = ()

    def __new__(cls, source_moduli: tuple[int, ...], target_moduli: tuple[int, ...], matrix: IntMatrix):
        source_moduli = int_tuple(source_moduli, "source modulus")
        target_moduli = int_tuple(target_moduli, "target modulus")
        for side, moduli in (("source", source_moduli), ("target", target_moduli)):
            if 0 in moduli:
                raise ValueError(f"{side} modulus 0: infinite cyclic factor not supported")
        if matrix.rows != len(target_moduli) or matrix.cols != len(source_moduli):
            raise ValueError("hom matrix shape mismatch")
        for i, (b, row) in enumerate(zip(target_moduli, matrix.to_rows())):
            for j, (a, x) in enumerate(zip(source_moduli, row)):
                if (a * x) % b != 0:
                    raise ValueError(
                        f"ill-defined hom: relation {a}*e{j} maps outside "
                        f"the target lattice at row {i}"
                    )
        return super().__new__(cls, source_moduli, target_moduli, matrix)


def kernel_of_hom(h: GroupHom) -> FinAbGroup:
    """Invariant factors of ker(h), as the cokernel of the dual map.

    Finite abelian groups are self-dual, and ker(h) is dual to the
    cokernel of h's dual map.  On the characters e_j -> 1/a_j that map
    sends target character i to column i of N[j][i] = matrix[i, j] *
    a_j / b_i, integral as h is well defined; so ker(h) is the cokernel
    of [diag(a) | N].
    """
    a, b = h.source_moduli, h.target_moduli
    dual = [[x * aj // bi for x, aj in zip(row, a)] for row, bi in zip(h.matrix.to_rows(), b)]
    return _presented(a, dual).group
