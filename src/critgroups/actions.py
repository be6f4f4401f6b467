"""Vertex permutation groups on multigraphs: harmonicity, orbits, and
the canonical labeling of orbits under a dihedral action.

A dihedral action of order 2n is generated by two involutions whose
product has order exactly n.  When every orbit has n or 2n vertices the
orbits can be indexed so that the generators act by fixed reflection
formulas on the indices; that labeling drives all the decomposition
machinery.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .intmatrix import int_tuple
from .multigraph import Multigraph


class NotAutomorphismError(ValueError):
    pass


class NonHarmonicError(ValueError):
    def __init__(self, message: str, edge: tuple[int, int] | None = None):
        super().__init__(message)
        self.edge = edge


class OrbitSizeError(ValueError):
    """An orbit has size other than n or 2n."""


class LabelingImpossibleError(ValueError):
    """A size-n orbit is stabilized by rotations only; the reflection
    index equations cannot be satisfied with either generator order."""


Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def _then(p: Perm) -> Callable[[Perm], Perm]:
    """q -> q . p, in C (an itemgetter of fewer than two entries returns no tuple)."""
    return itemgetter(*p) if len(p) > 1 else lambda q: tuple([q[v] for v in p])


def compose(outer: Perm, inner: Perm) -> Perm:
    """outer after inner: (outer . inner)(v) == outer[inner[v]]."""
    return _then(inner)(outer)


def _powers(p: Perm) -> list[Perm]:
    """The cyclic group generated by p: identity, p, p^2, ..."""
    out = [identity_perm(len(p))]
    q, times_p = p, _then(p)
    while q != out[0]:
        out.append(q)
        q = times_p(q)
    return out


def check_automorphism(g: Multigraph, p: Sequence[int]) -> Perm:
    """Validate that p is a graph-compatible vertex permutation."""
    perm = int_tuple(p, "permutation entry")
    if sorted(perm) != list(range(g.vertex_count)):
        raise NotAutomorphismError("not a permutation of the vertices")
    # g.edges is canonical (u <= v) and sorted, so the multisets agree
    # exactly when the canonicalized images, sorted, equal it.
    image = []
    for u, v in g.edges:
        a, b = perm[u], perm[v]
        image.append((a, b) if a <= b else (b, a))
    image.sort()
    if image != list(g.edges):
        raise NotAutomorphismError("permutation does not preserve the edge multiset")
    return perm


def generate_group(g: Multigraph, generators: Sequence[Sequence[int]]) -> list[Perm]:
    """Closure of the generators under composition, deduplicated, sorted."""
    steps = [_then(check_automorphism(g, p)) for p in generators]
    n = g.vertex_count
    group = {identity_perm(n)}
    frontier = [identity_perm(n)]
    while frontier:
        nxt = []
        for q in frontier:
            for step in steps:
                r = step(q)
                if r not in group:
                    group.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(group)


def orbits(perms: Sequence[Perm], n: int) -> list[list[int]]:
    """Orbits of the group the perms generate (an element list generates
    itself): their cycles' connected classes, each sorted, by least vertex."""
    seen, out = set(), []
    for v in range(n):
        if v not in seen:
            seen.add(v)
            orb = [v]
            for w in orb:
                new = {p[w] for p in perms} - seen
                seen |= new
                orb += new
            out.append(sorted(orb))
    return out


def _harmonic_offender(
    g: Multigraph, group: Sequence[Perm]
) -> tuple[int, int] | None:
    """An edge pair (u, v) whose pointwise stabilizer H cannot act freely
    on the parallel edges between them (|H| does not divide their
    number), or None when the action is harmonic."""
    # fixers[v]: positions in group of the elements fixing v, read off v's
    # column by tuple.count and tuple.index; a pair's stabilizer is the
    # intersection of its endpoints' sets.
    fixers = []
    for v, column in enumerate(zip(*group)):
        at, i = set(), -1
        for _ in range(column.count(v)):
            i = column.index(v, i + 1)
            at.add(i)
        fixers.append(at)
    for (u, v), mult in g.pair_multiplicities().items():
        order = len(fixers[u] & fixers[v])
        if order > 1 and mult % order != 0:
            return (u, v)
    return None


def _cycles(p: Perm) -> tuple[list[int], list[int], list[int]]:
    """Per vertex: the length of its cycle under p, its place there, and the cycle's start."""
    size, pos, root = [0] * len(p), [0] * len(p), [0] * len(p)
    for start in range(len(p)):
        if not size[start]:
            cyc = [start]
            while p[cyc[-1]] != start:
                cyc.append(p[cyc[-1]])
            for i, v in enumerate(cyc):
                size[v], pos[v], root[v] = len(cyc), i, start
    return size, pos, root


def _dihedral_offender(g: Multigraph, action: DihedralAction) -> tuple[int, int] | None:
    """``_harmonic_offender(g, action.elements)`` in O(V + E), from the cycles of
    rho = sigma2 . sigma1: rho^k fixes v iff L_v | k (L_v: size of v's cycle), and
    rho^k . sigma1 iff k = o_v mod L_v, o_v existing iff sigma1(v) is on v's cycle.
    Over 0 <= k < n, a pair (u, v) is fixed by n / lcm(L_u, L_v) rotations, and
    by as many reflections if o_u = o_v mod gcd(L_u, L_v), else by none."""
    rho, s1 = action.rotation, action.sigma1
    size, pos, root = _cycles(rho)
    offset = [(pos[v] - pos[w]) % size[v] if root[w] == root[v] else None for v, w in enumerate(s1)]
    for (u, v), mult in g.pair_multiplicities().items():
        d = gcd(size[u], size[v])
        order = action.n * d // (size[u] * size[v])
        if None not in (offset[u], offset[v]) and (offset[u] - offset[v]) % d == 0:
            order *= 2
        if order > 1 and mult % order != 0:
            return (u, v)
    return None


def require_harmonic(g: Multigraph, group: Sequence[Perm]) -> None:
    _refuse_offender(g, _harmonic_offender(g, group))


def _refuse_offender(g: Multigraph, bad: tuple[int, int] | None) -> None:
    if bad is not None:
        raise NonHarmonicError(
            f"action is not harmonic: edge {g.label(bad[0])}-{g.label(bad[1])} "
            "is fixed pointwise by a stabilizer that cannot act freely on it",
            edge=bad,
        )


class DihedralAction(NamedTuple):
    """Two involutions generating a dihedral group of order 2n."""

    n: int
    sigma1: Perm
    sigma2: Perm

    @classmethod
    def build(cls, g: Multigraph, sigma1: Sequence[int], sigma2: Sequence[int]) -> "DihedralAction":
        """Two distinct non-identity involutions generate a dihedral group
        of order exactly 2n, n the order of rho = sigma2 . sigma1: the lcm
        of its cycle lengths."""
        s1 = check_automorphism(g, sigma1)
        s2 = check_automorphism(g, sigma2)
        ident = identity_perm(g.vertex_count)
        for name, s in (("sigma1", s1), ("sigma2", s2)):
            if s == ident:
                raise ValueError(f"{name} is the identity")
            if compose(s, s) != ident:
                raise ValueError(f"{name} is not an involution: its square is not the identity")
        if s1 == s2:
            raise ValueError("sigma2 . sigma1 must have order at least 2")
        return cls(n=lcm(*set(_cycles(compose(s2, s1))[0])), sigma1=s1, sigma2=s2)

    @property
    def rotation(self) -> Perm:
        """sigma2 . sigma1, the order-n element."""
        return compose(self.sigma2, self.sigma1)

    def rotation_subgroup(self) -> list[Perm]:
        return _powers(self.rotation)

    @property
    def elements(self) -> tuple[Perm, ...]:
        """The 2n group elements rho^k and rho^k . sigma1, 0 <= k < n, sorted;
        written down on each read."""
        rotations = self.rotation_subgroup()
        return tuple(sorted(rotations + list(map(_then(self.sigma1), rotations))))


class PinnedOrbit(NamedTuple):
    """Size-n orbit: row[i] is the vertex with index i+1.

    ``flipped`` records which generator fixes the seed vertex: False
    means the second involution does (the reference shape), True means
    the first one does.  Flipped orbits only arise for even n, where the
    two reflection classes are distinct.
    """

    row: tuple[int, ...]
    flipped: bool


class FreeOrbit(NamedTuple):
    """Size-2n orbit split into two strands interchanged by reflections."""

    xrow: tuple[int, ...]
    yrow: tuple[int, ...]


class OrbitLabeling(NamedTuple):
    """Canonical indexing of all orbits of a dihedral action.

    With r1/r2 the (possibly swapped) generators and indices 1-based
    mod n, every orbit satisfies:

      free orbits:     r1(x_i) = y_{n+1-i}   r2(x_i) = y_{n+2-i}
      pinned, default: r1(z_i) = z_{n+1-i}   r2(z_i) = z_{n+2-i}
      pinned, flipped: r1(z_i) = z_{n+2-i}   r2(z_i) = z_{n+3-i}

    ``generators_swapped`` tells whether (r1, r2) is (sigma2, sigma1)
    rather than the action's given order.  ``_strand_pairs`` is where the
    table is read, as one rule for the self-check, the pullback
    conditions and the pair split.
    """

    n: int
    pinned: tuple[PinnedOrbit, ...]
    free: tuple[FreeOrbit, ...]
    generators_swapped: bool

    @property
    def s(self) -> int:
        return len(self.pinned)

    @property
    def t(self) -> int:
        return len(self.free)

    @property
    def flipped_count(self) -> int:
        return sum(1 for orb in self.pinned if orb.flipped)


def _reflect(i: int, n: int, c: int) -> int:
    """0-based image of the 1-based index reflection i -> n+c-i."""
    return (n + c - 2 - i) % n


def _strand_pairs(lab: OrbitLabeling) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every labeled orbit as (a, b, shift), free orbits first: the
    reflection of constant c sends a_i to b at ``_reflect(i, n, c + shift)``,
    and b back to a.  A free orbit is (x, y, 0), a pinned one (z, z, flipped)."""
    free = [(orb.xrow, orb.yrow, 0) for orb in lab.free]
    return free + [(orb.row, orb.row, int(orb.flipped)) for orb in lab.pinned]


def _verify_labeling(r1: Perm, r2: Perm, lab: OrbitLabeling) -> None:
    """Raise AssertionError unless r1 and r2 act on every labeled row by
    the reflections of the ``OrbitLabeling`` table: c = 1 for r1 and 2
    for r2, one more on a flipped row.  Both directions, a to b and b to
    a, are read: an action not made by ``build`` may hold a non-involution."""
    n = lab.n
    for c, r in ((1, r1), (2, r2)):
        for a, b, shift in _strand_pairs(lab):
            for p, q in ((a, b), (b, a)):
                if any(r[p[i]] != q[_reflect(i, n, c + shift)] for i in range(n)):
                    raise AssertionError(f"r{c} {'pinned' if a is b else 'free strand'} equation")


def classify_dihedral_orbits(g: Multigraph, action: DihedralAction) -> OrbitLabeling:
    """Canonical orbit labeling for a dihedral action.

    Raises OrbitSizeError when an orbit has size other than n or 2n and
    LabelingImpossibleError when a size-n orbit is stabilized only by
    rotations.  Each size-n orbit is seeded at its least fixed point of
    sigma2, else of sigma1 (flipped); each free orbit's x strand starts
    at its least vertex.  The point stabilizers of a size-n orbit are
    conjugate reflections, so for odd n every such orbit holds a fixed
    point of each generator and none is flipped; for even n each holds
    fixed points of exactly one.  If every one is flipped, the generator
    roles are swapped globally and the same seeds count as unflipped; a
    residual mix is recorded per orbit via ``flipped``.  Only the
    generators' cycles are read; harmonicity is not checked here.
    """
    n = action.n
    orbs = orbits((action.sigma1, action.sigma2), g.vertex_count)
    for orb in orbs:
        if len(orb) not in (n, 2 * n):
            raise OrbitSizeError(
                f"orbit {sorted(g.label(v) for v in orb)} has size {len(orb)}, "
                f"expected {n} or {2 * n}"
            )

    s1, s2 = action.sigma1, action.sigma2
    seeds: list[tuple[int, bool]] = []
    for orb in orbs:
        if len(orb) != n:
            continue
        fixed2 = [v for v in orb if s2[v] == v]
        candidates = fixed2 or [v for v in orb if s1[v] == v]
        if not candidates:
            raise LabelingImpossibleError(
                "size-n orbit has rotation-only point stabilizers"
            )
        seeds.append((candidates[0], not fixed2))
    swapped = bool(seeds) and all(f for _, f in seeds)
    r1, r2 = (s2, s1) if swapped else (s1, s2)
    rho = compose(r2, r1)

    def walk(seed: int) -> tuple[int, ...]:
        row = [seed]
        for _ in range(n - 1):
            row.append(rho[row[-1]])
        if len(set(row)) != n:
            raise LabelingImpossibleError("rotation does not act freely on orbit")
        return tuple(row)

    pinned = [PinnedOrbit(row=walk(seed), flipped=f and not swapped) for seed, f in seeds]
    free: list[FreeOrbit] = []
    for orb in orbs:
        if len(orb) != 2 * n:
            continue
        xs = walk(min(orb))
        ys = tuple(r1[xs[_reflect(i, n, 1)]] for i in range(n))
        if set(xs) | set(ys) != set(orb) or set(xs) & set(ys):
            raise LabelingImpossibleError("free orbit does not split into strands")
        free.append(FreeOrbit(xrow=xs, yrow=ys))

    pinned.sort(key=lambda o: min(o.row))
    free.sort(key=lambda o: min(min(o.xrow), min(o.yrow)))
    lab = OrbitLabeling(
        n=n, pinned=tuple(pinned), free=tuple(free), generators_swapped=swapped
    )
    _verify_labeling(r1, r2, lab)
    return lab
