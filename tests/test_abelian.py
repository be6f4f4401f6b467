"""Finite abelian groups: canonical chains, direct sums, homomorphism
kernels, all against structure-preserving oracles."""

import random
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critgroups import abelian
from critgroups.abelian import (
    Cokernel,
    FinAbGroup,
    GroupHom,
    canonical_chain,
    direct_sum,
    is_isomorphic,
    kernel_of_hom,
    lattice_quotient,
)
from critgroups.divisors import critical_group
from critgroups.families import circulant, concentric_polygon
from critgroups.intmatrix import IntMatrix, integer_kernel


def image_order(h):
    """Order of the image of h: |source| / |kernel|."""
    return prod(h.source_moduli) // kernel_of_hom(h).order


def count_divisible(moduli, p, k):
    """Number of cyclic factors divisible by p**k: an isomorphism
    invariant that pins the group down completely."""
    return sum(1 for m in moduli if m % p**k == 0)


def primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]


def test_canonical_chain_is_isomorphism_invariant():
    rng = random.Random(7)
    for _ in range(200):
        moduli = [rng.randint(2, 60) for _ in range(rng.randint(0, 5))]
        chain = canonical_chain(moduli)
        # divisibility chain, no ones
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0
        assert all(d >= 2 for d in chain)
        assert prod(chain) == prod(moduli)
        for p in primes_upto(61):
            k = 1
            while p**k <= prod(moduli or [1]):
                assert count_divisible(moduli, p, k) == count_divisible(chain, p, k)
                k += 1


def test_canonical_chain_examples():
    assert canonical_chain([2, 3]) == (6,)
    assert canonical_chain([2, 6]) == (2, 6)
    assert canonical_chain([40, 30, 5]) == (5, 10, 120)
    assert canonical_chain([160, 30, 5]) == (5, 10, 480)
    assert canonical_chain([]) == ()
    assert canonical_chain([1, 1]) == ()


def refolded_chain(moduli):
    """Invariant-factor chain by pairwise (gcd, lcm) refolding, with no
    factoring: after round i, d[i] divides every later d[j], and each
    swap keeps every prime's multiset of exponents."""
    d = [abs(m) for m in moduli]
    if 0 in d:
        raise ValueError("infinite cyclic factor")
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(m for m in d if m != 1)


def factorint_6k(n):
    """Prime factorization by trial division over 2, 3 and 6k ± 1: the
    route `_factorint` took before its 2·3·5·7 wheel and block scan."""
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        out[n] = 1
    return out


# small primes, and primes of 17 to 20 bits that several moduli share
CHAIN_PRIMES = (2, 3, 5, 7, 11, 13, 65537, 131101, 786433, 1048573)


@st.composite
def shared_prime_moduli(draw):
    pool = draw(st.lists(st.sampled_from(CHAIN_PRIMES), min_size=1, max_size=4, unique=True))
    exponents = st.lists(st.integers(0, 2), min_size=len(pool), max_size=len(pool))
    moduli = [
        draw(st.sampled_from((1, -1))) * prod(p**e for p, e in zip(pool, draw(exponents)))
        for _ in range(draw(st.integers(0, 5)))
    ]
    if draw(st.booleans()):  # already a chain
        moduli = list(refolded_chain(moduli))
    return moduli


@settings(derandomize=True, database=None, deadline=None)
@given(shared_prime_moduli(), st.data())
def test_canonical_chain_matches_gcd_lcm_refold(moduli, data):
    assert canonical_chain(moduli) == refolded_chain(moduli)
    at = data.draw(st.integers(0, len(moduli)))
    with pytest.raises(ValueError):
        canonical_chain(moduli[:at] + [0] + moduli[at:])


def test_canonical_chain_finds_each_prime_once(monkeypatch):
    """A prime met in an earlier modulus is divided out, not searched for
    again: only the new prime r is left to trial division."""
    p, q, r = 65537, 1048573, 786433
    seen = []

    def recording(n):
        seen.append(n)
        return factorint(n)

    factorint = abelian._factorint
    monkeypatch.setattr(abelian, "_factorint", recording)
    assert canonical_chain((p * q, p * q * r)) == (p * q, p * q * r)
    assert seen == [p * q, r]


def is_prime(n):
    return n > 1 and factorint_6k(n) == {n: 1}


def next_prime(n):
    return next(p for p in range(n + 1, 2 * n + 2) if is_prime(p))


WHEEL_BLOCK = 64 * 210  # the width of `_factorint`'s block scan


def test_factorint_matches_the_6k_reference_at_the_wheel_edges():
    """The wheel's residues and block edges: a candidate skipped or a
    block walked out of order shows as a composite reported prime or a
    prime missed.  (13441 = 64·210 + 1 is prime, so 13441·13451 reads as
    one prime if a block skips its residue 1.)"""
    edge_primes = []
    for k in range(1, 11):
        e = k * WHEEL_BLOCK
        near = [p for p in range(e - 60, e + 120) if is_prime(p)]
        below = [p for p in near if p <= e][-2:]
        above = [p for p in near if p > e + 11][:2]
        assert len(below) == len(above) == 2
        edge_primes += below + [p for p in near if e < p <= e + 11] + above
    assert 13441 in edge_primes
    residues = [r for r in range(210) if gcd(r, 210) == 1]
    assert len(residues) == 48
    # one prime of each residue class past the first block
    class_primes = [
        next(p for p in range(WHEEL_BLOCK + r, 10**6, 210) if is_prime(p)) for r in residues
    ]
    # every p² leaves p as the last candidate below the cap isqrt(n) + 1
    products = [p * q for p, q in zip(edge_primes, map(next_prime, edge_primes))]
    products += [p * next_prime(2 * p) for p in class_primes]
    products += [p * p for p in edge_primes + class_primes]
    # a composite candidate (121, 143, 221, ...) times a prime past it is
    # never reported prime
    composite = [c for c in range(121, 1000) if gcd(c, 210) == 1 and not is_prime(c)]
    products += [c * 13451 for c in composite]
    for n in [*range(1, 30000), *products]:
        assert abelian._factorint(n) == factorint_6k(n), n


def test_factorint_matches_sympy():
    sympy = pytest.importorskip("sympy")
    squares_and_cubes = [p**k for p in (5, 7, 11, 13, 17, 19) for k in (2, 3)]
    smooth = [2**a * 3**b for a in range(40) for b in range(40)]
    rng = random.Random(11)
    composites = []
    while len(composites) < 20:
        n = 1
        while n.bit_length() < 30:
            n *= sympy.prevprime(rng.randrange(3, 2**20 + 1))
        if n.bit_length() <= 45:
            composites.append(n)
    # the invariant factors of the compute ladder's largest instances
    ladder = [concentric_polygon(64), circulant(128, [1, 2]), circulant(200, [1, 3])]
    invariant = [d for g, _ in ladder for d in critical_group(g).group.factors]
    for n in [*range(1, 5000), *squares_and_cubes, *smooth, *composites, *invariant]:
        assert abelian._factorint(n) == sympy.factorint(n), n


def test_is_isomorphic():
    assert not is_isomorphic(FinAbGroup((2, 6)), FinAbGroup((12,)))
    assert is_isomorphic(FinAbGroup((2, 3)), FinAbGroup((6,)))
    assert is_isomorphic(FinAbGroup((40, 30, 5)), FinAbGroup((5, 10, 120)))


def test_direct_sum_properties():
    rng = random.Random(13)
    groups = [
        FinAbGroup(tuple(rng.randint(2, 30) for _ in range(rng.randint(0, 3))))
        for _ in range(30)
    ]
    trivial = FinAbGroup(())
    for g in groups:
        assert is_isomorphic(direct_sum(trivial, g), g)
    for _ in range(60):
        a, b, c = rng.sample(groups, 3)
        assert is_isomorphic(direct_sum(a, b), direct_sum(b, a))
        assert is_isomorphic(
            direct_sum(direct_sum(a, b), c), direct_sum(a, direct_sum(b, c))
        )
        assert direct_sum(a, b).order == a.order * b.order
    assert direct_sum(FinAbGroup((2,)), FinAbGroup((2,))).factors == (2, 2)


def test_cokernel_examples_and_coordinates():
    ck = Cokernel(IntMatrix.diagonal([2, 2]))
    assert ck.group.factors == (2, 2)
    m = IntMatrix.from_rows([[2, 4], [6, 8]], 2)
    ck = Cokernel(m)
    assert ck.group.factors == (2, 4)
    # projection kills the relations and is additive
    for j in range(2):
        assert all(x == 0 for x in ck.project(m.col(j)))
    rng = random.Random(3)
    for _ in range(40):
        a = [rng.randint(-9, 9) for _ in range(2)]
        b = [rng.randint(-9, 9) for _ in range(2)]
        pa, pb = ck.project(a), ck.project(b)
        psum = ck.project([x + y for x, y in zip(a, b)])
        assert psum == tuple((x + y) % d for (x, y), d in zip(zip(pa, pb), ck.moduli))
    # generator lifts hit the standard basis
    for k, lift in enumerate(ck._lifts):
        proj = ck.project(lift)
        assert proj == tuple(1 if i == k else 0 for i in range(len(ck.moduli)))


def test_cokernel_of_unimodular_is_trivial():
    m = IntMatrix.from_rows([[1, 1], [0, 1]], 2)
    assert Cokernel(m).group.is_trivial()


def test_cokernel_rejects_infinite_quotient():
    with pytest.raises(ValueError):
        Cokernel(IntMatrix.from_rows([[1, 1], [1, 1]], 2))


def test_lattice_quotient_examples():
    q = lattice_quotient(IntMatrix.identity(2), IntMatrix.diagonal([2, 6]))
    assert q.factors == (2, 6)
    outer = IntMatrix.from_cols([[1, 1], [1, -1]], 2)
    inner = IntMatrix.from_cols([[2, 2], [2, -2]], 2)
    assert lattice_quotient(outer, inner).factors == (2, 2)
    with pytest.raises(ValueError):
        lattice_quotient(IntMatrix.diagonal([2, 2]), IntMatrix.identity(2))


def test_group_hom_examples():
    summ = GroupHom((2, 2), (2,), IntMatrix.from_rows([[1, 1]], 2))
    assert kernel_of_hom(summ).factors == (2,)
    assert image_order(summ) == 2
    zero = GroupHom((4, 6), (7,), IntMatrix(1, 2, [0, 0]))
    assert kernel_of_hom(zero).factors == (2, 12)
    assert image_order(zero) == 1
    ident = GroupHom((6,), (6,), IntMatrix.identity(1))
    assert kernel_of_hom(ident).is_trivial()
    assert image_order(ident) == 6


def test_group_hom_well_definedness():
    with pytest.raises(ValueError):
        GroupHom((2,), (4,), IntMatrix.from_rows([[1]], 1))  # 2*1 not 0 mod 4
    GroupHom((2,), (4,), IntMatrix.from_rows([[2]], 1))  # fine


@pytest.mark.parametrize(
    "source, target, side",
    [((2,), (0,), "target"), ((0,), (2,), "source"), ((3, 0), (0, 2), "source")],
    ids=["target", "source", "both"],
)
def test_group_hom_refuses_a_zero_modulus(source, target, side):
    """A modulus 0 is an infinite cyclic factor, refused where the map is
    built and named by its side: as a target it would divide by zero in
    the well-definedness test, and as a source it would be accepted and
    fail only in ``kernel_of_hom``."""
    matrix = IntMatrix(len(target), len(source), [1] * (len(source) * len(target)))
    with pytest.raises(ValueError, match=f"^{side} modulus 0: infinite cyclic factor"):
        GroupHom(source, target, matrix)


def test_hom_matrix_rows_are_read_once(monkeypatch):
    """Building a hom and taking its kernel read the matrix by rows, never
    entry by entry through the index-checking ``[i, j]``."""
    entries = []
    real = IntMatrix.__getitem__
    monkeypatch.setattr(IntMatrix, "__getitem__", lambda m, ij: entries.append(ij) or real(m, ij))
    hom = GroupHom((4, 6), (2, 12), IntMatrix.from_rows([[0, 1], [3, 0]], 2))
    assert kernel_of_hom(hom).factors == (3,)  # x*e0 + y*e1 with x = 0, y even
    assert entries == []


def test_random_homs_kernel_times_image():
    rng = random.Random(31)
    for _ in range(120):
        k = rng.randint(1, 3)
        m = rng.randint(1, 3)
        source = tuple(rng.choice([2, 3, 4, 6, 8, 12]) for _ in range(k))
        target = tuple(rng.choice([2, 3, 4, 6, 8, 12]) for _ in range(m))
        cols = []
        for a in source:
            col = []
            for b in target:
                # random multiple of b/gcd(a,b) keeps the hom well-defined
                step = b // gcd(a, b)
                col.append(step * rng.randint(-3, 3))
            cols.append(col)
        hom = GroupHom(source, target, IntMatrix.from_cols(cols, m))
        ker = kernel_of_hom(hom)
        assert ker.order * image_order(hom) == prod(source)
        # kernel of the zero map is the whole source
        zero = GroupHom(source, target, IntMatrix(m, k, [0] * (m * k)))
        assert is_isomorphic(kernel_of_hom(zero), FinAbGroup(source))


def kernel_by_preimage_lattice(h):
    """Reference route for ``kernel_of_hom``: the lattice of x with
    matrix @ x in the target's relation lattice (an integer kernel),
    modulo the source's relations (a lattice quotient)."""
    k = len(h.source_moduli)
    if k == 0:
        return FinAbGroup(())
    ker = integer_kernel(h.matrix.hstack(IntMatrix.diagonal(list(h.target_moduli))))
    source_rel = IntMatrix.diagonal(list(h.source_moduli))
    preimage = IntMatrix.from_cols([ker.col(j)[:k] for j in range(ker.cols)], k)
    return lattice_quotient(preimage.hstack(source_rel), source_rel)


@st.composite
def well_defined_homs(draw):
    """Homs whose entry (i, j) is a multiple of b_i / gcd(a_j, b_i), with
    moduli of 1 and empty sources or targets allowed."""
    moduli = st.lists(st.integers(1, 12), max_size=3)
    source, target = tuple(draw(moduli)), tuple(draw(moduli))
    cols = [[b // gcd(a, b) * draw(st.integers(-4, 4)) for b in target] for a in source]
    return GroupHom(source, target, IntMatrix.from_cols(cols, len(target)))


@settings(derandomize=True, database=None, deadline=None)
@given(well_defined_homs())
def test_kernel_of_hom_matches_preimage_lattice(h):
    assert kernel_of_hom(h) == kernel_by_preimage_lattice(h)


def test_serialization():
    assert str(FinAbGroup(())) == "0"
    assert FinAbGroup((13, 91)).exponent == 91


def test_recanonicalization_is_identity():
    rng = random.Random(71)
    for _ in range(50):
        g = FinAbGroup(tuple(rng.randint(2, 40) for _ in range(rng.randint(0, 4))))
        assert FinAbGroup(g.factors).factors == g.factors


@pytest.mark.parametrize(
    "moduli", [(2.7, "6"), (2, 6.0), (True, 4)], ids=["float_and_string", "float", "bool"]
)
def test_cyclic_moduli_must_be_ints(moduli):
    """A modulus that is not an int is rejected, never converted: (2.7, '6')
    would otherwise be Z/2 + Z/6."""
    with pytest.raises(TypeError, match="is not an int"):
        canonical_chain(moduli)
    with pytest.raises(TypeError):
        FinAbGroup(moduli)


Z2_Z6 = Cokernel(IntMatrix.diagonal([2, 6]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Z2_Z6.project([1.5, 7]),
        lambda: Z2_Z6.project([True, 0]),
        lambda: Z2_Z6.element_order([True, 0]),
        lambda: Z2_Z6.element_order([1.0, 0]),
        lambda: IntMatrix.identity(2).apply([1.5, True]),
        lambda: IntMatrix.identity(2).apply([1, 1.0]),
        lambda: GroupHom((2.0,), (2,), IntMatrix(1, 1, [1])),
    ],
    ids=[
        "project_float", "project_bool", "element_order_bool", "element_order_float",
        "apply_float_and_bool", "apply_float", "hom_source_float",
    ],
)
def test_integer_entry_points_reject_floats_and_bools(call):
    """Each is read through int_tuple: Z2_Z6.project([1.5, 7]) would
    otherwise be (1.5, 1.0), and GroupHom((2.0,), ...) would construct
    and fail only inside kernel_of_hom."""
    with pytest.raises(TypeError, match="is not an int"):
        call()
