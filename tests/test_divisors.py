"""Critical groups, chip-firing, principality, and subgroup/quotient
computations inside the group."""

import random

import pytest

from critgroups.abelian import Cokernel
from critgroups.divisors import (
    critical_group,
    is_principal,
    quotient_by_subgroup,
    subgroup_generated,
)
from critgroups.families import CHAIN_BASES, chained_copies, circulant, concentric_polygon
from critgroups.intmatrix import Lattice
from critgroups.multigraph import DisconnectedGraphError, Multigraph, laplacian, spanning_tree_count
from critgroups.oracles import brute_force_spanning_trees

C3 = Multigraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P2 = Multigraph.from_edges(2, [(0, 1)])


def random_connected(rng, nmax=6, extra=4):
    n = rng.randint(2, nmax)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    for _ in range(rng.randint(0, extra)):
        edges.append((rng.randrange(n), rng.randrange(n)))
    return Multigraph.from_edges(n, edges)


def random_zero_divisor(g, rng, span=5):
    vals = [rng.randint(-span, span) for _ in range(g.vertex_count)]
    vals[-1] -= sum(vals)
    return tuple(vals)


def test_group_order_is_tree_count():
    rng = random.Random(2)
    for _ in range(40):
        g = random_connected(rng)
        cg = critical_group(g)
        assert cg.group.order == spanning_tree_count(g)
        if len(g.edges) <= 10:
            assert cg.group.order == brute_force_spanning_trees(g)


def test_trees_have_trivial_group():
    star = Multigraph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert critical_group(star).group.is_trivial()
    single = Multigraph.from_edges(1, [])
    assert critical_group(single).group.is_trivial()


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        critical_group(Multigraph.from_edges(4, [(0, 1), (2, 3)]))


def test_projection_invariant_under_firing():
    rng = random.Random(4)
    for _ in range(40):
        g = random_connected(rng)
        cg = critical_group(g)
        d = random_zero_divisor(g, rng)
        s = [rng.randint(-3, 3) for _ in range(g.vertex_count)]
        fired = [a - b for a, b in zip(d, laplacian(g).apply(s))]
        assert cg.project(d) == cg.project(fired)


def test_is_principal_examples():
    cg = critical_group(P2)
    assert is_principal(cg, [0, 0])
    assert is_principal(cg, [1, -1])
    cg3 = critical_group(C3)
    assert cg3.group.factors == (3,)
    assert not is_principal(cg3, [1, -1, 0])
    assert cg3.order_of([1, -1, 0]) == 3
    with pytest.raises(ValueError):
        is_principal(cg3, [1, 0, 0])  # nonzero degree


def test_is_principal_iff_projection_vanishes():
    rng = random.Random(8)
    for _ in range(60):
        g = random_connected(rng)
        cg = critical_group(g)
        d = random_zero_divisor(g, rng)
        assert is_principal(cg, d) == Lattice(cg.reduced).contains(cg._dropped(d))


def test_generator_divisors_hit_standard_basis():
    rng = random.Random(15)
    for _ in range(25):
        g = random_connected(rng)
        cg = critical_group(g)
        for k, gen in enumerate(cg.generator_divisors()):
            assert sum(gen) == 0
            proj = cg.project(gen)
            assert proj == tuple(
                1 if i == k else 0 for i in range(len(cg.moduli))
            )


def test_subgroup_and_quotient_examples():
    cg = critical_group(C3)
    assert subgroup_generated(cg, []).is_trivial()
    gens = [[1, -1, 0], [0, 1, -1]]
    assert subgroup_generated(cg, gens).order == 3
    assert quotient_by_subgroup(cg, gens).group.is_trivial()
    assert quotient_by_subgroup(cg, []).group.factors == (3,)


def test_subgroup_quotient_product_law():
    rng = random.Random(16)
    for _ in range(40):
        g = random_connected(rng)
        cg = critical_group(g)
        gens = [list(random_zero_divisor(g, rng)) for _ in range(rng.randint(0, 3))]
        sub = subgroup_generated(cg, gens)
        quot = quotient_by_subgroup(cg, gens).group
        assert sub.order * quot.order == cg.group.order


def test_divisor_validation():
    """A divisor is read as one chip count per vertex: a longer or
    shorter sequence is refused, not truncated or padded."""
    cg = critical_group(C3)
    for d in ((1, -1), (1, 0, 0, -1)):
        for query in (cg.project, cg.order_of, lambda d: is_principal(cg, d)):
            with pytest.raises(ValueError, match="divisor length differs from vertex count"):
                query(d)


def test_divisor_chips_must_be_ints():
    """A chip count that is not an int is rejected, never converted:
    (1.9, -1.2, '0') would otherwise be the divisor (1, -1, 0)."""
    cg = critical_group(C3)
    for values in ((1.9, -1.2, "0"), (1, -1, 0.0), (1, -1, None)):
        with pytest.raises(TypeError, match="is not an int"):
            cg.project(values)


@pytest.mark.parametrize(
    "d",
    [[1.0, -1.0, 0, 0, 0, 0, 0], [0.5, -0.5, 0, 0, 0, 0, 0], [True, -1, 0, 0, 0, 0, 0]],
    ids=["integral_float", "half", "bool"],
)
def test_group_queries_reject_non_int_divisors(d):
    """The group's entry points refuse a chip count that is not an int:
    project would otherwise return float coordinates for (1.0, -1.0, ...),
    is_principal answer for (0.5, -0.5, ...) and read True as 1, and
    order_of fail inside math.gcd."""
    cg = critical_group(circulant(7, [1, 2])[0])
    queries = [cg.project, cg.order_of, lambda d: is_principal(cg, d)]
    queries += [lambda d: quotient_by_subgroup(cg, [d]), lambda d: subgroup_generated(cg, [d])]
    for query in queries:
        with pytest.raises(TypeError, match="is not an int"):
            query(d)


def test_firing_counts_must_be_ints():
    """A firing count that is not an int is rejected by the Laplacian
    that fires it, never converted: True would otherwise fire vertex 0
    once."""
    for counts in ((True, 0, 0), (1.0, 0, 0), ("1", 0, 0)):
        with pytest.raises(TypeError, match="is not an int"):
            laplacian(C3).apply(counts)


def _family_graphs():
    return [
        circulant(7, [1, 2])[0],
        concentric_polygon(4)[0],
        chained_copies(*CHAIN_BASES["cycle4"], 5)[0],
    ]


def test_critical_group_is_the_cokernel_over_divisors():
    """The critical group is the Cokernel of the reduced Laplacian at
    vertex 0 whose ambient vectors are divisors: ``quotient_by`` takes
    degree-zero divisors and gives the plain cokernel's quotient by the
    same divisors with vertex 0 dropped."""
    rng = random.Random(17)
    nontrivial = 0
    for g in _family_graphs():
        cg = critical_group(g)
        assert isinstance(cg, Cokernel)
        gens = cg.generator_divisors()
        for divs in ([], [random_zero_divisor(g, rng)], [[2 * x for x in gens[-1]]], gens[:-1]):
            quotient = cg.quotient_by(divs)
            assert quotient.group == Cokernel(cg.reduced).quotient_by([d[1:] for d in divs]).group
            nontrivial += not quotient.group.is_trivial()
    assert nontrivial >= 6


def test_quotient_by_refuses_what_is_not_a_degree_zero_divisor():
    """A vector with vertex 0 already dropped (V - 1 entries) is not
    read as a divisor, and a divisor of nonzero degree has no class."""
    for g in _family_graphs():
        cg = critical_group(g)
        v = g.vertex_count
        with pytest.raises(ValueError, match="divisor length differs from vertex count"):
            cg.quotient_by([[1, -1] + [0] * (v - 3)])
        with pytest.raises(ValueError, match="degree-zero"):
            cg.quotient_by([[1] + [0] * (v - 1)])


@pytest.mark.parametrize("g", [Multigraph.from_edges(0, []), Multigraph.from_edges(1, [])], ids=["empty", "one_vertex"])
def test_trivial_groups_have_no_generator_divisors(g):
    cg = critical_group(g)
    assert (cg.moduli, cg.generator_divisors()) == ((), [])
