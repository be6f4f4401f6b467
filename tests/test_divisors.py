"""Critical groups, chip-firing, principality, and subgroup/quotient
computations inside the group."""

import random

import pytest

from critgroups.divisors import (
    Divisor,
    FiringScript,
    apply_firing,
    critical_group,
    is_principal,
    quotient_by_subgroup,
    subgroup_generated,
)
from critgroups.families import circulant
from critgroups.intmatrix import Lattice
from critgroups.multigraph import DisconnectedGraphError, Multigraph, spanning_tree_count
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
    return Divisor(g, tuple(vals))


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


def test_apply_firing_examples():
    d = Divisor(P2, (1, -1))
    fired = apply_firing(d, FiringScript(P2, (1, 0)))
    assert fired.values == (0, 0)
    z = Divisor(C3, (2, -1, -1))
    assert apply_firing(z, FiringScript(C3, (0, 0, 0))) == z
    assert apply_firing(z, FiringScript(C3, (5, 5, 5))) == z  # constant scripts are silent
    assert apply_firing(z, FiringScript(C3, (1, 0, 0))).degree == z.degree


def test_projection_invariant_under_firing():
    rng = random.Random(4)
    for _ in range(40):
        g = random_connected(rng)
        cg = critical_group(g)
        d = random_zero_divisor(g, rng)
        s = FiringScript(g, tuple(rng.randint(-3, 3) for _ in range(g.vertex_count)))
        assert cg.project(d) == cg.project(apply_firing(d, s))


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
            assert gen.degree == 0
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
    with pytest.raises(ValueError):
        Divisor(P2, (1,))
    with pytest.raises(ValueError):
        apply_firing(Divisor(P2, (1, -1)), FiringScript(C3, (0, 0, 0)))
    d = Divisor(C3, (1, 0, -1))
    assert d.to_json() == {"0": 1, "2": -1}


def test_divisor_chips_must_be_ints():
    """A chip count that is not an int is rejected, never converted:
    (1.9, -1.2, '0') would otherwise be the divisor (1, -1, 0)."""
    for values in ((1.9, -1.2, "0"), (1, -1, 0.0), (1, -1, None)):
        with pytest.raises(TypeError, match="is not an int"):
            Divisor(C3, values)


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
    """A firing count that is not an int is rejected, never converted:
    True would otherwise fire vertex 0 once."""
    for counts in ((True, 0, 0), (1.0, 0, 0), ("1", 0, 0)):
        with pytest.raises(TypeError, match="is not an int"):
            FiringScript(C3, counts)
