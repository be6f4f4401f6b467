"""Quotient graphs, horizontal multiplicities, the pullback criterion,
pullback injectivity on critical groups, and tree reduction."""

import random

import pytest

from critgroups.actions import NonHarmonicError, generate_group
from critgroups.divisors import critical_group, is_principal
from critgroups.families import circulant, concentric_polygon, intro_counterexample, klein_example
from critgroups.multigraph import Multigraph, laplacian
from critgroups.quotients import is_pullback, pullback, pullback_witness, quotient_graph
from test_actions import _harmonicity_families


def fiber(q, qv):
    """The source vertices over quotient vertex qv."""
    return [v for v, img in enumerate(q.vertex_map) if img == qv]


def tree_reduce(q, delta):
    """Firing script, constant on orbits, sending delta to zero: the
    paper's constructive argument for a tree quotient, as a reference.

    Requires the quotient to be a tree and delta to satisfy the
    pullback criterion.  Works leaf-inward on the quotient: the firing
    count across each quotient edge is the accumulated weight hanging
    below it, then the script lifts through the vertex map.
    """
    tree = q.quotient
    nq = tree.vertex_count
    if not tree.is_tree():
        raise ValueError("quotient is not a tree")
    dhat = pullback_witness(q, delta)
    if dhat is None:
        raise ValueError("divisor fails the pullback criterion")

    adj = [[] for _ in range(nq)]
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * nq
    order = [0]
    seen = {0}
    for u in order:
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                order.append(w)

    # subtree sums, leaves first
    subtree = list(dhat)
    for u in reversed(order[1:]):
        subtree[parent[u]] += subtree[u]
    shat = [0] * nq
    for u in order[1:]:
        shat[u] = shat[parent[u]] + subtree[u]

    script = [shat[q.vertex_map[v]] for v in range(q.source.vertex_count)]
    low = min(script)
    return [x - low for x in script]


def zero_div(q, rng, span=4):
    nq = q.quotient.vertex_count
    vals = [rng.randint(-span, span) for _ in range(nq)]
    vals[-1] -= sum(vals)
    return vals


def test_non_harmonic_rejected():
    star = Multigraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NonHarmonicError):
        quotient_graph(star, [[0, 2, 1, 3]])


def test_quotient_shapes_circulant():
    g, act = circulant(7, [1, 2])
    q1 = quotient_graph(g, [act.sigma1])
    assert q1.quotient.vertex_count == 4
    assert len(q1.quotient.edges) == 6
    # multiplicities: the fixed vertex has stabilizer of order 2
    fixed = [v for v in range(7) if act.sigma1[v] == v]
    assert len(fixed) == 1
    assert q1.multiplicity[fixed[0]] == 2
    assert sum(1 for v in range(7) if q1.multiplicity[v] == 1) == 6
    q3 = quotient_graph(g, act.rotation_subgroup())
    assert q3.quotient.vertex_count == 1
    assert len(q3.quotient.edges) == 0


def test_quotient_shapes_concentric():
    g, act = concentric_polygon(4)
    q3 = quotient_graph(g, act.rotation_subgroup())
    # three vertices: inner orbit and the two strands; the strands carry
    # a doubled edge between them plus one edge to the inner orbit each
    assert q3.quotient.vertex_count == 3
    mults = sorted(q3.quotient.pair_multiplicities().values())
    assert len(q3.quotient.edges) == 4
    assert mults == [1, 1, 2]
    qhat = quotient_graph(g, act.elements)
    assert len(qhat.quotient.edges) == qhat.quotient.vertex_count - 1


def test_fiber_sizes_match_multiplicity():
    g, act = circulant(9, [1, 3])
    for gens in ([act.sigma1], [act.sigma2], act.rotation_subgroup(), act.elements):
        q = quotient_graph(g, gens)
        order = q.order
        for qv in range(q.quotient.vertex_count):
            fib = fiber(q, qv)
            for v in fib:
                assert len(fib) == order // q.multiplicity[v]


def test_quotient_order_is_the_closure_size():
    """The action's written-down elements are the closure of its two
    involutions, and a quotient records the order of the group its
    generators close to."""
    for g, act in _harmonicity_families():
        assert act.elements == tuple(generate_group(g, [act.sigma1, act.sigma2]))
        for gens in ([act.sigma1], [act.sigma2], act.rotation_subgroup(), [act.sigma1, act.sigma2]):
            assert quotient_graph(g, gens).order == len(generate_group(g, gens))


def test_pullback_degree_and_witness():
    rng = random.Random(6)
    g, act = circulant(9, [1, 3])
    q = quotient_graph(g, [act.sigma1])
    for _ in range(30):
        nq = q.quotient.vertex_count
        dhat = [rng.randint(-4, 4) for _ in range(nq)]
        delta = pullback(q, dhat)
        assert sum(delta) == q.order * sum(dhat)
        if sum(dhat) == 0:
            assert is_pullback(q, delta)
            assert pullback_witness(q, delta) == dhat
    assert pullback(q, [0] * q.quotient.vertex_count) == [0] * 9
    with pytest.raises(ValueError):
        is_pullback(q, [1] + [0] * 8)  # nonzero degree


def test_pullback_rejects_non_int_values():
    """A float is refused, never read as a chip count: this call would
    otherwise return a float divisor."""
    g, act = klein_example()
    q = quotient_graph(g, [act.sigma1])
    with pytest.raises(TypeError, match="is not an int"):
        pullback(q, [1.5, 0, 0, 0, -1.5])


def test_pullback_criterion_triangle_reflection():
    c3 = Multigraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], labels=["v1", "v2", "v3"])
    q = quotient_graph(c3, [[0, 2, 1]])  # reflection fixing v1
    assert is_pullback(q, [2, -1, -1])
    assert pullback_witness(q, [2, -1, -1]) == [1, -1]
    assert not is_pullback(q, [1, -1, 0])  # not constant on the swapped pair
    assert not is_pullback(q, [1, 0, -1])
    # odd value at the fixed vertex fails the divisibility condition
    assert not is_pullback(q, [3, -2, -1])
    # witness round-trips through principality
    cg = critical_group(c3)
    diff = [a - b for a, b in zip([2, -1, -1], pullback(q, [1, -1]))]
    assert is_principal(cg, diff)


def test_pullback_injectivity_on_critical_groups():
    rng = random.Random(12)
    cases = [circulant(7, [1, 2]), circulant(9, [1, 3]), klein_example(), concentric_polygon(3)]
    for g, act in cases:
        cg = critical_group(g)
        for gens in ([act.sigma1], [act.sigma2], act.rotation_subgroup(), act.elements):
            q = quotient_graph(g, gens)
            cgq = critical_group(q.quotient)
            for _ in range(50):
                dhat = zero_div(q, rng)
                principal_up = is_principal(cg, pullback(q, dhat))
                principal_down = is_principal(cgq, dhat)
                assert principal_up == principal_down


def test_pullbacks_round_trip():
    rng = random.Random(13)
    g, act = klein_example()
    for gens in ([act.sigma1], [act.sigma2], act.rotation_subgroup(), act.elements):
        q = quotient_graph(g, gens)
        for _ in range(25):
            dhat = zero_div(q, rng)
            assert is_pullback(q, pullback(q, dhat))


def test_tree_reduce():
    rng = random.Random(14)
    g, act = concentric_polygon(4)
    qhat = quotient_graph(g, act.elements)
    for _ in range(25):
        dhat = zero_div(qhat, rng)
        delta = pullback(qhat, dhat)
        script = tree_reduce(qhat, delta)
        assert laplacian(g).apply(script) == delta
        for qv in range(qhat.quotient.vertex_count):
            fib = fiber(qhat, qv)
            assert len({script[v] for v in fib}) == 1
        assert min(script) == 0
    # zero divisor reduces by the zero script
    assert tree_reduce(qhat, [0] * g.vertex_count) == [0] * g.vertex_count


def test_tree_reduce_trivial_group_path():
    p2 = Multigraph.from_edges(2, [(0, 1)])
    q = quotient_graph(p2, [[0, 1]])
    for k in (1, 4, -3):
        script = tree_reduce(q, [k, -k])
        assert laplacian(p2).apply(script) == [k, -k]
        assert script == ([k, 0] if k > 0 else [0, -k])


def test_tree_reduce_preconditions():
    g, act = circulant(7, [1, 2])
    q1 = quotient_graph(g, [act.sigma1])  # not a tree
    with pytest.raises(ValueError):
        tree_reduce(q1, [0] * 7)
    qhat = quotient_graph(g, act.elements)  # single point: a tree
    bad = [1, -1] + [0] * 5  # not a pullback (not orbit-constant)
    with pytest.raises(ValueError):
        tree_reduce(qhat, bad)


def test_quotient_serialization():
    g, act = klein_example()
    q = quotient_graph(g, [act.sigma2])
    index = {g.label(v): v for v in range(g.vertex_count)}
    assert q.multiplicity[index["x1"]] == 2
    assert q.vertex_map[index["a1"]] == q.vertex_map[index["b1"]]


def test_intro_quotients():
    g, act = intro_counterexample()
    q1 = quotient_graph(g, [act.sigma1])
    assert critical_group(q1.quotient).group.factors == (12,)
    q2 = quotient_graph(g, [act.sigma2])
    assert critical_group(q2.quotient).group.factors == (12,)
    q3 = quotient_graph(g, act.rotation_subgroup())
    assert critical_group(q3.quotient).group.factors == (2, 2)
    qhat = quotient_graph(g, act.elements)
    tree = qhat.quotient
    assert len(tree.edges) == tree.vertex_count - 1 and tree.is_connected()
