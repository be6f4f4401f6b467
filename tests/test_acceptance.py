"""Acceptance suite: every criterion at exact equality.

Each criterion prints one PASS/FAIL line (visible with -s or in captured
output).  For the paper's two worked examples the printed values
disagree with exact computation.  Those tests assert the computed values
and prove them inside the test with plain-Python exact arithmetic
(``fractions.Fraction`` elimination, ranks over GF(p), gcds of maximal
minors) on matrices written out from the graph's edge list, sharing no
code with ``critgroups.intmatrix`` or ``critgroups.abelian``.  The
printed values stay in the tests as documented discrepancies:

  * criterion 2, K_{2,4} with the Klein action: printed kernel (Z/2)^2
    and quotient (Z/2)^3; proven kernel Z/2 and quotient (Z/2)^2.  The
    printed pair is the uniform-class formula, kernel (Z/2)^(s-1) and
    quotient Z/n + (Z/2)^(s-1) with s = 3, which assumes every size-n
    orbit is pinned by the same reflection class.  Here {x1, x2} is
    pinned by the second involution and {a1, b1}, {a2, b2} by the
    first, so the mixed-class exponent is e = 1.  For n = 2 the rotation
    must be the fixed-point-free involution, so this does not depend on
    the labeling.  Proof: |K(G)| = 32, the three quotient groups have
    orders 1 * 4 * 4 = 16, and the lattice spanned by the reduced
    Laplacian and the pullbacks has index 4 in Z^5, with a quotient of
    2-rank 5 - 3 = 2 (3 is the GF(2) rank of the relation matrix).  So
    the quotient is (Z/2)^2, the image has order 32 / 4 = 8 and the
    kernel has order 16 / 8 = 2.  The printed values have orders 4 and 8.
  * criterion 3, concentric_polygon(4): printed Z/160 + Z/30 + Z/5,
    invariant factors (5, 10, 480); proven (10, 10, 240).  Both have
    order 24000 and the same quotient critical groups (40,), (30,), (5,);
    they differ only in the 2-part.  Proof: the reduced Laplacian has
    determinant 24000, its inverse has entries with denominators of lcm
    240 (the exponent), and its ranks over GF(2), GF(3), GF(5) are 8,
    10, 8, so the p-ranks are 3, 1, 3.  Of the 33 groups of order 24000
    only (10, 10, 240) fits; the printed group has 2-rank 2 and exponent
    480.  Every other way of joining a 4-cycle to an 8-cycle by two
    spokes per inner vertex and one per outer vertex that gives order
    24000 gives (10, 10, 240) as well, so the printed group reads as a
    misprint rather than a different graph; without the paper's figure
    this cannot be settled.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from critgroups.abelian import FinAbGroup, direct_sum, is_isomorphic
from critgroups.decomposition import (
    DecompositionContext,
    pair_sum_conditions,
    pair_sum_matrix,
    random_degree_zero,
    run_all_checks,
    split_pair_sum,
    split_triple_sum,
    triple_sum_conditions,
    triple_sum_matrix,
)
from critgroups.divisors import critical_group, is_principal, quotient_by_subgroup
from critgroups.families import (
    chained_copies,
    circulant,
    concentric_polygon,
    intro_counterexample,
    klein_example,
)
from critgroups.intmatrix import (
    IntMatrix,
    Lattice,
    det_bareiss,
    hermite_normal_form,
    smith_normal_form,
)
from critgroups.multigraph import Multigraph, spanning_tree_count
from critgroups.oracles import brute_force_spanning_trees
from critgroups.quotients import is_pullback, pullback, quotient_graph
from test_families import fibonacci, h_graph
from test_intmatrix import matmul, replayed_hermite_transform, replayed_smith_transforms


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# ---------------------------------------------------------------------------
# plain-Python exact arithmetic for the worked examples; shares no code
# with critgroups.intmatrix or critgroups.abelian


def _laplacian(nv, edges):
    lap = [[0] * nv for _ in range(nv)]
    for u, v in edges:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    return lap


def _reduced(lap):
    """Drop the row and column of vertex 0."""
    return [row[1:] for row in lap[1:]]


def _det(rows):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(d)


def _rank_mod(rows, p):
    """Rank over GF(p)."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0])):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][c]:
                f = a[r][c]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def _exponent(rows):
    """Exponent of Z^n / M Z^n for nonsingular M: the least m with
    m * M^-1 integral, i.e. the lcm of the denominators of M^-1."""
    n = len(rows)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return lcm(*(x.denominator for row in a for x in row[n:]))


def _lattice_index(rows):
    """Index in Z^r of the lattice spanned by the columns of an r-row
    matrix: the gcd of its r x r minors."""
    r = len(rows)
    g = 0
    for cols in combinations(range(len(rows[0])), r):
        g = gcd(g, _det([[row[c] for c in cols] for row in rows]))
    return g


def _groups_of_order(order, top=None):
    """Every invariant-factor chain d1 | d2 | ... with product `order`
    (and largest factor dividing `top`), in ascending order."""
    if order == 1:
        yield ()
        return
    for d in range(2, order + 1):
        if order % d == 0 and (top is None or top % d == 0):
            for rest in _groups_of_order(order // d, d):
                yield rest + (d,)


def _p_rank(factors, p):
    return sum(1 for f in factors if f % p == 0)


def _orbit_quotient(nv, edges, group):
    """Quotient of a simple graph by a permutation group given by all its
    elements: the quotient's vertex count and edges, and the pullbacks
    m(v) * (e_w - e_w0) of the quotient's vertex differences, where m(v)
    is the order of the stabilizer of v."""
    orbits = sorted({tuple(sorted({g[v] for g in group})) for v in range(nv)})
    where = {v: i for i, orb in enumerate(orbits) for v in orb}
    edge_orbits = {
        frozenset(frozenset((g[u], g[v])) for g in group) for u, v in edges
    }
    qedges = []
    for orb in edge_orbits:
        u, v = tuple(next(iter(orb)))
        qedges.append((where[u], where[v]))
    mult = [len(group) // len(orbits[where[v]]) for v in range(nv)]
    pullbacks = []
    for orb in orbits[1:]:
        vec = [0] * nv
        for v in orbits[0]:
            vec[v] -= mult[v]
        for v in orb:
            vec[v] += mult[v]
        pullbacks.append(vec)
    return len(orbits), qedges, pullbacks


def _edge_set(edges):
    return sorted(tuple(sorted(e)) for e in edges)


def test_criterion_1_intro_counterexample():
    g, act = intro_counterexample()
    cg = critical_group(g)
    ok = cg.group.factors == (2, 2, 4, 12)
    orders = []
    factors = []
    for gens in ([act.sigma1], [act.sigma2], act.rotation_subgroup()):
        q = quotient_graph(g, gens)
        grp = critical_group(q.quotient).group
        orders.append(grp.order)
        factors.append(grp.factors)
    ok &= factors[0] == (12,) and factors[1] == (12,)
    ok &= factors[2] == (2, 2)
    product = orders[0] * orders[1] * orders[2]
    ok &= product == 576 and cg.group.order == 192
    ok &= cg.group.order % product != 0  # the direct sum cannot embed
    assert report(
        "1 (doubled-edge counterexample)",
        ok,
        f"K={cg.group.factors} quotients={factors} product={product}",
    )


KLEIN_CTX = DecompositionContext(*klein_example())


def test_criterion_2_klein_computable_parts():
    ctx = KLEIN_CTX
    ok = ctx.cg.group.factors == (2, 2, 8)
    t1 = ctx.q1.quotient
    ok &= t1.is_connected() and len(t1.edges) == t1.vertex_count - 1  # tree
    sq = ctx.q2.quotient
    ok &= (sq.vertex_count, len(sq.edges)) == (4, 4)
    ok &= all(m == 1 for m in sq.pair_multiplicities().values())  # a plain square
    two = ctx.q3.quotient
    ok &= (two.vertex_count, len(two.edges)) == (3, 4)
    ok &= sorted(two.pair_multiplicities().values()) == [2, 2]  # two 2-cycles, one shared vertex
    assert report(
        "2 (Klein example, group and quotient shapes)",
        ok,
        f"K={ctx.cg.group.factors}",
    )


# K_{2,4} on x1 x2 | a1 a2 b1 b2; sigma1 swaps x1/x2, sigma2 swaps a_i/b_i
KLEIN_EDGES = [(x, a) for x in (0, 1) for a in (2, 3, 4, 5)]
KLEIN_S1 = [1, 0, 2, 3, 4, 5]
KLEIN_S2 = [0, 1, 4, 5, 2, 3]


def _klein_matrices():
    """The reduced Laplacian L' of K_{2,4}, the relation matrix [L' | P]
    with P the root-dropped pullbacks from the quotients by sigma1,
    sigma2 and the rotation, and the three quotients' reduced
    Laplacians."""
    nv = 6
    e = list(range(nv))
    rot = [KLEIN_S2[KLEIN_S1[v]] for v in range(nv)]
    lap = _reduced(_laplacian(nv, KLEIN_EDGES))
    pullbacks = []
    quotient_laps = []
    for group in ([e, KLEIN_S1], [e, KLEIN_S2], [e, rot]):
        nq, qedges, gens = _orbit_quotient(nv, KLEIN_EDGES, group)
        quotient_laps.append(_reduced(_laplacian(nq, qedges)))
        pullbacks.extend(vec[1:] for vec in gens)
    relations = [row + [vec[i] for vec in pullbacks] for i, row in enumerate(lap)]
    return lap, relations, quotient_laps


def test_criterion_2_klein_stated_kernel_and_quotient():
    """The natural map H1 + H2 + H3 -> K(G) has kernel Z/2 and cokernel
    (Z/2)^2, not the printed (Z/2)^2 and (Z/2)^3.

    Proven here from the edge list of K_{2,4}: with L' the reduced
    Laplacian and P the pullbacks of the quotients' vertex differences
    (root dropped), the cokernel is Z^5 / [L' | P].  Its order is the
    gcd of the 5 x 5 minors, 4, and its 2-rank is 5 - rank_GF(2), 2, so
    it is (Z/2)^2.  The image then has order |K(G)| / 4 = 8 and the
    kernel order 16 / 8 = 2, so it is Z/2.  The printed pair is the
    uniform-class formula at s = 3, which does not apply because the
    pinned orbits split 2 + 1 over the two reflection classes (see the
    module docstring).
    """
    from critgroups.decomposition import check_kernel_structure, check_quotient_structure

    ctx = KLEIN_CTX
    s1, s2 = KLEIN_S1, KLEIN_S2
    assert ctx.graph.labels == ("x1", "x2", "a1", "a2", "b1", "b2")
    assert _edge_set(ctx.graph.edges) == _edge_set(KLEIN_EDGES)
    assert (list(ctx.action.sigma1), list(ctx.action.sigma2)) == (s1, s2)

    lap, relations, quotient_laps = _klein_matrices()
    order_k = _det(lap)
    domain_order = 1
    for qlap in quotient_laps:
        domain_order *= _det(qlap)
    coker_order = _lattice_index(relations)
    coker_2rank = len(relations) - _rank_mod(relations, 2)
    image_order = order_k // coker_order
    kernel_order = domain_order // image_order
    coker = [f for f in _groups_of_order(coker_order) if _p_rank(f, 2) == coker_2rank]
    kernel_shapes = list(_groups_of_order(kernel_order))
    assert (order_k, domain_order, coker_order, coker_2rank) == (32, 16, 4, 2)
    assert (image_order, kernel_order) == (8, 2)
    assert coker == [(2, 2)] and kernel_shapes == [(2,)]
    proven_kernel, proven_quotient = list(kernel_shapes[0]), list(coker[0])

    # The printed pair is the uniform-class formula; this action mixes classes.
    pinned = [
        sum(1 for orb in ({0, 1}, {2, 4}, {3, 5}) if all(s[v] == v for v in orb))
        for s in (s1, s2)
    ]
    lab = ctx.labeling
    assert sorted(pinned) == [1, 2] and lab.s == sum(pinned) == 3
    assert sorted((lab.flipped_count, lab.s - lab.flipped_count)) == sorted(pinned)
    uniform = [2] * (lab.s - 1), [ctx.n] + [2] * (lab.s - 1)
    e_mixed = sum(max(c - 1, 0) for c in pinned)
    mixed = [2] * e_mixed, [ctx.n] + [2] * e_mixed
    stated_kernel, stated_quotient = [2, 2], [2, 2, 2]
    assert (stated_kernel, stated_quotient) == uniform
    assert (proven_kernel, proven_quotient) == mixed != uniform

    kernel_check = check_kernel_structure(ctx)
    quotient_check = check_quotient_structure(ctx)
    kernel = kernel_check.computed["kernel"]
    quotient = quotient_check.computed["quotient"]
    ok = kernel == proven_kernel and quotient == proven_quotient
    ok &= kernel_check.passed and quotient_check.passed
    report(
        "2 (Klein example, kernel/quotient proven; printed values differ)",
        ok,
        f"kernel={kernel}, quotient={quotient}; printed {stated_kernel} and "
        f"{stated_quotient} have orders 4 and 8, proven orders {kernel_order} "
        f"and {coker_order}",
    )
    assert kernel == proven_kernel, (
        f"kernel {kernel}, proven {proven_kernel} (printed {stated_kernel}); "
        "see the module docstring of tests/test_acceptance.py"
    )
    assert quotient == proven_quotient, (
        f"quotient {quotient}, proven {proven_quotient} (printed {stated_quotient}); "
        "see the module docstring of tests/test_acceptance.py"
    )
    assert kernel_check.passed and quotient_check.passed


G4_CTX = DecompositionContext(*concentric_polygon(4))


def test_criterion_3_concentric_computable_parts():
    ctx = G4_CTX
    ok = ctx.cg.group.order == 24000
    hs = [cgq.group.factors for cgq in ctx.cg_h]
    ok &= hs == [(40,), (30,), (5,)]
    j = ctx.pullback_image
    quot = quotient_by_subgroup(ctx.cg, ctx.all_pullback_generators()).group
    ok &= ctx.cg.group.order == j.order * quot.order
    ok &= quot.factors == (4,)
    ok &= j.order == 6000  # index 4
    # non-splitting by element orders: the true group has an element of
    # order beyond anything in the split direct sum
    split = direct_sum(FinAbGroup((40,)), FinAbGroup((30,)), FinAbGroup((5,)), FinAbGroup((4,)))
    ok &= split.exponent == 120
    ok &= ctx.cg.group.exponent > split.exponent
    ok &= not is_isomorphic(ctx.cg.group, split)
    assert report(
        "3 (concentric polygons, order/quotients/index/non-splitting)",
        ok,
        f"|K|={ctx.cg.group.order} K={ctx.cg.group.factors} quotients={hs} "
        f"cokernel={quot.factors} exponent {ctx.cg.group.exponent} vs split {split.exponent}",
    )


# z1..z4 = 0..3 (inner 4-cycle), x1..x4 = 4..7, y1..y4 = 8..11 (outer
# 8-cycle x1 y2 x2 y3 x3 y4 x4 y1); z_i holds spokes to x_i and y_i
G4_EDGES = [
    edge
    for i in range(4)
    for edge in (
        (i, (i + 1) % 4),
        (4 + i, 8 + i),
        (4 + i, 8 + (i + 1) % 4),
        (i, 4 + i),
        (i, 8 + i),
    )
]


def test_criterion_3_concentric_stated_group():
    """K(G) = Z/10 + Z/10 + Z/240, not the printed Z/160 + Z/30 + Z/5.

    Proven here from the edge list of the 4-gon graph: the reduced
    Laplacian has determinant 24000, the lcm of the denominators of its
    inverse (the exponent) is 240, and its ranks over GF(2), GF(3), GF(5)
    give p-ranks 3, 1, 3.  Only (10, 10, 240) among the groups of order
    24000 has these invariants.  The printed group has the same order
    but 2-rank 2, so it cannot be K(G) (see the module docstring).
    """
    computed = G4_CTX.cg.group
    assert _edge_set(G4_CTX.graph.edges) == _edge_set(G4_EDGES)

    lap = _reduced(_laplacian(12, G4_EDGES))
    order = _det(lap)
    exponent = _exponent(lap)
    p_ranks = tuple(len(lap) - _rank_mod(lap, p) for p in (2, 3, 5))
    assert (order, exponent, p_ranks) == (24000, 240, (3, 1, 3))
    fits = [
        f
        for f in _groups_of_order(order)
        if f[-1] == exponent and tuple(_p_rank(f, p) for p in (2, 3, 5)) == p_ranks
    ]
    assert fits == [(10, 10, 240)]
    proven = fits[0]

    stated = FinAbGroup((160, 30, 5))
    assert stated.factors == (5, 10, 480)
    assert stated.order == order and _p_rank(stated.factors, 2) == 2 != p_ranks[0]
    ok = computed.factors == proven and not is_isomorphic(computed, stated)
    report(
        "3 (concentric polygons, isomorphism type proven; printed group differs)",
        ok,
        f"computed {computed.factors}, proven {proven}; printed {stated.factors} "
        f"has 2-rank 2, K(G) has 2-rank {p_ranks[0]}",
    )
    assert computed.factors == proven, (
        f"computed {computed.factors}, proven {proven} (printed Z/160+Z/30+Z/5 = "
        f"{stated.factors}); see the module docstring of tests/test_acceptance.py"
    )
    assert not is_isomorphic(computed, stated)


def test_worked_examples_against_sympy():
    """sympy's invariant_factors on the same hand-built matrices, next to
    the plain-Python proofs above."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def chain(rows):
        factors = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        return tuple(int(f) for f in factors if f != 1)

    lap, relations, quotient_laps = _klein_matrices()
    assert chain(lap) == KLEIN_CTX.cg.group.factors == (2, 2, 8)
    assert [chain(q) for q in quotient_laps] == [(), (4,), (2, 2)]
    assert chain(relations) == (2, 2)
    assert chain(_reduced(_laplacian(12, G4_EDGES))) == (10, 10, 240)


def test_criterion_4_fibonacci_circulants():
    ok = True
    details = []
    counts = {k: spanning_tree_count(h_graph(k)) for k in range(1, 9)}
    ok &= counts[1] == 2 and counts[2] == 5
    for k in range(3, 9):
        ok &= counts[k] == 3 * counts[k - 1] - counts[k - 2]
    for n in (3, 5, 7, 9, 11, 13, 15):
        k = (n - 1) // 2
        fn = fibonacci(n)
        g, act = circulant(n, [1, 2])
        trees = spanning_tree_count(g)
        ok &= trees == n * fn * fn
        hk = critical_group(h_graph(k))
        ok &= hk.group.order == fn and len(hk.group.factors) <= 1  # cyclic
        gamma = [0] * (k + 1)
        gamma[k - 1] = 1
        gamma[k] = -1
        ok &= hk.order_of(gamma) == fn  # generator of full order
        if gcd(n, fn) == 1:
            cg = critical_group(g)
            ok &= is_isomorphic(
                cg.group, FinAbGroup((fn, fn, n))
            )
        details.append(f"n={n}:{trees}")
    assert report("4 (circulant tree counts and cyclic quotient groups)", ok, " ".join(details))


def _chain(base_name, n):
    bases = {
        "edge": (Multigraph.from_edges(2, [(0, 1)], labels=["a", "b"]), [1, 0], 0, 1),
        "path": (
            Multigraph.from_edges(3, [(0, 1), (1, 2)], labels=["a", "m", "b"]),
            [2, 1, 0],
            0,
            2,
        ),
        "cycle4": (
            Multigraph.from_edges(
                4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels=["a", "p", "b", "q"]
            ),
            [2, 3, 0, 1],
            0,
            2,
        ),
    }
    base, phi, a, b = bases[base_name]
    return chained_copies(base, phi, a, b, n)


SWEEP = [
    ("circulant3", lambda: circulant(3, [1, 2])),
    ("circulant5", lambda: circulant(5, [1, 2])),
    ("circulant7", lambda: circulant(7, [1, 2])),
    ("circulant9", lambda: circulant(9, [1, 2])),
    ("circulant11", lambda: circulant(11, [1, 2])),
    ("circulant13", lambda: circulant(13, [1, 2])),
    ("circulant15", lambda: circulant(15, [1, 2])),
    ("circulant9_13", lambda: circulant(9, [1, 3])),
    ("circulant14_25", lambda: circulant(14, [2, 5])),
    ("concentric3", lambda: concentric_polygon(3)),
    ("concentric4", lambda: concentric_polygon(4)),
    ("concentric5", lambda: concentric_polygon(5)),
    ("concentric6", lambda: concentric_polygon(6)),
    ("klein", klein_example),
    ("chain_edge4", lambda: _chain("edge", 4)),
    ("chain_edge5", lambda: _chain("edge", 5)),
    ("chain_path3", lambda: _chain("path", 3)),
]


def test_criterion_5_theorem_sweep():
    failures = []
    tree_cases = 0
    for name, maker in SWEEP:
        g, act = maker()
        ctx = DecompositionContext(g, act)
        rep = run_all_checks(ctx, trials=10, seed=101, oracle=False, graph_name=name)
        if not rep.passed:
            failures.append(name)
        if any(c.name == "tree_case" for c in rep.checks):
            tree_cases += 1
        order = next(c for c in rep.checks if c.name == "order_identity")
        if ctx.n % 2 == 0 and not any("flagged" in note for note in order.notes):
            failures.append(f"{name}: even-order caveat not flagged")
    ok = not failures and tree_cases >= 8
    assert report(
        "5 (theorem sweep over all family instances)",
        ok,
        f"{len(SWEEP)} instances, {tree_cases} tree cases"
        + (f", failures: {failures}" if failures else ""),
    )


ORACLE_SET = [
    ("klein", KLEIN_CTX),
    ("concentric4", G4_CTX),
    ("circulant5", DecompositionContext(*circulant(5, [1, 2]))),
    ("circulant7", DecompositionContext(*circulant(7, [1, 2]))),
    ("circulant9_13", DecompositionContext(*circulant(9, [1, 3]))),
    ("concentric3", DecompositionContext(*concentric_polygon(3))),
]


def test_criterion_6_oracle_equivalence():
    ok = True
    member_counts = {}
    for name, ctx in ORACLE_SET:
        rng = random.Random(2024)
        pair_m = pair_sum_matrix(ctx)
        triple_m = triple_sum_matrix(ctx)
        hits = 0
        for _ in range(200):
            d = random_degree_zero(ctx.graph, rng, span=4)
            dropped = ctx.cg._dropped(d)
            in_pair = pair_sum_conditions(ctx, d)
            in_triple = triple_sum_conditions(ctx, d)
            ok &= in_pair == Lattice(pair_m).contains(dropped)
            ok &= in_triple == Lattice(triple_m).contains(dropped)
            if in_pair:
                split_pair_sum(ctx, d)  # round-trips or raises
                hits += 1
            if in_triple:
                split_triple_sum(ctx, d)
            ok &= is_principal(ctx.cg, d) == Lattice(ctx.cg.reduced).contains(dropped)
        member_counts[name] = hits
    # pullback injectivity, 50 divisors per quotient
    for name, ctx in (("klein", KLEIN_CTX), ("circulant7", ORACLE_SET[3][1])):
        rng = random.Random(55)
        for q in (ctx.q1, ctx.q2, ctx.q3, ctx.qhat):
            cgq = critical_group(q.quotient)
            for _ in range(50):
                nq = q.quotient.vertex_count
                dhat = [rng.randint(-4, 4) for _ in range(nq)]
                dhat[-1] -= sum(dhat)
                ok &= is_principal(ctx.cg, pullback(q, dhat)) == is_principal(cgq, dhat)
                ok &= is_pullback(q, pullback(q, dhat))
    assert report(
        "6 (membership conditions against lattice oracles)",
        ok,
        f"200 divisors x {len(ORACLE_SET)} instances, pair members {member_counts}",
    )


def test_criterion_7_linear_algebra_suite():
    rng = random.Random(99)
    ok = True
    for _ in range(500):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = IntMatrix(r, c, [rng.randint(-9, 9) for _ in range(r * c)])
        snf = smith_normal_form(m)
        # The transforms are replayed in full from the op logs.
        u, uinv = replayed_smith_transforms(snf)
        # U*M*V == S for a unimodular V exactly when U*M and S span the
        # same column lattice, whose canonical basis is the column HNF.
        ok &= hermite_normal_form(matmul(u, m)).H == hermite_normal_form(snf.S).H
        ok &= abs(det_bareiss(u)) == 1
        ok &= matmul(u, uinv) == IntMatrix.identity(r)
        diag = [snf.S[i, i] for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                ok &= a != 0 and b % a == 0
        hnf = hermite_normal_form(m)
        ok &= matmul(m, replayed_hermite_transform(hnf)) == hnf.H
        ok &= hermite_normal_form(hnf.H).H == hnf.H
    # matrix-tree versus enumeration on every small graph the suite uses
    small = [
        Multigraph.from_edges(2, [(0, 1)]),
        Multigraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
        Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        circulant(3, [1, 2])[0],
        klein_example()[0],
        intro_counterexample()[0],
        h_graph(1),
        h_graph(2),
        h_graph(3),
        h_graph(4),
        _chain("path", 3)[0],
        _chain("edge", 5)[0],
    ]
    for g in small:
        assert len(g.edges) <= 20
        if len(g.edges) <= 10:
            ok &= spanning_tree_count(g) == brute_force_spanning_trees(g)
    # the two larger ones still go through the capped oracle
    ok &= spanning_tree_count(intro_counterexample()[0]) == brute_force_spanning_trees(
        intro_counterexample()[0]
    )
    assert report("7 (linear-algebra and matrix-tree suite)", ok, "500 matrices")
