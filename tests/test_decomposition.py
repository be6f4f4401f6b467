"""The decomposition machinery: membership conditions against lattice
oracles, constructive splits, lattice quotients, and every structural
check across the family instances."""

import importlib
import json
import pkgutil
import random

import pytest

import critgroups
from critgroups import abelian, actions, decomposition, intmatrix
from critgroups.abelian import Cokernel, FinAbGroup, lattice_quotient
from critgroups.cli import main
from critgroups.decomposition import (
    DecompositionContext,
    check_divisor_class_quotient,
    check_kernel_structure,
    check_order_identity,
    check_pair_exact_sequence,
    check_quotient_structure,
    check_tree_case,
    laplacian_mod_symmetric_firings,
    pair_sum_conditions,
    pair_sum_matrix,
    pullback_conditions,
    random_degree_zero,
    run_all_checks,
    split_pair_sum,
    split_triple_sum,
    triple_sum_conditions,
    triple_sum_matrix,
    weighted_total,
)
from critgroups.divisors import critical_group, quotient_by_subgroup
from critgroups.families import (
    CHAIN_BASES,
    chained_copies,
    circulant,
    concentric_polygon,
    intro_counterexample,
    klein_example,
)
from critgroups.intmatrix import IntMatrix, Lattice
from critgroups.jsonio import graph_to_json
from critgroups.multigraph import Multigraph, laplacian
from critgroups.quotients import is_pullback, pullback, quotient_graph


def chain(base_name, n):
    base, phi, a, b = CHAIN_BASES[base_name]
    return chained_copies(base, phi, a, b, n)


def edge_reflected_cycle(n):
    """The 2n-cycle with the edge-midpoint reflections i -> -1-i and
    i -> 1-i: D_n acts freely, so there is one free orbit and no pinned
    orbit (s = 0, t = 1)."""
    m = 2 * n
    g = Multigraph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])
    sigma1 = [(-1 - i) % m for i in range(m)]
    sigma2 = [(1 - i) % m for i in range(m)]
    act = actions.DihedralAction.build(g, sigma1, sigma2)
    actions.require_harmonic(g, act.elements)
    return g, act


def ctx_for(maker):
    g, act = maker
    return DecompositionContext(g, act)


C7 = ctx_for(circulant(7, [1, 2]))
KLEIN = ctx_for(klein_example())
G4 = ctx_for(concentric_polygon(4))


def test_labeled_rows_cover_vertices_and_weight_by_index():
    """Both strands of each free orbit and every pinned row cover each
    vertex exactly once, and a unit divisor at 0-based position i of a
    row has weighted total i + 1."""
    for ctx in (C7, KLEIN, G4):
        lab = ctx.labeling
        rows = [r for orb in lab.free for r in (orb.xrow, orb.yrow)]
        rows += [orb.row for orb in lab.pinned]
        assert sorted(v for row in rows for v in row) == list(range(ctx.graph.vertex_count))
        for row in rows:
            for i, v in enumerate(row):
                unit = [0] * ctx.graph.vertex_count
                unit[v] = 1
                assert weighted_total(lab, unit) == i + 1


def test_membership_examples_circulant():
    d = [1, -1, 0, 0, 0, 0, 0]
    assert not pair_sum_conditions(C7, d)
    assert not triple_sum_conditions(C7, d)
    assert not pullback_conditions(C7, d, 3)  # not constant on the orbit
    d2 = [1, -2, 1, 0, 0, 0, 0]
    assert pair_sum_conditions(C7, d2)
    d1, d2_part = split_pair_sum(C7, d2)
    assert pullback_conditions(C7, d1, 1)
    assert pullback_conditions(C7, d2_part, 2)
    assert [a + b for a, b in zip(d1, d2_part)] == d2


def test_zero_divisor_memberships():
    for ctx in (C7, KLEIN, G4):
        zero = [0] * ctx.graph.vertex_count
        for i in (1, 2, 3):
            assert pullback_conditions(ctx, zero, i)
        assert pair_sum_conditions(ctx, zero)
        assert triple_sum_conditions(ctx, zero)
        a, b = split_pair_sum(ctx, zero)
        assert not any(a) and not any(b)
        parts = split_triple_sum(ctx, zero)
        assert not any(x for p in parts for x in p)


def test_membership_requires_degree_zero():
    with pytest.raises(ValueError):
        pair_sum_conditions(C7, [1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        pullback_conditions(C7, [1, 0, 0, 0, 0, 0, 0], 1)


def test_split_refuses_non_members():
    """A non-member has no split: each split returns None."""
    d = [1, -1, 0, 0, 0, 0, 0]
    assert split_pair_sum(C7, d) is None
    assert split_triple_sum(C7, d) is None


def test_split_requires_degree_zero():
    """A divisor of nonzero degree is refused with ValueError, not
    answered with None: it is outside the question, not a non-member."""
    for split in (split_pair_sum, split_triple_sum):
        with pytest.raises(ValueError, match="degree"):
            split(C7, [1, 0, 0, 0, 0, 0, 0])


def test_split_self_checks_raise_assertion_error(monkeypatch):
    """A fault in the constants a split is built from is an internal
    error, never read as a non-member: a rotation constant shifted on
    one row breaks the rotation-pullback check (the correction loses
    degree zero) before the remainder reaches the pair split; one
    shifted by +1 on the first row and -1 on the last is still a
    degree-zero rotation pullback, so the pair split refuses the
    remainder, and the triple split raises rather than return None; a
    shifted pair offset is caught by the pair split's own check.  Run on
    concentric_polygon(4) and chained_copies(cycle4,4)."""
    real_constants = decomposition._rotation_constants
    real_offset = decomposition._pair_offset

    def shifted_constants(first, last):
        def shifted(ctx, vals):
            consts = real_constants(ctx, vals)
            consts[0] += first
            consts[-1] += last
            return consts

        return shifted

    for ctx in (G4, ctx_for(chain("cycle4", 4))):
        d = [0] * ctx.graph.vertex_count
        with monkeypatch.context() as mp:
            mp.setattr(decomposition, "_rotation_constants", shifted_constants(0, 1))
            with pytest.raises(AssertionError, match="rotation correction is not a rotation pullback"):
                split_triple_sum(ctx, d)
            mp.setattr(decomposition, "_rotation_constants", shifted_constants(1, -1))
            with pytest.raises(AssertionError, match="remainder is not a sum of two involution pullbacks"):
                split_triple_sum(ctx, d)
        with monkeypatch.context() as mp:
            mp.setattr(decomposition, "_pair_offset", lambda ctx, vals: real_offset(ctx, vals) + 1)
            with pytest.raises(AssertionError):
                split_pair_sum(ctx, d)


def test_pullbacks_satisfy_their_conditions():
    rng = random.Random(33)
    for ctx in (C7, KLEIN, G4):
        for i in (1, 2, 3):
            q = ctx.quotient(i)
            for _ in range(10):
                nq = q.quotient.vertex_count
                dhat = [rng.randint(-3, 3) for _ in range(nq)]
                dhat[-1] -= sum(dhat)
                delta = pullback(q, dhat)
                assert pullback_conditions(ctx, delta, i)
                assert pair_sum_conditions(ctx, delta) or i == 3
                assert triple_sum_conditions(ctx, delta)


def test_sums_of_pullbacks_are_members():
    """Sums of random pullbacks meet the membership conditions, and the
    splits return one pullback per quotient that add up to the input.
    Besides the small cases this runs the ladder families, where a
    default verify's random divisors are almost never members."""
    rng = random.Random(34)
    ladder = (
        concentric_polygon(8),
        concentric_polygon(12),
        chain("cycle4", 5),
        chain("cycle4", 11),
        circulant(21, [1, 2, 3]),
    )
    # s = 0; odd n with two pinned rows; mixed classes at n = 4
    branches = (edge_reflected_cycle(4), chain("path", 3), chain("path", 4))
    for ctx in (C7, KLEIN, G4, *map(ctx_for, ladder + branches)):
        for _ in range(10):
            parts = []
            for i in (1, 2, 3):
                q = ctx.quotient(i)
                nq = q.quotient.vertex_count
                dhat = [rng.randint(-3, 3) for _ in range(nq)]
                dhat[-1] -= sum(dhat)
                parts.append(pullback(q, dhat))
            pair = [a + b for a, b in zip(parts[0], parts[1])]
            total = [a + b for a, b in zip(pair, parts[2])]
            assert pair_sum_conditions(ctx, pair)
            assert triple_sum_conditions(ctx, total)
            for d, split in ((pair, split_pair_sum(ctx, pair)), (total, split_triple_sum(ctx, total))):
                assert [sum(vs) for vs in zip(*split)] == d
                for i, p in enumerate(split, 1):
                    assert pullback_conditions(ctx, p, i)


ORACLE_INSTANCES = [
    ("circulant5", ctx_for(circulant(5, [1, 2]))),
    ("circulant7", C7),
    ("circulant9_13", ctx_for(circulant(9, [1, 3]))),
    ("klein", KLEIN),
    ("concentric3", ctx_for(concentric_polygon(3))),
    ("concentric4", G4),
    ("chain_path3", ctx_for(chain("path", 3))),
    ("chain_path4", ctx_for(chain("path", 4))),
    *((f"edge_reflected_cycle{2 * n}", ctx_for(edge_reflected_cycle(n))) for n in range(2, 7)),
]


@pytest.mark.parametrize("name,ctx", ORACLE_INSTANCES, ids=[n for n, _ in ORACLE_INSTANCES])
def test_membership_agrees_with_lattice_oracle(name, ctx):
    """Conditions versus lattice membership on 200 seeded divisors."""
    import zlib

    rng = random.Random(zlib.crc32(name.encode()))
    pair_m = pair_sum_matrix(ctx)
    triple_m = triple_sum_matrix(ctx)
    hits = 0
    for _ in range(200):
        d = random_degree_zero(ctx.graph, rng, span=4)
        dropped = ctx.cg._dropped(d)
        in_pair = pair_sum_conditions(ctx, d)
        in_triple = triple_sum_conditions(ctx, d)
        assert in_pair == Lattice(pair_m).contains(dropped)
        assert in_triple == Lattice(triple_m).contains(dropped)
        if in_pair:
            hits += 1
            split_pair_sum(ctx, d)  # asserts memberships and the sum
        if in_triple:
            split_triple_sum(ctx, d)
        for i in (1, 2, 3):
            assert pullback_conditions(ctx, d, i) == is_pullback(ctx.quotient(i), d)


def doubled_rung_prism(n):
    """Two n-cycles a_i = i and b_i = n + i joined by doubled rungs
    a_i-b_i, under the reflections i -> -i and i -> 1 - i of both
    cycles.  For even n the first fixes a_0, a_{n/2}, b_0 and b_{n/2},
    so each rung there is fixed pointwise by a stabilizer of order 2 and
    must be doubled to keep the action harmonic; the second fixes no
    vertex.  Both size-n orbits are pinned the default way."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)] * 2
    g = Multigraph.from_edges(2 * n, edges)
    sigma1 = [(-i) % n for i in range(n)] + [n + (-i) % n for i in range(n)]
    sigma2 = [(1 - i) % n for i in range(n)] + [n + (1 - i) % n for i in range(n)]
    return g, actions.DihedralAction.build(g, sigma1, sigma2)


FIXED_POINT_INSTANCES = {
    "chained_copies(path,3)": lambda: chain("path", 3),
    "chained_copies(path,4)": lambda: chain("path", 4),
    "klein_example": klein_example,
    "doubled_rung_prism(4)": lambda: doubled_rung_prism(4),
    "doubled_rung_prism(6)": lambda: doubled_rung_prism(6),
}


@pytest.mark.parametrize("name", sorted(FIXED_POINT_INSTANCES))
def test_pullback_conditions_need_even_values_at_fixed_points(name):
    """A vertex an involution fixes has horizontal multiplicity 2, so a
    pullback through it is even there: for fixed u < v, e_u - e_v is no
    pullback and 2(e_u - e_v) is one.  Random divisors almost never
    probe these points, so each pair is tried here."""
    ctx = ctx_for(FIXED_POINT_INSTANCES[name]())
    nv = ctx.graph.vertex_count
    pairs = 0
    for i, sigma in ((1, ctx.action.sigma1), (2, ctx.action.sigma2)):
        fixed = [v for v in range(nv) if sigma[v] == v]
        for u in fixed:
            for v in fixed:
                if u >= v:
                    continue
                pairs += 1
                for scale, expected in ((1, False), (2, True)):
                    d = [0] * nv
                    d[u], d[v] = scale, -scale
                    assert is_pullback(ctx.quotient(i), d) == expected
                    assert pullback_conditions(ctx, d, i) == expected, (i, u, v, scale)
    assert pairs


def test_prism_pins_both_rows_the_default_way():
    for n in (4, 6):
        ctx = ctx_for(doubled_rung_prism(n))
        assert (ctx.labeling.s, ctx.labeling.t, ctx.labeling.flipped_count) == (2, 0, 0)
        assert ctx.labeling.generators_swapped
        assert run_all_checks(ctx, trials=10, seed=1).passed


def _rotated_context(g, act, r):
    """The context of g with each vertex v renamed v + r mod |V|, and the
    old name of each new vertex."""
    nv = g.vertex_count
    back = [(w - r) % nv for w in range(nv)]
    g2 = Multigraph.from_edges(nv, [((u + r) % nv, (v + r) % nv) for u, v in g.edges])
    s1, s2 = ([(s[back[w]] + r) % nv for w in range(nv)] for s in (act.sigma1, act.sigma2))
    return DecompositionContext(g2, actions.DihedralAction.build(g2, s1, s2)), back


def test_membership_invariant_under_seed_rotation():
    """Over all rotations of the vertex indices every possible seed and
    strand start is taken; a divisor renamed the same way keeps both
    membership verdicts."""
    rng = random.Random(77)
    for maker in (circulant(7, [1, 2]), concentric_polygon(4), klein_example()):
        g, act = maker
        contexts = [_rotated_context(g, act, r) for r in range(g.vertex_count)]
        for _ in range(40):
            d = random_degree_zero(g, rng)
            moved = [(c, [d[v] for v in back]) for c, back in contexts]
            verdicts_pair = {pair_sum_conditions(c, dr) for c, dr in moved}
            verdicts_triple = {triple_sum_conditions(c, dr) for c, dr in moved}
            assert len(verdicts_pair) == 1
            assert len(verdicts_triple) == 1


def test_divisor_class_quotients():
    assert C7.divisor_quotient.group.factors == (7,)
    assert laplacian_mod_symmetric_firings(C7).is_trivial()
    assert KLEIN.divisor_quotient.group.factors == (2, 2)
    assert laplacian_mod_symmetric_firings(KLEIN).is_trivial()
    assert G4.divisor_quotient.group.factors == (4, 4)
    assert laplacian_mod_symmetric_firings(G4).factors == (4,)


def test_pullback_subgroup_orders():
    assert G4.pullback_image.order == 6000
    assert all(sum(d) == 0 for d in G4.all_pullback_generators())
    assert C7.pullback_image.order == 169
    # all quotients trees: trivial subgroup
    ctx = ctx_for(chain("edge", 5))
    assert ctx.pullback_image.order == ctx.cg_h[2].group.order  # rotation quotient only


def test_kernel_and_quotient_values():
    k7 = check_kernel_structure(C7)
    assert k7.passed and k7.computed["kernel"] == []
    q7 = check_quotient_structure(C7)
    assert q7.passed and q7.computed["quotient"] == [7]
    k4 = check_kernel_structure(G4)
    assert k4.passed and k4.computed["kernel"] == []
    q4 = check_quotient_structure(G4)
    assert q4.passed and q4.computed["quotient"] == [4]
    # the mixed Klein case: exact kernel is Z/2 and quotient (Z/2)^2
    kk = check_kernel_structure(KLEIN)
    assert kk.passed and kk.computed["kernel"] == [2]
    qk = check_quotient_structure(KLEIN)
    assert qk.passed and qk.computed["quotient"] == [2, 2]


def test_order_identities():
    o7 = check_order_identity(C7)
    assert o7.passed
    assert o7.computed["group_order"] == 1183 == 7 * 13 * 13
    o4 = check_order_identity(G4)
    assert o4.passed
    assert o4.computed["group_order"] == 24000
    assert o4.predicted["product_formula"] == 4 * 40 * 30 * 5


def test_tree_case():
    assert check_tree_case(C7).passed
    assert check_tree_case(ctx_for(circulant(9, [1, 3]))).passed
    with pytest.raises(ValueError):
        check_tree_case(G4)  # n even
    with pytest.raises(ValueError):
        check_tree_case(ctx_for(chain("cycle4", 3)))  # quotient not a tree


SWEEP_INSTANCES = [
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
    ("chain_edge4", lambda: chain("edge", 4)),
    ("chain_edge5", lambda: chain("edge", 5)),
    ("chain_path3", lambda: chain("path", 3)),
    ("chain_path4", lambda: chain("path", 4)),
    ("chain_cycle4_3", lambda: chain("cycle4", 3)),
]


@pytest.mark.parametrize("name,maker", SWEEP_INSTANCES, ids=[n for n, _ in SWEEP_INSTANCES])
def test_theorem_sweep(name, maker):
    g, act = maker()
    ctx = DecompositionContext(g, act)
    report = run_all_checks(ctx, trials=15, seed=11, oracle=False, graph_name=name)
    assert report.passed, report.to_text()
    # the composed order identity holds on every instance
    order = next(c for c in report.checks if c.name == "order_identity")
    assert (
        order.computed["image_order"] * order.computed["cokernel_order"]
        == order.computed["group_order"]
    )


def test_report_text_refolds_no_chain(monkeypatch):
    """The report's chains are canonical already: to_text prints them with
    the formatter FinAbGroup's str uses and calls no canonical_chain."""
    g, act = concentric_polygon(4)
    report = run_all_checks(DecompositionContext(g, act), trials=3, seed=1)
    quotients = ", ".join(str(FinAbGroup(tuple(f))) for f in report.quotient_groups)
    monkeypatch.setattr(abelian, "canonical_chain", lambda moduli: pytest.fail("canonical_chain called"))
    lines = report.to_text().splitlines()
    assert lines[2:4] == ["critical group: Z/10 + Z/10 + Z/240", f"quotient groups: {quotients}"]


LOOP_INSTANCES = {
    "circulant(7,[1,2])": lambda: circulant(7, [1, 2]),
    "circulant(8,[1,3])": lambda: circulant(8, [1, 3]),
    "circulant(21,[1,2,3])": lambda: circulant(21, [1, 2, 3]),
    **{f"concentric_polygon({n})": (lambda n=n: concentric_polygon(n)) for n in (4, 5, 8)},
    "klein_example": klein_example,
    "chained_copies(edge,6)": lambda: chain("edge", 6),
    "chained_copies(cycle4,9)": lambda: chain("cycle4", 9),
}


@pytest.mark.parametrize("name", sorted(LOOP_INSTANCES))
def test_loops_leave_the_report_unchanged(name):
    """Chip-firing cannot see loops, so one loop at every vertex changes
    no group, quotient or check."""
    g, act = LOOP_INSTANCES[name]()
    looped = Multigraph.from_edges(
        g.vertex_count, list(g.edges) + [(v, v) for v in range(g.vertex_count)], g.labels
    )
    plain = run_all_checks(DecompositionContext(g, act), trials=30, seed=5)
    loops = run_all_checks(
        DecompositionContext(looped, actions.DihedralAction.build(looped, act.sigma1, act.sigma2)),
        trials=30,
        seed=5,
    )
    assert plain.passed
    assert loops.to_json() == plain.to_json()


def hub_chain(n):
    """n copies of the 4-cycle a-p-b-q plus a hub c joined to p and q,
    glued at (a, b) under phi = (a b)(p q).  Every orbit has 3 or 6
    points at n = 3, and the action is harmonic."""
    base = Multigraph.from_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (3, 4)], labels=["a", "p", "b", "q", "c"]
    )
    return chained_copies(base, [2, 3, 0, 1, 4], 0, 2, n)


_NO_FORM = "mixed reflection classes with n >= 4: no closed form"
_MIXED = "prediction adjusted for mixed reflection classes"
_NONTRIVIAL_GHAT = (
    "full quotient has nontrivial critical group: product formula carries a "
    "|K(full quotient)|^2 factor"
)


def _even(literal):
    return f"even order: n*prod = {literal} (== |K|); flagged, not asserted"


# One instance per branch of DecompositionContext.closed_forms: per
# check, the predicted dict and the notes it reports.
PREDICTION_BRANCHES = {
    # odd n, K(Ĝ) trivial
    "circulant7": (
        lambda: circulant(7, [1, 2]),
        {
            "kernel_structure": ({"kernel": []}, []),
            "quotient_structure": ({"quotient": [7]}, []),
            "divisor_class_quotient": (
                {"divisors_mod_pullbacks": [7], "firing_lattice_quotient": []},
                [],
            ),
            "order_identity": ({"product_formula": 1183}, []),
        },
    ),
    # odd n, K(Ĝ) = Z/2 (a known failing instance of the kernel and
    # quotient predictions)
    "hub_chain3": (
        lambda: hub_chain(3),
        {
            "kernel_structure": ({"kernel": [2, 2]}, []),
            "quotient_structure": ({"quotient": [3]}, []),
            "divisor_class_quotient": (
                {"divisors_mod_pullbacks": [3, 3], "firing_lattice_quotient": [3]},
                [],
            ),
            "order_identity": ({"product_formula": 20736}, [_NONTRIVIAL_GHAT]),
        },
    ),
    # no pinned orbit (s = 0)
    "edge_reflected_cycle4": (
        lambda: edge_reflected_cycle(4),
        {
            "kernel_structure": ({"kernel": []}, []),
            "quotient_structure": ({"quotient": [4]}, []),
            "divisor_class_quotient": (
                {"divisors_mod_pullbacks": [4, 4], "firing_lattice_quotient": [4]},
                [],
            ),
            "order_identity": ({"product_formula": 8}, [_even(8)]),
        },
    ),
    # even n, every pinned orbit on the default class
    "concentric6": (
        lambda: concentric_polygon(6),
        {
            "kernel_structure": ({"kernel": []}, []),
            "quotient_structure": ({"quotient": [6]}, []),
            "divisor_class_quotient": (
                {"divisors_mod_pullbacks": [6, 6], "firing_lattice_quotient": [6]},
                [],
            ),
            "order_identity": ({"product_formula": 3528360}, [_even(3528360)]),
        },
    ),
    # n = 2 with mixed classes: one default and two flipped pinned orbits
    "klein": (
        klein_example,
        {
            "kernel_structure": ({"kernel": [2]}, [_MIXED]),
            "quotient_structure": ({"quotient": [2, 2]}, [_MIXED]),
            "divisor_class_quotient": (
                {"divisors_mod_pullbacks": [2, 2], "firing_lattice_quotient": []},
                [_MIXED],
            ),
            "order_identity": ({"product_formula": 32}, [_even(32)]),
        },
    ),
    # mixed classes at n >= 4: no closed form
    "chain_path4": (
        lambda: chain("path", 4),
        {
            "kernel_structure": (None, [_NO_FORM]),
            "quotient_structure": (None, [_NO_FORM]),
            "divisor_class_quotient": (None, [_NO_FORM]),
            "order_identity": ({"product_formula": 8}, [_even(8)]),
        },
    ),
}


@pytest.mark.parametrize("name", list(PREDICTION_BRANCHES))
def test_predictions_by_branch(name):
    """Each closed-form branch reports its predicted shapes and notes as
    pinned here; only the snapshot tool's reports show them otherwise."""
    maker, expected = PREDICTION_BRANCHES[name]
    ctx = ctx_for(maker())
    for check in (
        check_kernel_structure,
        check_quotient_structure,
        check_divisor_class_quotient,
        check_order_identity,
    ):
        result = check(ctx)
        assert (result.predicted, result.notes) == expected[result.name], result.name


def test_hub_chain_fails_the_kernel_and_quotient_predictions():
    """A known failing instance of the closed-form predictions: the
    kernel and the quotient each gain one Z/3, so the order identity
    still holds.  This pins today's checks and predictions."""
    ctx = ctx_for(hub_chain(3))
    assert ctx.cg.group.factors == (2, 6, 6, 6, 12)
    report = run_all_checks(ctx, trials=25, seed=0)
    assert not report.passed
    checks = {c.name: c for c in report.checks}
    assert {name for name, c in checks.items() if not c.passed} == {
        "kernel_structure",
        "quotient_structure",
    }
    assert checks["kernel_structure"].computed["kernel"] == [2, 6]
    assert checks["kernel_structure"].predicted == {"kernel": [2, 2]}
    quotient = checks["quotient_structure"]
    assert quotient.computed["quotient"] == quotient.computed["via_divisor_classes"] == [3, 3]
    assert quotient.predicted == {"quotient": [3]}


def test_hub_chain_groups_against_sympy():
    """sympy's invariant factors give the same K(G) and the same
    quotient Z^11 / (L + sums of pullbacks) = Z/3 + Z/3, read in
    degree-zero coordinates (the last vertex's value dropped)."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def nonunit_factors(rows):
        factors = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        return [int(f) for f in factors if abs(f) != 1]

    ctx = ctx_for(hub_chain(3))
    lap = laplacian(ctx.graph).to_rows()
    assert nonunit_factors([row[:-1] for row in lap[:-1]]) == [2, 6, 6, 6, 12]
    relations = [row[:-1] for row in lap]
    for i in (1, 2, 3):
        q = ctx.quotient(i)
        nq = q.quotient.vertex_count
        for w in range(1, nq):
            dhat = [-1 if u == 0 else int(u == w) for u in range(nq)]
            relations.append(list(pullback(q, dhat))[:-1])
    assert nonunit_factors([list(col) for col in zip(*relations)]) == [3, 3]


def test_intro_counterexample_certificate():
    g, act = intro_counterexample()
    cg = critical_group(g)
    assert cg.group.order == 192
    prod = 1
    for gens in ([act.sigma1], [act.sigma2], act.rotation_subgroup()):
        q = quotient_graph(g, gens)
        prod *= critical_group(q.quotient).group.order
    assert prod == 576
    assert cg.group.order % prod != 0  # the direct sum cannot embed


def test_pair_sequence_on_nontrivial_full_quotient():
    ctx = ctx_for(chain("cycle4", 3))
    res = check_pair_exact_sequence(ctx)
    assert res.passed
    assert res.computed["full_quotient_group"] == [2]


def test_klein_odd_row_sum_rejected():
    # one chip on a single vertex of one orbit, minus one on another
    # orbit: both row sums odd, so the parity conditions refuse
    vals = [0] * 6
    vals[KLEIN.labeling.pinned[0].row[0]] = 1
    vals[KLEIN.labeling.pinned[1].row[0]] = -1
    assert not triple_sum_conditions(KLEIN, vals)
    assert not pair_sum_conditions(KLEIN, vals)


@pytest.mark.parametrize(
    "d",
    [[1.0, -1.0, 0, 0, 0, 0, 0], [0.5, -0.5, 0, 0, 0, 0, 0], [True, -1, 0, 0, 0, 0, 0]],
    ids=["integral_float", "half", "bool"],
)
def test_membership_rejects_non_int_divisors(d):
    """A chip count that is not an int is refused by every membership
    query and split, never read as a number: (0.5, -0.5, 0, ...) would
    otherwise get a verdict."""
    queries = [pair_sum_conditions, triple_sum_conditions, split_pair_sum, split_triple_sum]
    queries += [lambda ctx, d, i=i: pullback_conditions(ctx, d, i) for i in (1, 2, 3)]
    queries += [lambda ctx, d, i=i: is_pullback(ctx.quotient(i), d) for i in (1, 2, 3)]
    for query in queries:
        with pytest.raises(TypeError, match="is not an int"):
            query(C7, d)


def test_image_order_of_natural_map():
    from test_abelian import image_order
    from critgroups.decomposition import _pullback_hom

    for ctx, order in ((G4, 6000), (C7, 169)):
        hom, _ = _pullback_hom(ctx, zip(ctx.cg_h, (ctx.q1, ctx.q2, ctx.q3)))
        assert image_order(hom) == order


def firing_quotient_by_laplacian_solves(ctx):
    """Reference route for ``laplacian_mod_symmetric_firings``: express
    the Laplacian image of every symmetric firing (each pinned vertex,
    all n^2 strand pairs, each whole strand), root dropped, over the
    Hermite basis of the firing lattice (the column span of the reduced
    Laplacian), and take the cokernel of those coordinates.  Any basis
    of the lattice gives the same group.  It uses no kernel argument
    about the Laplacian."""
    lap = laplacian(ctx.graph)
    root = 0  # the critical group's root vertex
    nv = ctx.graph.vertex_count
    firing = Lattice(ctx.cg.reduced)

    def fired(cols):
        image = [sum(col[k] for col in cols) for k in range(nv)]
        return image[:root] + image[root + 1 :]

    gens = []
    for orb in ctx.labeling.pinned:
        gens += [fired([lap.col(v)]) for v in orb.row]
    for orb in ctx.labeling.free:
        xcols = [lap.col(v) for v in orb.xrow]
        ycols = [lap.col(v) for v in orb.yrow]
        gens += [fired([cx, cy]) for cx in xcols for cy in ycols]
        gens += [fired(xcols), fired(ycols)]
    coords = [firing.hermite_coords(gvec) for gvec in gens]
    assert None not in coords, "symmetric firing is not in the firing lattice"
    return Cokernel(IntMatrix.from_cols(coords, ctx.cg.reduced.rows)).group


FIRING_INSTANCES = {
    **{f"concentric_polygon({n})": (lambda n=n: concentric_polygon(n)) for n in (3, 4, 5, 8)},
    **{f"chained_copies(cycle4,{n})": (lambda n=n: chain("cycle4", n)) for n in (3, 5, 9)},
    "chained_copies(path,5)": lambda: chain("path", 5),
    "circulant(21,[1,2,3])": lambda: circulant(21, [1, 2, 3]),
    "circulant(10,[1,3])": lambda: circulant(10, [1, 3]),
    "klein_example": klein_example,
    **{
        f"edge_reflected_cycle({2 * n})": (lambda n=n: edge_reflected_cycle(n))
        for n in range(2, 7)
    },
}


@pytest.mark.parametrize("name", sorted(FIRING_INSTANCES))
def test_firing_quotient_matches_laplacian_solves(name):
    ctx = ctx_for(FIRING_INSTANCES[name]())
    fast = laplacian_mod_symmetric_firings(ctx)
    assert fast == firing_quotient_by_laplacian_solves(ctx)
    assert fast == FinAbGroup((ctx.n,) * ctx.labeling.t)


def quotient_by_subgroup_by_full_relations(cg, gens):
    """Reference route for ``quotient_by_subgroup``: the Smith form of
    the reduced Laplacian augmented with the generators (root dropped),
    over all of Z^(V-1).  It never projects into the invariant-factor
    coordinates."""
    cols = [cg._dropped(d) for d in gens]
    return Cokernel(cg.reduced.hstack(IntMatrix.from_cols(cols, cg.reduced.rows))).group


@pytest.mark.parametrize("name", sorted(FIRING_INSTANCES))
def test_quotient_by_subgroup_matches_full_relations(name):
    ctx = ctx_for(FIRING_INSTANCES[name]())
    all_gens = ctx.all_pullback_generators()
    pair_gens = ctx.pair_pullback_generators()
    assert ctx.pullback_quotient.group == quotient_by_subgroup_by_full_relations(ctx.cg, all_gens)
    pair_quotient = quotient_by_subgroup(ctx.cg, pair_gens).group
    assert pair_quotient == quotient_by_subgroup_by_full_relations(ctx.cg, pair_gens)


def subgroup_by_hermite_form(cg, gens):
    """Reference route for a generated subgroup: the lattice spanned by
    the projected generators and the relations diag(d), modulo diag(d),
    through one Hermite form.  It factors no quotient by a Smith form."""
    relations = IntMatrix.diagonal(list(cg.moduli))
    cols = [cg.project(d) for d in gens] + [relations.col(j) for j in range(relations.cols)]
    return lattice_quotient(IntMatrix.from_cols(cols, len(cg.moduli)), relations)


IMAGE_INSTANCES = {
    **{name: (lambda maker=maker: ctx_for(maker())) for name, maker in FIRING_INSTANCES.items()},
    **{name: (lambda ctx=ctx: ctx) for name, ctx in ORACLE_INSTANCES},
    # k = 52 invariant factors, the subgroups of 51 pair factors.
    "chained_copies(cycle4,51)": lambda: ctx_for(chain("cycle4", 51)),
}


@pytest.mark.parametrize("name", sorted(IMAGE_INSTANCES))
def test_pullback_images_match_hermite_route(name):
    ctx = IMAGE_INSTANCES[name]()
    pair_gens = ctx.pair_pullback_generators()
    all_gens = ctx.all_pullback_generators()
    assert ctx.pair_image == subgroup_by_hermite_form(ctx.cg, pair_gens)
    assert ctx.pullback_image == subgroup_by_hermite_form(ctx.cg, all_gens)
    # The natural map's columns and the vertex-difference generators give one quotient.
    assert ctx.pullback_quotient.group == quotient_by_subgroup(ctx.cg, all_gens).group


def _patch_everywhere(mp, module, name, wrap):
    """Replace module.name by wrap(module.name) at every binding site in
    the package, like the benchmark tracer does."""
    raw = getattr(module, name)
    wrapped = wrap(raw)
    mods = [critgroups] + [
        importlib.import_module(f"critgroups.{info.name}")
        for info in pkgutil.iter_modules(critgroups.__path__)
        if not info.name.startswith("_")
    ]
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            if val is raw:
                mp.setattr(mod, attr, wrapped)


def _record_calls(mp, module, name, arg=0):
    """Wrap module.name at every binding site in the package and return
    the list of arguments seen at position ``arg``."""
    seen = []

    def wrap(raw):
        def recording(*args, **kwargs):
            seen.append(args[arg])
            return raw(*args, **kwargs)

        return recording

    _patch_everywhere(mp, module, name, wrap)
    return seen


def _record_inner_calls(mp, module, name, inner):
    """Wrap module.name at every binding site and return, per call, the
    list of ``inner`` arguments recorded while it ran."""
    per_call = []

    def wrap(raw):
        def recording(*args, **kwargs):
            start = len(inner)
            out = raw(*args, **kwargs)
            per_call.append(inner[start:])
            return out

        return recording

    _patch_everywhere(mp, module, name, wrap)
    return per_call


def _record_results(mp, module, name):
    """Wrap module.name at every binding site in the package and return
    the list of its results."""
    seen = []

    def wrap(raw):
        def recording(*args, **kwargs):
            seen.append(raw(*args, **kwargs))
            return seen[-1]

        return recording

    _patch_everywhere(mp, module, name, wrap)
    return seen


def _projected_smith_forms(ctx, image_quotients):
    """The Smith forms of the cokernels a verify projects into or lifts
    from: the graph's group, the four quotient groups, the
    divisor-class quotient, and the quotients by the natural map's
    images (whose projections define the images as kernels)."""
    groups = (ctx.cg, *ctx.cg_h, ctx.cg_hat)
    cokernels = [ctx.divisor_quotient, *image_quotients]
    return [cg._snf for cg in groups] + [c._snf for c in cokernels]


VERIFY_GATE_INSTANCES = [
    (lambda: concentric_polygon(8), False, 0, 7),
    (lambda: chain("cycle4", 9), False, 0, 8),
    # One-vertex rotation quotient: the pair columns are all of them.
    (lambda: circulant(21, [1, 2, 3]), True, 2, 5),
]
VERIFY_GATE_IDS = [
    "concentric_polygon(8)",
    "chained_copies(cycle4,9)",
    "circulant(21,[1,2,3])-oracle",
]


@pytest.mark.parametrize(
    "maker, oracle, hnfs, walks", VERIFY_GATE_INSTANCES, ids=VERIFY_GATE_IDS
)
def test_verify_factors_each_matrix_once(monkeypatch, maker, oracle, hnfs, walks):
    """A deterministic gate on repeated exact work: during a verify each
    HNF input is distinct, the number of HNFs is fixed (none without the
    oracle sweep) and does not grow with the sweep length, the quotient
    by each image of the natural map (its k1 + k2 pair columns and all
    k1 + k2 + k3 of them) is computed once per distinct column count,
    each as one Smith form of [diag(d) | columns] over the group's own
    k invariant-factor coordinates, which also gives the image as a
    kernel, no quotient graph's group is closed (each quotient reads
    its generators' cycles), and only the cokernels that are projected
    into or lifted from walk their Smith form's op log, a fixed number
    of walks (a trivial group walks none)."""
    g, act = maker()
    hnf_counts = {}
    for trials in (5, 50):
        with monkeypatch.context() as mp:
            closures = _record_calls(mp, actions, "generate_group", arg=1)
            walked = _record_calls(mp, intmatrix, "_walk_log")
            ctx = DecompositionContext(g, act)
            hnf_inputs = _record_calls(mp, intmatrix, "hermite_normal_form")
            snf_inputs = _record_calls(mp, intmatrix, "smith_normal_form")
            column_counts = _record_calls(mp, decomposition, "_image_quotient", arg=1)
            quotient_snfs = _record_inner_calls(mp, decomposition, "_image_quotient", snf_inputs)
            quotient_cokernels = _record_results(mp, decomposition, "_image_quotient")
            assert run_all_checks(ctx, trials=trials, seed=1, oracle=oracle).passed
        assert len(set(hnf_inputs)) == len(hnf_inputs)
        k = len(ctx.cg.moduli)
        k1, k2, k3 = (len(cgq.moduli) for cgq in ctx.cg_h)
        images = {k1 + k2, k1 + k2 + k3}  # one count when K(G/H3) is trivial
        assert sorted(column_counts) == sorted(images)
        shapes = [[(m.rows, m.cols) for m in snfs] for snfs in quotient_snfs]
        assert shapes == [[(k, k + cols)] for cols in column_counts]
        assert closures == []
        projected = {id(snf._row_ops) for snf in _projected_smith_forms(ctx, quotient_cokernels)}
        assert {id(ops) for ops in walked} <= projected
        assert len(walked) == walks
        hnf_counts[trials] = len(hnf_inputs)
    assert hnf_counts[5] == hnf_counts[50] == hnfs


@pytest.mark.parametrize(
    "maker",
    [lambda: circulant(7, [1, 2]), lambda: chain("cycle4", 11), lambda: circulant(21, [1, 2, 3])],
    ids=["circulant(7,[1,2])", "chained_copies(cycle4,11)", "circulant(21,[1,2,3])"],
)
def test_sweep_decides_each_membership_once(monkeypatch, maker):
    """A deterministic gate on repeated derivations: in a sweep each
    trial's memberships are decided once, by their splits.  The rotation
    constants are derived once per trial, the pair offset once per trial
    and once more for each triple member's remainder, and each member's
    split is checked once (one check per pair member and one per triple
    member)."""
    ctx = ctx_for(maker())
    constants = _record_calls(monkeypatch, decomposition, "_rotation_constants", arg=1)
    offsets = _record_calls(monkeypatch, decomposition, "_pair_offset", arg=1)
    checks = _record_calls(monkeypatch, decomposition, "_check_split", arg=2)
    sweep = decomposition.membership_sweep(ctx, 150, 7)
    assert sweep.passed
    pair, triple = sweep.computed["pair_members"], sweep.computed["triple_members"]
    assert triple > 0
    assert len(constants) == 150
    assert len(offsets) == 150 + triple
    assert len(checks) == pair + triple


@pytest.mark.parametrize(
    "maker, oracle", [(m, o) for m, o, *_ in VERIFY_GATE_INSTANCES], ids=VERIFY_GATE_IDS
)
def test_verify_builds_each_pullback_generator_once(monkeypatch, maker, oracle):
    """Each quotient's pullback generators are built once per context:
    besides the generator divisors that the natural maps into K(G) pull
    back, a verify pulls back one single-vertex difference per non-root
    vertex of each of the three quotients, and no more."""
    g, act = maker()
    ctx = DecompositionContext(g, act)
    pulled = _record_calls(monkeypatch, decomposition, "pullback", arg=1)
    homs = _record_results(monkeypatch, decomposition, "_pullback_hom")
    assert run_all_checks(ctx, trials=25, seed=1, oracle=oracle).passed
    by_homs = sum(len(divs) for _, divs in homs)
    assert homs and by_homs > 0
    sizes = [ctx.quotient(i).quotient.vertex_count - 1 for i in (1, 2, 3)]
    assert len(pulled) - by_homs == sum(sizes)


@pytest.mark.parametrize(
    "maker, oracle", [(m, o) for m, o, *_ in VERIFY_GATE_INSTANCES], ids=VERIFY_GATE_IDS
)
def test_verify_scans_the_full_group_for_harmonicity_once(monkeypatch, maker, oracle):
    """Harmonicity is decided once, for the whole group, by the cycle
    rule where the context is built: no element table is written or
    scanned, by the quotients, the labeling or the checks."""
    g, act = maker()
    scanned = _record_calls(monkeypatch, actions, "_harmonic_offender", arg=1)
    decided = _record_calls(monkeypatch, actions, "_dihedral_offender", arg=1)
    tables = []
    elements = actions.DihedralAction.elements.fget

    def recording(action):
        tables.append(action)
        return elements(action)

    monkeypatch.setattr(actions.DihedralAction, "elements", property(recording))
    ctx = DecompositionContext(g, act)
    assert run_all_checks(ctx, trials=25, seed=1, oracle=oracle).passed
    assert scanned == [] and tables == []
    assert decided == [act]


@pytest.mark.parametrize("maker", [m for m, *_ in VERIFY_GATE_INSTANCES], ids=VERIFY_GATE_IDS)
def test_smith_forms_read_for_their_group_build_no_transform(monkeypatch, tmp_path, maker):
    """``compute`` reads only invariant factors, and the throwaway
    cokernels of ``kernel_of_hom``, ``laplacian_mod_symmetric_firings``
    and the divisor-class quotient's ``quotient_by`` are read only for
    their group: none of them walks a Smith form's row-op log.  The
    quotients by the natural map's images are projected into, to give
    each image as a kernel, so only they may walk theirs."""
    g, act = maker()
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_json(g, act)))
    walked = _record_calls(monkeypatch, intmatrix, "_walk_log")
    assert main(["compute", str(path)]) == 0
    ctx = DecompositionContext(g, act)
    assert walked == []
    # Walk the logs the checks read from the shared groups first, so
    # that only the throwaway cokernels remain to be counted.
    ctx.cg.project([0] * g.vertex_count)
    ctx.divisor_quotient.project([0] * ctx.divisor_quotient.relations.rows)
    for cgq in (*ctx.cg_h, ctx.cg_hat):
        cgq.generator_divisors()
    shared = len(walked)
    quotients = _record_results(monkeypatch, decomposition, "_image_quotient")
    laplacian_mod_symmetric_firings(ctx)
    ctx.pair_image  # kernel_of_hom of the projection onto the pair quotient
    ctx.pullback_image  # and onto pullback_quotient
    ctx.pullback_kernel  # kernel_of_hom
    firing = ctx.cg.reduced
    ctx.divisor_quotient.quotient_by([firing.col(j) for j in range(firing.cols)])
    image_quotients = {id(quotient._snf._row_ops) for quotient in quotients}
    assert quotients and {id(ops) for ops in walked[shared:]} <= image_quotients


@pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
@pytest.mark.parametrize("maker", [m for m, *_ in VERIFY_GATE_INSTANCES], ids=VERIFY_GATE_IDS)
def test_verify_builds_no_hermite_transform(monkeypatch, maker, oracle):
    """A plain verify computes no Hermite form, and the oracle sweep's
    lattices are read only through H: none walks its log."""
    g, act = maker()
    walked = _record_calls(monkeypatch, intmatrix, "_walk_log")
    hnfs = _record_results(monkeypatch, intmatrix, "hermite_normal_form")
    assert run_all_checks(DecompositionContext(g, act), trials=10, seed=1, oracle=oracle).passed
    assert bool(hnfs) == oracle
    assert not {id(ops) for ops in walked} & {id(hnf._col_ops) for hnf in hnfs}
