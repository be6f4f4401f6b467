"""Permutation groups on multigraphs: generation, harmonicity,
orbit/stabilizer bookkeeping, and the dihedral orbit labeling."""

import itertools
import random

import pytest

from critgroups.actions import (
    DihedralAction,
    LabelingImpossibleError,
    NonHarmonicError,
    NotAutomorphismError,
    OrbitSizeError,
    _dihedral_offender,
    _harmonic_offender,
    _powers,
    _verify_labeling,
    check_automorphism,
    classify_dihedral_orbits,
    compose,
    generate_group,
    identity_perm,
    orbits,
    require_harmonic,
)
from critgroups.decomposition import DecompositionContext
from critgroups.families import (
    CHAIN_BASES,
    chained_copies,
    circulant,
    concentric_polygon,
    intro_counterexample,
    klein_example,
)
from critgroups.multigraph import Multigraph
from critgroups.quotients import quotient_graph


def cycle(n):
    return Multigraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_generate_group_sizes():
    c5 = cycle(5)
    ident = list(range(5))
    assert generate_group(c5, [ident]) == [identity_perm(5)]
    refl = [(5 - i) % 5 for i in range(5)]
    assert len(generate_group(c5, [refl])) == 2
    g7, act = circulant(7, [1, 2])
    assert len(generate_group(g7, [act.sigma1, act.sigma2])) == 14


def test_non_automorphism_rejected():
    path = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotAutomorphismError):
        check_automorphism(path, [1, 0, 2])
    with pytest.raises(NotAutomorphismError):
        check_automorphism(path, [0, 0, 1])


def test_automorphism_must_keep_edge_multiplicities():
    """Swapping the ends of (0,1)x2 + (1,2) keeps the set of adjacent
    pairs but not their multiplicities; a loop must land on a loop."""
    g = Multigraph.from_edges(3, [(0, 1), (0, 1), (1, 2)])
    with pytest.raises(NotAutomorphismError, match="edge multiset"):
        check_automorphism(g, [2, 1, 0])
    assert check_automorphism(g, [0, 1, 2]) == (0, 1, 2)
    looped_end = Multigraph.from_edges(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(NotAutomorphismError, match="edge multiset"):
        check_automorphism(looped_end, [2, 1, 0])
    looped_ends = Multigraph.from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 2)])
    assert check_automorphism(looped_ends, [2, 1, 0]) == (2, 1, 0)


# Harmonicity reference helpers: each rescans the whole group, where
# actions._harmonic_offender reads per-vertex fixers off the element table.
def stabilizer(group, v):
    """Elements fixing v."""
    return [p for p in group if p[v] == v]


def pair_stabilizer(group, u, v):
    """Elements fixing both u and v."""
    return [p for p in group if p[u] == u and p[v] == v]


def _offender_by_pair_stabilizers(g, group):
    """Reference: the first edge pair, in sorted order, whose pointwise
    stabilizer order exceeds 1 and does not divide its multiplicity."""
    for (u, v), mult in g.pair_multiplicities().items():
        order = len(pair_stabilizer(group, u, v))
        if order > 1 and mult % order != 0:
            return (u, v)
    return None


def _harmonicity_families():
    """(graph, action) for every family constructor at small n."""
    families = [
        circulant(5, [1, 2]),
        circulant(6, [1, 3]),  # step 3 doubles the edges on the reflection axis
        circulant(8, [1, 4]),
        concentric_polygon(3),
        concentric_polygon(4),
        klein_example(),
        intro_counterexample(),
    ]
    return families + [chained_copies(*CHAIN_BASES[b], n) for b in CHAIN_BASES for n in (3, 4)]


def _star():
    """The 3-leaf star c-x, c-y, c-z under (x y) and (y z): S_3 fixes c,
    and (y z) fixes the simple edge c-x pointwise."""
    star = Multigraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], labels=["c", "x", "y", "z"])
    return star, DihedralAction.build(star, [0, 2, 1, 3], [0, 1, 3, 2])


def _looped_triangle():
    triangle = [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2)]
    looped = Multigraph.from_edges(3, triangle, labels=["v1", "v2", "v3"])
    return looped, DihedralAction.build(looped, [2, 1, 0], [1, 0, 2])


def _harmonicity_cases():
    """(name, graph, group) for every family constructor at small n and
    for each of its subgroups the quotients use, plus hand-made actions
    on both sides of the multiplicity rule."""
    for k, (g, act) in enumerate(_harmonicity_families()):
        yield f"family{k}", g, list(act.elements)
        yield f"family{k}-rotations", g, act.rotation_subgroup()
        yield f"family{k}-sigma1", g, generate_group(g, [act.sigma1])
        yield f"family{k}-sigma2", g, generate_group(g, [act.sigma2])
    star, act = _star()
    yield "star", star, list(act.elements)
    # (x y) fixes the pair u-v pointwise: harmonic exactly when the
    # multiplicity of u-v is even; loops change nothing.
    for mult in (1, 2, 3, 4):
        for loops in ([], [(0, 0), (1, 1), (2, 2), (3, 3)]):
            edges = [(0, 1)] * mult + [(0, 2), (0, 3)] + loops
            g = Multigraph.from_edges(4, edges, labels=["u", "v", "x", "y"])
            yield f"axis-pair-x{mult}-loops{len(loops)}", g, generate_group(g, [[0, 1, 3, 2]])
    looped, act = _looped_triangle()
    yield "looped-triangle", looped, list(act.elements)


def _relabel(g, group, pi):
    """The graph and group with each vertex v renamed pi[v], labels kept."""
    inv = [0] * len(pi)
    for i, v in enumerate(pi):
        inv[v] = i
    labels = [g.label(inv[w]) for w in range(len(pi))]
    g2 = Multigraph.from_edges(g.vertex_count, [(pi[u], pi[v]) for u, v in g.edges], labels)
    return g2, [tuple(pi[p[inv[w]]] for w in range(len(pi))) for p in group]


def test_require_harmonic_matches_pair_stabilizer_reference():
    """Same verdict and same first offending edge as a per-pair scan of
    the group, on each case and on 5 random relabelings of it."""
    rng = random.Random(14)
    verdicts = set()
    for name, g, group in _harmonicity_cases():
        for trial in range(6):
            pi = list(range(g.vertex_count))
            if trial:
                rng.shuffle(pi)
            g2, group2 = _relabel(g, group, pi)
            expected = _offender_by_pair_stabilizers(g2, group2)
            verdicts.add(expected is None)
            assert _harmonic_offender(g2, group2) == expected, name
            if expected is None:
                require_harmonic(g2, group2)
                continue
            with pytest.raises(NonHarmonicError) as err:
                require_harmonic(g2, group2)
            assert err.value.edge == expected, name
            u, v = expected
            assert str(err.value) == (
                f"action is not harmonic: edge {g2.label(u)}-{g2.label(v)} "
                "is fixed pointwise by a stabilizer that cannot act freely on it"
            )
    assert verdicts == {True, False}


def _with_edge_orbits(g, act, rng):
    """g with one to three random edge orbits of the action added (loops
    included), each one to three times, and the action rebuilt on it."""
    edges = list(g.edges)
    for _ in range(rng.randint(1, 3)):
        u, v = rng.randrange(g.vertex_count), rng.randrange(g.vertex_count)
        orbit = {tuple(sorted((p[u], p[v]))) for p in act.elements}
        edges += sorted(orbit) * rng.randint(1, 3)
    g2 = Multigraph.from_edges(g.vertex_count, edges, g.labels)
    return g2, DihedralAction.build(g2, act.sigma1, act.sigma2)


def test_dihedral_offender_matches_the_element_scans():
    """The cycle rule names the same first offender as the element-table
    scan and the per-pair reference, on every dihedral case and on 40
    seeded copies of each with random edge orbits added."""
    rng = random.Random(28)
    verdicts = []
    for g, act in _harmonicity_families() + [_star(), _looped_triangle()]:
        for trial in range(41):
            g2, act2 = _with_edge_orbits(g, act, rng) if trial else (g, act)
            expected = _offender_by_pair_stabilizers(g2, act2.elements)
            assert _harmonic_offender(g2, act2.elements) == expected
            assert _dihedral_offender(g2, act2) == expected
            verdicts.append(expected is None)
    assert verdicts.count(False) >= 100 and verdicts.count(True) >= 100


def test_context_quotients_match_the_closed_subgroups():
    """A DecompositionContext refuses an action exactly when the element
    scan does, with the same edge and message; otherwise each of its four
    quotients, read off the generators' cycles, is quotient_graph over the
    closed subgroup, and every generator list has its closed group's
    orbits.  On every dihedral case and 40 seeded copies of each with
    random edge orbits added."""
    rng = random.Random(31)
    verdicts = []
    for g, act in _harmonicity_families() + [_star(), _looped_triangle()]:
        for trial in range(41):
            g2, act2 = _with_edge_orbits(g, act, rng) if trial else (g, act)
            lists = ([act2.sigma1, act2.sigma2], [act2.sigma1], [act2.sigma2], [act2.rotation])
            for gens in lists:
                assert orbits(gens, g2.vertex_count) == orbits(generate_group(g2, gens), g2.vertex_count)
            try:
                require_harmonic(g2, act2.elements)
            except NonHarmonicError as old:
                with pytest.raises(NonHarmonicError) as new:
                    DecompositionContext(g2, act2)
                assert (new.value.edge, str(new.value)) == (old.edge, str(old))
                verdicts.append(False)
                continue
            ctx = DecompositionContext(g2, act2)
            assert [ctx.qhat, ctx.q1, ctx.q2, ctx.q3] == [quotient_graph(g2, gens) for gens in lists]
            verdicts.append(True)
    assert len(verdicts) == 615 and verdicts.count(False) >= 100 and verdicts.count(True) >= 100


def test_constructor_refusal_matches_the_element_scan(monkeypatch):
    """chained_copies on the path a-m-b plus a pendant m-c, phi = (a b):
    the reflection fixing copy 0 fixes the simple edge m@0-c@0.  The
    constructor refuses it by the cycle rule with the edge and message
    that require_harmonic's element scan gives."""
    seen = []

    def spy(g, action):
        seen.append((g, action))
        return _dihedral_offender(g, action)

    monkeypatch.setattr("critgroups.families._dihedral_offender", spy)
    base = Multigraph.from_edges(4, [(0, 1), (1, 2), (1, 3)], labels=["a", "m", "b", "c"])
    with pytest.raises(NonHarmonicError) as new:
        chained_copies(base, [2, 1, 0, 3], 0, 2, 3)
    [(g, act)] = seen
    with pytest.raises(NonHarmonicError) as old:
        require_harmonic(g, act.elements)
    assert new.value.edge == old.value.edge == (1, 2)
    assert str(new.value) == str(old.value) == (
        "action is not harmonic: edge m@0-c@0 "
        "is fixed pointwise by a stabilizer that cannot act freely on it"
    )


def test_permutation_primitives_on_zero_to_two_vertices():
    """On 0-, 1- and 2-vertex permutations (where an itemgetter takes no
    index or returns a scalar) compose, _powers, generate_group and
    DihedralAction.build give what their list-comprehension definitions
    give; a 3-vertex edgeless graph checks build's element list."""

    def compose_ref(outer, inner):
        return tuple([outer[v] for v in inner])

    def powers_ref(p):
        out, q = [identity_perm(len(p))], p
        while q != out[0]:
            out.append(q)
            q = compose_ref(p, q)
        return out

    for nv in range(3):
        g = Multigraph.from_edges(nv, [])
        perms = list(itertools.permutations(range(nv)))
        for p in perms:
            assert _powers(p) == powers_ref(p)
            for q in perms:
                assert compose(p, q) == compose_ref(p, q)
        assert generate_group(g, perms) == perms
        assert generate_group(g, []) == [identity_perm(nv)]
        with pytest.raises(ValueError, match="^sigma1 is the identity$"):
            DihedralAction.build(g, identity_perm(nv), perms[-1])
    with pytest.raises(ValueError, match="^sigma2 . sigma1 must have order at least 2$"):
        DihedralAction.build(Multigraph.from_edges(2, [(0, 1)]), [1, 0], [1, 0])
    s1, s2 = (1, 0, 2), (0, 2, 1)
    act = DihedralAction.build(Multigraph.from_edges(3, []), s1, s2)
    rotations = powers_ref(compose_ref(s2, s1))
    assert act.elements == tuple(sorted(rotations + [compose_ref(r, s1) for r in rotations]))
    assert act.n == 3


def test_harmonicity_examples():
    g, act = intro_counterexample()
    require_harmonic(g, act.elements)
    star = Multigraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    swap = generate_group(star, [[0, 2, 1, 3]])
    with pytest.raises(NonHarmonicError):
        require_harmonic(star, swap)
    c5 = cycle(5)
    rot = generate_group(c5, [[(i + 1) % 5 for i in range(5)]])
    require_harmonic(c5, rot)


def test_harmonicity_invariant_under_relabeling():
    rng = random.Random(5)
    star = Multigraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    intro_g, intro_act = intro_counterexample()
    cases = [
        (star, [[0, 2, 1, 3]]),
        (cycle(6), [[(6 - i) % 6 for i in range(6)]]),
        (intro_g, [list(intro_act.sigma1), list(intro_act.sigma2)]),
    ]
    for g, gens in cases:
        group = generate_group(g, gens)
        verdict = _harmonic_offender(g, group) is None
        for _ in range(5):
            pi = list(range(g.vertex_count))
            rng.shuffle(pi)
            assert (_harmonic_offender(*_relabel(g, group, pi)) is None) == verdict


def test_orbit_stabilizer_consistency():
    g4, act = circulant(9, [1, 3])
    group = list(act.elements)
    for orb in orbits(group, g4.vertex_count):
        for v in orb:
            assert len(orb) * len(stabilizer(group, v)) == len(group)
    ident_orbits = orbits([identity_perm(5)], 5)
    assert ident_orbits == [[v] for v in range(5)]
    c5 = cycle(5)
    rot = generate_group(c5, [[(i + 1) % 5 for i in range(5)]])
    assert orbits(rot, 5) == [[0, 1, 2, 3, 4]]
    assert all(len(stabilizer(rot, v)) == 1 for v in range(5))


def test_pair_stabilizer():
    g, act = intro_counterexample()
    h = pair_stabilizer(act.elements, 0, 4)  # both hubs fixed by everything
    assert len(h) == 6


def test_dihedral_action_validation():
    c6 = cycle(6)
    rot = [(i + 1) % 6 for i in range(6)]
    refl = [(6 - i) % 6 for i in range(6)]
    with pytest.raises(ValueError):
        DihedralAction.build(c6, rot, refl)  # rot is not an involution
    act = DihedralAction.build(c6, refl, [(1 - i) % 6 for i in range(6)])
    assert act.n == 6
    assert len(act.elements) == 12


def _family_actions():
    yield circulant(7, [1, 2])
    yield circulant(8, [1, 4])
    yield circulant(21, [1, 2, 3])
    for n in (3, 4, 5, 8):
        yield concentric_polygon(n)
    yield klein_example()
    yield intro_counterexample()
    edge = (Multigraph.from_edges(2, [(0, 1)]), [1, 0], 0, 1)
    path = (Multigraph.from_edges(3, [(0, 1), (1, 2)]), [2, 1, 0], 0, 2)
    square = (cycle(4), [2, 1, 0, 3], 0, 2)
    for base, phi, a, b in (edge, path, square):
        for n in (3, 4, 9):
            yield chained_copies(base, phi, a, b, n)
    rng = random.Random(53)
    for _ in range(12):
        n = rng.randint(3, 16)
        steps = [1] + rng.sample(range(2, n), rng.randint(0, min(3, n - 2)))
        yield circulant(n, steps)


def test_written_down_dihedral_group_matches_its_closure():
    """The elements rho^k and rho^k . sigma1 are exactly the closure of the
    two involutions, in the same order, and the rotations number n."""
    for g, act in _family_actions():
        assert act.elements == tuple(generate_group(g, [act.sigma1, act.sigma2]))
        assert len(act.rotation_subgroup()) == act.n
        assert len(act.elements) == 2 * act.n
    refl = [(6 - i) % 6 for i in range(6)]
    with pytest.raises(ValueError, match="order at least 2"):
        DihedralAction.build(cycle(6), refl, refl)


def test_build_counts_the_rotations():
    """n, the lcm of rho's cycle lengths, is the number of rotations
    written down, on every dihedral case; on a 6-cycle beside a 4-cycle,
    each turned one step by rho, it is 12, not the longest cycle."""
    cases = _harmonicity_families() + [_star(), _looped_triangle()] + list(_family_actions())
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    square = [(6 + i, 6 + (i + 1) % 4) for i in range(4)]
    hexagon_and_square = Multigraph.from_edges(10, hexagon + square)
    refl1 = [(6 - i) % 6 for i in range(6)] + [6 + (4 - i) % 4 for i in range(4)]
    refl2 = [(7 - i) % 6 for i in range(6)] + [6 + (5 - i) % 4 for i in range(4)]
    cases.append((hexagon_and_square, DihedralAction.build(hexagon_and_square, refl1, refl2)))
    for g, act in cases:
        built = DihedralAction.build(g, act.sigma1, act.sigma2)
        assert built.n == len(_powers(built.rotation))
    assert cases[-1][1].n == 12


def test_build_names_the_fault_it_found():
    """An identity generator and one whose square is not the identity are
    refused with different messages."""
    c6 = cycle(6)
    rot = [(i + 1) % 6 for i in range(6)]
    refl = [(6 - i) % 6 for i in range(6)]
    ident = list(range(6))
    with pytest.raises(ValueError, match="^sigma1 is the identity$"):
        DihedralAction.build(c6, ident, refl)
    with pytest.raises(ValueError, match="^sigma2 is the identity$"):
        DihedralAction.build(c6, refl, ident)
    with pytest.raises(ValueError, match="^sigma1 is not an involution: its square"):
        DihedralAction.build(c6, rot, refl)


def test_dihedral_element_structure():
    g, act = circulant(7, [1, 2])
    rho = act.rotation
    expected = set()
    power = identity_perm(7)
    for _ in range(act.n):
        expected.add(power)
        expected.add(compose(power, act.sigma1))
        power = compose(rho, power)
    assert expected == set(act.elements)


def test_classification_shapes():
    g7, a7 = circulant(7, [1, 2])
    lab = classify_dihedral_orbits(g7, a7)
    assert (lab.s, lab.t) == (1, 0)
    gk, ak = klein_example()
    labk = classify_dihedral_orbits(gk, ak)
    assert (labk.s, labk.t, labk.flipped_count) == (3, 0, 2)
    rows = sorted(tuple(sorted(p.row)) for p in labk.pinned)
    assert rows == [(0, 1), (2, 4), (3, 5)]  # {x1,x2}, {a1,b1}, {a2,b2}


def test_classification_rejects_small_orbits():
    g, act = intro_counterexample()
    with pytest.raises(OrbitSizeError):
        classify_dihedral_orbits(g, act)


def test_labeling_impossible_for_rotation_stabilizer():
    # Klein example plus a pair c1, c2 swapped by both involutions: the
    # pair is stabilized by the rotation, which neither reflection
    # assignment can accommodate.
    g = Multigraph.from_edges(
        8,
        [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
         (6, 0), (6, 1), (7, 0), (7, 1)],
        labels=["x1", "x2", "a1", "a2", "b1", "b2", "c1", "c2"],
    )
    sigma1 = [1, 0, 2, 3, 4, 5, 7, 6]
    sigma2 = [0, 1, 4, 5, 2, 3, 7, 6]
    act = DihedralAction.build(g, sigma1, sigma2)
    assert act.n == 2
    with pytest.raises(LabelingImpossibleError):
        classify_dihedral_orbits(g, act)


def _relabeled_action(g, act, pi):
    """The graph and dihedral action with each vertex v renamed pi[v]."""
    g2, (s1, s2) = _relabel(g, [act.sigma1, act.sigma2], pi)
    return g2, DihedralAction.build(g2, s1, s2)


def test_labeling_with_rotated_seed_still_valid():
    """Rotating the vertex indices by r makes vertex -r mod |V| the least,
    so over all r every fixed point that could seed a size-n orbit seeds
    it, and every vertex of a free orbit starts its x strand.  Each
    labeling passes the self-check, and the orbit counts and the
    generator order do not move."""
    for g, act in (circulant(7, [1, 2]), circulant(9, [1, 3]), concentric_polygon(4),
                   klein_example(), chained_copies(*CHAIN_BASES["path"], 4)):
        base = classify_dihedral_orbits(g, act)
        nv = g.vertex_count
        seeds, starts = set(), set()
        for r in range(nv):
            pi = [(v + r) % nv for v in range(nv)]
            lab = classify_dihedral_orbits(*_relabeled_action(g, act, pi))
            shape = (lab.s, lab.t, lab.flipped_count, lab.generators_swapped)
            assert shape == (base.s, base.t, base.flipped_count, base.generators_swapped)
            seeds |= {(orb.row[0] - r) % nv for orb in lab.pinned}
            starts |= {(orb.xrow[0] - r) % nv for orb in lab.free}
        s1, s2 = act.sigma1, act.sigma2
        candidates = set()
        for orb in base.pinned:
            fixed2 = {v for v in orb.row if s2[v] == v}
            candidates |= fixed2 or {v for v in orb.row if s1[v] == v}
        assert seeds == candidates
        assert starts == {v for orb in base.free for v in orb.xrow + orb.yrow}


def test_generator_order_is_read_off_the_pinned_orbits():
    """The point stabilizers of a size-n orbit are conjugate reflections.
    For even n no size-n orbit holds a fixed point of both generators,
    for odd n every one holds a fixed point of each, and the roles are
    swapped exactly when size-n orbits exist and none holds a
    sigma2-fixed point.  Checked on every family action and its twin
    with the generators exchanged, each as given and under three random
    relabelings of its vertices."""
    rng = random.Random(20)
    labeled = swapped = 0
    for g, act in _family_actions():
        for a in (act, DihedralAction.build(g, act.sigma2, act.sigma1)):
            size_n = [orb for orb in orbits(a.elements, g.vertex_count) if len(orb) == a.n]
            holds1 = [any(a.sigma1[v] == v for v in orb) for orb in size_n]
            holds2 = [any(a.sigma2[v] == v for v in orb) for orb in size_n]
            if a.n % 2 == 0:
                assert not any(h1 and h2 for h1, h2 in zip(holds1, holds2))
            else:
                assert all(holds1) and all(holds2)
            for trial in range(4):
                pi = list(range(g.vertex_count))
                if trial:
                    rng.shuffle(pi)
                try:
                    lab = classify_dihedral_orbits(*_relabeled_action(g, a, pi))
                except OrbitSizeError:
                    break
                assert lab.generators_swapped == (bool(size_n) and not any(holds2))
                labeled += 1
                swapped += lab.generators_swapped
    assert labeled >= 150 and swapped >= 10


def test_labeling_self_check_rejects_swapped_generators():
    """The two generators act by different reflections on every labeled
    row, so the self-check accepts the labeled order and refuses the
    other one at its first r1 equation."""
    checked = 0
    for g, act in _family_actions():
        try:
            lab = classify_dihedral_orbits(g, act)
        except OrbitSizeError:
            continue
        r1, r2 = (act.sigma2, act.sigma1) if lab.generators_swapped else (act.sigma1, act.sigma2)
        _verify_labeling(r1, r2, lab)
        kind = "free strand" if lab.free else "pinned"
        with pytest.raises(AssertionError, match=f"^r1 {kind} equation$"):
            _verify_labeling(r2, r1, lab)
        checked += 1
    assert checked >= 20


def test_labeling_self_check_survives_optimize(fresh_python):
    """``python -O`` strips assert statements; the labeling self-check
    must raise all the same."""
    code = (
        "from critgroups.actions import _verify_labeling, classify_dihedral_orbits\n"
        "from critgroups.families import circulant\n"
        "g, a = circulant(7, [1, 2])\n"
        "try:\n"
        "    _verify_labeling(a.sigma2, a.sigma1, classify_dihedral_orbits(g, a))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    assert fresh_python(code, "-O") == "r1 pinned equation\n"


def test_concentric_orbit_stabilizers():
    from critgroups.families import concentric_polygon

    g, act = concentric_polygon(4)
    group = list(act.elements)
    orbs = orbits(group, g.vertex_count)
    sizes = sorted(len(o) for o in orbs)
    assert sizes == [4, 8]  # inner ring and the outer double ring
    for orb in orbs:
        for v in orb:
            stab = stabilizer(group, v)
            assert len(stab) == (2 if len(orb) == 4 else 1)


def test_permutation_entries_must_be_ints():
    """A permutation entry that is not an int is rejected, never
    converted: float and string copies of a valid pair of reflections
    would otherwise build D_7."""
    g, act = circulant(7, [1, 2])
    floats = [float(x) for x in act.sigma1]
    strings = [str(x) for x in act.sigma2]
    for sigma1, sigma2 in ((floats, act.sigma2), (act.sigma1, strings)):
        with pytest.raises(TypeError, match="is not an int"):
            DihedralAction.build(g, sigma1, sigma2)
    with pytest.raises(TypeError):
        check_automorphism(g, [True] + list(act.sigma1[1:]))
