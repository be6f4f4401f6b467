"""Metamorphic relations: inputs that differ in a way the mathematics
cannot see give the same answers, so each relation is an exact oracle
that needs no second algorithm.

  * Relabeling the vertices and shuffling the edge list of a graph
    document leaves the report unchanged, apart from the witness
    divisors, which are written in the new vertex order.
  * A loop at every vertex leaves the whole report unchanged, sweep
    included.  ``test_decomposition.py::test_loops_leave_the_report_unchanged``
    holds it for passing instances; here it runs on the rest, failing
    ones included.
  * Swapping sigma1 and sigma2 exchanges the first two quotient groups
    and keeps every order and the verdict.
  * Adding a principal divisor L·x keeps the class of a divisor, so
    every class-level answer.  Divisor-level pullback-sum membership is
    not such an answer: the pullback-sum lattice need not hold the
    Laplacian's columns, and adding L·x can move a divisor into it or
    out of it.
  * Running through the CLI changes nothing: a JSON ``verify`` or
    ``compute`` prints the in-process result.
"""

import copy
import json
import random

import pytest

from critgroups.actions import DihedralAction
from critgroups.cli import main
from critgroups.decomposition import (
    DecompositionContext,
    random_degree_zero,
    run_all_checks,
    triple_sum_conditions,
    triple_sum_matrix,
)
from critgroups.divisors import critical_group
from critgroups.families import CHAIN_BASES, chained_copies, circulant, concentric_polygon, klein_example
from critgroups.intmatrix import Lattice
from critgroups.jsonio import graph_from_json, graph_to_json
from critgroups.multigraph import laplacian, spanning_tree_count
from test_decomposition import LOOP_INSTANCES, hub_chain, with_loops

# Five families (circulants, concentric polygons, K_{2,4}, chains of
# three bases, and the hub chain, whose kernel and quotient predictions
# fail), with even and odd n and mixed reflection classes.
INSTANCES = {
    "circulant(7,[1,2])": lambda: circulant(7, [1, 2]),
    "circulant(21,[1,2,3])": lambda: circulant(21, [1, 2, 3]),
    "concentric_polygon(4)": lambda: concentric_polygon(4),
    "concentric_polygon(5)": lambda: concentric_polygon(5),
    "klein_example": klein_example,
    "chained_copies(edge,6)": lambda: chained_copies(*CHAIN_BASES["edge"], 6),
    "chained_copies(cycle4,5)": lambda: chained_copies(*CHAIN_BASES["cycle4"], 5),
    "chained_copies(path,4)": lambda: chained_copies(*CHAIN_BASES["path"], 4),
    "hub_chain(3)": lambda: hub_chain(3),
}


def report(g, action):
    """The report of a verify with no sweep, as JSON."""
    return run_all_checks(DecompositionContext(g, action), trials=0).to_json()


def without_witnesses(doc):
    """``doc`` with every ``witness_*`` field left out, at any depth."""
    if isinstance(doc, dict):
        return {k: without_witnesses(v) for k, v in doc.items() if not k.startswith("witness_")}
    if isinstance(doc, list):
        return [without_witnesses(v) for v in doc]
    return doc


def relabeled(g, action, rng):
    """The graph document of (g, action) with new labels, its vertices
    in a new order, its edges shuffled and each edge's ends swapped at
    random, read back."""
    doc = graph_to_json(g, action)
    new = dict(zip(doc["vertices"], rng.sample(range(10**6), g.vertex_count)))
    name = {old: f"u{k}" for old, k in new.items()}
    vertices = [name[v] for v in doc["vertices"]]
    rng.shuffle(vertices)
    edges = [[name[a], name[b]][:: rng.choice((1, -1))] for a, b in doc["edges"]]
    rng.shuffle(edges)
    tables = {
        key: {name[v]: name[w] for v, w in rng.sample(sorted(table.items()), len(table))}
        for key, table in doc["actions"].items()
    }
    return graph_from_json({"vertices": vertices, "edges": edges, "actions": tables})


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_relabeling_and_shuffling_leave_the_report_unchanged(name):
    g, action = INSTANCES[name]()
    plain = report(g, action)
    rng = random.Random(name)
    orders = set()
    for _ in range(5):
        g2, action2 = relabeled(g, action, rng)
        orders.add(g2.labels)
        assert without_witnesses(report(g2, action2)) == without_witnesses(plain)
    assert len(orders) == 5  # five different vertex orders were tried


@pytest.mark.parametrize("name", sorted(set(INSTANCES) - set(LOOP_INSTANCES)))
def test_loops_leave_the_report_unchanged(name):
    g, action = INSTANCES[name]()
    plain = run_all_checks(DecompositionContext(g, action), trials=30, seed=5)
    loops = run_all_checks(DecompositionContext(*with_loops(g, action)), trials=30, seed=5)
    assert loops.to_json() == plain.to_json()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_the_cli_prints_the_in_process_result(name, tmp_path, capsys):
    g, action = INSTANCES[name]()
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_json(g, action)), encoding="utf-8")
    file = str(path)
    expected = run_all_checks(DecompositionContext(g, action), 20, 3, graph_name=file).to_json()
    code = main(["--format", "json", "verify", file, "--trials", "20", "--seed", "3"])
    assert json.loads(capsys.readouterr().out) == expected
    assert code == (0 if expected["passed"] else 1)
    group = critical_group(g).group
    assert main(["--format", "json", "compute", file]) == 0
    trees = spanning_tree_count(g)
    assert json.loads(capsys.readouterr().out) == {
        "invariant_factors": list(group.factors),
        "order": group.order,
        "spanning_trees": trees,
    }


def exchanged(doc):
    """What swapping sigma1 and sigma2 should make of a report: the
    first two quotient groups and the orders read off them exchanged."""
    doc = copy.deepcopy(doc)
    q = doc["quotient_groups"]
    doc["quotient_groups"] = [q[1], q[0], *q[2:]]
    for check in doc["checks"]:
        if check["name"] == "order_identity":
            h1, h2, h3 = check["computed"]["quotient_orders"]
            check["computed"]["quotient_orders"] = [h2, h1, h3]
        if check["name"] == "pair_exact_sequence":
            left, right = check["predicted"]["order_identity"].split(" == ")
            h1, h2 = left.split("*")
            check["predicted"]["order_identity"] = f"{h2}*{h1} == {right}"
    return doc


def labeling_free(doc):
    """``doc`` without its witnesses, its flipped count and which
    generator leads: the labeling rule decides those two anew when the
    generators trade places."""
    doc = without_witnesses(doc)
    del doc["orbits"]["flipped"], doc["generators_swapped"]
    return doc


def swapped(g, action):
    return DihedralAction.build(g, action.sigma2, action.sigma1)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_swapping_the_involutions_exchanges_the_first_two_quotients(name):
    g, action = INSTANCES[name]()
    plain, other = report(g, action), report(g, swapped(g, action))
    assert labeling_free(other) == labeling_free(exchanged(plain))
    assert other["passed"] == plain["passed"]
    s, flipped = plain["orbits"]["pinned"], plain["orbits"]["flipped"]
    assert other["orbits"]["flipped"] in (flipped, s - flipped)


def test_swapping_the_involutions_of_k24_moves_the_flipped_count():
    """On K_{2,4} three orbits are pinned: two by one reflection class
    and one by the other; the labeling takes the class of the first
    generator as the default, so the flipped count goes from 2 to 1."""
    g, action = klein_example()
    plain, other = report(g, action), report(g, swapped(g, action))
    assert plain["orbits"] == {"pinned": 3, "free": 0, "flipped": 2}
    assert other["orbits"] == {"pinned": 3, "free": 0, "flipped": 1}
    assert plain["quotient_groups"][:2] == [[], [4]]
    assert other["quotient_groups"][:2] == [[4], []]


PRINCIPAL_INSTANCES = {
    **INSTANCES,
    "concentric_polygon(8)": lambda: concentric_polygon(8),
    "chained_copies(cycle4,9)": lambda: chained_copies(*CHAIN_BASES["cycle4"], 9),
}


def fired_draws(ctx, count, seed):
    """``count`` pairs (d, d + L·x): d a random degree-zero divisor as
    the sweep draws it, x a random firing script with entries in [-3, 3]."""
    rng = random.Random(seed)
    lap = laplacian(ctx.graph)
    for _ in range(count):
        d = random_degree_zero(ctx.graph, rng)
        x = [rng.randint(-3, 3) for _ in range(ctx.graph.vertex_count)]
        yield d, tuple(a + b for a, b in zip(d, lap.apply(x)))


@pytest.mark.parametrize("name", sorted(PRINCIPAL_INSTANCES))
def test_adding_a_principal_divisor_keeps_every_class_answer(name):
    """The class of d is the class of d + L·x, and a divisor that is a
    pullback sum has its class in the image of the natural map.  The
    image membership is checked by a second route: a lattice (Hermite
    form) holding the pullback sums and the reduced Laplacian's columns."""
    ctx = DecompositionContext(*PRINCIPAL_INSTANCES[name]())
    cg, quotient = ctx.cg, ctx.pullback_quotient
    classes = Lattice(triple_sum_matrix(ctx).hstack(cg.reduced))
    seen = set()
    for d, e in fired_draws(ctx, 60, seed=11):
        assert cg.project(d) == cg.project(e)
        in_image = not any(quotient.project(cg.project(d)))
        assert classes.contains(cg._dropped(d)) == in_image == classes.contains(cg._dropped(e))
        for divisor in (d, e):
            if triple_sum_conditions(ctx, divisor):
                assert in_image
        seen.add(in_image)
    if ctx.pullback_quotient.group.is_trivial():
        assert seen == {True}


@pytest.mark.parametrize(
    "name, columns_inside, changed",
    [("concentric_polygon(8)", 8, 12), ("chained_copies(cycle4,9)", 9, 6)],
)
def test_adding_a_principal_divisor_can_change_a_divisor_level_answer(name, columns_inside, changed):
    """A finding: the divisor-level relation "adding L·x changes no
    membership answer" is false.  Only some Laplacian columns lie in the
    pullback-sum lattice, so on 300 draws adding L·x moves a few
    divisors across it; the lattice oracle agrees with the pullback-sum
    conditions on both sides of every draw."""
    ctx = DecompositionContext(*PRINCIPAL_INSTANCES[name]())
    lap, cg = laplacian(ctx.graph), ctx.cg
    assert sum(triple_sum_conditions(ctx, lap.col(j)) for j in range(lap.cols)) == columns_inside
    assert columns_inside < lap.cols
    lattice = Lattice(triple_sum_matrix(ctx))
    moved = 0
    for d, e in fired_draws(ctx, 300, seed=0):
        before, after = triple_sum_conditions(ctx, d), triple_sum_conditions(ctx, e)
        assert before == lattice.contains(cg._dropped(d))
        assert after == lattice.contains(cg._dropped(e))
        moved += before != after
    assert moved == changed
