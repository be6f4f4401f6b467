"""A graph-document fuzzer, run in process through ``cli.main``.

Valid documents (small family instances and random multigraphs with two
random involutions, on at most 6 vertices) are mutated: a key dropped,
repeated or renamed, a value retyped to a bool, float, null, nested list
or huge integer, a sigma table made non-bijective.  Labels may differ
only by Unicode normalization.  ``compute`` and ``verify`` then run on
the text.  Whatever the document, a run ends with a documented exit code:
exits 2, 3 and 5 print exactly one ``error:`` line and nothing else;
exits 0, 1 and 4 print a report (or, for 4, a certificate) and nothing
on stderr, and in JSON that report parses.  A document that a reading
of the format apart from ``jsonio`` finds malformed exits 2: it is never
silently read as some graph.
"""

import contextlib
import copy
import io
import json
import math
import unicodedata

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from critgroups.cli import main
from critgroups.families import CHAIN_BASES, chained_copies, circulant, intro_counterexample, klein_example
from critgroups.jsonio import graph_to_json

FAMILY_DOCUMENTS = [
    graph_to_json(*f())
    for f in (
        klein_example,
        intro_counterexample,
        lambda: circulant(5, [1, 2]),
        lambda: circulant(6, [1, 3]),
        lambda: chained_copies(*CHAIN_BASES["edge"], 5),
        lambda: chained_copies(*CHAIN_BASES["path"], 2),
    )
]

# "é" twice and "Å" twice: composed and decomposed, equal after NFC.
LABELS = ["a", "b", "x1", "é", "é", "Å", "Å", ""]

RETYPED = [True, False, 1.5, -0.0, math.inf, None, [], [[]], [["a", "b"]], 10**40, -(10**40), 0, "a"]


class Obj(list):
    """A JSON object as its [key, value] pairs, so that a key can repeat."""


def tree(doc):
    if isinstance(doc, dict):
        return Obj([k, tree(v)] for k, v in doc.items())
    if isinstance(doc, list):
        return [tree(v) for v in doc]
    return doc


def render(node) -> str:
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(render, node)) + "]"
    return json.dumps(node)


def slots(node):
    """(container, index, value) of every slot below ``node``, depth first."""
    if not isinstance(node, list):
        return
    for i, value in enumerate([v for _, v in node] if isinstance(node, Obj) else node):
        yield node, i, value
        yield from slots(value)


def objects(root):
    """Every object in the tree, the root first."""
    return [root] * isinstance(root, Obj) + [v for _, _, v in slots(root) if isinstance(v, Obj)]


@st.composite
def involution(draw, size):
    order = draw(st.permutations(range(size)))
    pairs = draw(st.integers(min(1, size // 2), size // 2))
    perm = list(range(size))
    for k in range(pairs):
        a, b = order[2 * k], order[2 * k + 1]
        perm[a], perm[b] = b, a
    return perm


def edge_orbit(edge, perms):
    """The images of ``edge`` under the group that ``perms`` generate."""
    seen, todo = {edge}, [edge]
    while todo:
        u, v = todo.pop()
        for p in perms:
            image = tuple(sorted((p[u], p[v])))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return sorted(seen)


@st.composite
def random_document(draw):
    """A multigraph on 1 to 6 vertices with two random involutions,
    usually with its edge set closed under them, so that they are
    automorphisms and the run gets past the action's checks."""
    size = draw(st.integers(1, 6))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=size, max_size=size, unique=True))
    vertex = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).map(lambda e: tuple(sorted(e))), max_size=8))
    first = draw(involution(size))
    perms = [first, draw(involution(size).filter(lambda p: p != first or size < 3))]
    if draw(st.integers(0, 3)):
        edges = [image for e in edges for image in edge_orbit(e, perms)]
    doc = {"vertices": labels, "edges": [[labels[u], labels[v]] for u, v in edges]}
    if draw(st.integers(0, 3)):
        doc["actions"] = {
            key: {labels[v]: labels[w] for v, w in enumerate(p)} for key, p in zip(("sigma1", "sigma2"), perms)
        }
    return doc


def renamed(key: str) -> list[str]:
    return [key + "s", key[:-1], key.upper(), unicodedata.normalize("NFD", "é") + key, "sigma3", "edge", "action", ""]


@st.composite
def mutated_document(draw):
    """A valid document, as a tree, with up to three mutations; a third
    of them have none."""
    root = tree(copy.deepcopy(draw(st.sampled_from(FAMILY_DOCUMENTS) | random_document())))
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        kind = draw(st.sampled_from(("drop", "repeat", "rename", "retype", "collide")))
        if kind == "retype":
            targets = list(slots(root))
            if not targets:
                root = draw(st.sampled_from(RETYPED))
                continue
            container, i, _ = draw(st.sampled_from(targets))
            value = draw(st.sampled_from(RETYPED))
            if isinstance(container, Obj):
                container[i][1] = value
            else:
                container[i] = value
            continue
        candidates = [o for o in objects(root) if len(o) >= (2 if kind == "collide" else 1)]
        if not candidates:
            continue
        obj = draw(st.sampled_from(candidates))
        i = draw(st.integers(0, len(obj) - 1))
        if kind == "drop":
            del obj[i]
        elif kind == "repeat":
            obj.append([obj[i][0], copy.deepcopy(draw(st.sampled_from([obj[i][1], *RETYPED])))])
        elif kind == "rename":
            obj[i][0] = draw(st.sampled_from(renamed(obj[i][0])))
        else:  # collide: two keys map to one value, as in a non-bijective sigma table
            j = draw(st.integers(0, len(obj) - 1).filter(lambda j: j != i))
            obj[i][1] = copy.deepcopy(obj[j][1])
    return root


def well_formed(root) -> bool:
    """The graph format's structure, read apart from ``jsonio``: an
    object with each key once, of "vertices" (distinct strings),
    "edges" (pairs of those) and optionally "actions" (exactly "sigma1"
    and "sigma2", each mapping every label to a label)."""

    def fields(node):
        keys = [k for k, _ in node] if isinstance(node, Obj) else None
        return dict(node) if keys is not None and len(set(keys)) == len(keys) else None

    def labels_in(values, labels):
        return all(isinstance(x, str) and x in labels for x in values)

    doc = fields(root)
    if doc is None or not {"vertices", "edges"} <= set(doc) <= {"vertices", "edges", "actions"}:
        return False
    labels, edges = doc["vertices"], doc["edges"]
    if not (isinstance(labels, list) and labels_in(labels, labels) and len(set(labels)) == len(labels)):
        return False
    if not (isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2 and labels_in(e, labels) for e in edges)):
        return False
    if "actions" not in doc:
        return True
    actions = fields(doc["actions"])
    if actions is None or set(actions) != {"sigma1", "sigma2"}:
        return False
    tables = [fields(t) for t in actions.values()]
    return all(t is not None and set(t) == set(labels) and labels_in(t.values(), labels) for t in tables)


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.json"


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_a_non_involutive_sigma_table_exits_2(document_path, fmt):
    """sigma1 is a 3-cycle of a triangle: an automorphism, but not an
    involution, so the document is refused by every command."""
    doc = {
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        "actions": {"sigma1": {"a": "b", "b": "c", "c": "a"}, "sigma2": {"a": "a", "b": "c", "c": "b"}},
    }
    document_path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["compute", str(document_path)], ["verify", str(document_path), "--trials", "3"]):
        code, out, err = cli("--format", fmt, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert "not an involution" in err


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(root=mutated_document(), fmt=st.sampled_from(("json", "text")), oracle=st.booleans())
def test_every_document_ends_with_a_documented_exit(document_path, root, fmt, oracle):
    document_path.write_text(render(root), encoding="utf-8")
    verify = ["verify", str(document_path), "--trials", "3", *(["--oracle"] if oracle else [])]
    for argv in (["compute", str(document_path)], verify):
        code, out, err = cli("--format", fmt, *argv)
        assert code in range(6), (argv, code)
        if not well_formed(root):
            assert code == 2, "a malformed document was read as a graph"
        if code in (2, 3, 5):
            assert out == ""
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
        else:
            assert err == ""
            if fmt == "json":
                doc = json.loads(out)
                if argv[0] == "compute":
                    assert doc["order"] == doc["spanning_trees"] == math.prod(doc["invariant_factors"])
