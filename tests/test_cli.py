"""Command-line interface: exit codes, formats, and round trips."""

import json

import pytest

from critgroups.cli import CHAIN_BASE_NAMES, main
from critgroups.decomposition import DecompositionContext, DecompositionReport, run_all_checks
from critgroups.divisors import CriticalGroupData
from critgroups.families import CHAIN_BASES, circulant, intro_counterexample, klein_example
from critgroups.jsonio import graph_from_json, graph_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_family(capsys, tmp_path, *argv):
    code, out, err = run(capsys, "family", *argv)
    assert code == 0, err
    path = tmp_path / "graph.json"
    path.write_text(out)
    return path


def test_compute_intro(capsys, tmp_path):
    path = write_family(capsys, tmp_path, "intro")
    code, out, _ = run(capsys, "compute", str(path))
    assert code == 0
    assert "Z/2 + Z/2 + Z/4 + Z/12" in out
    code, out, _ = run(capsys, "--format", "json", "compute", str(path))
    doc = json.loads(out)
    assert doc["invariant_factors"] == [2, 2, 4, 12]
    assert doc["order"] == 192 == doc["spanning_trees"]


def test_compute_klein(capsys, tmp_path):
    path = write_family(capsys, tmp_path, "klein")
    code, out, _ = run(capsys, "--format", "json", "compute", str(path))
    assert code == 0
    assert json.loads(out)["invariant_factors"] == [2, 2, 8]


def test_compute_single_edge(capsys, tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    code, out, _ = run(capsys, "--format", "json", "compute", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant_factors"] == [] and doc["spanning_trees"] == 1


@pytest.mark.parametrize("vertices", [[], ["a"]], ids=["empty", "one_vertex"])
def test_compute_trivial_graphs(capsys, tmp_path, vertices):
    """The empty graph has no root and the one-vertex graph an empty
    reduced Laplacian; both have the trivial group and one spanning tree."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": []}))
    assert run(capsys, "compute", str(path)) == (
        0,
        "critical group: 0\norder: 1\nspanning trees: 1\n",
        "",
    )
    code, out, err = run(capsys, "--format", "json", "compute", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"invariant_factors": [], "order": 1, "spanning_trees": 1}


def test_parse_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "compute", str(bad))[0] == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"edges": []}))
    assert run(capsys, "compute", str(missing))[0] == 2
    noact = tmp_path / "noact.json"
    noact.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    assert run(capsys, "verify", str(noact))[0] == 2
    assert run(capsys, "family", "circulant", "--n", "4", "--steps", "0")[0] == 2


_TRIANGLE_EDGES = [["a", "b"], ["b", "c"], ["c", "a"]]
_TRIANGLE_SIGMA2 = {"a": "b", "b": "a", "c": "c"}
_MALFORMED = {
    # a string is iterable, but it is not a list of labels
    "vertices_string": {
        "vertices": "abc",
        "edges": _TRIANGLE_EDGES,
        "actions": {"sigma1": {"a": "a", "b": "c", "c": "b"}, "sigma2": _TRIANGLE_SIGMA2},
    },
    # an action table must map labels to labels, not list images
    "action_list": {
        "vertices": ["a", "b", "c"],
        "edges": _TRIANGLE_EDGES,
        "actions": {"sigma1": ["a", "c", "b"], "sigma2": _TRIANGLE_SIGMA2},
    },
    # edges must be a list of vertex pairs
    "edges_number": {"vertices": ["a", "b", "c"], "edges": 5},
    "edges_null": {"vertices": ["a", "b", "c"], "edges": None},
    # labels, endpoints and action images are strings, never numbers or
    # null that would be read as their str()
    "vertices_numbers": {
        "vertices": [1, 2, 3],
        "edges": [[1, 2], [2, 3], [3, 1]],
        "actions": {"sigma1": {"1": "1", "2": "3", "3": "2"}, "sigma2": {"1": "2", "2": "1", "3": "3"}},
    },
    "vertex_null": {
        "vertices": ["a", "b", None],
        "edges": [["a", "b"], ["b", "None"], ["None", "a"]],
        "actions": {
            "sigma1": {"a": "a", "b": "None", "None": "b"},
            "sigma2": {"a": "b", "b": "a", "None": "None"},
        },
    },
    "edge_endpoint_number": {
        "vertices": ["1", "2", "3"],
        "edges": [[1, "2"], ["2", "3"], ["3", "1"]],
        "actions": {"sigma1": {"1": "1", "2": "3", "3": "2"}, "sigma2": {"1": "2", "2": "1", "3": "3"}},
    },
    "action_image_number": {
        "vertices": ["1", "2", "3"],
        "edges": [["1", "2"], ["2", "3"], ["3", "1"]],
        "actions": {"sigma1": {"1": 1, "2": 3, "3": 2}, "sigma2": {"1": "2", "2": "1", "3": "3"}},
    },
    # the actions block is checked for every command, compute too: (a m)
    # is no automorphism of the path a-m-b
    "path_not_automorphism": {
        "vertices": ["a", "m", "b"],
        "edges": [["a", "m"], ["m", "b"]],
        "actions": {"sigma1": {"a": "m", "m": "a", "b": "b"}, "sigma2": {"a": "b", "m": "m", "b": "a"}},
    },
    # no key is read that the format does not define: a misspelt "edge"
    # is not an empty edge list (a disconnected triangle, or on one vertex
    # a graph that computes), a misspelt "action" does not skip the action
    # check, and a third table is not ignored
    "edges_missing": {"vertices": ["a"]},
    "edge_misspelt": {"vertices": ["a", "b", "c"], "edge": _TRIANGLE_EDGES},
    "edge_misspelt_one_vertex": {"vertices": ["a"], "edge": []},
    "action_misspelt": {
        "vertices": ["a", "m", "b"],
        "edges": [["a", "m"], ["m", "b"]],
        "action": {"sigma1": {"a": "m", "m": "a", "b": "b"}, "sigma2": {"a": "b", "m": "m", "b": "a"}},
    },
    "sigma3": {
        "vertices": ["a", "b", "c"],
        "edges": _TRIANGLE_EDGES,
        "actions": {"sigma1": {"a": "a", "b": "c", "c": "b"}, "sigma2": _TRIANGLE_SIGMA2, "sigma3": _TRIANGLE_SIGMA2},
    },
    # A key given twice, at any level, is refused, not read as its last
    # value; these are JSON texts, as a dict cannot repeat a key.  Read
    # by their last values, the first is a disconnected path (exit 3) and
    # the others are the valid triangle with its action.
    "edges_repeated": '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], "edges": [["a", "b"]]}',
    "edges_repeated_with_actions": (
        '{"vertices": ["a", "b", "c"], "edges": [["a", "b"]], "edges": [["a", "b"], ["b", "c"], ["c", "a"]],'
        ' "actions": {"sigma1": {"a": "a", "b": "c", "c": "b"}, "sigma2": {"a": "b", "b": "a", "c": "c"}}}'
    ),
    "actions_key_repeated": (
        '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]], "actions": {'
        '"sigma1": {"a": "b", "b": "a", "c": "c"}, "sigma1": {"a": "a", "b": "c", "c": "b"},'
        ' "sigma2": {"a": "b", "b": "a", "c": "c"}}}'
    ),
    "sigma_key_repeated": (
        '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]], "actions": {'
        '"sigma1": {"a": "a", "b": "b", "b": "c", "c": "b"}, "sigma2": {"a": "b", "b": "a", "c": "c"}}}'
    ),
    # nesting past the decoder's recursion limit is a parse error, not a
    # RecursionError traceback
    "nested_too_deep": "[" * 200_000 + "]" * 200_000,
}


@pytest.mark.parametrize("command", ["compute", "verify"])
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_graph_exit_2(capsys, tmp_path, command, case):
    doc = _MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_non_utf8_graph_file_exit_2(capsys, tmp_path, command):
    """Bytes that are not UTF-8 are a parse error, not a decode traceback."""
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_disconnected_exit_3(capsys, tmp_path):
    path = tmp_path / "disc.json"
    path.write_text(
        json.dumps(
            {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]]}
        )
    )
    assert run(capsys, "compute", str(path))[0] == 3
    # Two triangles swapped by both involutions: the labeling would fail,
    # but the graph is rejected as disconnected first.
    tri = [["a", "b"], ["b", "c"], ["c", "a"], ["d", "e"], ["e", "f"], ["f", "d"]]
    swap = {"a": "d", "d": "a"}
    path.write_text(
        json.dumps(
            {
                "vertices": list("abcdef"),
                "edges": tri,
                "actions": {
                    "sigma1": {**swap, "b": "e", "e": "b", "c": "f", "f": "c"},
                    "sigma2": {**swap, "b": "f", "f": "b", "c": "e", "e": "c"},
                },
            }
        )
    )
    code, out, err = run(capsys, "verify", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_family_round_trip(capsys, tmp_path):
    """Piping family output into verify matches in-process results, with
    and without the oracles."""
    path = write_family(capsys, tmp_path, "circulant", "--n", "7", "--steps", "1,2")
    g, act = circulant(7, [1, 2])
    for oracle in (False, True):
        flags = ["--oracle"] if oracle else []
        code, out, _ = run(
            capsys, "--format", "json", "verify", str(path), "--trials", "10", "--seed", "4", *flags
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        ctx = DecompositionContext(g, act)
        direct = run_all_checks(
            ctx, trials=10, seed=4, oracle=oracle, graph_name=str(path)
        ).to_json()
        assert doc["critical_group"] == direct["critical_group"] == [13, 91]
        assert doc["checks"] == direct["checks"]


def test_verify_text_and_json_agree(capsys, tmp_path):
    path = write_family(capsys, tmp_path, "concentric", "--n", "4")
    code, text_out, _ = run(capsys, "verify", str(path), "--trials", "5")
    assert code == 0
    code, json_out, _ = run(
        capsys, "--format", "json", "verify", str(path), "--trials", "5"
    )
    doc = json.loads(json_out)
    assert doc["passed"] and "all checks passed" in text_out
    assert "24000" in text_out or doc["critical_group"] == [10, 10, 240]


def test_verify_renders_only_the_chosen_format(capsys, tmp_path, monkeypatch):
    """--format json builds no text report, and the text format no JSON."""
    path = write_family(capsys, tmp_path, "concentric", "--n", "4")

    def refuse(self):
        raise AssertionError("rendered a format that was not chosen")

    monkeypatch.setattr(DecompositionReport, "to_text", refuse)
    code, out, _ = run(capsys, "--format", "json", "verify", str(path), "--trials", "2")
    assert code == 0 and json.loads(out)["passed"]
    monkeypatch.undo()
    monkeypatch.setattr(DecompositionReport, "to_json", refuse)
    code, out, _ = run(capsys, "verify", str(path), "--trials", "2")
    assert code == 0 and out.endswith("result: all checks passed\n")


def test_verify_intro_exit_4_with_certificate(capsys, tmp_path):
    path = write_family(capsys, tmp_path, "intro")
    code, out, _ = run(capsys, "--format", "json", "verify", str(path))
    assert code == 4
    doc = json.loads(out)
    assert doc["quotient_order_product"] == 576
    assert doc["group_order"] == 192
    assert doc["product_divides_group_order"] is False


def test_verify_labeling_certificate_builds_the_group_once(capsys, tmp_path, monkeypatch):
    """The exit-4 certificate reads the groups the decomposition context
    already built: the critical group of the 5-vertex intro graph is
    computed once, and the certificate is the same."""
    path = write_family(capsys, tmp_path, "intro")
    built = []
    init = CriticalGroupData.__init__

    def counting_init(self, graph):
        built.append(graph.vertex_count)
        init(self, graph)

    monkeypatch.setattr(CriticalGroupData, "__init__", counting_init)
    code, out, _ = run(capsys, "--format", "json", "verify", str(path))
    assert code == 4
    assert built.count(5) == 1
    assert json.loads(out) == {
        "error": "orbit ['v1'] has size 1, expected 3 or 6",
        "group_order": 192,
        "product_divides_group_order": False,
        "quotient_order_product": 576,
    }


# K_{2,6}: hubs x1, x2 and rim a1, a2, b1, b2, c1, c2.  Both involutions
# swap c1 and c2, so that orbit is stabilized by the rotation alone.
ROTATION_STABILIZED_PAIR = {
    "vertices": ["x1", "x2", "a1", "a2", "b1", "b2", "c1", "c2"],
    "edges": [[x, r] for x in ("x1", "x2") for r in ("a1", "a2", "b1", "b2", "c1", "c2")],
    "actions": {
        "sigma1": {"x1": "x2", "x2": "x1", "c1": "c2", "c2": "c1", "a1": "a1", "a2": "a2", "b1": "b1", "b2": "b2"},
        "sigma2": {"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2", "c1": "c2", "c2": "c1", "x1": "x1", "x2": "x2"},
    },
}


def test_verify_labeling_impossible_exit_4_with_certificate(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(ROTATION_STABILIZED_PAIR))
    code, out, err = run(capsys, "--format", "json", "verify", str(path))
    assert (code, err) == (4, "")
    doc = json.loads(out)
    assert doc["error"] == "size-n orbit has rotation-only point stabilizers"
    assert doc["group_order"] == 192
    assert doc["quotient_order_product"] == 96
    assert doc["product_divides_group_order"] is True


def test_verify_oracle_flag(capsys, tmp_path):
    path = write_family(capsys, tmp_path, "klein")
    code, out, _ = run(
        capsys, "--format", "json", "verify", str(path), "--trials", "12", "--oracle"
    )
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert "tree_count_oracle" in names
    tc = next(c for c in doc["checks"] if c["name"] == "tree_count_oracle")
    assert tc["computed"] == {"matrix_tree": 32, "enumeration": 32}


def test_verify_oracle_refusal_on_large_graph(capsys, tmp_path):
    path = write_family(capsys, tmp_path, "concentric", "--n", "5")
    code, out, _ = run(
        capsys, "--format", "json", "verify", str(path), "--trials", "5", "--oracle"
    )
    assert code == 0
    doc = json.loads(out)
    tc = next(c for c in doc["checks"] if c["name"] == "tree_count_oracle")
    assert tc["passed"] and "refused" in " ".join(tc["notes"])


def test_family_shapes(capsys):
    code, out, _ = run(capsys, "family", "circulant", "--n", "9", "--steps", "1,3")
    doc = json.loads(out)
    assert len(doc["vertices"]) == 9 and len(doc["edges"]) == 18
    code, out, _ = run(capsys, "family", "concentric", "--n", "4")
    doc = json.loads(out)
    assert len(doc["vertices"]) == 12 and len(doc["edges"]) == 20
    code, out, _ = run(capsys, "family", "klein")
    doc = json.loads(out)
    assert len(doc["vertices"]) == 6 and len(doc["edges"]) == 8
    assert doc["actions"]["sigma1"]["x1"] == "x2"


def exit_and_stderr(capsys, *argv):
    """main's exit code, including argparse's SystemExit, and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,bad",
    [
        (("family", "concentric", "--n", "٤"), "'٤'"),
        (("family", "circulant", "--n", "1_1", "--steps", "1,2"), "'1_1'"),
        (("family", "circulant", "--n", "11", "--steps", " 1, 0_2"), "' 1'"),
        (("family", "circulant", "--n", "11", "--steps", "1,0_2"), "'0_2'"),
        (("family", "circulant", "--n", "11", "--steps", "1,٢"), "'٢'"),
        (("family", "chain", "--n", " 3"), "' 3'"),
        (("verify", "GRAPH", "--trials", "١٠", "--seed", "٣"), "'١٠'"),
        (("verify", "GRAPH", "--seed", "٣"), "'٣'"),
        (("verify", "GRAPH", "--seed", "1.0"), "'1.0'"),
    ],
    ids=[
        "n_digit_four", "n_underscore", "steps_spaces", "steps_underscore", "steps_digit_two",
        "n_space", "trials_and_seed_digits", "seed_digit_three", "seed_float",
    ],
)
def test_integer_options_are_ascii_decimal(capsys, tmp_path, argv, bad):
    """--n, --trials, --seed and each --steps item read only [+-]?[0-9]+:
    int() would read other scripts' digits, "_" and spaces, so these
    spellings would build another graph or run with other settings."""
    path = str(write_family(capsys, tmp_path, "klein"))
    code, err = exit_and_stderr(capsys, *(path if a == "GRAPH" else a for a in argv))
    assert code == 2
    assert f"invalid int value: {bad}" in err and "Traceback" not in err


def test_integer_options_keep_their_signs(capsys, tmp_path):
    path = str(write_family(capsys, tmp_path, "klein"))
    assert run(capsys, "verify", path, "--trials", "3", "--seed", "-1")[0] == 0
    assert run(capsys, "family", "concentric", "--n", "+4") == run(capsys, "family", "concentric", "--n", "4")


def test_family_errors(capsys):
    assert run(capsys, "family", "circulant", "--n", "4", "--steps", "2")[0] == 2
    assert run(capsys, "family", "chain")[0] == 2


@pytest.mark.parametrize(
    "argv,option",
    [
        (("klein", "--n", "5"), "--n"),
        (("intro", "--n", "3"), "--n"),
        (("concentric", "--n", "4", "--steps", "1,2", "--base", "path"), "--steps"),
        (("concentric", "--n", "4", "--base", "path"), "--base"),
        (("chain", "--n", "4", "--steps", "1"), "--steps"),
        (("circulant", "--n", "7", "--steps", "1,2", "--base", "edge"), "--base"),
    ],
)
def test_family_refuses_options_it_does_not_read(capsys, argv, option):
    """An option the family does not read is an error, not ignored."""
    code, out, err = run(capsys, "family", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: family {argv[0]} takes no {option}\n"


def test_family_chain_base_defaults_to_edge(capsys):
    plain = run(capsys, "family", "chain", "--n", "5")
    assert plain[0] == 0
    assert plain == run(capsys, "family", "chain", "--n", "5", "--base", "edge")


def test_family_chain_of_two_edges_names_the_identity(capsys):
    """Two copies of an edge close into a digon, where the second
    copy-reversal is the identity; the error says so."""
    code, out, err = run(capsys, "family", "chain", "--n", "2", "--base", "edge")
    assert (code, out) == (2, "")
    assert err == "error: sigma2 is the identity\n"


def test_family_base_choices_are_the_chain_bases():
    assert CHAIN_BASE_NAMES == tuple(CHAIN_BASES)


def loaded_after_main(fresh_python, *argv):
    """The package's modules in sys.modules after cli.main(argv) runs
    in a fresh interpreter."""
    out = fresh_python(
        "import json, sys\n"
        "from critgroups.cli import main\n"
        f"main({list(argv)!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('critgroups'))))"
    )
    return set(json.loads(out.splitlines()[-1]))


def test_compute_loads_only_what_it_runs(capsys, tmp_path, fresh_python):
    """No decomposition, quotients, oracles or families."""
    path = write_family(capsys, tmp_path, "concentric", "--n", "4")
    loaded = loaded_after_main(fresh_python, "compute", str(path))
    used = {"cli", "jsonio", "actions", "multigraph", "intmatrix", "abelian", "divisors"}
    assert loaded == {"critgroups", *(f"critgroups.{m}" for m in used)}


def test_verify_loads_the_oracles_only_on_request(capsys, tmp_path, fresh_python):
    path = write_family(capsys, tmp_path, "concentric", "--n", "4")
    loaded = loaded_after_main(fresh_python, "verify", str(path), "--trials", "2")
    assert "critgroups.decomposition" in loaded
    assert loaded.isdisjoint({"critgroups.families", "critgroups.oracles"})
    loaded = loaded_after_main(fresh_python, "verify", str(path), "--trials", "2", "--oracle")
    assert "critgroups.oracles" in loaded


def test_graph_json_round_trip():
    g, act = klein_example()
    doc = graph_to_json(g, act)
    g2, act2 = graph_from_json(doc)
    assert g2 == g
    assert act2.sigma1 == act.sigma1 and act2.sigma2 == act.sigma2
    gi, acti = intro_counterexample()
    doc = graph_to_json(gi, acti)
    g3, act3 = graph_from_json(doc)
    assert g3 == gi and act3.n == 3


def test_verify_non_harmonic_exit_5(capsys, tmp_path):
    # star with two leaf swaps: a dihedral action that fixes both ends
    # of an edge without parallel room to act freely
    doc = {
        "vertices": ["c", "l1", "l2", "l3"],
        "edges": [["c", "l1"], ["c", "l2"], ["c", "l3"]],
        "actions": {
            "sigma1": {"c": "c", "l1": "l2", "l2": "l1", "l3": "l3"},
            "sigma2": {"c": "c", "l1": "l1", "l2": "l3", "l3": "l2"},
        },
    }
    path = tmp_path / "star.json"
    path.write_text(json.dumps(doc))
    code, _out, err = run(capsys, "verify", str(path))
    assert code == 5
    assert "harmonic" in err


LOOPED_GRAPHS = {
    "triangle": {
        "vertices": ["v1", "v2", "v3"],
        "edges": [["v1", "v2"], ["v2", "v3"], ["v3", "v1"], ["v1", "v1"], ["v2", "v2"], ["v3", "v3"]],
        "actions": {
            "sigma1": {"v1": "v3", "v2": "v2", "v3": "v1"},
            "sigma2": {"v1": "v2", "v2": "v1", "v3": "v3"},
        },
    },
    "cycle4": {
        "vertices": ["v1", "v2", "v3", "v4"],
        "edges": [["v1", "v2"], ["v2", "v3"], ["v3", "v4"], ["v4", "v1"]]
        + [[v, v] for v in ("v1", "v2", "v3", "v4")],
        "actions": {
            "sigma1": {"v1": "v1", "v2": "v4", "v3": "v3", "v4": "v2"},
            "sigma2": {"v1": "v2", "v2": "v1", "v3": "v4", "v4": "v3"},
        },
    },
}


@pytest.mark.parametrize("name", sorted(LOOPED_GRAPHS))
def test_verify_accepts_loops(capsys, tmp_path, name):
    """Loops are legal input; chip-firing ignores them, so every check
    still passes."""
    path = tmp_path / "looped.json"
    path.write_text(json.dumps(LOOPED_GRAPHS[name]))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    assert "all checks passed" in out


def test_verify_chain_family_cli(capsys, tmp_path):
    path = write_family(capsys, tmp_path, "chain", "--n", "4", "--base", "path")
    code, out, _ = run(capsys, "--format", "json", "verify", str(path), "--trials", "8")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_divisor_json_round_trip():
    from critgroups.jsonio import divisor_from_json, divisor_to_json

    g, _ = klein_example()
    vals = [3, -1, 0, 0, -2, 0]
    doc = divisor_to_json(g, vals)
    assert doc == {"x1": 3, "x2": -1, "b1": -2}
    assert divisor_from_json(g, doc) == vals


def test_report_witnesses_read_back(capsys, tmp_path):
    """The report's witness divisors parse back through divisor_from_json:
    ``witness_generators`` are the context's pullback generators, and each
    of ``witness_pullbacks`` is a pullback through both involutions."""
    from critgroups.jsonio import divisor_from_json, load_graph
    from critgroups.quotients import is_pullback

    path = write_family(capsys, tmp_path, "chain", "--n", "5", "--base", "cycle4")
    code, out, _ = run(capsys, "--format", "json", "verify", str(path), "--trials", "0")
    assert code == 0
    computed = {c["name"]: c["computed"] for c in json.loads(out)["checks"]}
    g, action = load_graph(str(path))
    ctx = DecompositionContext(g, action)
    gens = computed["order_identity"]["witness_generators"]
    assert [tuple(divisor_from_json(g, doc)) for doc in gens] == ctx.all_pullback_generators()
    pulled = [divisor_from_json(g, doc) for doc in computed["pair_exact_sequence"]["witness_pullbacks"]]
    assert len(pulled) == len(ctx.cg_hat.moduli) == 1
    assert all(is_pullback(ctx.q1, d) and is_pullback(ctx.q2, d) for d in pulled)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "-3", None, [1]])
def test_divisor_json_rejects_non_integer_chip_counts(bad):
    """A chip count that is not a JSON integer is an error, never
    rounded, parsed from a string or read from a boolean."""
    from critgroups.jsonio import GraphFormatError, divisor_from_json

    g, _ = klein_example()
    with pytest.raises(GraphFormatError, match="chip count for vertex 'x1' must be an integer"):
        divisor_from_json(g, {"x1": bad})


@pytest.mark.parametrize("label", ["nope", "3", "-1", "01"])
def test_divisor_json_rejects_unknown_vertices(label):
    """On an unlabeled graph the labels are "0".."n-1": a negative or
    out-of-range index, or another spelling of a number, names no vertex."""
    from critgroups.jsonio import GraphFormatError, divisor_from_json
    from critgroups.multigraph import Multigraph

    g = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    assert divisor_from_json(g, {"2": 1, "0": -1}) == [-1, 0, 1]
    with pytest.raises(GraphFormatError, match="unknown vertex"):
        divisor_from_json(g, {label: 1})


@pytest.mark.parametrize(
    "doc,message",
    [
        ({2: 1, 0: -1}, "divisor vertex 2 is not a string"),
        ({2: 1, "2": 5, 0: -6}, "divisor vertex 2 is not a string"),
        ([1], "divisor document must be an object"),
        (None, "divisor document must be an object"),
        ("x1", "divisor document must be an object"),
    ],
)
def test_divisor_json_rejects_non_string_keys_and_non_objects(doc, message):
    """A divisor is a JSON object keyed by vertex label: a number key is
    not read as its decimal spelling (two keys would then name one
    vertex), and a list, null or string is refused, not an AttributeError."""
    from critgroups.jsonio import GraphFormatError, divisor_from_json
    from critgroups.multigraph import Multigraph

    g = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphFormatError, match=message):
        divisor_from_json(g, doc)


def test_verify_rejects_negative_trials(capsys, tmp_path):
    path = write_family(capsys, tmp_path, "klein")
    assert run(capsys, "verify", str(path), "--trials", "-1")[0] == 2
