"""Record the critgroups CLI on a fixed run set, one file per run.

    python3 tools/cli_snapshot.py OUTDIR

Runs ``python -m critgroups`` from the ``src/`` next to this script, one
child at a time.  Each run's command line, exit code, stdout and stderr
go to ``OUTDIR/<command>.txt``.  The graph files are made by the same
checkout's ``critgroups family`` (plus a few written here) in
``OUTDIR/graphs``, and the children run there on relative file names, so
no report carries an absolute path.  Two checkouts compare with

    python3 A/tools/cli_snapshot.py /tmp/a
    python3 B/tools/cli_snapshot.py /tmp/b
    diff -r /tmp/a /tmp/b

The run set (107 runs):
  * ``--format json compute`` on the 20 family graphs and the two
    looped graphs (a triangle and a 4-cycle with one loop per vertex);
  * three verify runs on the 10 verify-ladder / sweep-oracle instances
    of ``perfbench``, on ``klein``, ``circulant(7,[1,2])`` and ``intro``
    (exit 4), on ``chained_copies(path,4)`` (the only family whose
    reflection classes are mixed at n >= 4, so its reports have no
    closed form), on the two looped graphs, and on the 8- and 10-cycle
    with edge-midpoint reflections (no pinned orbit): ``--format json verify
    --trials 25 --seed 7``, ``--format json verify --trials 150 --seed 7
    --oracle`` and text ``verify --trials 0 --oracle``;
  * ``--format json verify --trials 25 --seed 7`` on the top of the
    ladder, ``concentric_polygon(48)``, ``chained_copies(cycle4,51)``,
    ``circulant(200,[1,3])``, ``concentric_polygon(64)`` and
    ``chained_copies(cycle4,67)`` (3, 52, 5, 3 and 68 invariant
    factors), so that the transforms of the largest Smith forms reach
    the reports;
  * ``--format json compute`` and text ``compute`` on the empty and the
    one-vertex graph;
  * ``--format json verify`` on four rejected inputs: the 3-leaf star
    c-x, c-y, c-z under (x y) and (y z), not harmonic (exit 5), the
    path a-m-b under (a m) and (a b), where (a m) is no automorphism
    (exit 2), the two triangles a-b-c and d-e-f under
    (a d)(b e)(c f) and (a d)(b f)(c e), disconnected and with no orbit
    labeling (exit 3), and three chained copies of the path a-m-b with
    a pendant m-c under phi = (a b), not harmonic at the edge m@0-c@0
    (exit 5);
  * ``--format json compute`` on three documents with a key the format
    does not define, each a parse error (exit 2): the triangle with
    ``edge`` for ``edges``, the path a-m-b with ``action`` for
    ``actions`` (its (a m) is no automorphism), and the triangle with a
    ``sigma3`` table beside ``sigma1`` and ``sigma2``;
  * ``--format json compute`` on two texts the JSON decoder reads but
    the format refuses (exit 2): the path a-b-c whose ``edges`` key is
    given again with the single edge a-b (read by its last value, it
    would be disconnected), and 200 000 nested lists (past the
    decoder's recursion limit);
  * ``--format json verify`` and text ``verify`` on K_{2,6} with hubs
    x1, x2 and rim a1, a2, b1, b2, c1, c2 under (x1 x2)(c1 c2) and
    (a1 b1)(a2 b2)(c1 c2), whose orbit {c1, c2} is stabilized by the
    rotation only, so it has no orbit labeling (exit 4);
  * ``--format json verify --trials 25 --seed 7`` on the hub chain of
    three copies (a 4-cycle with a hub), a known failing instance of the
    kernel and quotient predictions (exit 1);
  * ``critgroups --help`` and ``compute``/``verify``/``family --help``;
  * three ``family`` runs given an option that family does not read,
    each refused (exit 2): ``klein --n 5``, ``concentric --n 4 --steps
    1,2 --base path`` and ``circulant --n 7 --steps 1,2 --base edge``;
  * three runs whose integers are not ASCII decimals, each refused
    (exit 2) where ``int()`` would read them: ``family concentric --n
    ٤`` (Arabic-Indic four), ``family circulant --n 1_1 --steps " 1,
    0_2"`` and ``verify --trials ١٠ --seed ٣`` on ``klein``.

Each branch of ``DecompositionContext.closed_forms`` reaches a report:
odd n with trivial K(Ĝ) on ``circulant(7,[1,2])``, odd n with
K(Ĝ) = Z/2 on ``hub_chain(3)``, no pinned orbit on
``edge_reflected_cycle8`` and ``10``, even n with every pinned orbit
on the default class on ``concentric_polygon(4)``, ``(8)`` and
``(12)``, n = 2 with mixed classes on ``klein``, and mixed classes at
n >= 4 (no closed form) on ``chained_copies(path,4)``.

Stdlib only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FAMILIES = {
    **{f"concentric_polygon({n})": ("concentric", "--n", str(n)) for n in (4, 8, 12, 48, 64)},
    **{
        f"chained_copies(cycle4,{n})": ("chain", "--n", str(n), "--base", "cycle4")
        for n in (5, 9, 11, 15, 51, 67)
    },
    "chained_copies(path,15)": ("chain", "--n", "15", "--base", "path"),
    "chained_copies(path,4)": ("chain", "--n", "4", "--base", "path"),
    "circulant(21,[1,2,3])": ("circulant", "--n", "21", "--steps", "1,2,3"),
    "circulant(31,[1,2])": ("circulant", "--n", "31", "--steps", "1,2"),
    "circulant(128,[1,2])": ("circulant", "--n", "128", "--steps", "1,2"),
    "circulant(200,[1,3])": ("circulant", "--n", "200", "--steps", "1,3"),
    "circulant(7,[1,2])": ("circulant", "--n", "7", "--steps", "1,2"),
    "klein": ("klein",),
    "intro": ("intro",),
}

VERIFIED = (
    "concentric_polygon(4)",
    "concentric_polygon(8)",
    "concentric_polygon(12)",
    "chained_copies(cycle4,5)",
    "chained_copies(cycle4,11)",
    "chained_copies(cycle4,15)",
    "chained_copies(cycle4,9)",
    "chained_copies(path,15)",
    "circulant(21,[1,2,3])",
    "circulant(31,[1,2])",
    "klein",
    "circulant(7,[1,2])",
    "intro",
    "chained_copies(path,4)",
    "looped_triangle",
    "looped_cycle4",
    "edge_reflected_cycle8",
    "edge_reflected_cycle10",
)

VERIFIED_TOP = (
    "concentric_polygon(48)",
    "chained_copies(cycle4,51)",
    "circulant(200,[1,3])",
    "concentric_polygon(64)",
    "chained_copies(cycle4,67)",
)


def _looped(labels: list[str], cycle: list[tuple[str, str]], sigma1: dict, sigma2: dict) -> dict:
    return {
        "vertices": labels,
        "edges": [list(e) for e in cycle] + [[v, v] for v in labels],
        "actions": {"sigma1": sigma1, "sigma2": sigma2},
    }


def _edge_reflected_cycle(n: int) -> dict:
    """The 2n-cycle c0..c(2n-1) with the reflections i -> -1-i and
    i -> 1-i, which fix no vertex: one free orbit, no pinned orbit."""
    m = 2 * n
    labels = [f"c{i}" for i in range(m)]
    return {
        "vertices": labels,
        "edges": [[labels[i], labels[(i + 1) % m]] for i in range(m)],
        "actions": {
            "sigma1": {labels[i]: labels[(-1 - i) % m] for i in range(m)},
            "sigma2": {labels[i]: labels[(1 - i) % m] for i in range(m)},
        },
    }


def _hub_chain(n: int) -> dict:
    """n copies of the 4-cycle a-p-b-q plus a hub c joined to p and q,
    each copy's b glued to the next copy's a, under the copy reversals
    (v, i) -> (phi(v), -i) and (v, i) -> (phi(v), 1 - i) with
    phi = (a b)(p q): the graph that ``critgroups family chain`` would
    make from that base.  At n = 3 the kernel and quotient predictions
    fail, so verify exits 1."""
    edges = []
    for i in range(n):
        a, nxt = f"a@{i}", f"a@{(i + 1) % n}"
        for x in (f"p@{i}", f"q@{i}"):
            edges += [[a, x], [x, nxt], [x, f"c@{i}"]]

    def reversal(shift: int) -> dict:
        image = {}
        for i in range(n):
            j = (shift - i) % n
            image |= {f"a@{i}": f"a@{(j + 1) % n}", f"p@{i}": f"q@{j}", f"q@{i}": f"p@{j}", f"c@{i}": f"c@{j}"}
        return image

    return {
        "vertices": [f"{v}@{i}" for i in range(n) for v in "apqc"],
        "edges": edges,
        "actions": {"sigma1": reversal(0), "sigma2": reversal(1)},
    }


def _pendant_path_chain(n: int) -> dict:
    """n copies of the path a-m-b with a pendant m-c, each copy's b glued
    to the next copy's a, under the copy reversals (v, i) -> (phi(v), -i)
    and (v, i) -> (phi(v), 1 - i) with phi = (a b): the graph that
    ``chained_copies`` would make from that base, but refuses.  The
    reflection fixing copy 0 fixes the simple edge m@0-c@0, so verify
    exits 5."""
    edges = []
    for i in range(n):
        edges += [[f"a@{i}", f"m@{i}"], [f"m@{i}", f"a@{(i + 1) % n}"], [f"m@{i}", f"c@{i}"]]

    def reversal(shift: int) -> dict:
        image = {}
        for i in range(n):
            j = (shift - i) % n
            image |= {f"a@{i}": f"a@{(j + 1) % n}", f"m@{i}": f"m@{j}", f"c@{i}": f"c@{j}"}
        return image

    return {
        "vertices": [f"{v}@{i}" for i in range(n) for v in "amc"],
        "edges": edges,
        "actions": {"sigma1": reversal(0), "sigma2": reversal(1)},
    }


WRITTEN = {
    "empty": {"vertices": [], "edges": []},
    "one_vertex": {"vertices": ["a"], "edges": []},
    # one loop at every vertex; chip-firing ignores loops
    "looped_triangle": _looped(
        ["v1", "v2", "v3"],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v1")],
        {"v1": "v3", "v2": "v2", "v3": "v1"},
        {"v1": "v2", "v2": "v1", "v3": "v3"},
    ),
    "looped_cycle4": _looped(
        ["v1", "v2", "v3", "v4"],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v1")],
        {"v1": "v1", "v2": "v4", "v3": "v3", "v4": "v2"},
        {"v1": "v2", "v2": "v1", "v3": "v4", "v4": "v3"},
    ),
    "edge_reflected_cycle8": _edge_reflected_cycle(4),
    "edge_reflected_cycle10": _edge_reflected_cycle(5),
    "hub_chain(3)": _hub_chain(3),
    "pendant_path_chain(3)": _pendant_path_chain(3),
    "star_nonharmonic": {
        "vertices": ["c", "x", "y", "z"],
        "edges": [["c", "x"], ["c", "y"], ["c", "z"]],
        "actions": {
            "sigma1": {"c": "c", "x": "y", "y": "x", "z": "z"},
            "sigma2": {"c": "c", "x": "x", "y": "z", "z": "y"},
        },
    },
    "path_not_automorphism": {
        "vertices": ["a", "m", "b"],
        "edges": [["a", "m"], ["m", "b"]],
        "actions": {
            "sigma1": {"a": "m", "m": "a", "b": "b"},
            "sigma2": {"a": "b", "m": "m", "b": "a"},
        },
    },
    "two_triangles": {
        "vertices": ["a", "b", "c", "d", "e", "f"],
        "edges": [["a", "b"], ["b", "c"], ["c", "a"], ["d", "e"], ["e", "f"], ["f", "d"]],
        "actions": {
            "sigma1": {"a": "d", "b": "e", "c": "f", "d": "a", "e": "b", "f": "c"},
            "sigma2": {"a": "d", "b": "f", "c": "e", "d": "a", "e": "c", "f": "b"},
        },
    },
    "rotation_stabilized_pair": {
        "vertices": ["x1", "x2", "a1", "a2", "b1", "b2", "c1", "c2"],
        "edges": [[x, r] for x in ("x1", "x2") for r in ("a1", "a2", "b1", "b2", "c1", "c2")],
        "actions": {
            "sigma1": {"x1": "x2", "x2": "x1", "c1": "c2", "c2": "c1", "a1": "a1", "a2": "a2", "b1": "b1", "b2": "b2"},
            "sigma2": {"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2", "c1": "c2", "c2": "c1", "x1": "x1", "x2": "x2"},
        },
    },
}

REJECTED = ("star_nonharmonic", "path_not_automorphism", "two_triangles", "pendant_path_chain(3)")

_TRIANGLE = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}
_TRIANGLE_FLIPS = {"sigma1": {"a": "a", "b": "c", "c": "b"}, "sigma2": {"a": "b", "b": "a", "c": "c"}}
UNKNOWN_KEY = {
    "edge": {"vertices": _TRIANGLE["vertices"], "edge": _TRIANGLE["edges"]},
    "action": {
        "vertices": ["a", "m", "b"],
        "edges": [["a", "m"], ["m", "b"]],
        "action": WRITTEN["path_not_automorphism"]["actions"],
    },
    "sigma3": {**_TRIANGLE, "actions": {**_TRIANGLE_FLIPS, "sigma3": _TRIANGLE_FLIPS["sigma1"]}},
}

# Written as text: a dict cannot repeat a key, and json.dumps cannot
# write lists nested this deep.
REFUSED_TEXT = {
    "edges_repeated": '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], "edges": [["a", "b"]]}',
    "nested_too_deep": "[" * 200_000 + "]" * 200_000,
}


def file_name(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name) + ".json"


def run_set() -> list[tuple[str, ...]]:
    runs: list[tuple[str, ...]] = []
    for name in [*FAMILIES, "looped_triangle", "looped_cycle4"]:
        runs.append(("--format", "json", "compute", file_name(name)))
    for name in VERIFIED:
        f = file_name(name)
        runs.append(("--format", "json", "verify", f, "--trials", "25", "--seed", "7"))
        runs.append(("--format", "json", "verify", f, "--trials", "150", "--seed", "7", "--oracle"))
        runs.append(("verify", f, "--trials", "0", "--oracle"))
    for name in VERIFIED_TOP:
        f = file_name(name)
        runs.append(("--format", "json", "verify", f, "--trials", "25", "--seed", "7"))
    for name in ("empty", "one_vertex"):
        runs.append(("--format", "json", "compute", file_name(name)))
        runs.append(("compute", file_name(name)))
    for name in REJECTED:
        runs.append(("--format", "json", "verify", file_name(name)))
    for name in [*UNKNOWN_KEY, *REFUSED_TEXT]:
        runs.append(("--format", "json", "compute", file_name(name)))
    f = file_name("rotation_stabilized_pair")
    runs += [("--format", "json", "verify", f), ("verify", f)]
    runs.append(("--format", "json", "verify", file_name("hub_chain(3)"), "--trials", "25", "--seed", "7"))
    runs += [("--help",), ("compute", "--help"), ("verify", "--help"), ("family", "--help")]
    runs += [
        ("family", "klein", "--n", "5"),
        ("family", "concentric", "--n", "4", "--steps", "1,2", "--base", "path"),
        ("family", "circulant", "--n", "7", "--steps", "1,2", "--base", "edge"),
    ]
    runs += [
        ("family", "concentric", "--n", "٤"),
        ("family", "circulant", "--n", "1_1", "--steps", " 1, 0_2"),
        ("verify", file_name("klein"), "--trials", "١٠", "--seed", "٣"),
    ]
    return runs


def critgroups(args: tuple[str, ...], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "critgroups", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    graphs = out / "graphs"
    graphs.mkdir(parents=True, exist_ok=True)
    for name, family_args in FAMILIES.items():
        made = critgroups(("family", *family_args), graphs)
        if made.returncode != 0:
            print(f"family {name} failed: {made.stderr}", file=sys.stderr)
            return 1
        (graphs / file_name(name)).write_text(made.stdout)
    for name, doc in {**WRITTEN, **UNKNOWN_KEY}.items():
        (graphs / file_name(name)).write_text(json.dumps(doc))
    for name, text in REFUSED_TEXT.items():
        (graphs / file_name(name)).write_text(text)
    runs = run_set()
    for args in runs:
        done = critgroups(args, graphs)
        slug = "".join(c if c.isalnum() else "_" for c in "_".join(a.lstrip("-") for a in args))
        (out / f"{slug}.txt").write_text(
            f"$ critgroups {' '.join(args)}\nexit: {done.returncode}\n"
            f"--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        )
    print(f"{len(runs)} runs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
