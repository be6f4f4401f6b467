"""Workload definitions, input set-up and output checks for the benchmark.

Every workload is a fixed list of graph instances and one CLI command
line.  The workload seed drives the ``verify`` sweep seed and the random
graph; the program only ever sees the generated graph files.

Expected groups come from ``expected_group``: a fraction-free
determinant of the reduced Laplacian, then ``cokernel_chain_mod_det``, an
elimination over Z/DZ; neither shares code with the program's normal
forms.  They are stored in ``goldens.json`` (written by
``make_goldens.py``, which also confirms them with sympy's
``invariant_factors``), except for the seeded random graph, whose group
is computed once per run.  Only the stdlib is needed here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from critgroups.families import chained_copies, circulant, concentric_polygon
from critgroups.jsonio import graph_to_json
from critgroups.multigraph import Multigraph, reduced_laplacian

GOLDENS = Path(__file__).with_name("goldens.json")

BASE_CHECKS = (
    "divisor_class_quotient",
    "kernel_structure",
    "order_identity",
    "pair_exact_sequence",
    "quotient_structure",
)

_CHAIN_BASES = {
    "path": (Multigraph.from_edges(3, [(0, 1), (1, 2)], labels=["a", "m", "b"]), [2, 1, 0], 0, 2),
    "cycle4": (
        Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels=["a", "p", "b", "q"]),
        [2, 3, 0, 1],
        0,
        2,
    ),
}

RANDOM_NAME = "random_multigraph(60)"


def chain(base: str, n: int):
    g, phi, a, b = _CHAIN_BASES[base]
    return chained_copies(g, phi, a, b, n)


def random_multigraph(seed: int, n: int = 60, extra: int = 480) -> Multigraph:
    """Connected multigraph: a random recursive tree plus ``extra`` random
    edges, repeats kept as parallel edges.

    At about 18 edges per vertex the spanning-tree count has some 250
    bits, so the chance that its largest prime factor is small enough for
    trial division to finish in seconds is about 1e-3 (Dickman's rho):
    the graph is the seeded instance of the factoring hang."""
    rng = random.Random(seed)
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    return Multigraph.from_edges(n, edges, labels=[f"r{i}" for i in range(n)])


FAMILIES = {
    **{f"concentric_polygon({n})": (lambda n=n: concentric_polygon(n)) for n in (4, 8, 12, 48, 64)},
    **{f"chained_copies(cycle4,{n})": (lambda n=n: chain("cycle4", n)) for n in (5, 9, 11, 15, 51, 67)},
    "chained_copies(path,15)": lambda: chain("path", 15),
    "circulant(21,[1,2,3])": lambda: circulant(21, [1, 2, 3]),
    "circulant(31,[1,2])": lambda: circulant(31, [1, 2]),
    "circulant(101,[1,2])": lambda: circulant(101, [1, 2]),
    "circulant(128,[1,2])": lambda: circulant(128, [1, 2]),
    "circulant(200,[1,3])": lambda: circulant(200, [1, 3]),
}


@dataclass(frozen=True)
class Workload:
    why: str
    command: tuple[str, ...]  # CLI words after "--format json"; "{seed}" is filled in
    instances: tuple[str, ...]
    top_rung: str
    deadline_s: float


WORKLOADS = {
    "verify-ladder": Workload(
        why="verify on the ROADMAP ladder; dominated by decomposition and intmatrix HNF",
        command=("verify", "--trials", "25", "--seed", "{seed}"),
        instances=(
            "concentric_polygon(4)",
            "concentric_polygon(8)",
            "concentric_polygon(12)",
            "chained_copies(cycle4,5)",
            "chained_copies(cycle4,11)",
            "chained_copies(cycle4,15)",
        ),
        top_rung="concentric_polygon(12)",
        deadline_s=30.0,
    ),
    "compute-ladder": Workload(
        why="one-shot compute: SNF, canonical_chain and Bareiss with no HNF; keeps the two known hangs",
        command=("compute",),
        instances=(
            "concentric_polygon(48)",
            "concentric_polygon(64)",
            "chained_copies(cycle4,51)",
            "chained_copies(cycle4,67)",
            "circulant(128,[1,2])",
            "circulant(200,[1,3])",
            "circulant(101,[1,2])",
            RANDOM_NAME,
        ),
        top_rung="concentric_polygon(64)",
        deadline_s=5.0,
    ),
    "sweep-oracle": Workload(
        why="150 oracle trials against a few fixed matrices: is_principal, lattice_contains, is_pullback",
        command=("verify", "--trials", "150", "--oracle", "--seed", "{seed}"),
        instances=(
            "circulant(21,[1,2,3])",
            "circulant(31,[1,2])",
            "chained_copies(path,15)",
            "chained_copies(cycle4,9)",
            "concentric_polygon(8)",
        ),
        top_rung="chained_copies(path,15)",
        deadline_s=20.0,
    ),
}


def build_graph(name: str, seed: int) -> dict:
    """Graph JSON for one instance; family constructors validate the
    action (automorphisms, group order, harmonicity)."""
    if name == RANDOM_NAME:
        return graph_to_json(random_multigraph(seed))
    return graph_to_json(*FAMILIES[name]())


def set_up(workload: Workload, seed: int, workdir: Path) -> dict[str, dict]:
    """Write every instance's graph file into workdir and load the
    expected values.  Returns {instance: golden} for the fixed instances;
    the random graph's golden is ``expected_group`` of the same graph."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name in workload.instances:
        (workdir / instance_file(name)).write_text(json.dumps(build_graph(name, seed)))
    goldens = json.loads(GOLDENS.read_text())
    return {name: goldens[name] for name in workload.instances if name != RANDOM_NAME}


def instance_file(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name) + ".json"


def cokernel_chain_mod_det(rows: list[list[int]], det: int) -> list[int]:
    """Invariant factors (all >= 2) of Z^n / rows·Z^n for a nonsingular
    square matrix with |determinant| ``det``.

    det·Z^n lies in the column lattice (A·adj A = det·I), so entries may
    be reduced mod det at every step.  Diagonalize with row and column
    operations, then refold the diagonal into a divisor chain by gcd/lcm.
    """
    d = abs(det)
    if d == 1:
        return []

    def red(x: int) -> int:
        x %= d
        return x - d if 2 * x > d else x

    a = [[red(x) for x in row] for row in rows]
    n = len(a)
    diag: list[int] = []
    for k in range(n):
        while True:
            cand = [(abs(a[i][j]), i, j) for i in range(k, n) for j in range(k, n) if a[i][j]]
            if not cand:
                diag += [d] * (n - k)
                return _divisor_chain(diag)
            _, i, j = min(cand)
            a[k], a[i] = a[i], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            p = a[k][k]
            for i in range(k + 1, n):
                q = a[i][k] // p
                if q:
                    a[i] = [red(x - q * y) for x, y in zip(a[i], a[k])]
            for j in range(k + 1, n):
                q = a[k][j] // p
                if q:
                    for row in a:
                        row[j] = red(row[j] - q * row[k])
            if not any(a[i][k] for i in range(k + 1, n)) and not any(a[k][k + 1 :]):
                break
        diag.append(gcd(a[k][k], d))
    return _divisor_chain(diag)


def _divisor_chain(diag: list[int]) -> list[int]:
    vals = sorted(diag)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            g = gcd(vals[i], vals[j])
            vals[i], vals[j] = g, vals[i] // g * vals[j]
    return [x for x in vals if x != 1]


def determinant(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination with row pivoting."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, n):
            q = a[i][k]
            a[i] = [0] * (k + 1) + [(p * a[i][j] - q * a[k][j]) // prev for j in range(k + 1, n)]
        prev = p
    return sign * a[-1][-1] if n else 1


def expected_group(g: Multigraph) -> dict:
    """Invariant factors and order of the critical group of g, computed
    without the program's normal forms: ``determinant`` of the reduced
    Laplacian, then ``cokernel_chain_mod_det``."""
    if g.vertex_count < 2:
        return {"invariant_factors": [], "order": 1}
    rows = reduced_laplacian(g, 0).to_rows()
    det = abs(determinant(rows))
    return {"invariant_factors": cokernel_chain_mod_det(rows, det), "order": det}


def check_output(command: tuple[str, ...], golden: dict, rc: int, stdout: str) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if command[0] == "compute":
        return _check_compute(golden, doc)
    return _check_verify(command, golden, doc)


def _is_chain(factors: list[int]) -> bool:
    return all(x >= 2 for x in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:]))


def _check_compute(golden: dict, doc: dict) -> str | None:
    factors = doc.get("invariant_factors")
    if factors != golden["invariant_factors"]:
        return f"invariant factors {factors} != {golden['invariant_factors']}"
    if not _is_chain(factors):
        return "invariant factors do not form a divisor chain"
    order = 1
    for x in factors:
        order *= x
    if not doc.get("order") == order == golden["order"]:
        return f"order {doc.get('order')} != {golden['order']}"
    if doc.get("spanning_trees") != order:
        return f"spanning trees {doc.get('spanning_trees')} != group order {order}"
    return None


def _check_verify(command: tuple[str, ...], golden: dict, doc: dict) -> str | None:
    if doc.get("passed") is not True:
        return "verify did not pass"
    if doc.get("critical_group") != golden["invariant_factors"]:
        return f"critical group {doc.get('critical_group')} != {golden['invariant_factors']}"
    if doc.get("quotient_groups") != golden["quotient_groups"]:
        return f"quotient groups {doc.get('quotient_groups')} != {golden['quotient_groups']}"
    if not all(_is_chain(f) for f in [doc["critical_group"], *doc["quotient_groups"]]):
        return "a group is not a divisor chain"
    expected = set(BASE_CHECKS) | {"membership_sweep"}
    if golden["tree_case"]:
        expected.add("tree_case")
    if "--oracle" in command:
        expected.add("tree_count_oracle")
    names = {c.get("name") for c in doc.get("checks", [])}
    if names != expected:
        return f"checks {sorted(names)} != expected {sorted(expected)}"
    return None
