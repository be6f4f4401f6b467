"""Write goldens.json: the expected groups of every fixed benchmark instance.

Each group comes from ``workloads.expected_group`` (fraction-free
determinant plus an elimination mod the determinant) and is confirmed
with sympy's ``invariant_factors`` where that finishes within a minute;
the instances so confirmed are listed under "confirmed_by_sympy".  The four quotient
graphs (first involution, second involution, rotation subgroup, whole
group) are built with ``critgroups.quotients.quotient_graph``.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_goldens.py
"""

from __future__ import annotations

import json

from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from critgroups.multigraph import Multigraph, reduced_laplacian
from critgroups.quotients import quotient_graph
from tracer import Deadline, deadline
from workloads import FAMILIES, GOLDENS, WORKLOADS, expected_group

SYMPY_SECONDS = 60


def sympy_confirms(g: Multigraph, factors: list[int]) -> bool:
    """False when sympy runs out of time; raises when it disagrees."""
    try:
        with deadline(SYMPY_SECONDS):
            rows = reduced_laplacian(g, 0).to_rows()
            theirs = [int(x) for x in invariant_factors(Matrix(rows), domain=ZZ) if x != 1]
    except Deadline:
        return False
    if theirs != factors:
        raise AssertionError(f"sympy gives {theirs}, expected_group gives {factors}")
    return True


def golden(name: str) -> tuple[dict, bool]:
    g, action = FAMILIES[name]()
    doc = expected_group(g)
    subgroups = ([action.sigma1], [action.sigma2], action.rotation_subgroup(), action.elements)
    quotients = [quotient_graph(g, gens).quotient for gens in subgroups]
    full = quotients[-1]
    doc["quotient_groups"] = [expected_group(q)["invariant_factors"] for q in quotients]
    doc["tree_case"] = action.n % 2 == 1 and full.is_connected() and len(full.edges) == full.vertex_count - 1
    confirmed = sympy_confirms(g, doc["invariant_factors"]) and all(
        sympy_confirms(q, f) for q, f in zip(quotients, doc["quotient_groups"]) if q.vertex_count > 1
    )
    return doc, confirmed


def main() -> None:
    names = sorted({n for w in WORKLOADS.values() for n in w.instances if n in FAMILIES})
    out: dict = {"confirmed_by_sympy": []}
    for name in names:
        out[name], confirmed = golden(name)
        if confirmed:
            out["confirmed_by_sympy"].append(name)
        print(name, "confirmed by sympy" if confirmed else "sympy timed out", flush=True)
    GOLDENS.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
