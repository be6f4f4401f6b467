"""JSON interchange for graphs, actions, and divisors.

Graph files look like

    {"vertices": ["a", "b", ...],
     "edges": [["a", "b"], ["a", "b"], ...],
     "actions": {"sigma1": {"a": "b", ...}, "sigma2": {...}}}

Repeated pairs encode parallel edges and ["a", "a"] encodes a loop; the
"actions" block is optional and maps vertex labels to vertex labels.
Labels, edge endpoints and action images must be JSON strings.  No other
key is read, so none is accepted: a misspelt "edge" or "action" is an
error, not an empty edge list or a missing action.  Nor is a key given
twice in one object, which would be read as its last value, or a
document nested past the decoder's recursion limit.  A divisor document
maps vertex labels to integer chip counts, {"a": 2, "b": -2}; a vertex
left out holds no chips.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from .actions import DihedralAction
from .multigraph import Multigraph


class GraphFormatError(ValueError):
    pass


def graph_to_json(g: Multigraph, action: DihedralAction | None = None) -> dict:
    labels = [g.label(v) for v in range(g.vertex_count)]
    doc: dict[str, Any] = {"vertices": labels, "edges": [[labels[u], labels[v]] for u, v in g.edges]}
    if action is not None:
        doc["actions"] = {
            "sigma1": {labels[v]: labels[w] for v, w in enumerate(action.sigma1)},
            "sigma2": {labels[v]: labels[w] for v, w in enumerate(action.sigma2)},
        }
    return doc


def graph_from_json(doc: dict) -> tuple[Multigraph, DihedralAction | None]:
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be an object")
    for key in doc:
        if key not in ("vertices", "edges", "actions"):
            raise GraphFormatError(f"unknown key {key!r} in graph document")
    vertices = doc.get("vertices")
    if not isinstance(vertices, (list, tuple)):
        raise GraphFormatError("'vertices' must be a list of labels")
    labels = list(vertices)
    _require_labels(labels, "vertex label")
    if len(set(labels)) != len(labels):
        raise GraphFormatError("duplicate vertex labels")
    index = {lbl: i for i, lbl in enumerate(labels)}
    pairs = doc.get("edges")
    if not isinstance(pairs, (list, tuple)):
        raise GraphFormatError("'edges' must be a list of vertex pairs")
    edges = []
    for e in pairs:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphFormatError(f"malformed edge {e!r}")
        _require_labels(e, "edge endpoint")
        try:
            edges.append((index[e[0]], index[e[1]]))
        except KeyError as exc:
            raise GraphFormatError(f"edge {e!r} references unknown vertex") from exc
    g = Multigraph.from_edges(len(labels), edges, labels=labels)

    action = None
    if "actions" in doc:
        acts = doc["actions"]
        if not isinstance(acts, dict) or set(acts) != {"sigma1", "sigma2"}:
            raise GraphFormatError("'actions' needs exactly the keys 'sigma1' and 'sigma2'")
        perms = []
        for key in ("sigma1", "sigma2"):
            table = acts[key]
            if not isinstance(table, dict):
                raise GraphFormatError(f"'{key}' must be an object mapping labels")
            if set(table) != set(labels):
                raise GraphFormatError(f"'{key}' must map every vertex label")
            _require_labels(table.values(), f"'{key}' image")
            try:
                perms.append([index[table[lbl]] for lbl in labels])
            except KeyError as exc:
                raise GraphFormatError(f"'{key}' maps to unknown vertex") from exc
        try:
            action = DihedralAction.build(g, perms[0], perms[1])
        except ValueError as exc:
            raise GraphFormatError(f"invalid action: {exc}") from exc
    return g, action


def _require_labels(values, what: str) -> None:
    """Labels are JSON strings; a number or null is not turned into one."""
    for x in values:
        if not isinstance(x, str):
            raise GraphFormatError(f"{what} {x!r} is not a string")


def _object_once_per_key(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, refusing a key that it gives twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise GraphFormatError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def load_graph(path: str) -> tuple[Multigraph, DihedralAction | None]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_object_once_per_key)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise GraphFormatError(f"JSON nested too deeply: {exc}") from exc
    return graph_from_json(doc)


def divisor_to_json(g: Multigraph, vals: Sequence[int]) -> dict:
    """Chip counts by vertex label, zero counts left out."""
    return {g.label(v): x for v, x in enumerate(vals) if x}


def divisor_from_json(g: Multigraph, doc: dict) -> list[int]:
    """Chip counts by vertex label; each count must be a JSON integer."""
    if not isinstance(doc, dict):
        raise GraphFormatError("divisor document must be an object")
    _require_labels(doc, "divisor vertex")
    index = {g.label(v): v for v in range(g.vertex_count)}
    vals = [0] * g.vertex_count
    for lbl, x in doc.items():
        if lbl not in index:
            raise GraphFormatError(f"divisor names unknown vertex {lbl!r}")
        # bool is an int subclass, but true is not a chip count.
        if not isinstance(x, int) or isinstance(x, bool):
            raise GraphFormatError(f"chip count for vertex {lbl!r} must be an integer, got {x!r}")
        vals[index[lbl]] = x
    return vals
