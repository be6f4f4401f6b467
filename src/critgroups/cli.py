"""Command-line front end.

    critgroups compute <file>                   invariant factors, order, trees
    critgroups verify <file> [--trials N] [--seed S] [--oracle]
    critgroups family <name> [--n N] [--steps a,b] [--base edge|path|cycle4]

Global --format text|json.  Exit codes: 0 success (and, for verify, all
checks passed), 1 verification failure, 2 parse or parameter error,
3 disconnected graph file, 4 orbit/labeling error, 5 non-harmonic action.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys

from .actions import (
    LabelingImpossibleError,
    NonHarmonicError,
    OrbitSizeError,
)
from .divisors import critical_group
from .jsonio import GraphFormatError, graph_to_json, load_graph
from .multigraph import DisconnectedGraphError, spanning_tree_count

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_LABELING = 4
EXIT_NONHARMONIC = 5

# The keys of families.CHAIN_BASES, written out so that parsing loads no
# family code; tests/test_cli.py checks that they agree.
CHAIN_BASE_NAMES = ("edge", "path", "cycle4")

# The options each family reads; ``family`` refuses any other, and needs
# each one but ``base`` (an empty --steps is a missing one).
FAMILY_OPTIONS = {
    "circulant": ("n", "steps"),
    "concentric": ("n",),
    "klein": (),
    "intro": (),
    "chain": ("n", "base"),
}


def _int(text: str) -> int:
    """An ASCII ``[+-]?[0-9]+``: ``int()`` also reads other scripts' digits, ``_`` and spaces."""
    if not re.fullmatch("[+-]?[0-9]+", text):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse's error names the type: "invalid int value: ..."


def _emit(fmt: str, to_json, to_text) -> None:
    """Print ``to_json()`` as JSON or ``to_text()``: only the chosen
    format is rendered."""
    if fmt == "json":
        print(json.dumps(to_json(), indent=2, sort_keys=True))
    else:
        print(to_text())


def cmd_compute(args) -> int:
    try:
        g, _action = load_graph(args.file)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        cg = critical_group(g)
        # The matrix-tree route to ``order``: Bareiss shares no code with
        # the Smith form, and the benchmark's output check compares the two.
        trees = spanning_tree_count(g)
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    doc = {
        "invariant_factors": list(cg.group.factors),
        "order": cg.group.order,
        "spanning_trees": trees,
    }
    text = (
        f"critical group: {cg.group}\n"
        f"order: {cg.group.order}\n"
        f"spanning trees: {trees}"
    )
    _emit(args.format, lambda: doc, lambda: text)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .decomposition import DecompositionContext, run_all_checks

    try:
        g, action = load_graph(args.file)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if action is None:
        print("error: graph file carries no 'actions' block", file=sys.stderr)
        return EXIT_PARSE
    if args.trials < 0:
        print("error: --trials must be nonnegative", file=sys.stderr)
        return EXIT_PARSE
    try:
        ctx = DecompositionContext(g, action)
        ctx.labeling  # read here, so that a labeling error is caught
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (OrbitSizeError, LabelingImpossibleError) as exc:
        _report_labeling_failure(ctx, exc, args.format)
        return EXIT_LABELING
    except NonHarmonicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONHARMONIC
    report = run_all_checks(
        ctx,
        trials=args.trials,
        seed=args.seed,
        oracle=args.oracle,
        graph_name=args.file,
    )
    _emit(args.format, report.to_json, report.to_text)
    return EXIT_OK if report.passed else EXIT_FAIL


def _report_labeling_failure(ctx, exc, fmt) -> None:
    """Labeling rejections still carry a direct-computation certificate,
    read off the context's groups: the product of the quotient group
    orders against the group order."""
    cg = ctx.cg
    orders = [cgq.group.order for cgq in ctx.cg_h]
    prod = orders[0] * orders[1] * orders[2]
    divides = cg.group.order % prod == 0
    doc = {
        "error": str(exc),
        "quotient_order_product": prod,
        "group_order": cg.group.order,
        "product_divides_group_order": divides,
    }
    text = (
        f"labeling error: {exc}\n"
        f"quotient group orders {orders} multiply to {prod}; "
        f"critical group has order {cg.group.order}; "
        + (
            "the product divides it"
            if divides
            else "the product does not divide it, so the direct sum cannot embed"
        )
    )
    _emit(fmt, lambda: doc, lambda: text)


def cmd_family(args) -> int:
    for opt in ("n", "steps", "base"):
        if getattr(args, opt) is not None and opt not in FAMILY_OPTIONS[args.name]:
            print(f"error: family {args.name} takes no --{opt}", file=sys.stderr)
            return EXIT_PARSE
    needs = [opt for opt in FAMILY_OPTIONS[args.name] if opt != "base"]
    if any(getattr(args, opt) in (None, "") for opt in needs):
        print(f"error: {args.name} needs " + " and ".join(f"--{opt}" for opt in needs), file=sys.stderr)
        return EXIT_PARSE
    from . import families

    try:
        if args.name == "circulant":
            g, action = families.circulant(args.n, [_int(x) for x in args.steps.split(",")])
        elif args.name == "concentric":
            g, action = families.concentric_polygon(args.n)
        elif args.name == "klein":
            g, action = families.klein_example()
        elif args.name == "intro":
            g, action = families.intro_counterexample()
        else:  # chain
            base, phi, a, b = families.CHAIN_BASES[args.base or "edge"]
            g, action = families.chained_copies(base, phi, a, b, args.n)
    except NonHarmonicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONHARMONIC
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(json.dumps(graph_to_json(g, action), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critgroups",
        description="Exact critical groups of multigraphs and their "
        "dihedral-symmetry decompositions.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="critical group of a graph file")
    p_compute.add_argument("file")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser(
        "verify", help="run all decomposition checks on a graph with actions"
    )
    p_verify.add_argument("file")
    p_verify.add_argument("--trials", type=_int, default=25)
    p_verify.add_argument("--seed", type=_int, default=0)
    p_verify.add_argument(
        "--oracle",
        action="store_true",
        help="enable brute-force lattice cross-checks (small graphs only)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_family = sub.add_parser("family", help="emit a named family as graph JSON")
    p_family.add_argument("name", choices=tuple(FAMILY_OPTIONS))
    p_family.add_argument("--n", type=_int)
    p_family.add_argument("--steps", help="comma-separated circulant steps")
    p_family.add_argument("--base", choices=CHAIN_BASE_NAMES, help="chain base graph")
    p_family.set_defaults(func=cmd_family)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run() -> int:
    """The process entry point: ``main()``, then ``gc.freeze()`` (also on
    argparse's ``SystemExit``), so the full collections at exit skip
    every object.  In-process callers use ``main``, which leaves their
    collector as it was."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
