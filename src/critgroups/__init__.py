"""Exact critical groups of finite multigraphs and the decomposition of
graphs with harmonic dihedral symmetry into quotient critical groups.

The public names below resolve on first access (PEP 562), so importing
the package, or one submodule such as ``critgroups.cli``, loads only the
modules that are used.  A resolved name is not stored here: each access
reads the defining module's current binding.
"""

import importlib

_EXPORTS = {
    "abelian": ("Cokernel", "FinAbGroup", "GroupHom", "direct_sum", "is_isomorphic", "kernel_of_hom"),
    "actions": (
        "DihedralAction", "LabelingImpossibleError", "NonHarmonicError", "OrbitLabeling",
        "OrbitSizeError", "classify_dihedral_orbits", "generate_group", "orbits",
    ),
    "decomposition": (
        "DecompositionContext", "DecompositionReport", "laplacian_mod_symmetric_firings",
        "pair_sum_conditions", "pullback_conditions", "run_all_checks", "split_pair_sum",
        "split_triple_sum", "triple_sum_conditions",
    ),
    "divisors": (
        "CriticalGroupData", "critical_group", "is_principal",
    ),
    "intmatrix": ("IntMatrix", "hermite_normal_form", "smith_normal_form"),
    "multigraph": (
        "DisconnectedGraphError", "Multigraph", "laplacian", "reduced_laplacian", "spanning_tree_count",
    ),
    "quotients": ("QuotientResult", "is_pullback", "pullback", "quotient_graph"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if not name.startswith("_"):  # a submodule, e.g. critgroups.families
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
