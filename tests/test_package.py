"""The package's public names: which ones, where they come from, and
that they are resolved lazily, so `import critgroups` loads no module."""

import importlib
import json

import pytest

import critgroups
from critgroups import divisors

EXPORTS = {
    "abelian": ["Cokernel", "FinAbGroup", "GroupHom", "direct_sum", "is_isomorphic", "kernel_of_hom"],
    "actions": [
        "DihedralAction",
        "LabelingImpossibleError",
        "NonHarmonicError",
        "OrbitLabeling",
        "OrbitSizeError",
        "classify_dihedral_orbits",
        "generate_group",
        "orbits",
    ],
    "decomposition": [
        "DecompositionContext",
        "DecompositionReport",
        "laplacian_mod_symmetric_firings",
        "pair_sum_conditions",
        "pullback_conditions",
        "run_all_checks",
        "split_pair_sum",
        "split_triple_sum",
        "triple_sum_conditions",
    ],
    "divisors": ["CriticalGroupData", "critical_group", "is_principal"],
    "intmatrix": ["IntMatrix", "hermite_normal_form", "smith_normal_form"],
    "multigraph": [
        "DisconnectedGraphError",
        "Multigraph",
        "laplacian",
        "reduced_laplacian",
        "spanning_tree_count",
    ],
    "quotients": ["QuotientResult", "is_pullback", "pullback", "quotient_graph"],
}


# The package's modules that an interpreter has loaded.
LOADED = "sorted(m for m in sys.modules if m.startswith('critgroups'))"


def test_export_table():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 38
    assert sorted(names) == sorted(critgroups.__all__)
    listing = dir(critgroups)
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"critgroups.{module}")
        for name in names:
            assert getattr(critgroups, name) is vars(owner)[name], name
            assert name in listing


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "_private", "integer_kernel"):
        with pytest.raises(AttributeError, match=name):
            getattr(critgroups, name)
    assert not hasattr(critgroups, "no_such_module")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from critgroups import *", namespace)
    assert set(critgroups.__all__) <= set(namespace)
    assert namespace["critical_group"] is divisors.critical_group


def test_a_resolved_name_is_not_cached(monkeypatch):
    """Each access reads the defining module, so a wrapper installed
    there is seen through the package and is gone once it is undone."""
    original = divisors.critical_group

    def wrapper(g):
        return original(g)

    monkeypatch.setattr(divisors, "critical_group", wrapper)
    assert critgroups.critical_group is wrapper
    monkeypatch.undo()
    assert critgroups.critical_group is original
    assert "critical_group" not in vars(critgroups)


def test_bare_import_loads_no_submodule(fresh_python):
    out = fresh_python(f"import json, sys, critgroups\nprint(json.dumps({LOADED}))")
    assert json.loads(out) == ["critgroups"]


def test_submodules_resolve_after_a_bare_import(fresh_python):
    out = fresh_python(
        "import json, sys, critgroups\n"
        "assert critgroups.families.CHAIN_BASES\n"
        "assert critgroups.Multigraph is critgroups.multigraph.Multigraph\n"
        f"print(json.dumps({LOADED}))"
    )
    loaded = json.loads(out)
    assert "critgroups.families" in loaded
    assert "critgroups.decomposition" not in loaded


def test_only_the_normal_form_results_are_dataclasses(fresh_python):
    """Decorating a dataclass generates and compiles its methods in every
    child that imports it.  The record types are named tuples or slotted
    classes instead; SnfResult and HnfResult stay dataclasses because
    perfbench's tracer reads their matrices through dataclasses.fields."""
    out = fresh_python(
        "import dataclasses, importlib, json, pkgutil, critgroups\n"
        "names = [m.name for m in pkgutil.iter_modules(critgroups.__path__) if m.name != '__main__']\n"
        "mods = [importlib.import_module(f'critgroups.{m}') for m in names]\n"
        "print(json.dumps(sorted(f'{m.__name__}.{k}' for m in mods for k, v in vars(m).items()\n"
        "    if dataclasses.is_dataclass(v) and v.__module__ == m.__name__)))"
    )
    assert json.loads(out) == ["critgroups.intmatrix.HnfResult", "critgroups.intmatrix.SnfResult"]
