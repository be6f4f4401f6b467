"""Exact critical groups of finite multigraphs and the decomposition of
graphs with harmonic dihedral symmetry into quotient critical groups."""

from .abelian import Cokernel, FinAbGroup, GroupHom, direct_sum, is_isomorphic, kernel_of_hom
from .actions import (
    DihedralAction,
    LabelingImpossibleError,
    NonHarmonicError,
    OrbitLabeling,
    OrbitSizeError,
    classify_dihedral_orbits,
    generate_group,
    is_harmonic,
    orbits,
)
from .decomposition import (
    DecompositionContext,
    DecompositionReport,
    laplacian_mod_symmetric_firings,
    pair_sum_conditions,
    pullback_conditions,
    run_all_checks,
    split_pair_sum,
    split_triple_sum,
    triple_sum_conditions,
)
from .divisors import (
    CriticalGroupData,
    Divisor,
    FiringScript,
    apply_firing,
    critical_group,
    is_principal,
)
from .intmatrix import (
    IntMatrix,
    hermite_normal_form,
    smith_normal_form,
)
from .multigraph import (
    DisconnectedGraphError,
    Multigraph,
    laplacian,
    reduced_laplacian,
    spanning_tree_count,
)
from .quotients import QuotientResult, is_pullback, pullback, quotient_graph, tree_reduce
