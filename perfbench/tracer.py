"""Spans and counters around the program's layer boundaries, from outside.

``Tracer.installed()`` replaces each target function with a wrapper at
every place it is bound: the attribute of the module that defines it and
every ``from .x import f`` copy in the other ``critgroups`` modules.
Imports made inside a function body read the defining module's attribute
at call time, so they reach the wrapper too.  Methods and constructors
are patched on their class.

Per function the wrapper records calls, self time (span minus child
spans), total time (outermost spans only, so recursion is not counted
twice), the distinct inputs seen (by hash) and the largest coefficient
bit length.  The stats are kept in memory and read by the caller.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


class Deadline(BaseException):
    """Raised by ``deadline`` when an in-process call runs out of time.

    A BaseException, so that no ``except Exception`` in the program
    swallows it."""

    attributed = False


@contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise Deadline()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _matrix_bits(m) -> int:
    return max((abs(x).bit_length() for row in m.to_rows() for x in row), default=0)


def result_bits(result) -> int:
    """Largest entry, in bits, over the matrices of an SNF or HNF result."""
    return max(_matrix_bits(getattr(result, f.name)) for f in dataclasses.fields(result))


def moduli_bits(moduli) -> int:
    return max((abs(int(m)).bit_length() for m in moduli), default=0)


def _subgroup_key(cg, gens) -> int:
    return hash((cg.reduced, tuple(tuple(d) for d in gens)))


@dataclass(frozen=True)
class Target:
    module: str
    name: str  # function, "Class" (its constructor) or "Class.method"
    key: object = None  # (*args) -> hashable input identity, for distinct_frac
    in_bits: object = None  # (*args) -> bits of the input
    out_bits: object = None  # (result) -> bits of the result


TARGETS = (
    Target("intmatrix", "hermite_normal_form", key=hash, out_bits=result_bits),
    Target("intmatrix", "smith_normal_form", key=hash, out_bits=result_bits),
    Target("intmatrix", "solve_in_column_span"),
    Target("intmatrix", "integer_kernel"),
    Target("intmatrix", "det_bareiss"),
    Target("abelian", "canonical_chain", in_bits=moduli_bits),
    Target("abelian", "Cokernel", key=lambda self, relations: hash(relations)),
    Target("abelian", "Cokernel.project"),
    Target("abelian", "kernel_of_hom"),
    Target("abelian", "lattice_quotient"),
    Target("multigraph", "reduced_laplacian"),
    Target("multigraph", "spanning_tree_count"),
    Target("divisors", "critical_group"),
    Target("divisors", "is_principal"),
    Target("divisors", "subgroup_generated", key=_subgroup_key),
    Target("divisors", "quotient_by_subgroup", key=_subgroup_key),
    Target("actions", "DihedralAction.build"),
    Target("actions", "generate_group"),
    Target("actions", "classify_dihedral_orbits"),
    Target("quotients", "quotient_graph"),
    Target("quotients", "is_pullback"),
    Target("decomposition", "DecompositionContext"),
    Target("decomposition", "laplacian_mod_symmetric_firings"),
    Target("decomposition", "pair_sum_conditions"),
    Target("decomposition", "triple_sum_conditions"),
    Target("decomposition", "split_pair_sum"),
    Target("decomposition", "split_triple_sum"),
    Target("decomposition", "check_pair_exact_sequence"),
    Target("decomposition", "check_kernel_structure"),
    Target("decomposition", "check_quotient_structure"),
    Target("decomposition", "check_divisor_class_quotient"),
    Target("decomposition", "check_order_identity"),
    Target("decomposition", "check_tree_case"),
    Target("decomposition", "membership_sweep"),
    Target("decomposition", "run_all_checks"),
    Target("jsonio", "load_graph"),
    Target("cli", "cmd_compute"),
    Target("cli", "cmd_verify"),
)


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    keys: set = field(default_factory=set)
    max_bits: int = 0
    deadline_hits: int = 0
    active: int = 0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []  # child seconds of each open span

    def reset(self) -> dict[str, Stat]:
        """Return the stats gathered so far and start afresh."""
        out, self.stats = self.stats, {f"{t.module}.{t.name}": Stat() for t in self.targets}
        return out

    def _wrap(self, metric: str, target: Target, fn):
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            try:
                st = self.stats[metric]
                st.calls += 1
                if target.key is not None:
                    st.keys.add(target.key(*args, **kwargs))
                if target.in_bits is not None:
                    st.max_bits = max(st.max_bits, target.in_bits(*args, **kwargs))
                frame = [0.0]
                self._stack.append(frame)
                st.active += 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except Deadline as exc:
                    if not exc.attributed:
                        exc.attributed = True
                        st.deadline_hits += 1
                    raise
                finally:
                    span = perf_counter() - start
                    self._stack.pop()
                    st.active -= 1
                    st.self_s += span - frame[0]
                    if st.active == 0:
                        st.total_s += span
                if target.out_bits is not None:
                    st.max_bits = max(st.max_bits, target.out_bits(result))
                return result
            finally:
                # The parent's child time covers this whole wrapper, so the
                # bookkeeping above lands in no span's self time.
                if self._stack:
                    self._stack[-1][0] += perf_counter() - entered

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding site of every target; undo on exit."""
        import critgroups

        modules = [critgroups] + [
            importlib.import_module(f"critgroups.{info.name}")
            for info in pkgutil.iter_modules(critgroups.__path__)
            if not info.name.startswith("_")
        ]
        self.reset()
        undo = []
        try:
            for t in self.targets:
                holder, attr = _binding(t)
                raw = vars(holder)[attr]
                new = self._wrap(f"{t.module}.{t.name}", t, original_function(t))
                if isinstance(holder, type):
                    setattr(holder, attr, classmethod(new) if isinstance(raw, classmethod) else new)
                    undo.append((holder, attr, raw))
                    continue
                for mod in modules:
                    for name, val in list(vars(mod).items()):
                        if val is raw:
                            setattr(mod, name, new)
                            undo.append((mod, name, raw))
            yield self
        finally:
            for obj, name, val in reversed(undo):
                setattr(obj, name, val)


def _binding(t: Target):
    """(module or class, attribute) where the target is defined."""
    owner = importlib.import_module(f"critgroups.{t.module}")
    cls_name, _, meth = t.name.partition(".")
    if cls_name[0].isupper():
        return getattr(owner, cls_name), meth or "__init__"
    return owner, t.name


def original_function(t: Target):
    """The plain function behind a target, as defined (not as wrapped)."""
    holder, attr = _binding(t)
    raw = vars(holder)[attr]
    return getattr(raw, "__func__", raw)
