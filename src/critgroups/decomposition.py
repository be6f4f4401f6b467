"""Decomposition of the critical group of a graph with a harmonic
dihedral action into critical groups of its quotient graphs.

Everything is organized around the canonical orbit labeling.  Divisors
that are sums of pullbacks from the three quotients (by the first
involution, the second, and the rotation subgroup) are recognized by
a split into summands through explicit congruence conditions, which
checks itself and is None for a non-member, and independently
characterized by lattice membership; the structural statements (kernel
of the natural map, quotient of the image, order identities) are each
verified by exact recomputation, never assumed from the predicted
formula.

For even n the two reflection classes are distinct, and a size-n orbit
may be pinned by either one.  The uniform predictions assume every
pinned orbit sits on second-involution axes; orbits pinned the other
way ("flipped") change the congruence conditions and, for n = 2, the
predicted group shapes.  Both variants are implemented; mixed cases
with n >= 4 get exact computations but no closed-form prediction.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import accumulate
from math import prod
from typing import Iterable, NamedTuple, Sequence

from .abelian import (
    Cokernel,
    FinAbGroup,
    GroupHom,
    _presented,
    chain_text,
    direct_sum,
    is_isomorphic,
    kernel_of_hom,
)
from .actions import (
    DihedralAction,
    OrbitLabeling,
    _dihedral_offender,
    _reflect,
    _refuse_offender,
    _strand_pairs,
    classify_dihedral_orbits,
)
from .divisors import CriticalGroupData, critical_group, is_principal
from .intmatrix import IntMatrix, Lattice
from .jsonio import divisor_to_json
from .multigraph import Multigraph, spanning_tree_count
from .quotients import QuotientResult, is_pullback, orbit_quotient, pullback


def _labeled_rows(labeling: OrbitLabeling) -> list[tuple[int, ...]]:
    """Both strands of each free orbit, then each pinned row."""
    rows = [r for orb in labeling.free for r in (orb.xrow, orb.yrow)]
    return rows + [orb.row for orb in labeling.pinned]


def weighted_total(labeling: OrbitLabeling, values: Sequence[int]) -> int:
    """Sum over every labeled row of (1-based index) * value."""
    return sum(i * values[v] for row in _labeled_rows(labeling) for i, v in enumerate(row, 1))


class DecompositionContext:
    """A graph, its dihedral action, labeling, quotients, and groups."""

    def __init__(self, g: Multigraph, action: DihedralAction):
        self.graph = g
        self.action = action
        self.n = action.n
        self.cg = critical_group(g)  # a disconnected graph stops here
        # Harmonicity is decided once, by the cycle rule: a subgroup's pair
        # stabilizers divide the group's, so the four quotients inherit it.
        _refuse_offender(g, _dihedral_offender(g, action))
        self.qhat = orbit_quotient(g, [action.sigma1, action.sigma2], 2 * action.n)
        self.q1 = orbit_quotient(g, [action.sigma1], 2)
        self.q2 = orbit_quotient(g, [action.sigma2], 2)
        self.q3 = orbit_quotient(g, [action.rotation], action.n)
        self.cg_h = tuple(
            critical_group(q.quotient) for q in (self.q1, self.q2, self.q3)
        )
        self.cg_hat = critical_group(self.qhat.quotient)

    @cached_property
    def labeling(self) -> OrbitLabeling:
        """The orbit labeling; its first read raises OrbitSizeError or
        LabelingImpossibleError where there is none."""
        return classify_dihedral_orbits(self.graph, self.action)

    @cached_property
    def _strand_pairs(self) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """``actions._strand_pairs`` of the labeling, built once."""
        return _strand_pairs(self.labeling)

    # -- quotient plumbing ------------------------------------------------

    def quotient(self, i: int) -> QuotientResult:
        """Quotient by the i-th subgroup: 1, 2 are the involutions as
        given, 3 the rotation subgroup."""
        return (self.q1, self.q2, self.q3)[i - 1]

    def _role_of(self, i: int) -> int:
        if i == 3:
            return 3
        return (3 - i) if self.labeling.generators_swapped else i

    @cached_property
    def _pullback_generator_lists(self) -> tuple[list[tuple[int, ...]], ...]:
        """Per quotient, the pullbacks of its single-vertex differences."""
        out = []
        for q in (self.q1, self.q2, self.q3):
            nq = q.quotient.vertex_count
            gens = []
            for v in range(1, nq):
                dhat = [0] * nq
                dhat[v] = 1
                dhat[0] = -1
                gens.append(tuple(pullback(q, dhat)))
            out.append(gens)
        return tuple(out)

    def all_pullback_generators(self) -> list[tuple[int, ...]]:
        return [d for gens in self._pullback_generator_lists for d in gens]

    def pair_pullback_generators(self) -> list[tuple[int, ...]]:
        return [d for gens in self._pullback_generator_lists[:2] for d in gens]

    # -- groups shared by several checks, each computed once ---------------

    @cached_property
    def _pullback_map(self) -> GroupHom:
        """The natural map from the three quotient groups into K(G)."""
        return _pullback_hom(self, zip(self.cg_h, (self.q1, self.q2, self.q3)))[0]

    @cached_property
    def pair_image(self) -> FinAbGroup:
        """Subgroup generated by the two involution pullback images."""
        pair = len(self.cg_h[0].moduli) + len(self.cg_h[1].moduli)
        if pair == self._pullback_map.matrix.cols:
            # Trivial rotation quotient group: the pair columns are all of them.
            return self.pullback_image
        return self.cg.kernel_onto(_image_quotient(self, pair))

    @cached_property
    def pullback_image(self) -> FinAbGroup:
        """Subgroup generated by all three pullback images, the kernel of
        the projection onto ``pullback_quotient``; its generators are
        ``all_pullback_generators()``."""
        return self.cg.kernel_onto(self.pullback_quotient)

    @cached_property
    def pullback_quotient(self) -> Cokernel:
        """The critical group modulo the image of the natural map."""
        return _image_quotient(self, self._pullback_map.matrix.cols)

    @cached_property
    def pullback_kernel(self) -> FinAbGroup:
        """Kernel of the natural map from the three quotient groups."""
        return kernel_of_hom(self._pullback_map)

    @cached_property
    def divisor_quotient(self) -> Cokernel:
        """Degree-zero divisors (root dropped) modulo pullback sums."""
        return Cokernel(triple_sum_matrix(self))

    @cached_property
    def closed_forms(self) -> dict[str, FinAbGroup] | None:
        """The predicted kernel K(Ĝ)², quotient Z/n and divisor quotient
        (Z/n)^(t+1), keyed as the checks report them, each with
        max(s_df - 1, 0) + max(s_fl - 1, 0) more factors Z/2 at even n,
        counting the pinned orbits on the default and the flipped class.
        None for mixed classes with n >= 4: no closed form applies there."""
        lab, n = self.labeling, self.n
        s_fl = lab.flipped_count
        if s_fl and n % 2 == 0 and n >= 4:
            return None
        two = () if n % 2 else (2,) * (max(lab.s - s_fl - 1, 0) + max(s_fl - 1, 0))
        ghat = self.cg_hat.group
        return {
            "kernel": direct_sum(ghat, ghat, FinAbGroup(two)),
            "quotient": FinAbGroup((n,) + two),
            "divisors_mod_pullbacks": FinAbGroup((n,) * (lab.t + 1) + two),
        }


def _image_quotient(ctx: DecompositionContext, cols: int) -> Cokernel:
    """The critical group modulo the image of the first ``cols`` columns
    of the natural map: the cokernel of [diag(d) | those columns]."""
    return _presented(ctx.cg.moduli, [ctx._pullback_map.matrix.col(j) for j in range(cols)])


# ---------------------------------------------------------------------------
# membership by explicit conditions


def pullback_conditions(ctx: DecompositionContext, d: Sequence[int], i: int) -> bool:
    """Is d the pullback of a degree-zero divisor on quotient i?

    Evaluated through the labeling equations, not through the quotient
    itself; the two routes are cross-checked in the tests.  For the
    rotation subgroup d must be constant on every labeled row.  For an
    involution d must agree across each pair its index reflection swaps
    (c = role, read through ``_strand_pairs``) and be even where that
    reflection fixes a vertex of a pinned row, since a fixed vertex has
    horizontal multiplicity 2.
    """
    vals = ctx.cg._degree_zero(d)
    n = ctx.n
    lab = ctx.labeling
    role = ctx._role_of(i)
    if role == 3:
        return all(len({vals[v] for v in row}) == 1 for row in _labeled_rows(lab))
    for a, b, shift in ctx._strand_pairs:
        for k in range(n):
            k2 = _reflect(k, n, role + shift)
            if vals[a[k]] != vals[b[k2]] or (k2 == k and a is b and vals[a[k]] % 2):
                return False
    return True


def _weighted_base(ctx: DecompositionContext, vals: list[int]) -> tuple[int, int]:
    """The index-weighted total less half the flipped-orbit row totals,
    and the sum of the flipped orbits' seed values."""
    total = 0
    seeds = 0
    for orb in ctx.labeling.pinned:
        if orb.flipped:
            total += sum(vals[v] for v in orb.row)
            seeds += vals[orb.row[0]]
    return weighted_total(ctx.labeling, vals) - total // 2, seeds


def _pair_offset(ctx: DecompositionContext, vals: list[int]) -> int | None:
    """The additive constant of the first summand of the split through
    the two involutions, or None when vals is not a sum of their pullbacks."""
    for a, b, _ in ctx._strand_pairs:
        total = sum(vals[v] for v in a)
        if total != sum(vals[v] for v in b) or (a is b and total % 2):
            return None
    base, fl_seeds = _weighted_base(ctx, vals)
    offset, rem = divmod(base, ctx.n)
    return None if rem else offset + fl_seeds


def pair_sum_conditions(ctx: DecompositionContext, d: Sequence[int]) -> bool:
    """Is d a sum of pullbacks from the two involution quotients?

    Conditions: the two strands of every free orbit have equal sums,
    every pinned row has even sum, and the index-weighted total agrees
    mod n with half the flipped-orbit totals.
    """
    return split_pair_sum(ctx, d) is not None


def _triple_feasible(ctx: DecompositionContext, base: int, strand_excess: int) -> int | None:
    """Parity on the flipped pinned orbits of a rotation correction
    making the pair conditions solvable, or None."""
    n = ctx.n
    s_fl = ctx.labeling.flipped_count
    s_df = ctx.labeling.s - s_fl
    for rho_fl in (0, 1) if s_fl else (0,):
        for rho_df in (0, 1) if s_df else (0,):
            if (base + (n // 2) * rho_fl) % n == 0 and (
                rho_fl + rho_df - strand_excess
            ) % 2 == 0:
                return rho_fl
    return None


def _rotation_constants(ctx: DecompositionContext, vals: list[int]) -> list[int] | None:
    """One constant per labeled row, in ``_labeled_rows`` order, of a
    rotation pullback whose removal leaves a sum of the two involution
    pullbacks; None when vals is not a sum of pullbacks from all three
    quotients."""
    n = ctx.n
    lab = ctx.labeling
    p = []
    for orb in lab.free:
        strand, rem = divmod(sum(vals[v] for v in orb.xrow) - sum(vals[v] for v in orb.yrow), n)
        if rem:
            return None
        p.append(strand)
    excess = sum(p)
    if n % 2 == 1:
        if weighted_total(lab, vals) % n != 0:
            return None
    else:
        if any(sum(vals[v] for v in orb.row) % 2 for orb in lab.pinned):
            return None
        rho_fl = _triple_feasible(ctx, _weighted_base(ctx, vals)[0], excess)
        if rho_fl is None:
            return None
    strands = [c for x in p for c in (x, 0)]  # x then y strand of each free orbit
    r = [0] * lab.s
    if lab.s == 0:
        # compensate on the second strand of the first free orbit
        strands[1] = -excess // 2
        strands[0] += strands[1]
    elif n % 2 == 1:
        for j in range(1, lab.s):
            r[j] = sum(vals[v] for v in lab.pinned[j].row) % 2
        r[0] = -excess - sum(r)
    elif 0 < lab.flipped_count < lab.s:  # both kinds of pinned orbit
        flipped = [orb.flipped for orb in lab.pinned]
        r[flipped.index(True)] = rho_fl
        r[flipped.index(False)] = -excess - rho_fl
    else:
        r[0] = -excess  # one kind of pinned orbit: row 0 is its first
    return strands + r


def triple_sum_conditions(ctx: DecompositionContext, d: Sequence[int]) -> bool:
    """Is d a sum of pullbacks from all three quotients?"""
    return split_triple_sum(ctx, d) is not None


# ---------------------------------------------------------------------------
# constructive splits


def _place_rows(ctx: DecompositionContext, rows: list[list[int]]) -> list[int]:
    """Chip counts from one list per labeled row, in ``_labeled_rows``
    order, each value put on its row's vertex."""
    vals = [0] * ctx.graph.vertex_count
    for row, row_vals in zip(_labeled_rows(ctx.labeling), rows, strict=True):
        for v, x in zip(row, row_vals, strict=True):
            vals[v] = x
    return vals


def split_pair_sum(
    ctx: DecompositionContext, d: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Write d as a sum of pullbacks through the two involutions.

    The first summand A, invariant under the first generator's
    reflection, is one running sum on every strand pair (a, b, shift):
    A_i = A_0 + sum_{k=1..i} (d[a_k] - d[b at _reflect(k, n, 2 + shift)]),
    and a free orbit's y strand is A reflected by the first generator.
    A_0 holds the seed's own chips unless the row is flipped; the first
    orbit's also holds the one free constant, which gives the first
    summand degree zero.  Returns None when the membership conditions fail.
    """
    vals = ctx.cg._degree_zero(d)
    offset = _pair_offset(ctx, vals)
    if offset is None:
        return None
    n = ctx.n
    rows = []
    for j, (a, b, shift) in enumerate(ctx._strand_pairs):
        start = 0 if shift else vals[a[0]]
        if j == 0:
            start += offset * (2 if a is b else 1)
        steps = (vals[a[k]] - vals[b[_reflect(k, n, 2 + shift)]] for k in range(1, n))
        rows.append(list(accumulate(steps, initial=start)))
        if a is not b:
            rows.append([rows[-1][_reflect(i, n, 1)] for i in range(n)])
    first = _place_rows(ctx, rows)
    d1 = tuple(first)
    d2 = tuple(v - f for v, f in zip(vals, first))
    if ctx.labeling.generators_swapped:
        d1, d2 = d2, d1
    _check_split(ctx, (d1, d2), vals)
    return d1, d2


def _check_split(ctx, parts, vals):
    if [sum(xs) for xs in zip(*parts)] != vals:
        raise AssertionError("split does not sum back to the divisor")
    for i, part in enumerate(parts, 1):
        if sum(part) != 0:
            raise AssertionError("split component has nonzero degree")
        if not pullback_conditions(ctx, part, i):
            raise AssertionError(f"split component fails membership for quotient {i}")


def split_triple_sum(
    ctx: DecompositionContext, d: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None:
    """Write d as a sum of pullbacks from all three quotients; None if
    it is not one.  A rotation-invariant correction with constant strand
    and row values reduces the problem to the two-involution split.
    """
    vals = ctx.cg._degree_zero(d)
    consts = _rotation_constants(ctx, vals)
    if consts is None:
        return None
    d3 = tuple(_place_rows(ctx, [[c] * ctx.n for c in consts]))
    if sum(d3) != 0 or not pullback_conditions(ctx, d3, 3):
        raise AssertionError("rotation correction is not a rotation pullback")
    pair = split_pair_sum(ctx, [a - b for a, b in zip(vals, d3)])
    if pair is None:
        raise AssertionError("remainder is not a sum of two involution pullbacks")
    return (*pair, d3)


# ---------------------------------------------------------------------------
# lattice-level structure computations


def _dropped_columns(ctx: DecompositionContext, divisors: Sequence[Sequence[int]]) -> IntMatrix:
    return IntMatrix.from_cols([ctx.cg._dropped(d) for d in divisors], ctx.cg.reduced.rows)


def pair_sum_matrix(ctx: DecompositionContext) -> IntMatrix:
    """Generator matrix (root dropped) of the two-pullback lattice."""
    return _dropped_columns(ctx, ctx.pair_pullback_generators())


def triple_sum_matrix(ctx: DecompositionContext) -> IntMatrix:
    """Generator matrix (root dropped) of the full pullback-sum lattice."""
    return _dropped_columns(ctx, ctx.all_pullback_generators())


def laplacian_mod_symmetric_firings(ctx: DecompositionContext) -> FinAbGroup:
    """Firing lattice modulo its symmetry-respecting sublattice.

    The sublattice is L·S, where S is the lattice of symmetric firing
    scripts: fire any single pinned vertex, any strand pair (one vertex
    from each strand of a free orbit), or the whole of either strand of
    a free orbit at once.  The graph is connected, so ker L = Z·1 and
    s -> L·s induces

        L·Z^V / L·S  ≅  Z^V / (S + Z·1),

    the cokernel of the script generators and the all-ones vector; no
    Laplacian solve is needed.  Of the n^2 strand pairs of a free orbit
    the 2n - 1 that meet x_0 or y_0 suffice, since
    e_{x_i} + e_{y_j} = (e_{x_i} + e_{y_0}) + (e_{x_0} + e_{y_j}) - (e_{x_0} + e_{y_0}).
    """
    nv = ctx.graph.vertex_count

    def script(*fired: int) -> list[int]:
        vec = [0] * nv
        for v in fired:
            vec[v] += 1
        return vec

    gens = [[1] * nv]
    for orb in ctx.labeling.pinned:
        gens.extend(script(v) for v in orb.row)
    for orb in ctx.labeling.free:
        xs, ys = orb.xrow, orb.yrow
        gens += [script(*xs), script(*ys)]
        gens.extend(script(xs[0], y) for y in ys)
        gens.extend(script(x, ys[0]) for x in xs[1:])
    return Cokernel(IntMatrix.from_cols(gens, nv)).group


def _pullback_hom(
    ctx: DecompositionContext, groups: Iterable[tuple[CriticalGroupData, QuotientResult]]
) -> tuple[GroupHom, list[list[int]]]:
    """Natural map from the direct sum of the given quotients' critical
    groups into the critical group, on invariant-factor generators,
    with the pulled-back generator divisors."""
    moduli: list[int] = []
    pulled: list[list[int]] = []
    for cgq, q in groups:
        moduli.extend(cgq.moduli)
        pulled += [pullback(q, gen) for gen in cgq.generator_divisors()]
    matrix = IntMatrix.from_cols([ctx.cg.project(vals) for vals in pulled], len(ctx.cg.moduli))
    return GroupHom(tuple(moduli), tuple(ctx.cg.moduli), matrix), pulled


# ---------------------------------------------------------------------------
# structural checks


class CheckResult(NamedTuple):
    """One verified statement: exact computation vs predicted shape."""

    name: str
    passed: bool
    computed: dict
    predicted: dict | None = None
    notes: Sequence[str] = ()

    def to_json(self) -> dict:
        return {**self._asdict(), "notes": list(self.notes)}


def _gshape(g: FinAbGroup) -> list[int]:
    return list(g.factors)


def _verdict(
    ctx: DecompositionContext, ok: bool, key: str, computed: FinAbGroup, notes: list[str]
) -> tuple[bool, dict | None]:
    """Whether a check passes: its exact part came out ``ok`` and, where
    a closed form applies, ``computed`` matches the one under ``key``;
    with that prediction as reported.  Notes which case applied."""
    forms = ctx.closed_forms
    if forms is None:
        notes.append("mixed reflection classes with n >= 4: no closed form")
        return ok, None
    if ctx.labeling.flipped_count:
        notes.append("prediction adjusted for mixed reflection classes")
    return ok and is_isomorphic(computed, forms[key]), {key: _gshape(forms[key])}


def check_pair_exact_sequence(ctx: DecompositionContext) -> CheckResult:
    """The short exact sequence tying the full-quotient critical group
    to the two involution quotients.

    Checks that every generator of the full-quotient critical group
    pulls back to a divisor that is simultaneously a pullback through
    both involutions, that the full-quotient group embeds, and that the
    order identity |H1| * |H2| = |full quotient| * |image sum| holds.
    """
    notes: list[str] = []
    hom, pulled = _pullback_hom(ctx, [(ctx.cg_hat, ctx.qhat)])
    compatible = all(
        is_pullback(ctx.q1, vals) and is_pullback(ctx.q2, vals) for vals in pulled
    )
    injective = kernel_of_hom(hom).is_trivial()
    j12 = ctx.pair_image
    h1 = ctx.cg_h[0].group.order
    h2 = ctx.cg_h[1].group.order
    ghat = ctx.cg_hat.group.order
    order_ok = h1 * h2 == ghat * j12.order
    if not order_ok:
        notes.append(f"{h1}*{h2} != {ghat}*{j12.order}")
    witnesses = [divisor_to_json(ctx.graph, vals) for vals in pulled]
    return CheckResult(
        name="pair_exact_sequence",
        passed=compatible and injective and order_ok,
        computed={
            "pair_image": _gshape(j12),
            "full_quotient_group": _gshape(ctx.cg_hat.group),
            "embeds": injective,
            "generators_compatible": compatible,
            "witness_pullbacks": witnesses,
        },
        predicted={"order_identity": f"{h1}*{h2} == {ghat}*{j12.order}"},
        notes=notes,
    )


def check_kernel_structure(ctx: DecompositionContext) -> CheckResult:
    """Kernel of the natural map from the direct sum of the three
    quotient critical groups into the critical group."""
    notes: list[str] = []
    computed = ctx.pullback_kernel
    j = ctx.pullback_image
    prod_h = prod(cgq.group.order for cgq in ctx.cg_h)
    order_ok = computed.order * j.order == prod_h
    if not order_ok:
        notes.append(f"|kernel|*|image| = {computed.order}*{j.order} != {prod_h}")
    passed, predicted = _verdict(ctx, order_ok, "kernel", computed, notes)
    return CheckResult(
        name="kernel_structure",
        passed=passed,
        computed={"kernel": _gshape(computed), "image_order": j.order},
        predicted=predicted,
        notes=notes,
    )


def check_quotient_structure(ctx: DecompositionContext) -> CheckResult:
    """Critical group modulo the sum of the pullback images, computed
    two ways: directly from augmented relations, and through the
    divisor-class quotient divided by the image of the firing lattice."""
    notes: list[str] = []
    direct = ctx.pullback_quotient.group
    firing = ctx.cg.reduced
    via_dp = ctx.divisor_quotient.quotient_by([firing.col(j) for j in range(firing.cols)]).group
    agree = is_isomorphic(direct, via_dp)
    if not agree:
        notes.append(f"paths disagree: {direct.factors} vs {via_dp.factors}")
    passed, predicted = _verdict(ctx, agree, "quotient", direct, notes)
    return CheckResult(
        name="quotient_structure",
        passed=passed,
        computed={"quotient": _gshape(direct), "via_divisor_classes": _gshape(via_dp)},
        predicted=predicted,
        notes=notes,
    )


def check_divisor_class_quotient(ctx: DecompositionContext) -> CheckResult:
    """Degree-zero divisors modulo pullback sums, against its predicted
    shape, together with the firing-lattice quotient."""
    notes: list[str] = []
    dp = ctx.divisor_quotient.group
    lq = laplacian_mod_symmetric_firings(ctx)
    lq_expected = FinAbGroup((ctx.n,) * ctx.labeling.t)
    lq_ok = is_isomorphic(lq, lq_expected)
    if not lq_ok:
        notes.append(f"firing quotient {lq.factors} != {lq_expected.factors}")
    passed, predicted = _verdict(ctx, lq_ok, "divisors_mod_pullbacks", dp, notes)
    if predicted is not None:
        predicted["firing_lattice_quotient"] = _gshape(lq_expected)
    return CheckResult(
        name="divisor_class_quotient",
        passed=passed,
        computed={
            "divisors_mod_pullbacks": _gshape(dp),
            "firing_lattice_quotient": _gshape(lq),
        },
        predicted=predicted,
        notes=notes,
    )


def check_order_identity(ctx: DecompositionContext) -> CheckResult:
    """Order bookkeeping: the composed identity always, and where a
    closed form applies the product formula its orders give,
    |K(G)| * |K(Ĝ)|^2 = n * |H1| * |H2| * |H3|."""
    notes: list[str] = []
    big = ctx.cg.group.order
    hs = [cgq.group.order for cgq in ctx.cg_h]
    ghat = ctx.cg_hat.group.order
    j = ctx.pullback_image
    q = ctx.pullback_quotient.group
    composed_ok = big == j.order * q.order
    if not composed_ok:
        notes.append(f"|K| != |image|*|quotient|: {big} != {j.order}*{q.order}")
    prod_h = prod(hs)
    literal = ctx.n * prod_h
    forms = ctx.closed_forms
    passed = composed_ok and (
        forms is None or big * forms["kernel"].order == prod_h * forms["quotient"].order
    )
    if ctx.n % 2 == 0:
        op = "==" if big == literal else "!="
        notes.append(f"even order: n*prod = {literal} ({op} |K|); flagged, not asserted")
    elif ghat != 1:
        notes.append(
            "full quotient has nontrivial critical group: product formula "
            "carries a |K(full quotient)|^2 factor"
        )
    return CheckResult(
        name="order_identity",
        passed=passed,
        computed={
            "group_order": big,
            "quotient_orders": hs,
            "full_quotient_order": ghat,
            "image_order": j.order,
            "cokernel_order": q.order,
            "witness_generators": [divisor_to_json(ctx.graph, d) for d in ctx.all_pullback_generators()],
        },
        predicted={"product_formula": literal},
        notes=notes,
    )


def check_tree_case(ctx: DecompositionContext) -> CheckResult:
    """Odd n with a tree full quotient: the three-way direct sum embeds
    (K(Ĝ) is trivial) with cyclic cokernel of order n."""
    if ctx.n % 2 == 0:
        raise ValueError("tree case requires odd n")
    if not ctx.qhat.quotient.is_tree():
        raise ValueError("full quotient is not a tree")
    ker = ctx.pullback_kernel
    quot = ctx.pullback_quotient.group
    forms = ctx.closed_forms
    return CheckResult(
        name="tree_case",
        passed=is_isomorphic(ker, forms["kernel"]) and is_isomorphic(quot, forms["quotient"]),
        computed={"kernel": _gshape(ker), "quotient": _gshape(quot)},
        predicted={key: _gshape(forms[key]) for key in ("kernel", "quotient")},
    )


def check_tree_count_oracle(ctx: DecompositionContext) -> CheckResult:
    """Matrix-tree count against spanning-tree enumeration, on graphs
    small enough to enumerate."""
    from .oracles import OracleRefused, brute_force_spanning_trees

    fast = spanning_tree_count(ctx.graph)
    try:
        brute = brute_force_spanning_trees(ctx.graph)
    except OracleRefused as exc:
        return CheckResult(
            name="tree_count_oracle",
            passed=True,
            computed={"matrix_tree": fast},
            notes=[str(exc)],
        )
    return CheckResult(
        name="tree_count_oracle",
        passed=fast == brute,
        computed={"matrix_tree": fast, "enumeration": brute},
    )


# ---------------------------------------------------------------------------
# randomized sweeps and the report


def random_degree_zero(graph: Multigraph, rng: random.Random, span: int = 6) -> tuple[int, ...]:
    vals = [rng.randint(-span, span) for _ in range(graph.vertex_count)]
    vals[-1] -= sum(vals)
    return tuple(vals)


def membership_sweep(
    ctx: DecompositionContext,
    trials: int,
    seed: int,
    oracle: bool = False,
) -> CheckResult:
    """Randomized consistency sweep over degree-zero divisors.

    Each membership is decided once, by its split, which checks itself.
    With ``oracle`` set, memberships are cross-checked against lattice
    membership in explicit generator matrices, principality (decided by
    projection) against membership in the firing lattice, and the
    per-quotient conditions against the quotient pullback criterion.
    """
    rng = random.Random(seed)
    pair_hits = triple_hits = 0
    mismatches: list[str] = []
    if oracle:
        pair_m, triple_m = pair_sum_matrix(ctx), triple_sum_matrix(ctx)
        pair_lat = Lattice(pair_m)
        triple_lat = pair_lat if triple_m == pair_m else Lattice(triple_m)
        firing_lat = Lattice(ctx.cg.reduced)
    for k in range(trials):
        d = random_degree_zero(ctx.graph, rng)
        in_pair = pair_sum_conditions(ctx, d)
        in_triple = triple_sum_conditions(ctx, d)
        if in_pair and not in_triple:
            mismatches.append(f"trial {k}: pair member outside triple sum")
        pair_hits += in_pair
        triple_hits += in_triple
        if oracle:
            dropped = ctx.cg._dropped(d)
            if is_principal(ctx.cg, d) != firing_lat.contains(dropped):
                mismatches.append(f"trial {k}: principality lattice oracle disagrees")
            if in_pair != pair_lat.contains(dropped):
                mismatches.append(f"trial {k}: pair lattice oracle disagrees")
            if in_triple != triple_lat.contains(dropped):
                mismatches.append(f"trial {k}: triple lattice oracle disagrees")
            for i in (1, 2, 3):
                if pullback_conditions(ctx, d, i) != is_pullback(ctx.quotient(i), d):
                    mismatches.append(f"trial {k}: pullback conditions vs criterion at {i}")
    return CheckResult(
        name="membership_sweep",
        passed=not mismatches,
        computed={
            "trials": trials,
            "pair_members": pair_hits,
            "triple_members": triple_hits,
            "oracle": oracle,
        },
        notes=mismatches[:10],
    )


class DecompositionReport(NamedTuple):
    """Outcome of every structural check on one graph-with-action."""

    graph_name: str
    n: int
    s: int
    t: int
    flipped: int
    generators_swapped: bool
    group: list[int]
    quotient_groups: list[list[int]]
    checks: list[CheckResult]
    seed: int
    trials: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "graph": self.graph_name,
            "n": self.n,
            "orbits": {"pinned": self.s, "free": self.t, "flipped": self.flipped},
            "generators_swapped": self.generators_swapped,
            "critical_group": self.group,
            "quotient_groups": self.quotient_groups,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "checks": [c.to_json() for c in sorted(self.checks, key=lambda c: c.name)],
        }

    def to_text(self) -> str:
        lines = [
            f"graph: {self.graph_name}",
            f"dihedral order 2n = {2 * self.n}; pinned orbits {self.s} "
            f"(flipped {self.flipped}), free orbits {self.t}",
            f"critical group: {chain_text(self.group)}",
            "quotient groups: " + ", ".join(chain_text(f) for f in self.quotient_groups),
            f"sweep seed {self.seed}, trials {self.trials}",
        ]
        for c in sorted(self.checks, key=lambda c: c.name):
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: {c.computed}")
            if c.predicted is not None:
                lines.append(f"         predicted: {c.predicted}")
            for note in c.notes:
                lines.append(f"         note: {note}")
        lines.append("result: " + ("all checks passed" if self.passed else "FAILURES"))
        return "\n".join(lines)


def run_all_checks(
    ctx: DecompositionContext,
    trials: int = 25,
    seed: int = 0,
    oracle: bool = False,
    graph_name: str = "graph",
) -> DecompositionReport:
    checks = [
        check_pair_exact_sequence(ctx),
        check_kernel_structure(ctx),
        check_quotient_structure(ctx),
        check_divisor_class_quotient(ctx),
        check_order_identity(ctx),
    ]
    if ctx.n % 2 == 1 and ctx.qhat.quotient.is_tree():
        checks.append(check_tree_case(ctx))
    if trials > 0:
        checks.append(membership_sweep(ctx, trials, seed, oracle))
    if oracle:
        checks.append(check_tree_count_oracle(ctx))
    return DecompositionReport(
        graph_name=graph_name,
        n=ctx.n,
        s=ctx.labeling.s,
        t=ctx.labeling.t,
        flipped=ctx.labeling.flipped_count,
        generators_swapped=ctx.labeling.generators_swapped,
        group=list(ctx.cg.group.factors),
        quotient_groups=[list(cgq.group.factors) for cgq in ctx.cg_h]
        + [list(ctx.cg_hat.group.factors)],
        checks=checks,
        seed=seed,
        trials=trials,
    )
