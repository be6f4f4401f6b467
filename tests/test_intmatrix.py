"""Exact linear algebra: normal forms against their defining invariants
and against brute-force oracles on small inputs."""

import random
from itertools import product
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from critgroups import abelian
from critgroups.abelian import Cokernel
from critgroups.decomposition import DecompositionContext, laplacian_mod_symmetric_firings
from critgroups.families import (
    chained_copies,
    circulant,
    concentric_polygon,
    intro_counterexample,
    klein_example,
)
from critgroups.intmatrix import (
    IntMatrix,
    Lattice,
    _walk_log,
    det_bareiss,
    hermite_normal_form,
    integer_kernel,
    smith_normal_form,
    solve_in_column_span,
)
from critgroups.multigraph import Multigraph, reduced_laplacian
from test_families import h_graph

CYCLE4 = Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def bounded_lattice_search(m, vec, bound):
    """Brute-force reference: integer combinations of the columns of m
    with coefficients in [-bound, bound] that hit vec, or None."""
    target = list(vec)
    for coeffs in product(range(-bound, bound + 1), repeat=m.cols):
        if m.apply(list(coeffs)) == target:
            return list(coeffs)
    return None


def matmul(a, b):
    """The product a·b, for the U·M·V and M·T identities; it keeps the
    shape when the inner dimension or either outer one is 0."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    cols = [b.col(j) for j in range(b.cols)]
    rows = [[sum(x * y for x, y in zip(a.row(i), c)) for c in cols] for i in range(a.rows)]
    return IntMatrix.from_rows(rows, b.cols)


def random_matrix(rng, rmax=6, cmax=6, span=9):
    r = rng.randint(1, rmax)
    c = rng.randint(1, cmax)
    return IntMatrix(r, c, [rng.randint(-span, span) for _ in range(r * c)])


def det_by_expansion(m):
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    sign = 1
    for j in range(n):
        minor = IntMatrix.from_rows(
            [[m[i, k] for k in range(n) if k != j] for i in range(1, n)], n - 1
        )
        total += sign * m[0, j] * det_by_expansion(minor)
        sign = -sign
    return total


def det_bareiss_reference(m):
    """The dense Bareiss elimination the sparse one replaced, kept as a
    reference route: pivots down the diagonal, swapping in the first
    lower row with a nonzero in the pivot column, and updates every
    remaining entry at every step."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def replay_row_ops(n, ops, inverse=False):
    """The full replay the backward walk replaced, kept as the reference
    route: the rows of the n×n identity after the logged row ops (swap,
    negate, and ("add", i, j, q): row_i += q * row_j) in order.  With
    ``inverse`` each add becomes row_j -= q * row_i, which gives the rows
    of the transpose of the inverse."""
    m = IntMatrix.identity(n).to_rows()
    for kind, i, j, q in ops:
        if kind == "swap":
            m[i], m[j] = m[j], m[i]
        elif kind == "negate":
            m[i] = [-x for x in m[i]]
        elif inverse:
            m[j] = [x - q * y for x, y in zip(m[j], m[i])]
        else:
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return m


def replayed_smith_transforms(snf):
    """U and U⁻¹ of a Smith form, replayed in full from its row-op log."""
    n = snf.S.rows
    u = IntMatrix.from_rows(replay_row_ops(n, snf._row_ops), n)
    return u, IntMatrix.from_cols(replay_row_ops(n, snf._row_ops, inverse=True), n)


def replayed_hermite_transform(hnf):
    """T of a Hermite form, replayed in full from its column-op log: a
    column op on T is a row op on its transpose."""
    n = hnf.H.cols
    return IntMatrix.from_cols(replay_row_ops(n, hnf._col_ops), n)


def test_determinant_against_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = IntMatrix(n, n, [rng.randint(-6, 6) for _ in range(n * n)])
        assert det_bareiss(m) == det_by_expansion(m)


def test_smith_normal_form_invariants_bulk():
    rng = random.Random(23)
    for _ in range(300):
        m = random_matrix(rng)
        snf = smith_normal_form(m)
        u, uinv = replayed_smith_transforms(snf)
        # U*M*V == S for a unimodular V exactly when U*M and S span the
        # same column lattice, whose canonical basis is the column HNF.
        assert hermite_normal_form(matmul(u, m)).H == hermite_normal_form(snf.S).H
        assert abs(det_bareiss(u)) == 1
        assert matmul(u, uinv) == IntMatrix.identity(m.rows)
        diag = [snf.S[i, i] for i in range(min(m.rows, m.cols))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            if diag[i] == 0:
                assert diag[i + 1] == 0
        assert all(d >= 0 for d in diag)
        for i in range(m.rows):
            for j in range(m.cols):
                if i != j:
                    assert snf.S[i, j] == 0


def smith_normal_form_reference(m):
    """The dense, eager Smith form that the logged and then the sparse
    ones replaced, kept as a reference route: smallest-magnitude
    pivoting, with U and U⁻¹ updated alongside every row operation.
    Returns (U, S, Uinv)."""
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    uinv = IntMatrix.identity(rows).to_rows()

    # Row ops act on (a, u) and inversely on uinv (as column ops);
    # column ops act on a alone.
    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in range(rows):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def add_row(i, j, q):
        # row_i += q * row_j ; uinv col_j -= q * col_i
        ai, aj = a[i], a[j]
        for k in range(cols):
            ai[k] += q * aj[k]
        ui, uj = u[i], u[j]
        for k in range(rows):
            ui[k] += q * uj[k]
        for r in range(rows):
            uinv[r][j] -= q * uinv[r][i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in range(rows):
            uinv[r][i] = -uinv[r][i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    def add_col(i, j, q):
        for r in range(rows):
            a[r][i] += q * a[r][j]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Find the smallest-magnitude nonzero pivot in a[t:, t:].
        pi = pj = -1
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pi, pj = i, j
        if best is None:
            break
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        # Clear row and column t; restart if a remainder creates a
        # smaller entry elsewhere.
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility: the pivot must divide everything below
        # and to the right.
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return (
        IntMatrix.from_rows(u, rows),
        IntMatrix.from_rows(a, cols),
        IntMatrix.from_rows(uinv, rows),
    )


def hermite_normal_form_reference(m):
    """The eager Hermite form the logged one replaced, kept as a
    reference route: the same column operations, with T updated
    alongside every one.  Returns (H, T)."""
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    t = IntMatrix.identity(cols).to_rows()

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    def add_col(i, j, q):
        for r in range(rows):
            a[r][i] += q * a[r][j]
        for r in range(cols):
            t[r][i] += q * t[r][j]

    def negate_col(i):
        for r in range(rows):
            a[r][i] = -a[r][i]
        for r in range(cols):
            t[r][i] = -t[r][i]

    pivot_col = 0
    for r in range(rows):
        if pivot_col >= cols:
            break
        # gcd-reduce columns pivot_col.. on row r
        while True:
            nz = [j for j in range(pivot_col, cols) if a[r][j] != 0]
            if len(nz) <= 1:
                break
            jmin = min(nz, key=lambda j: abs(a[r][j]))
            for j in nz:
                if j != jmin:
                    q = a[r][j] // a[r][jmin]
                    add_col(j, jmin, -q)
        nz = [j for j in range(pivot_col, cols) if a[r][j] != 0]
        if not nz:
            continue
        j0 = nz[0]
        if j0 != pivot_col:
            swap_cols(pivot_col, j0)
        if a[r][pivot_col] < 0:
            negate_col(pivot_col)
        # reduce earlier columns against this pivot
        p = a[r][pivot_col]
        for j in range(pivot_col):
            q = a[r][j] // p
            if q:
                add_col(j, pivot_col, -q)
        pivot_col += 1

    return IntMatrix.from_rows(a, cols), IntMatrix.from_rows(t, cols)


def test_smith_factors_multiply_to_determinant():
    rng = random.Random(5)
    done = 0
    while done < 80:
        n = rng.randint(1, 5)
        m = IntMatrix(n, n, [rng.randint(-5, 5) for _ in range(n * n)])
        d = det_bareiss(m)
        if d == 0:
            continue
        factors = smith_normal_form(m).invariant_factors()
        assert prod(factors) == abs(d)
        done += 1


def test_smith_examples():
    assert smith_normal_form(IntMatrix.diagonal([2, 6])).invariant_factors() == [2, 6]
    m = IntMatrix.from_rows([[2, 4], [6, 8]], 2)
    assert smith_normal_form(m).invariant_factors() == [2, 4]


def test_hermite_invariants_bulk():
    rng = random.Random(37)
    for _ in range(250):
        m = random_matrix(rng)
        hnf = hermite_normal_form(m)
        t = replayed_hermite_transform(hnf)
        assert matmul(m, t) == hnf.H
        assert abs(det_bareiss(t)) == 1
        again = hermite_normal_form(hnf.H)
        assert again.H == hnf.H  # idempotent
        # staircase shape with positive pivots and reduced entries
        last_row = -1
        for i, j in hnf.pivots():
            assert i > last_row
            last_row = i
            assert hnf.H[i, j] > 0
            for jj in range(j):
                assert 0 <= hnf.H[i, jj] < hnf.H[i, j]


def test_hermite_same_lattice_same_form():
    a = IntMatrix.from_rows([[1, 1], [0, 2]], 2)
    b = IntMatrix.from_rows([[1, 0], [0, 2]], 2)
    # equal column lattices, checked by mutual membership
    for j in range(2):
        assert Lattice(a).contains(b.col(j))
        assert Lattice(b).contains(a.col(j))
    assert hermite_normal_form(a).H == hermite_normal_form(b).H
    ident = IntMatrix.identity(3)
    assert hermite_normal_form(ident).H == ident
    two = IntMatrix.diagonal([2, 2])
    assert hermite_normal_form(two).H == two


def test_lattice_membership_trivial_cases():
    m = IntMatrix.from_rows([[2, 0], [0, 2]], 2)
    assert Lattice(m).contains([0, 0])
    assert Lattice(m).contains(m.col(0))
    assert Lattice(m).contains(m.col(1))
    assert not Lattice(m).contains([1, 1])
    with pytest.raises(ValueError):
        Lattice(m).contains([1, 1, 1])


def test_lattice_queries_reject_non_int_entries():
    """A float, bool or string entry raises TypeError instead of being
    converted: int() would truncate [2.5, 0] to the member [2, 0]."""
    lat = Lattice(IntMatrix.diagonal([2, 2]))
    for vec in ([2.5, 0], [2.9, 2], [True, 0], ["2", 0]):
        with pytest.raises(TypeError, match="vector entry"):
            lat.contains(vec)
        with pytest.raises(TypeError, match="vector entry"):
            lat.hermite_coords(vec)
    assert lat.hermite_coords([2, 2]) == [1, 1]


def test_lattice_membership_vs_bounded_search():
    rng = random.Random(41)
    for _ in range(250):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = IntMatrix(r, c, [rng.randint(-3, 3) for _ in range(r * c)])
        v = [rng.randint(-5, 5) for _ in range(r)]
        x = solve_in_column_span(m, v)
        if x is not None:
            assert m.apply(x) == v
        if bounded_lattice_search(m, v, 5) is not None:
            assert x is not None


def test_lattice_membership_complete_on_known_members():
    rng = random.Random(43)
    for _ in range(250):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = IntMatrix(r, c, [rng.randint(-5, 5) for _ in range(r * c)])
        coeffs = [rng.randint(-8, 8) for _ in range(c)]
        assert Lattice(m).contains(m.apply(coeffs))


def test_lattice_reuses_one_hermite_form_for_many_queries():
    """One Lattice answers every query like a fresh solve would, and its
    Hermite coordinates rebuild the vector from the Hermite basis."""
    rng = random.Random(53)
    for _ in range(60):
        m = random_matrix(rng, 4, 5, 4)
        lat = Lattice(m)
        basis = [lat.hnf.H.col(j) for j in range(lat.rank)]
        assert lat.rank == len(smith_normal_form(m).invariant_factors())
        for _ in range(8):
            if rng.random() < 0.5:
                v = m.apply([rng.randint(-4, 4) for _ in range(m.cols)])
            else:
                v = [rng.randint(-5, 5) for _ in range(m.rows)]
            x = solve_in_column_span(m, v)
            assert lat.contains(v) == (x is not None)
            if x is None:
                assert bounded_lattice_search(m, v, 2) is None
                continue
            assert m.apply(x) == v
            y = lat.hermite_coords(v)
            assert [sum(c * col[i] for c, col in zip(y, basis)) for i in range(m.rows)] == v


def test_matrices_keep_their_shape_when_empty():
    assert IntMatrix.from_cols([[], [], []], 0) == IntMatrix(0, 3, [])
    assert IntMatrix.from_cols([], 4) == IntMatrix(4, 0, [])
    assert IntMatrix.from_cols([[1, 2], [3, 4], [5, 6]], 2) == IntMatrix.from_rows([[1, 3, 5], [2, 4, 6]], 3)
    assert IntMatrix(0, 2, []).hstack(IntMatrix(0, 3, [])) == IntMatrix(0, 5, [])
    assert IntMatrix(2, 0, []).hstack(IntMatrix.identity(2)) == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        IntMatrix.from_cols([[1, 2], [3]], 2)
    with pytest.raises(ValueError):
        IntMatrix.from_cols([[1, 2]], 3)


@pytest.mark.parametrize(
    "entries",
    [[1.9, 0, 0, "3"], [1, 0, 0, 2.0], [True, 0, 0, 1], [1, 0, 0, None], [1, 0, 0, "3"]],
    ids=["float_and_string", "integral_float", "bool", "none", "string"],
)
def test_entries_must_be_ints(entries):
    """An entry that is not an int is rejected, never converted: the
    matrix of [1.9, 0, 0, '3'] would otherwise be [[1, 0], [0, 3]], with
    determinant 3."""
    with pytest.raises(TypeError, match="is not an int"):
        IntMatrix(2, 2, entries)
    with pytest.raises(TypeError):
        IntMatrix.from_rows([entries[:2], entries[2:]], 2)


@pytest.mark.parametrize(
    "rows, cols, error",
    [(-1, -2, ValueError), (-2, -1, ValueError), (True, 2, TypeError), (2, 1.0, TypeError)],
    ids=["negative", "negative_swapped", "bool", "float"],
)
def test_shape_must_be_nonnegative_ints(rows, cols, error):
    """A shape that is negative or not an int is refused: (-1, -2) and
    (True, 2) both passed the entry count check for two entries."""
    with pytest.raises(error, match="is not an int|negative shape"):
        IntMatrix(rows, cols, [1, 2])


@pytest.mark.parametrize("n, error", [(-1, ValueError), (True, TypeError)], ids=["negative", "bool"])
def test_identity_size_must_be_a_nonnegative_int(n, error):
    """The identity's size meets the same check as a shape, not read as
    a list length (True would give the 1 x 1 identity)."""
    with pytest.raises(error, match="is not an int|negative shape"):
        IntMatrix.identity(n)


@pytest.mark.parametrize("ij", [(True, 0), (0, False), (1.0, 0), (0, "1"), (None, 0)])
def test_index_must_be_an_int(ij):
    """A bool index would be read as 1 or 0: [True, 0] of [[1, 2], [3, 4]]
    was 3."""
    with pytest.raises(TypeError, match="matrix index .* is not an int"):
        IntMatrix(2, 2, [1, 2, 3, 4])[ij]


@pytest.mark.parametrize("index", [True, 1.0, "1", None])
@pytest.mark.parametrize("axis", ["row", "col"])
def test_row_and_column_index_must_be_an_int(axis, index):
    """The same check as an entry's index: row(True) of [[1, 2], [3, 4]]
    was [3, 4], and col(True) and col(1.0) were [2, 4]."""
    with pytest.raises(TypeError, match="matrix index .* is not an int"):
        getattr(IntMatrix(2, 2, [1, 2, 3, 4]), axis)(index)


def test_storage_matches_a_dense_reference():
    """On random shapes, 0×n and n×0 among them, with zero rows and zero
    columns: every constructor gives a matrix whose rows, columns,
    entries, products, side-by-side joins, equality and hash agree with
    a dense list of rows."""
    rng = random.Random(67)
    for _ in range(300):
        r, c, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 3)
        dense = [[rng.choice([0, 0, 0, 1, -2, 7]) for _ in range(c)] for _ in range(r)]
        if r and rng.random() < 0.4:
            dense[rng.randrange(r)] = [0] * c
        if c and rng.random() < 0.4:
            j = rng.randrange(c)
            for row in dense:
                row[j] = 0
        cols = [[row[j] for row in dense] for j in range(c)]
        right = [[rng.choice([0, 0, 3, -1]) for _ in range(k)] for _ in range(r)]
        vec = [rng.randint(-4, 4) for _ in range(c)]
        first = IntMatrix(r, c, [x for row in dense for x in row])
        for m in (first, IntMatrix.from_rows(dense, c), IntMatrix.from_cols(cols, r)):
            assert (m.rows, m.cols) == (r, c)
            assert m.to_rows() == [m.row(i) for i in range(r)] == dense
            assert [m.col(j) for j in range(c)] == cols
            assert [[m[i, j] for j in range(c)] for i in range(r)] == dense
            assert m.apply(vec) == [sum(x * y for x, y in zip(row, vec)) for row in dense]
            joined = m.hstack(IntMatrix.from_rows(right, k))
            assert (joined.rows, joined.cols) == (r, c + k)
            assert joined.to_rows() == [a + b for a, b in zip(dense, right)]
            assert m == first and hash(m) == hash(first)
            for i, j in ((r, 0), (0, c), (-1, 0), (0, -1)):
                with pytest.raises(IndexError):
                    m[i, j]
        if r and c:
            changed = [list(row) for row in dense]
            changed[rng.randrange(r)][rng.randrange(c)] += 1
            assert IntMatrix.from_rows(changed, c) != first
        # Zero matrices store the same (empty) rows; the shape tells them apart.
        assert IntMatrix(r, c, [0] * (r * c)) != IntMatrix(r, c + 1, [0] * (r * (c + 1)))
    diag = [3, 0, -1, 0]
    dense_diag = [[d if i == j else 0 for j in range(4)] for i, d in enumerate(diag)]
    assert IntMatrix.diagonal(diag) == IntMatrix.from_rows(dense_diag, 4)
    assert hash(IntMatrix.diagonal(diag)) == hash(IntMatrix.from_rows(dense_diag, 4))
    assert IntMatrix.identity(3).to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_from_rows_keeps_its_shape_when_empty():
    assert IntMatrix.from_rows([], 3) == IntMatrix(0, 3, [])
    assert IntMatrix.from_rows([[], []], 0) == IntMatrix(2, 0, [])
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix.from_rows([[1, 2], [3]], 2)
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix.from_rows([[1, 2]], 3)
    # The normal forms and products build their results with from_rows.
    snf = smith_normal_form(IntMatrix(0, 3, []))
    u, uinv = replayed_smith_transforms(snf)
    assert (u, snf.S, uinv) == (IntMatrix(0, 0, []), IntMatrix(0, 3, []), IntMatrix(0, 0, []))
    hnf = hermite_normal_form(IntMatrix(2, 0, []))
    assert (hnf.H, replayed_hermite_transform(hnf)) == (IntMatrix(2, 0, []), IntMatrix(0, 0, []))
    assert matmul(IntMatrix(0, 2, []), IntMatrix.identity(2)) == IntMatrix(0, 2, [])
    assert matmul(IntMatrix(2, 0, []), IntMatrix(0, 3, [])) == IntMatrix(2, 3, [0] * 6)


def test_integer_kernel():
    k = integer_kernel(IntMatrix.from_rows([[1, 1]], 2))
    assert k.cols == 1 and k.col(0) in ([1, -1], [-1, 1])
    assert integer_kernel(IntMatrix.from_rows([[2, 0], [0, 3]], 2)).cols == 0
    k = integer_kernel(IntMatrix.from_rows([[2, 4]], 2))
    assert k.cols == 1
    a, b = k.col(0)
    assert 2 * a + 4 * b == 0 and (abs(a), abs(b)) == (2, 1)
    rng = random.Random(47)
    for _ in range(150):
        m = random_matrix(rng, 4, 4, 5)
        k = integer_kernel(m)
        for j in range(k.cols):
            assert all(x == 0 for x in m.apply(k.col(j)))
        # full column rank of [kernel] matches nullity over the rationals
        snf = smith_normal_form(m)
        rank = len(snf.invariant_factors())
        assert k.cols == m.cols - rank


# Property tests: derandomized and without an example database, so every
# run draws the same examples and none are saved between runs.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def small_matrices(draw, wide=False):
    r = draw(st.integers(1, 4))
    c = draw(st.integers(r if wide else 1, 5))
    entries = draw(st.lists(st.integers(-6, 6), min_size=r * c, max_size=r * c))
    return IntMatrix(r, c, entries)


@PROPERTY
@given(small_matrices())
def test_smith_row_transform_spans_the_smith_lattice(m):
    """U*M*V == S for a unimodular V exactly when U*M and S span the same
    column lattice; the column HNF is that lattice's canonical basis."""
    snf = smith_normal_form(m)
    u, uinv = replayed_smith_transforms(snf)
    assert hermite_normal_form(matmul(u, m)).H == hermite_normal_form(snf.S).H
    assert matmul(u, uinv) == IntMatrix.identity(m.rows)


@st.composite
def smith_inputs(draw):
    """Any shape from 0x0 to 6x6.  A common scale above 1 leaves no unit
    entry, so pivots need the divisibility repair; a last row that
    combines the first two makes the matrix rank-deficient."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    scale = draw(st.sampled_from([1, 1, 2, 3, 6]))
    entries = draw(st.lists(st.integers(-9, 9), min_size=r * c, max_size=r * c))
    rows = [[scale * x for x in entries[i * c : (i + 1) * c]] for i in range(r)]
    if r > 2 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        rows[-1] = [k * x + y for x, y in zip(rows[0], rows[1])]
    return IntMatrix.from_rows(rows, c)


@st.composite
def sparse_inputs(draw):
    """9 to 16 rows, so that the pivot search weighs only some of the
    rows that hold a unit; mostly zeros, with units and a few larger
    entries, and sometimes a scale above 1 (no unit at all)."""
    r, c = draw(st.integers(9, 16)), draw(st.integers(9, 16))
    scale = draw(st.sampled_from([1, 1, 1, 2]))
    entry = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 1, 2, -3])
    entries = draw(st.lists(entry, min_size=r * c, max_size=r * c))
    return IntMatrix(r, c, [scale * x for x in entries])


def assert_smith_matches_reference(m):
    """S equals the eager reference's S entry for entry.  The sparse
    elimination pivots in another order, so U and U⁻¹ may differ from
    the reference's; they are checked by what makes them valid: U·U⁻¹
    is the identity (so U is unimodular), and U·M spans the column
    lattice of S (so U·M·V == S for a unimodular V).  U and U⁻¹ are
    replayed in full from the log, and the backward walk of that log
    gives the same vectors: over the identity, U's rows and U⁻¹'s
    columns; over the kept unit vectors (factor d_r != 1), U's rows mod
    d_r, each entry left below d_r in size; through Cokernel, when
    finite, its projection rows and generator lifts."""
    _, s, _ = smith_normal_form_reference(m)
    snf = smith_normal_form(m)
    assert snf.S == s
    u, uinv = replayed_smith_transforms(snf)
    assert matmul(u, uinv) == IntMatrix.identity(m.rows)
    assert hermite_normal_form(matmul(u, m)).H == hermite_normal_form(snf.S).H
    n = m.rows
    assert _walk_log(snf._row_ops, IntMatrix.identity(n).to_rows()) == [u.col(i) for i in range(n)]
    assert _walk_log(snf._row_ops, IntMatrix.identity(n).to_rows(), inverse=True) == uinv.to_rows()
    factors = snf.invariant_factors()
    kept = [r for r, d in enumerate(factors) if d != 1]
    moduli = [factors[r] for r in kept]
    units = [[int(i == r) for r in kept] for i in range(n)]
    w = _walk_log(snf._row_ops, units, moduli=moduli)
    assert all(abs(x) < d for v in w for x, d in zip(v, moduli))
    rows = [[x % d for x in u.row(r)] for r, d in zip(kept, moduli)]
    assert [[v[c] % d for v in w] for c, d in enumerate(moduli)] == rows
    if len(factors) == n:  # finite cokernel
        coker = Cokernel(m)
        assert coker._rows == rows
        assert coker._lifts == [tuple(uinv.col(r)) for r in kept]


@PROPERTY
@example(IntMatrix(0, 0, []))
@example(IntMatrix(0, 3, []))
@example(IntMatrix(3, 0, []))
@example(IntMatrix.from_rows([[2, 0], [0, 3]], 2))  # unit-free, needs the repair
@example(IntMatrix.from_rows([[-4, 6], [6, -9]], 2))  # negative pivots, rank 1
@example(IntMatrix.from_rows([[0, 0, 0], [0, -6, 4]], 3))  # zero row, wide
@example(IntMatrix.from_rows([[2, 1], [1, 1]], 2))  # k = 0: a trivial cokernel
@given(st.one_of(smith_inputs(), sparse_inputs()))
def test_smith_form_matches_eager_reference(m):
    """The sparse elimination gives the eager reference's S, valid
    transforms replayed from its log, and the same vectors walked
    backwards through it."""
    assert_smith_matches_reference(m)


FAMILY_GRAPHS = {
    "circulant(5,[1])": lambda: circulant(5, [1])[0],
    "circulant(9,[1,2])": lambda: circulant(9, [1, 2])[0],
    "circulant(21,[1,2,3])": lambda: circulant(21, [1, 2, 3])[0],
    "concentric_polygon(3)": lambda: concentric_polygon(3)[0],
    "concentric_polygon(4)": lambda: concentric_polygon(4)[0],
    "concentric_polygon(8)": lambda: concentric_polygon(8)[0],
    "klein_example": lambda: klein_example()[0],
    "intro_counterexample": lambda: intro_counterexample()[0],
    "h_graph(4)": lambda: h_graph(4),
    "chained_copies(cycle4,9)": lambda: chained_copies(CYCLE4, [2, 1, 0, 3], 0, 2, 9)[0],
}


@pytest.mark.parametrize("family", FAMILY_GRAPHS)
def test_smith_form_of_family_laplacians_matches_eager_reference(family):
    assert_smith_matches_reference(reduced_laplacian(FAMILY_GRAPHS[family](), 0))


def test_smith_elimination_limits_fill_on_a_laplacian():
    """The reduced Laplacian of concentric_polygon(64), 191x191 with 823
    nonzeros: the dense elimination logged 6562 row operations."""
    m = reduced_laplacian(concentric_polygon(64)[0], 0)
    assert len(smith_normal_form(m)._row_ops) <= 6562 // 2


def test_smith_elimination_limits_fill_on_the_symmetric_firing_matrix(monkeypatch):
    """The 200x201 generator matrix of laplacian_mod_symmetric_firings
    on circulant(200,[1,3]), 400 nonzeros and a trivial cokernel: the
    dense elimination pivoted in the all-ones column first, filled every
    row and logged 20099 operations."""
    ctx = DecompositionContext(*circulant(200, [1, 3]))
    made = []

    def recording(m):
        made.append(smith_normal_form(m))
        return made[-1]

    monkeypatch.setattr(abelian, "smith_normal_form", recording)
    assert laplacian_mod_symmetric_firings(ctx).order == 1
    (snf,) = [snf for snf in made if (snf.S.rows, snf.S.cols) == (200, 201)]
    assert len(snf._row_ops) <= 20099 // 2


def test_trivial_cokernel_walks_nothing(monkeypatch):
    """k = 0: a trivial group's rows, lifts and projections are empty,
    and no op log is walked for them."""

    def no_walk(*args, **kwargs):
        raise AssertionError("walked an op log for a trivial group")

    monkeypatch.setattr(abelian, "_walk_log", no_walk)
    coker = Cokernel(IntMatrix.from_rows([[2, 1], [1, 1]], 2))
    assert (coker.moduli, coker._lifts, coker.project([5, -3])) == ((), [], ())


def assert_hermite_matches_reference(m):
    """H and T, replayed in full from the column-op log, equal the eager
    reference's entry for entry.  The backward walk of the log over the
    identity gives T, and integer_kernel and solve_in_column_span read
    T's columns through it."""
    hnf = hermite_normal_form(m)
    h, t = hermite_normal_form_reference(m)
    assert (hnf.H, replayed_hermite_transform(hnf)) == (h, t)
    assert _walk_log(hnf._col_ops, IntMatrix.identity(m.cols).to_rows()) == t.to_rows()
    rank = len(hnf.pivots())
    assert integer_kernel(m) == IntMatrix.from_cols([t.col(j) for j in range(rank, m.cols)], m.cols)
    vec = m.apply([j + 1 for j in range(m.cols)])
    y = Lattice(m).hermite_coords(vec)
    assert solve_in_column_span(m, vec) == t.apply(y + [0] * (m.cols - rank))


@pytest.mark.parametrize("family", FAMILY_GRAPHS)
def test_hermite_form_of_family_laplacians_matches_eager_reference(family):
    assert_hermite_matches_reference(reduced_laplacian(FAMILY_GRAPHS[family](), 0))


@PROPERTY
@example(IntMatrix(0, 0, []))
@example(IntMatrix(0, 3, []))
@example(IntMatrix(3, 0, []))
@example(IntMatrix.from_rows([[0, 0, 0], [0, -6, 4]], 3))  # zero row, wide
@example(IntMatrix.from_rows([[4, 6], [6, 9], [2, 3]], 2))  # rank 1, tall
@given(smith_inputs())
def test_hermite_form_matches_eager_reference(m):
    """The logged elimination and the transform replayed or walked from
    its log are identical, entry for entry, to the eager reference."""
    assert_hermite_matches_reference(m)


@st.composite
def det_inputs(draw, sizes=st.integers(0, 8), entry=st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])):
    """Square matrices of size 0 to 8.  Entries are mostly 0 or small,
    and up to ±2^70 when big entries are on.  The shape is left as drawn,
    or has its diagonal zeroed or its rows permuted (both force
    off-diagonal pivots), or its last row replaced by a combination of
    the first two or by zeros (singular)."""
    n = draw(sizes)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.integers(-(2**70), 2**70))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(["as_drawn", "zero_diagonal", "permuted", "combined", "zero_row"]))
    if shape == "zero_diagonal":
        for i in range(n):
            rows[i][i] = 0
    elif shape == "permuted":
        rows = [rows[i] for i in draw(st.permutations(range(n)))]
    elif shape == "combined" and n > 2:
        k = draw(st.integers(-2, 2))
        rows[-1] = [k * x + y for x, y in zip(rows[0], rows[1])]
    elif shape == "zero_row" and n:
        rows[-1] = [0] * n
    return IntMatrix.from_rows(rows, n)


# 9 to 16 rows, about one entry in four nonzero and no symmetry, so the
# pivot queue holds many rows of equal length and fill reaches rows it
# did not start in.
SPARSE_DET_INPUTS = det_inputs(st.integers(9, 16), st.sampled_from([0] * 9 + [1, -1, 2, -3]))


@PROPERTY
@example(IntMatrix(0, 0, []))
@example(IntMatrix.from_rows([[0, 1], [1, 0]], 2))  # off-diagonal pivots, odd
@example(IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 3))  # a 3-cycle, even
@example(IntMatrix.diagonal([2, 3, 5, 7]))  # rows wait for their rescale
@example(IntMatrix.from_rows([[2**70, 1], [1, 2**70]], 2))
@example(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 3))  # singular
@given(st.one_of(det_inputs(), SPARSE_DET_INPUTS))
def test_determinant_matches_dense_reference(m):
    """Sparse, lazily rescaled Bareiss with fewest-nonzeros pivoting
    agrees with the dense elimination it replaced."""
    assert det_bareiss(m) == det_bareiss_reference(m)


def test_determinant_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(PROPERTY, max_examples=50)
    @example(IntMatrix(0, 0, []))
    @example(IntMatrix.from_rows([[0, 0], [1, 2]], 2))  # zero row
    @given(st.one_of(det_inputs(), SPARSE_DET_INPUTS))
    def agree(m):
        assert det_bareiss(m) == sympy.Matrix(m.to_rows()).det()

    agree()


@PROPERTY
@given(small_matrices(wide=True), st.data())
def test_cokernel_projection_vanishes_exactly_on_the_lattice(m, data):
    snf = smith_normal_form(m)
    assume(len(snf.invariant_factors()) == m.rows)  # finite cokernel
    x = data.draw(st.lists(st.integers(-4, 4), min_size=m.cols, max_size=m.cols))
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows))
    v = [a + b for a, b in zip(m.apply(x), shift)]
    coker = Cokernel(m)
    assert (not any(coker.project(v))) == Lattice(m).contains(v)


def test_smith_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    @PROPERTY
    @given(st.one_of(small_matrices(), sparse_inputs()))
    def agree(m):
        theirs = invariant_factors(sympy.Matrix(m.to_rows()), domain=sympy.ZZ)
        assert smith_normal_form(m).invariant_factors() == [int(f) for f in theirs if f != 0]

    agree()


@PROPERTY
@given(small_matrices(wide=True), st.data())
def test_cokernel_quotient_by_matches_augmented_relations(m, data):
    """Quotienting in the k invariant-factor coordinates gives the same
    group as the Smith form of the relations augmented by the vectors."""
    assume(len(smith_normal_form(m).invariant_factors()) == m.rows)  # finite cokernel
    vec = st.lists(st.integers(-6, 6), min_size=m.rows, max_size=m.rows)
    vecs = data.draw(st.lists(vec, max_size=3))
    expected = Cokernel(m.hstack(IntMatrix.from_cols(vecs, m.rows))).group
    assert Cokernel(m).quotient_by(vecs).group == expected
