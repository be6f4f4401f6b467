"""Exact integer matrices and the normal forms built on them.

Everything here works over arbitrary-precision Python ints: no floats,
no modular shortcuts.  Matrices are immutable once constructed; all
operations return fresh objects.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import InitVar, dataclass
from typing import Iterable, Sequence


def int_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as a tuple, checked in one pass over their types:
    floats, strings, bools and None raise TypeError, never converted."""
    data = tuple(values)
    if not set(map(type, data)) <= {int}:
        bad = next(x for x in data if type(x) is not int)
        raise TypeError(f"{what} {bad!r} is not an int")
    return data


class IntMatrix:
    """Integer matrix stored as the nonzeros of each row: one dict per
    row, from column to nonzero entry.  Every constructor drops zeros,
    so equal matrices store equal dicts however they were built."""

    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        rows, cols = int_tuple((rows, cols), "matrix dimension")
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape {rows}x{cols}")
        data = int_tuple(entries, "matrix entry")
        if len(data) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(data)}")
        self.rows, self.cols = rows, cols
        self._nz = tuple(
            {j: x for j, x in enumerate(data[i * cols : (i + 1) * cols]) if x} for i in range(rows)
        )

    @classmethod
    def _of(cls, rows: int, cols: int, nz: Iterable[dict[int, int]]) -> "IntMatrix":
        """The matrix of these row dicts, kept as they are: nonzero ints at columns in range."""
        m = object.__new__(cls)
        m.rows, m.cols, m._nz = rows, cols, tuple(nz)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int) -> "IntMatrix":
        """Matrix with the given rows, each of length ``cols``; the shape
        is kept when there are no rows or no columns."""
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols, [x for r in rows for x in r])

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        """Matrix with the given columns, each of length ``rows``; the
        shape is kept when there are no columns or no rows."""
        if any(len(c) != rows for c in cols):
            raise ValueError("ragged columns")
        return cls(rows, len(cols), [c[i] for i in range(rows) for c in cols])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        diag = int_tuple(diag, "matrix entry")
        return cls._of(len(diag), len(diag), ({i: d} if d else {} for i, d in enumerate(diag)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = int_tuple(ij, "matrix index")
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self._nz[i].get(j, 0)

    def row(self, i: int) -> list[int]:
        (i,) = int_tuple((i,), "matrix index")
        if not 0 <= i < self.rows:
            raise IndexError(i)
        out = [0] * self.cols
        for j, x in self._nz[i].items():
            out[j] = x
        return out

    def col(self, j: int) -> list[int]:
        (j,) = int_tuple((j,), "matrix index")
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return [row.get(j, 0) for row in self._nz]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        nz = ({**a, **{j + self.cols: x for j, x in b.items()}} for a, b in zip(self._nz, other._nz))
        return IntMatrix._of(self.rows, self.cols + other.cols, nz)

    def apply(self, vec: Sequence[int]) -> list[int]:
        vec = int_tuple(vec, "vector entry")
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum(x * vec[j] for j, x in row.items()) for row in self._nz]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._nz == other._nz
        )

    def __hash__(self) -> int:
        # A row dict keeps its keys in build order, so rows hash as sets.
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self._nz)))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"


def det_bareiss(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination over sparse rows.

    Each row is a dict of its nonzero entries, and each column keeps the
    set of remaining rows with a nonzero in it.  Step k pivots on the
    remaining row with the fewest nonzeros (lowest index on ties), the
    last of a sorted list of (-nonzeros, -row) in which a rewritten row's
    entry is moved, on its diagonal entry if nonzero, else on its lowest
    nonzero column; on a symmetric pattern this is minimum-degree
    ordering.  With pivots
    p_0 = 1, p_1, ..., every step-k entry is a (k+1)-minor of m, and a
    row untouched since step s holds step-s values x whose step-k values
    are x * p_k // p_s, exact because the result is a minor.  So step k
    rewrites only the rows with a nonzero in the pivot column, each as
    (x * p_k - x_c * pivot row) // p_s from its stored step-s values.
    The determinant is the sign of the row-to-column pivot permutation
    times p_n.
    """
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    rows = {i: dict(row) for i, row in enumerate(m._nz)}
    colrows: dict[int, set[int]] = {}  # column -> remaining rows with a nonzero in it
    for i, row in rows.items():
        for j in row:
            colrows.setdefault(j, set()).add(i)
    queue = sorted((-len(row), -i) for i, row in rows.items())  # last: fewest nonzeros, lowest row
    step = dict.fromkeys(rows, 0)  # the step each row's values belong to
    pivots = [1]
    pivot_col = [0] * n
    for k in range(1, n + 1):
        r = -queue.pop()[1]
        row, s = rows.pop(r), step.pop(r)
        if not row:
            return 0
        if s < k - 1:
            row = {j: x * pivots[-1] // pivots[s] for j, x in row.items()}
        for j in row:
            colrows[j].discard(r)
        c = r if r in row else min(row)
        pivot_col[r] = c
        p = row[c]
        for i in colrows.pop(c):
            other = rows[i]
            xc = other[c]
            new = {j: x * p for j, x in other.items()}
            for j, y in row.items():
                new[j] = new.get(j, 0) - xc * y
            d = pivots[step[i]]
            new = {j: x // d for j, x in new.items() if x}
            for j in other.keys() - new.keys() - {c}:
                colrows[j].discard(i)
            for j in new.keys() - other.keys():
                colrows[j].add(i)
            rows[i], step[i] = new, k
            if len(new) != len(other):
                del queue[bisect_left(queue, (-len(other), -i))]
                insort(queue, (-len(new), -i))
        pivots.append(p)
    # The pivot permutation has sign (-1)^(n - its number of cycles).
    sign = (-1) ** n
    for start in range(n):
        if pivot_col[start] >= 0:
            sign, j = -sign, start
            while pivot_col[j] >= 0:
                pivot_col[j], j = -1, pivot_col[j]
    return sign * pivots[-1]


@dataclass(frozen=True)
class SnfResult:
    """U * M * V == S with U unimodular, S in Smith normal form, and some
    unimodular V that is not built.

    The elimination works on sparse rows, pivoting on units of least
    Markowitz cost, and logs its row operations: U is that log applied
    to the identity, and ``_walk_log`` reads from it only the rows of U
    or columns of U⁻¹ a caller needs.  S is unique; U depends on the
    pivot order.  S is the only field.
    """

    S: IntMatrix
    row_ops: InitVar[Sequence[tuple]]

    def __post_init__(self, row_ops):
        object.__setattr__(self, "_row_ops", tuple(row_ops))

    def invariant_factors(self) -> list[int]:
        """Diagonal of S, nonzero entries only (they satisfy d1 | d2 | ...)."""
        return [row[k] for k, row in enumerate(self.S._nz) if row]


def _walk_log(
    ops: Sequence[tuple], w: list[list[int]], inverse: bool = False, moduli: Sequence[int] = ()
) -> list[list[int]]:
    """The n×k array w walked backwards, in place, through a log of row
    ops (swap, negate, ("add", i, j, q): row_i += q * row_j) whose
    product, applied to the identity, is X: U for a Smith log, Tᵀ for a
    Hermite one.  Each column v of w becomes vᵀX, so e_r becomes row r
    of X, by w[j] += q * w[i] per add, reduced mod the column's modulus
    when ``moduli`` are given; with ``inverse`` it becomes X⁻¹v, so e_r
    becomes column r of X⁻¹, by w[i] -= q * w[j].  O(k) per op."""
    for kind, i, j, q in reversed(ops):
        if kind == "swap":
            w[i], w[j] = w[j], w[i]
        elif kind == "negate":
            w[i] = [-x for x in w[i]]
        elif inverse:
            w[i] = [x - q * y for x, y in zip(w[i], w[j])]
        elif moduli:
            w[j] = [(x + q * y) % d for x, y, d in zip(w[j], w[i], moduli)]
        else:
            w[j] = [x + q * y for x, y in zip(w[j], w[i])]
    return w


# How many rows holding a unit, taken in index order, the Smith pivot
# search weighs; see smith_normal_form.
_UNIT_SEARCH_ROWS = 8


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Smith normal form by elimination over sparse rows, with the row
    operations logged for ``_walk_log``.

    Each row is a dict of its nonzero entries, and each column keeps the
    set of rows with a nonzero in it.  A step pivots on a unit entry when
    there is one: of the units in the first ``_UNIT_SEARCH_ROWS`` rows (in
    index order) that hold one, the unit of least Markowitz cost (row
    nonzeros - 1) * (column nonzeros - 1), which bounds the fill its
    elimination can make, then lowest row, then lowest column.  With no
    unit left it pivots on the first smallest magnitude in row-major
    order.  Weighing the units of every row instead leaves, on the
    reduced Laplacian of ``concentric_polygon(64)``, a last block of 33
    rows with no unit and 113-bit entries, and logs 3.5 times the
    operations.

    Logged row operations clear the pivot column; column operations,
    which V would record and nothing reads, clear the pivot row.  A
    non-unit pivot is chosen afresh while its remainders leave a smaller
    entry, and absorbs an offending row while it does not divide the
    rest.  Rows keep their indices until the end, where logged swaps
    move the k-th pivot row to row k.
    """
    rows = {i: dict(row) for i, row in enumerate(m._nz) if row}  # the rows with a nonzero
    colrows: dict[int, set[int]] = {}  # column -> rows with a nonzero in it
    for i, row in rows.items():
        for j in row:
            colrows.setdefault(j, set()).add(i)
    ops: list[tuple] = []
    pivots: list[tuple[int, int]] = []  # (row, |pivot|) in elimination order

    def put(i, row, j, x):
        # Set entry j of row i (the dict ``row``), keeping colrows in step.
        if x:
            if j not in row:
                colrows.setdefault(j, set()).add(i)
            row[j] = x
        elif j in row:
            del row[j]
            colrows[j].discard(i)
            if not colrows[j]:
                del colrows[j]

    def add_row(i, j, q):
        # row_i += q * row_j for q != 0.  Each column k met holds row j,
        # so its row set never empties here.
        target = rows[i]
        for k, y in rows[j].items():
            x = target.get(k)
            if x is None:
                target[k] = q * y
                colrows[k].add(i)
            elif x + q * y:
                target[k] = x + q * y
            else:
                del target[k]
                colrows[k].discard(i)
        if not target:
            del rows[i]
        ops.append(("add", i, j, q))

    while rows:
        r, c = _smith_pivot(rows, colrows)
        pivot_row = rows[r]
        p = pivot_row[c]
        dirty = False
        for i in sorted(colrows[c]):
            if i != r:
                add_row(i, r, -(rows[i][c] // p))
                dirty = dirty or c in rows.get(i, ())
        # Column ops never change column c, so the rows they touch (a
        # nonzero entry in column c) are fixed for the whole sweep.
        touched = sorted(colrows[c])
        for j in [j for j in pivot_row if j != c]:
            q = pivot_row[j] // p
            for i in touched:
                put(i, rows[i], j, rows[i].get(j, 0) - q * rows[i][c])
            dirty = dirty or j in pivot_row
        if dirty:
            continue
        # Enforce divisibility: the pivot must divide every remaining
        # entry (a unit pivot always does).
        if abs(p) != 1:
            offender = next(
                (i for i, row in rows.items() if i != r and any(x % p for x in row.values())),
                None,
            )
            if offender is not None:
                add_row(r, offender, 1)
                continue
        del rows[r], colrows[c]
        if p < 0:
            ops.append(("negate", r, r, 0))
        pivots.append((r, abs(p)))

    # Move the k-th pivot row to row k, tracking where each row sits.
    at = list(range(m.rows))  # at[k]: the row now at position k
    where = list(range(m.rows))  # where[i]: the position of row i
    for k, (r, d) in enumerate(pivots):
        pos, other = where[r], at[k]
        if pos != k:
            ops.append(("swap", k, pos, 0))
            at[k], at[pos], where[r], where[other] = r, other, k, pos
    diag = [{k: d} for k, (_, d) in enumerate(pivots)]
    zero = [{} for _ in range(m.rows - len(pivots))]
    return SnfResult(IntMatrix._of(m.rows, m.cols, diag + zero), ops)


def _smith_pivot(rows: dict[int, dict[int, int]], colrows: dict[int, set[int]]) -> tuple[int, int]:
    """(row, column) of the next Smith pivot.

    The candidates are the units of the first ``_UNIT_SEARCH_ROWS`` rows,
    in index order, that hold one; the pivot is the candidate of least
    (Markowitz cost, row, column).  With no unit left, it is the first
    smallest magnitude in row-major order.
    """
    best = None
    left = _UNIT_SEARCH_ROWS
    for i, row in rows.items():  # index order: rows are never re-added
        if 1 not in row.values() and -1 not in row.values():
            continue
        cost = len(row) - 1
        for j, x in row.items():
            if x == 1 or x == -1:
                found = (cost * (len(colrows[j]) - 1), i, j)
                if best is None or found < best:
                    best = found
        left -= 1
        if not left:
            break
    if best is not None:
        return best[1], best[2]
    least = min(min(map(abs, row.values())) for row in rows.values())
    i = next(i for i, row in rows.items() if least in map(abs, row.values()))
    return i, min(j for j, x in rows[i].items() if abs(x) == least)


@dataclass(frozen=True)
class HnfResult:
    """M * T == H with T unimodular and H in column Hermite normal form.

    H is a lower staircase: reading columns left to right, pivot rows
    strictly increase, pivots are positive, entries left of a pivot in
    its row are reduced into [0, pivot), and zero columns trail.

    The elimination logs its column operations instead of applying them
    to T; ``solve_in_column_span`` and ``integer_kernel`` walk that log
    (``_walk_log``) for just the columns of T they read.  H is the only
    field.
    """

    H: IntMatrix
    col_ops: InitVar[Sequence[tuple]]

    def __post_init__(self, col_ops):
        object.__setattr__(self, "_col_ops", tuple(col_ops))

    def pivots(self) -> list[tuple[int, int]]:
        """(row, col) of each pivot."""
        out = []
        for j in range(self.H.cols):
            col = self.H.col(j)
            nz = [i for i, x in enumerate(col) if x != 0]
            if not nz:
                break
            out.append((nz[0], j))
        return out


def hermite_normal_form(m: IntMatrix) -> HnfResult:
    """Column-style Hermite normal form via unimodular column operations,
    logged for ``_walk_log``."""
    rows, cols = m.rows, m.cols
    a = [m.col(j) for j in range(cols)]  # a[j][i] is entry (i, j)
    ops: list[tuple] = []

    def add_col(i, j, q):
        # Column j is at or right of pivot_col, so zero above row r: each
        # earlier row kept its one nonzero there in an earlier pivot
        # column.  Only rows r.. of column i change.
        a[i][r:] = [x + q * y for x, y in zip(a[i][r:], a[j][r:])]
        ops.append(("add", i, j, q))

    pivot_col = 0
    for r in range(rows):
        if pivot_col >= cols:
            break
        # gcd-reduce columns pivot_col.. on row r
        while True:
            nz = [j for j in range(pivot_col, cols) if a[j][r] != 0]
            if len(nz) <= 1:
                break
            jmin = min(nz, key=lambda j: abs(a[j][r]))
            for j in nz:
                if j != jmin:
                    add_col(j, jmin, -(a[j][r] // a[jmin][r]))
        if not nz:
            continue
        if nz[0] != pivot_col:
            a[pivot_col], a[nz[0]] = a[nz[0]], a[pivot_col]
            ops.append(("swap", pivot_col, nz[0], 0))
        if a[pivot_col][r] < 0:
            a[pivot_col] = [-x for x in a[pivot_col]]
            ops.append(("negate", pivot_col, pivot_col, 0))
        # reduce earlier columns against this pivot
        p = a[pivot_col][r]
        for j in range(pivot_col):
            q = a[j][r] // p
            if q:
                add_col(j, pivot_col, -q)
        pivot_col += 1

    return HnfResult(IntMatrix.from_cols(a, rows), ops)


class Lattice:
    """Integer column span of a matrix, Hermite-reduced once.

    ``hermite_coords`` and ``contains`` only back-substitute against the
    stored Hermite form, so any number of queries cost one HNF.
    """

    def __init__(self, m: IntMatrix):
        self.matrix = m
        self.hnf = hermite_normal_form(m)
        h = self.hnf.H
        # (pivot row, pivot, nonzeros below it) of each nonzero Hermite
        # column, left to right; a column is zero above its pivot row.
        self._pivots = []
        for i, j in self.hnf.pivots():
            col = h.col(j)
            below = [(k, x) for k, x in enumerate(col[i + 1 :], i + 1) if x]
            self._pivots.append((i, col[i], below))

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def hermite_coords(self, vec: Sequence[int]) -> list[int] | None:
        """y with vec == sum_j y[j] * (j-th nonzero Hermite column), or
        None when vec is not in the lattice."""
        if len(vec) != self.matrix.rows:
            raise ValueError("dimension mismatch")
        residue = list(int_tuple(vec, "vector entry"))
        y = []
        for i, p, below in self._pivots:
            q, r = divmod(residue[i], p)
            if r != 0:
                return None
            if q:
                residue[i] = 0
                for k, x in below:
                    residue[k] -= q * x
            y.append(q)
        # Rows above a pivot are untouched by later columns, so a
        # nonzero leftover anywhere means vec is outside the span.
        if any(residue):
            return None
        return y

    def contains(self, vec: Sequence[int]) -> bool:
        return self.hermite_coords(vec) is not None


def solve_in_column_span(m: IntMatrix, vec: Sequence[int]) -> list[int] | None:
    """An integer x with m @ x == vec, or None if no integral solution:
    x = T @ y for the Hermite coordinates y of vec, one walk of T's log."""
    lattice = Lattice(m)
    y = lattice.hermite_coords(vec)
    if y is None:
        return None
    w = [[x] for x in y + [0] * (m.cols - len(y))]
    return [x for (x,) in _walk_log(lattice.hnf._col_ops, w)]


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """Basis for {x : m @ x == 0}, as columns.  May have zero columns count."""
    hnf = hermite_normal_form(m)
    # Columns of T over the zero columns of H, which trail, form a kernel
    # basis: T is unimodular, so they are independent, and they exhaust
    # the kernel.
    zero_cols = range(len(hnf.pivots()), m.cols)
    units = [[int(i == j) for j in zero_cols] for i in range(m.cols)]
    return IntMatrix.from_rows(_walk_log(hnf._col_ops, units), len(zero_cols))
