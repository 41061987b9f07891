"""Dense matrix algebra over GF(2^m).

A matrix is a row-major list of lists of field elements (plain ints); a
diagonal matrix is the list of its diagonal entries.  Functions never
mutate their arguments and always return fresh matrices, so values can be
shared freely between scan workers.  Operations that need field
multiplication take the owning `GF2m` as their first argument; the ones
that only add (diag_trace) or only rearrange (transpose, submatrix) do not.
`det` and `inverse` share one elimination, a Gauss-Jordan on discrete logs
(`_gauss_jordan`).
"""

from __future__ import annotations

from .field import GF2m


class MatrixError(ValueError):
    """Base class for matrix shape and solvability errors."""


class DimensionMismatch(MatrixError):
    """Operand shapes are incompatible."""


class Singular(MatrixError):
    """Matrix has no inverse."""


class BadIndex(MatrixError):
    """Submatrix index sets are out of bounds or not strictly increasing."""


Matrix = list  # list[list[int]], row-major


def dims(A: Matrix) -> tuple[int, int]:
    return len(A), len(A[0]) if A else 0


def require_square(A: Matrix) -> int:
    n, c = dims(A)
    if n != c:
        raise DimensionMismatch(f"expected a square matrix, got {n}x{c}")
    return n


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A: Matrix) -> Matrix:
    return [list(col) for col in zip(*A)]


def mat_mul(gf: GF2m, A: Matrix, B: Matrix) -> Matrix:
    ra, ca = dims(A)
    rb, cb = dims(B)
    if ca != rb:
        raise DimensionMismatch(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    mul = gf.mul
    BT = transpose(B)
    out = []
    for arow in A:
        row = []
        for bcol in BT:
            s = 0
            for a, b in zip(arow, bcol):
                s ^= mul(a, b)
            row.append(s)
        out.append(row)
    return out


def submatrix(A: Matrix, rows, cols) -> Matrix:
    r, c = dims(A)
    rows = list(rows)
    cols = list(cols)
    for idx, bound in ((rows, r), (cols, c)):
        if any(i < 0 or i >= bound for i in idx):
            raise BadIndex(f"index out of range in {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise BadIndex(f"indices must be strictly increasing: {idx}")
    return [[A[i][j] for j in cols] for i in rows]


def _gauss_jordan(gf: GF2m, M: Matrix) -> int:
    """Reduce the n x w rows M, w >= n, in place until their left n x n
    block is I, and return the log of the product of the pivots; raises
    Singular at the first column with no pivot.

    Char-2 spares the sign bookkeeping of row swaps, and the pivot is
    simply the first nonzero entry at or below the diagonal (no magnitude
    ordering exists).  The elimination runs on discrete logs: the pivot
    row is divided by its pivot p, v -> exp[log v - log p], and clearing
    entry f of another row adds f*v for each nonzero v of the pivot row,
    exp[log f + log v].  The indices lie in (-(q-1), 2(q-1)), where the
    doubled `exp_table` reads correctly, negative indices included.  The
    rows below a pivot gain (f/p) times its row, as in forward
    elimination, so the pivots are those of A's LU form and their product
    is det(A).
    """
    exp, log = gf.exp_table, gf.log_table
    n = len(M)
    log_d = 0
    for col in range(n):
        for r in range(col, n):
            if M[r][col]:
                break
        else:
            raise Singular(f"no pivot in column {col}")
        M[col], M[r] = M[r], M[col]
        prow = M[col]
        log_p = log[prow[col]]
        log_d += log_p
        tail = [(j, log[prow[j]] - log_p) for j in range(col, len(prow)) if prow[j]]
        for j, lv in tail:
            prow[j] = exp[lv]
        for r, rrow in enumerate(M):
            if r != col and rrow[col]:
                lf = log[rrow[col]]
                for j, lv in tail:
                    rrow[j] ^= exp[lf + lv]
    return log_d


def det(gf: GF2m, A: Matrix) -> int:
    """Determinant, the product of the pivots of `_gauss_jordan`; 0 iff
    singular."""
    require_square(A)
    try:
        log_d = _gauss_jordan(gf, [row[:] for row in A])
    except Singular:
        return 0
    return gf.exp_table[log_d % (gf.order - 1)]


def inverse(gf: GF2m, A: Matrix) -> Matrix:
    """The right half of [A | I] reduced by `_gauss_jordan`; raises
    Singular when some column has no pivot."""
    n = require_square(A)
    aug = [A[i][:] + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    _gauss_jordan(gf, aug)
    return [row[n:] for row in aug]


# -- diagonal matrices ------------------------------------------------------

Diagonal = list  # list[int], the main diagonal


def diag_trace(d: Diagonal) -> int:
    """XOR of the entries: a diagonal's trace, or a first row's sum."""
    t = 0
    for v in d:
        t ^= v
    return t


def sandwich(gf: GF2m, d1: Diagonal, A: Matrix, d2: Diagonal) -> Matrix:
    """D1 * A * D2 computed entrywise: out[i][j] = d1[i] * A[i][j] * d2[j]."""
    r, c = dims(A)
    if len(d1) != r or len(d2) != c:
        raise DimensionMismatch("diagonal lengths must match the matrix shape")
    mul = gf.mul
    return [
        [mul(mul(d1[i], A[i][j]), d2[j]) for j in range(c)]
        for i in range(r)
    ]
