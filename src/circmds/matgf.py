"""Dense matrix algebra over GF(2^m).

A matrix is a row-major list of lists of field elements (plain ints); a
diagonal matrix is the list of its diagonal entries.  Functions never
mutate their arguments and always return fresh matrices, so values can be
shared freely between scan workers.  Operations that need field
multiplication take the owning `GF2m` as their first argument; the ones
that only add (diag_trace) or only rearrange (transpose, submatrix) do not.
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


def det(gf: GF2m, A: Matrix) -> int:
    """Determinant by forward elimination; 0 iff singular.

    Char-2 spares the sign bookkeeping of row swaps, and the pivot is
    simply the first nonzero entry (no magnitude ordering exists).  The
    elimination runs on discrete logs: clearing entry f below pivot p adds
    (f/p)*v for each nonzero v of the pivot row, that is
    exp[log f - log p + log v].  The index lies in (-(q-1), 2(q-1)), where
    the doubled `exp_table` reads correctly, negative indices included.
    """
    n = require_square(A)
    exp, log = gf.exp_table, gf.log_table
    M = [row[:] for row in A]
    log_d = 0
    for col in range(n):
        for r in range(col, n):
            if M[r][col]:
                break
        else:
            return 0
        prow = M[r]
        if r != col:
            M[col], M[r] = prow, M[col]
        log_p = log[prow[col]]
        log_d += log_p
        tail = [(j, log[prow[j]]) for j in range(col + 1, n) if prow[j]]
        for rrow in M[col + 1:]:
            f = rrow[col]
            if f:
                s = log[f] - log_p
                for j, lv in tail:
                    rrow[j] ^= exp[s + lv]
    return exp[log_d % (gf.order - 1)]


def inverse(gf: GF2m, A: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises Singular when some column has no pivot."""
    n = require_square(A)
    mul = gf.mul
    inv = gf.inv
    aug = [A[i][:] + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise Singular(f"no pivot in column {col}")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pinv = inv(aug[col][col])
        prow = aug[col]
        for j in range(col, 2 * n):
            prow[j] = mul(pinv, prow[j])
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                rrow = aug[r]
                for j in range(col, 2 * n):
                    rrow[j] ^= mul(f, prow[j])
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
