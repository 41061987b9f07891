"""Matrix algebra over GF(2^m): product, inverse, determinant, minors."""

import random

import pytest

from circmds.circulant import build
from circmds.field import get_field
from circmds.matgf import (
    BadIndex,
    DimensionMismatch,
    Singular,
    det,
    diag_trace,
    identity,
    inverse,
    mat_mul,
    sandwich,
    submatrix,
    transpose,
)

GF4 = get_field(2, 0x7)
GF8 = get_field(3, 0xB)
F11D = get_field(8, 0x11D)


def random_matrix(rng, gf, n):
    return [[rng.randrange(gf.order) for _ in range(n)] for _ in range(n)]


def random_nonsingular(rng, gf, n):
    while True:
        A = random_matrix(rng, gf, n)
        if det(gf, A) != 0:
            return A


def cofactor_det(gf, A):
    """Laplace expansion along the first row with `mul_raw` only (no log
    tables); every sign is 1 in characteristic 2."""
    if not A:
        return 1
    d = 0
    for j, a in enumerate(A[0]):
        if a:
            d ^= gf.mul_raw(a, cofactor_det(gf, [row[:j] + row[j + 1:] for row in A[1:]]))
    return d


def rank(gf, A):
    """Row rank by Gauss-Jordan elimination."""
    M = [row[:] for row in A]
    nrows, ncols = len(A), len(A[0]) if A else 0
    rk = 0
    for col in range(ncols):
        piv = next((r for r in range(rk, nrows) if M[r][col]), None)
        if piv is None:
            continue
        M[rk], M[piv] = M[piv], M[rk]
        pinv = gf.inv(M[rk][col])
        M[rk] = [gf.mul(pinv, v) for v in M[rk]]
        for r in range(nrows):
            if r != rk and M[r][col]:
                f = M[r][col]
                M[r] = [v ^ gf.mul(f, w) for v, w in zip(M[r], M[rk])]
        rk += 1
    return rk


def diag_to_matrix(d):
    n = len(d)
    return [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]


# -- product / transpose / identity ---------------------------------------------


def test_mul_by_identity():
    rng = random.Random(1)
    for n in (1, 2, 3, 4):
        A = random_matrix(rng, GF8, n)
        assert mat_mul(GF8, A, identity(n)) == A
        assert mat_mul(GF8, identity(n), A) == A


def test_all_ones_squares_to_zero():
    ones = [[1, 1], [1, 1]]
    assert mat_mul(GF4, ones, ones) == [[0, 0], [0, 0]]


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_mul(GF8, [[1, 2]], [[1, 2]])


def test_transpose_involution():
    rng = random.Random(2)
    A = random_matrix(rng, GF8, 4)
    assert transpose(transpose(A)) == A
    assert transpose(identity(5)) == identity(5)


def test_identity_squares():
    assert mat_mul(GF8, identity(3), identity(3)) == identity(3)


# -- inverse ------------------------------------------------------------------------


def test_inverse_identity():
    for n in (1, 2, 4):
        assert inverse(GF8, identity(n)) == identity(n)


def test_inverse_zero_row_sum_singular():
    with pytest.raises(Singular):
        inverse(GF4, build((1, 1)))


def test_inverse_round_trip_random():
    rng = random.Random(3)
    for gf in (GF4, GF8, F11D):
        for n in (2, 3, 4):
            A = random_nonsingular(rng, gf, n)
            Ainv = inverse(gf, A)
            assert mat_mul(gf, A, Ainv) == identity(n)
            assert mat_mul(gf, Ainv, A) == identity(n)


def test_example_matrix_inverse_transpose_is_diagonal_sandwich():
    # circulant(0x02, 0x03, 0x06); its A^-T factors through the recorded pair
    A = build((0x02, 0x03, 0x06))
    got = transpose(inverse(F11D, A))
    want = sandwich(F11D, [0xE2] * 3, A, [0x5A] * 3)
    assert got == want


def test_inverse_requires_square():
    with pytest.raises(DimensionMismatch):
        inverse(GF8, [[1, 2, 3], [4, 5, 6]])


# -- determinant ----------------------------------------------------------------------


def test_det_identity():
    assert det(GF8, identity(4)) == 1


def test_det_2x2_circulant_cofactor_oracle():
    # oracle: det [[a,b],[b,a]] = a*a + b*b = (a+b)^2 in characteristic 2
    for gf in (GF4, GF8):
        for a in range(gf.order):
            for b in range(gf.order):
                expect = gf.mul(a ^ b, a ^ b)
                assert det(gf, build((a, b))) == expect


def test_det_matches_cofactor_expansion():
    # random k x k matrices, plus variants that are singular (the last row a
    # combination of the first two) or that need a row swap (A[0][0] = 0)
    rng = random.Random(12)
    singular = swapped = 0
    for gf in (GF4, GF8, F11D):
        for k in range(1, 6):
            for _ in range(12):
                A = random_matrix(rng, gf, k)
                variants = [A, [[0] + A[0][1:]] + A[1:]]
                if k >= 2:
                    c = rng.randrange(1, gf.order)
                    last = [x ^ gf.mul_raw(c, y) for x, y in zip(A[0], A[1])]
                    variants.append(A[:-1] + [last])
                for M in variants:
                    expect = cofactor_det(gf, M)
                    assert det(gf, M) == expect, (gf.m, M)
                    singular += expect == 0
                    swapped += M[0][0] == 0 and expect != 0
    assert singular >= 100 and swapped >= 100


def test_det_zero_row_sum_circulant():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randrange(2, 6)
        row = [rng.randrange(GF8.order) for _ in range(n - 1)]
        tail = 0
        for v in row:
            tail ^= v
        row.append(tail)  # force zero row sum
        assert det(GF8, build(row)) == 0


def test_det_multiplicative():
    rng = random.Random(5)
    for gf in (GF8, F11D):
        for n in (2, 3):
            A = random_matrix(rng, gf, n)
            B = random_matrix(rng, gf, n)
            assert det(gf, mat_mul(gf, A, B)) == gf.mul(det(gf, A), det(gf, B))


def test_det_transpose_invariant():
    rng = random.Random(6)
    for _ in range(30):
        A = random_matrix(rng, GF8, 4)
        assert det(GF8, A) == det(GF8, transpose(A))


def test_det_rank_inverse_consistent():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 5)
        A = random_matrix(rng, GF8, n)
        d = det(GF8, A)
        rk = rank(GF8, A)
        if d != 0:
            assert rk == n
            inverse(GF8, A)
        else:
            assert rk < n
            with pytest.raises(Singular):
                inverse(GF8, A)


# -- submatrix --------------------------------------------------------------------------


def test_submatrix_full():
    rng = random.Random(8)
    A = random_matrix(rng, GF8, 4)
    assert submatrix(A, range(4), range(4)) == A


def test_submatrix_entry_rule_oracle():
    # 5x5 circulant on (0x01, 0x0B, 0x0B, 0x0A, 0x99): block {0,1}x{0,1}
    # from C[i][j] = c[(j-i) mod 5]: [[c0, c1], [c4, c0]]
    A = build((0x01, 0x0B, 0x0B, 0x0A, 0x99))
    assert submatrix(A, (0, 1), (0, 1)) == [[0x01, 0x0B], [0x99, 0x01]]


def test_submatrix_bad_index():
    A = identity(3)
    with pytest.raises(BadIndex):
        submatrix(A, (0, 3), (0, 1))
    with pytest.raises(BadIndex):
        submatrix(A, (1, 0), (0, 1))
    with pytest.raises(BadIndex):
        submatrix(A, (0, 0), (0, 1))


def test_even_order_cross_block_minor():
    # rows {0,k}, cols {1,k+1} of an order-2k circulant: det = a1^2 + a(k+1)^2
    rng = random.Random(9)
    for n in (4, 6, 8):
        k = n // 2
        row = [rng.randrange(GF8.order) for _ in range(n)]
        A = build(row)
        S = submatrix(A, (0, k), (1, k + 1))
        expect = GF8.mul(row[1], row[1]) ^ GF8.mul(row[k + 1], row[k + 1])
        assert det(GF8, S) == expect


# -- trace and diagonals -----------------------------------------------------------------


def test_trace_identity_is_parity():
    for n in (3, 4):
        I = identity(n)
        assert diag_trace([I[i][i] for i in range(n)]) == n % 2


def test_trace_three_equal_entries():
    assert diag_trace([0xE2, 0xE2, 0xE2]) == 0xE2


def test_diag_to_matrix_multiplication_agrees_with_sandwich():
    rng = random.Random(10)
    n = 3
    A = random_matrix(rng, F11D, n)
    d1 = [rng.randrange(1, F11D.order) for _ in range(n)]
    d2 = [rng.randrange(1, F11D.order) for _ in range(n)]
    via_mats = mat_mul(F11D, diag_to_matrix(d1), mat_mul(F11D, A, diag_to_matrix(d2)))
    assert sandwich(F11D, d1, A, d2) == via_mats


def test_sandwich_entrywise_rule():
    rng = random.Random(11)
    n = 4
    A = random_matrix(rng, GF8, n)
    d1 = [rng.randrange(1, GF8.order) for _ in range(n)]
    d2 = [rng.randrange(1, GF8.order) for _ in range(n)]
    S = sandwich(GF8, d1, A, d2)
    for i in range(n):
        for j in range(n):
            assert S[i][j] == GF8.mul(GF8.mul(d1[i], A[i][j]), d2[j])


def test_sandwich_dimension_check():
    with pytest.raises(DimensionMismatch):
        sandwich(GF8, [1, 2], identity(3), [1, 1, 1])
