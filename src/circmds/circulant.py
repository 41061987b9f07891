"""Circulant construction and the structural sums its theory leans on.

A circulant is determined by its first row (c_0, ..., c_{n-1}) through the
entry rule C[i][j] = c_{(j-i) mod n}; row 1 therefore reads
(c_{n-1}, c_0, ..., c_{n-2}).  The all-ones vector is always an
eigenvector with eigenvalue equal to the first-row sum, so a zero row sum
forces singularity.

Circulants of order n multiply like polynomials modulo x^n - 1, with the
first row (c_0, ..., c_{n-1}) standing for c_0 + c_1*x + ... + c_{n-1}*x^{n-1};
`is_singular_row` decides singularity in that ring
R = GF(q)[x]/(x^n - 1) instead of on a dense matrix.  The other first-row
identities, whether A^2 and a(x^-1)*a(mu*x) are constants, are folded in
`props.pair_screen`.

The gcd lemma.  A is nonsingular exactly when a(x) is a unit of R (A^-1
is a polynomial in A, so circulant), that is when gcd(a(x), x^n - 1) == 1.
Write n = 2^e * n' with n' odd.  Squaring is additive in characteristic
2, so x^n - 1 == (x^(n') - 1)^(2^e), the repeated-root structure of
Castagnoli, Massey, Schoeller and von Seemann (IEEE Trans. IT 37(2),
1991), and x^n - 1 has the irreducible factors of x^(n') - 1.  Each of
them divides a(x) exactly when it divides b(x) = a(x) mod x^(n') - 1, the
fold b_u = sum of the a_j with j == u (mod n').  So A is singular exactly
when gcd(b(x), x^(n') - 1) has positive degree, and one gcd at the odd
order decides it.
"""

from __future__ import annotations

from .field import GF2m
from .matgf import Matrix, diag_trace, require_square


class OddOrder(ValueError):
    """Operation requires an even order."""


def build(first_row) -> Matrix:
    row = list(first_row)
    n = len(row)
    return [[row[(j - i) % n] for j in range(n)] for i in range(n)]


def is_circulant(A: Matrix) -> bool:
    n = require_square(A)
    first = A[0]
    return all(A[i][j] == first[(j - i) % n] for i in range(1, n) for j in range(n))


def is_singular_row(gf: GF2m, first_row) -> bool:
    """Whether circulant(first_row) is singular, by the gcd lemma of the
    module docstring: the row is folded by j mod n', for n = 2^e * n' with
    n' odd, and Euclid's remainder sequence runs on that fold b(x) and
    x^n' - 1 until a remainder is constant.  A is singular exactly when the
    last one is 0, so the gcd has positive degree.  At n' = 1 the fold is
    the row sum, and no step runs.  Polynomials are coefficient lists,
    lowest degree first, without trailing zeros; products of nonzero
    coefficients go through the field's log tables.
    """
    exp, log = gf.exp_table, gf.log_table
    q1 = gf.order - 1
    n = len(first_row)
    odd = n // (n & -n)  # n'
    r1 = [0] * odd
    for j, v in enumerate(first_row):
        r1[j % odd] ^= v
    r0 = [1] + [0] * (odd - 1) + [1]  # x^n' - 1 == x^n' + 1 in characteristic 2
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if len(r1) <= 1:
            return not r1
        # r0 mod r1: each leading term of the remainder cancels against r1
        deg = len(r1) - 1
        rem = list(r0)
        lead_inv = q1 - log[r1[-1]]
        r1_logs = [(i, log[v]) for i, v in enumerate(r1) if v]
        for shift in range(len(r0) - len(r1), -1, -1):
            top = rem[shift + deg]
            if top:
                f = (log[top] + lead_inv) % q1
                for i, lv in r1_logs:
                    rem[shift + i] ^= exp[f + lv]
        r0, r1 = r1, rem[:deg]


def interleaved_sums(first_row) -> tuple[int, int]:
    """(c_0 + c_2 + ..., c_1 + c_3 + ...) for even order.

    These are the row sums of the two order-n/2 circulant submatrices on
    the even/odd index grids, hence both are nonzero whenever the full
    matrix is MDS.
    """
    row = list(first_row)
    if len(row) % 2 != 0:
        raise OddOrder(f"interleaved sums need an even order, got {len(row)}")
    return diag_trace(row[0::2]), diag_trace(row[1::2])
