"""Circulant construction and the structural sums its theory leans on.

A circulant is determined by its first row (c_0, ..., c_{n-1}) through the
entry rule C[i][j] = c_{(j-i) mod n}; row 1 therefore reads
(c_{n-1}, c_0, ..., c_{n-2}).  The all-ones vector is always an
eigenvector with eigenvalue equal to the first-row sum, so a zero row sum
forces singularity.

Circulants of order n multiply like polynomials modulo x^n - 1, with the
first row (c_0, ..., c_{n-1}) standing for c_0 + c_1*x + ... + c_{n-1}*x^{n-1};
`is_singular_row` decides singularity in that ring
R = GF(q)[x]/(x^n - 1) instead of on a dense matrix, `scalar_square_root`
whether A^2 is a scalar matrix (A^2 == I among them), and
`autocorrelation_roots` for which roots of unity mu the product
a(x^-1)*a(mu*x) is a constant, as identities in it; at mu = 1 that product
is A*A^T, which `props.Properties.gram_root` reads from the same fold.

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

from functools import cache

from .field import GF2m
from .matgf import Matrix, require_square


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


def scalar_square_root(first_row) -> int:
    """The r with circulant(first_row)^2 == r^2 * I, or 0 when that square
    is not a nonzero scalar matrix; A is involutory exactly when r == 1.

    In characteristic 2, a(x)^2 == sum of a_j^2 * x^(2j) mod x^n - 1, so
    its coefficient at t is r_t^2, where r_t is the sum (XOR) of the a_j
    with 2j == t (mod n): the square is the constant r_0^2 exactly when
    r_t == 0 for every t != 0, and it is nonzero exactly when r_0 is.  The
    fold needs no field arithmetic and takes the shape of j -> 2j mod n.
    At odd n that map is a bijection, so r_t is a single a_j and the row
    must be (r, 0, ..., 0).  At even n = 2h, r_t is 0 at odd t and
    a_i + a_(i+h) at t = 2i, so a_i == a_(i+h) for 0 < i < h and
    r = a_0 + a_h.
    """
    n = len(first_row)
    h = n >> 1
    if n & 1:
        return 0 if any(first_row[1:]) else first_row[0]
    return first_row[0] ^ first_row[h] if first_row[1:h] == first_row[h + 1:] else 0


def autocorrelation_roots(gf: GF2m, first_row, d: int) -> list[int]:
    """The e < d, in increasing order, for which a(x^-1)*a(mu*x) mod x^n - 1
    is a constant, with mu = g^(e*(q-1)/d) for the field generator g; d
    divides gcd(n, q - 1), so these mu are the d-th roots of unity.

    Coefficient t is the sum over j of a_j*a_(j-t)*mu^j, which is mu^t
    times coefficient n - t; at even n = 2h the terms j and j + h of
    coefficient h differ by mu^h, which is 1 (mu has odd order dividing
    n), and cancel.  So only t = 1 .. (n-1)//2 are tested.  As mu^d == 1,
    mu^j depends only on j mod d: the d residue sums B_r of a_j*a_(j-t)
    over j == r (mod d) are formed once per t, with no mu in them, and
    only the mu still alive evaluate the sum of B_r*mu^r; each mu drops
    at its first nonzero coefficient, all of them when a single B_r is
    nonzero.
    """
    exp, log = gf.exp_table, gf.log_table
    n = len(first_row)
    terms = [(j, j % d, log[v]) for j, v in enumerate(first_row) if v]
    alive = _roots(gf.order - 1, d)
    for t in range(1, (n - 1) // 2 + 1):
        sums = [0] * d
        for j, r, lv in terms:
            w = first_row[j - t]  # a negative index wraps around
            if w:
                sums[r] ^= exp[lv + log[w]]
        zeros = sums.count(0)
        if zeros == d - 1:  # one nonzero B_r: B_r*mu^r vanishes at no mu
            return []
        if zeros < d:
            nonzero = [(r, log[b]) for r, b in enumerate(sums) if b]
            kept = []
            for root in alive:
                power = root[1]
                c = 0
                for r, lb in nonzero:
                    c ^= exp[lb + power[r]]
                if not c:
                    kept.append(root)
            if not kept:
                return []
            alive = kept
    return [e for e, _ in alive]


@cache
def _roots(q1: int, d: int) -> tuple:
    """(e, the logs of mu^r for r < d) for each mu = g^(e*q1/d), e < d."""
    step = q1 // d
    return tuple((e, tuple(step * (e * r % d) for r in range(d))) for e in range(d))


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
    even = 0
    odd = 0
    for i, c in enumerate(row):
        if i % 2 == 0:
            even ^= c
        else:
            odd ^= c
    return even, odd
