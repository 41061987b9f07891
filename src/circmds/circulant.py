"""Circulant construction and the structural sums its theory leans on.

A circulant is determined by its first row (c_0, ..., c_{n-1}) through the
entry rule C[i][j] = c_{(j-i) mod n}; row 1 therefore reads
(c_{n-1}, c_0, ..., c_{n-2}).  The all-ones vector is always an
eigenvector with eigenvalue equal to the first-row sum, so a zero row sum
forces singularity.

Circulants of order n multiply like polynomials modulo x^n - 1, with the
first row (c_0, ..., c_{n-1}) standing for c_0 + c_1*x + ... + c_{n-1}*x^{n-1};
`inverse_row` inverts one in that ring R = GF(q)[x]/(x^n - 1) instead of
as a dense matrix, `scalar_square_root` decides whether A^2 is a scalar
matrix (A^2 == I among them), and `autocorrelation_roots` for which roots
of unity mu the product a(x^-1)*a(mu*x) is a constant, as identities in
it; at mu = 1 that product is A*A^T, which `props.Properties.gram_root`
reads from the same fold.

The Frobenius fold.  Write n = 2^e * n' with n' odd.  Squaring is
additive in characteristic 2, and 2^e*j mod n depends only on j mod n',
so a(x)^(2^e) == b(x^(2^e)) in R for the row b of length n' with
b_u = (sum of the a_j with j == u mod n')^(2^e): x^n - 1 is
(x^(n') - 1)^(2^e), the repeated-root structure of Castagnoli, Massey,
Schoeller and von Seemann (IEEE Trans. IT 37(2), 1991).  A is
singular exactly when the order-n' circulant of b is.  The substitution
y -> x^(2^e) is a ring map from R' = GF(q)[y]/(y^n' - 1) into R, as
x^n - 1 == (x^(2^e))^n' - 1, and it is injective: it sends the y^u,
u < n', to distinct monomials of R.  If b*c == 1 in R', then
a * a^(2^e - 1) * c(x^(2^e)) == 1 in R.  If a*f == 1 in R, raising both
sides to the power 2^e gives b(x^(2^e)) * h(x^(2^e)) == 1, where
f^(2^e) == h(x^(2^e)) in the same way, and as the map is injective,
b*h == 1 in R'.  So an even-order inverse costs one inverse at order n'.
"""

from __future__ import annotations

from functools import cache
from typing import Optional

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


def inverse_row(gf: GF2m, first_row) -> Optional[tuple[int, ...]]:
    """First row of circulant(first_row)^-1, or None when it is singular.

    At odd n, a(x)^-1 mod x^n - 1 comes from the extended Euclidean
    algorithm over GF(2^m)[x]: O(n^2) field operations and no n x n
    matrix.  Polynomials are coefficient lists, lowest degree first,
    without trailing zeros; products of nonzero coefficients go through
    the field's log tables.

    At even n = 2^e * n', the Frobenius fold of the module docstring
    gives A^-1 = a^(2^e - 1) * c(x^(2^e)) for c = b^-1 at order n', so the
    Euclidean algorithm runs at n' only, and at n' = 1 takes no step.
    a^(2^e - 1) is a * a^2 * ... * a^(2^(e-1)), each factor another such
    fold, and the product starts from c's end: before the factor a^(2^i)
    (nonzero on the multiples of 2^i only), the partial product is
    nonzero on the multiples of 2^(i+1) only, so the factors cost under
    2n^2/3 products of nonzero coefficients in all.
    """
    if diag_trace(first_row) == 0:
        return None  # x - 1 divides a(x)
    n = len(first_row)
    step = n & -n  # 2^e
    c = _euclid_inverse(
        gf, first_row if step == 1 else _frobenius_power(gf, first_row, step)[::step])
    if c is None:
        return None
    out = [0] * n
    out[::step] = c  # c(x^(2^e))
    while step > 1:
        step >>= 1
        out = _ring_product(gf, out, _frobenius_power(gf, first_row, step))
    return tuple(out)


def _euclid_inverse(gf: GF2m, a) -> Optional[list[int]]:
    """a(x)^-1 mod x^n - 1 as a coefficient list of length n, or None, by
    the extended Euclidean algorithm."""
    exp, log = gf.exp_table, gf.log_table
    q1 = gf.order - 1
    n = len(a)
    r0 = [1] + [0] * (n - 1) + [1]  # x^n - 1 == x^n + 1 in characteristic 2
    r1 = _trimmed(a)
    s0: list[int] = []
    s1 = [1]
    while len(r1) > 1:
        # divide r0 by r1; each quotient term f*x^shift also goes into s0 + quot*s1
        deg = len(r1) - 1
        rem = list(r0)
        s2 = s0 + [0] * (len(r0) - len(r1) + len(s1) - len(s0))
        lead_inv = q1 - log[r1[-1]]
        r1_logs = [(i, log[v]) for i, v in enumerate(r1) if v]
        s1_logs = [(i, log[v]) for i, v in enumerate(s1) if v]
        for shift in range(len(r0) - len(r1), -1, -1):
            top = rem[shift + deg]
            if top:
                f = (log[top] + lead_inv) % q1
                for i, lv in r1_logs:
                    rem[shift + i] ^= exp[f + lv]
                for i, lv in s1_logs:
                    s2[shift + i] ^= exp[f + lv]
        r0, r1 = r1, _trimmed(rem[:deg])
        s0, s1 = s1, _trimmed(s2)
    if not r1:
        return None  # gcd(a(x), x^n - 1) has positive degree
    scale = q1 - log[r1[0]]
    out = [exp[scale + log[v]] if v else 0 for v in s1]
    return out + [0] * (n - len(s1))


def _frobenius_power(gf: GF2m, a, p: int) -> list[int]:
    """a(x)^p mod x^n - 1 for p a power of two: the sum of a_j^p * x^(p*j)."""
    exp, log = gf.exp_table, gf.log_table
    q1 = gf.order - 1
    n = len(a)
    out = [0] * n
    for j, v in enumerate(a):
        if v:
            out[p * j % n] ^= exp[log[v] * p % q1]
    return out


def _ring_product(gf: GF2m, f, g) -> list[int]:
    """f(x)*g(x) mod x^n - 1 for coefficient lists of length n."""
    exp, log = gf.exp_table, gf.log_table
    n = len(f)
    out = [0] * n
    g_logs = [(j, log[v]) for j, v in enumerate(g) if v]
    for i, v in enumerate(f):
        if v:
            lv = log[v]
            for j, lw in g_logs:
                out[i + j - n] ^= exp[lv + lw]  # a negative index wraps around
    return out


def _trimmed(coeffs) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


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
