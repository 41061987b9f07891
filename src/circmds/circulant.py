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
`props.pair_screen` for which roots of unity mu the product
a(x^-1)*a(mu*x) is a constant, as identities in it, testing all of them in
one pass over the tables kept here (the lane identity below); at mu = 1
that product is A*A^T, which `props.Properties.gram_root` reads from the
same fold.

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

The lane identity.  Coefficient t of a(x^-1)*a(mu*x) is the sum over j of
a_j*a_(j-t)*mu^j, and for a d-th root of unity mu, mu^j depends only on
r = j mod d.  `_lanes(gf, d)` maps a residue r and a product x to one int
that holds x*mu^r for every root mu = g^(e*(q-1)/d), e < d, in lane e:
bits e*(m+1) .. e*(m+1) + m - 1, with bit e*(m+1) + m left 0.  XOR acts
lane by lane, so the XOR v of the entries of the terms a_j*a_(j-t) is
coefficient t at every root at once.  With low holding 2^m - 1 in every
lane, x + 2^m - 1 < 2^(m+1) sets bit m of its lane exactly when x != 0,
and no lane carries into the next; so bit m of lane e of v + low is 1
exactly when coefficient t is nonzero at the e-th root, and one AND with
its complement drops those roots.  `_lanes` keeps the d tables per
(field, d); the one loop that reads them is `props.pair_screen`, which
folds a scan chunk's rows in place.  The tables fill an entry on first
use, so a row of GF(2^16) keeps only the entries it meets, and stop
once the entries of every (field, d) of the process take LANE_BYTES
(`lane_bytes`); an entry met after that is made again on each use.
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


class _Lane(dict):
    """Residue r's table of `_lanes`: product x -> the int that holds
    x*mu^r in lane e for each root mu = g^(e*(q-1)/d), filled on first use
    while the entries of every table in `_LANES` stay within LANE_BYTES
    (`lane_bytes`); an entry met after that is made again on each use.
    `held` is [lane_bytes()], one count that every table of `_LANES`
    shares and adds each kept entry to."""

    __slots__ = ("gf", "d", "r", "keep", "held")

    def __init__(self, gf: GF2m, d: int, r: int, held: list):
        self.gf, self.d, self.r, self.keep, self.held = gf, d, r, True, held

    def __missing__(self, x: int) -> int:
        gf, d, r = self.gf, self.d, self.r
        exp, lx = gf.exp_table, gf.log_table[x]
        step, width = (gf.order - 1) // d, gf.m + 1
        packed = 0
        for e in range(d):
            packed |= exp[lx + step * (e * r % d)] << (e * width)
        if self.keep:
            held, size = self.held, lane_entry_bytes(gf.m, d)
            if held[0] + size <= LANE_BYTES:
                self[x] = packed
                held[0] += size
            else:  # no entry is ever dropped, so the tables stay full
                self.keep = False
        return packed


# The most bytes the kept entries of every (field, d) take together, each
# entry counted as its d*(m+1) packed bits and 128 bytes of int headers, key
# and dict slot (tracemalloc reads 90 to 113 bytes besides the packed bits).
# A field up to GF(2^8) keeps its whole tables at any one d but 255.
LANE_BYTES = 1 << 23

# (field polynomial, d) -> its d residue tables
_LANES: dict[tuple[int, int], list] = {}


def lane_entry_bytes(m: int, d: int) -> int:
    """The bytes LANE_BYTES counts for one entry of GF(2^m) at d."""
    return 128 + d * (m + 1) // 8


def lane_bytes() -> int:
    """The bytes the entries kept in `_LANES` take, as LANE_BYTES counts
    them."""
    return sum(lane_entry_bytes(poly.bit_length() - 1, d) * sum(map(len, tables))
               for (poly, d), tables in _LANES.items())


def _lanes(gf: GF2m, d: int) -> list[_Lane]:
    """The d residue tables of the lane identity for the d-th roots of
    unity of gf, table r for residue r, kept per (field, d); no entry is
    made here."""
    key = (gf.poly, d)  # the polynomial fixes the field; a GF2m hashes in Python
    tables = _LANES.get(key)
    if tables is None:
        # [lane_bytes()], one count shared by every table of `_LANES`, new
        # when `_LANES` is empty
        held = next(iter(_LANES.values()))[0].held if _LANES else [0]
        tables = _LANES[key] = [_Lane(gf, d, r, held) for r in range(d)]
    return tables


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
