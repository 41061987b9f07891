"""Decision procedures for matrix properties over GF(2^m).

Covers the MDS test (all square minors nonsingular), the involutory and
orthogonal identity checks, detection of the generalized forms
A^-1 = D1*A*D2 (semi-involutory) and A^-T = D1*A*D2 (semi-orthogonal)
with recovery of the diagonal pair, and the order-based four-way
classification of circulants.  `Properties` runs that battery on one
circulant first row, lazily, and is what `classify`, `check`, the scan
suites and `search` read.  An explicit matrix takes one of two paths,
chosen once by `is_circulant` in `matrix_properties_json`: a circulant is
classified from its first row, and any other matrix by
`dense_classification`.

A recovered pair is canonical: within each connected component of the
bipartite nonzero-pattern graph, the d-entry at the component's smallest
row index is normalized to 1, and an all-zero column gets e = 1.  The
solver (`diagonal_scaling_solve`) walks that graph as one node list, rows
then columns, on the logs of the ratios B[i][j]/A[i][j].  On a connected
pattern the full solution set is exactly the one-parameter orbit
{(c*D1, c^-1*D2)}, so the trace-zero, nonperiodicity, and scalar-power
predicates reported here do not depend on the anchor choice.  The dense
involutory and orthogonal checks share one early-exit test that A times a
given set of columns is I (`_times_is_identity`).

Circulants take a shortcut (`circulant_semi_pair`).  Let B = D1*A*D2 with A
and B circulant, and let S be the support of A's first row a.  For s in
S, d1_i*d2_(i+s) = c_s/a_s, for the first row c of B, does not depend on
i, so d2_(k+s-s')/d2_k is one constant for every k and every s, s' in S.
When the differences S - S generate Z_n (the nonzero pattern is
connected), d2_(k+1)/d2_k is then one constant mu whose n-th power is 1:
both diagonals are geometric, and the relation becomes a polynomial
identity on the first row.  A full-support row is the commonest case.

Every other support is decided on its block.  Let g = gcd(n, s - s' for
s, s' in S) and m = n/g: S lies in the coset s0 + g*Z_n, s0 = min(S) mod
g, and a(x) == x^s0 * b(x^g) for the block b = (a_(s0 + g*beta)),
beta < m, whose support is connected at order m (its differences are
those of S over g).  The nonzero pattern of A has g components, rows
u + g*alpha and columns u + s0 + g*beta for u < g, and entry (alpha, beta)
of each is b_(beta - alpha): each is circulant(b).  y -> x^g maps
GF(q)[y]/(y^m - 1) into R = GF(q)[x]/(x^n - 1) injectively, so A^-1 has
the first row x^-s0 * b^-1(x^g), and A^-T the first row
x^s0 * b^-1(x^-g), whose components hold circulant(b)^-T.  So
A^-T == D1*A*D2 exactly when circulant(b)^-T == D1'*circulant(b)*D2' on
every component, the connected case at order m, and the solver's
canonical pair, anchored at row u of component u, is
d1_i = mu^-(i div g), d2_j = k^-1 * mu^(((j - s0) mod n) div g) for the
mu and k of b.  At g == 1, b == a.  A support of more than n/2 entries
is connected: at g >= 2 it lies in one coset of g*Z_n, which holds
n/g <= n/2 indices.  So g is computed only for a row with at least n/2
zero entries.

For A^-1 = D1*A*D2 the relation is A^2 == k*I on every support.  A^-1's
first row lies in -s0 + g*Z_n, so it has A's zero pattern only if 2*s0 is
in g*Z_n; then with delta = 2*s0/g, component u of A^-1 holds the
circulant of y^-delta * b^-1(y), and the connected case makes it
kappa*b(mu*y) for some kappa != 0 and root of unity mu:
b(y)*b(mu*y) == kappa^-1 * y^-delta.  Substituting
y -> mu*y and dividing gives b(mu^2*y) == mu^-delta * b(y), that is
mu^(2*gamma + delta) == 1 for every gamma in the support of b; so
mu^(2*(gamma - gamma')) == 1, mu has odd order, the differences
gamma - gamma' generate Z_m and mu^m == 1, so mu == 1.  Then
b(y)^2 == kappa^-1 * y^-delta and a(x)^2 == x^(2*s0) * b(x^g)^2 ==
kappa^-1.  So one XOR fold over the first row decides the relation: a
scalar square gives the pair (1, ..., 1), (k^-1, ..., k^-1), and any
other row has none.  For A^-T the gcd(m, q-1) roots of unity are tried
together, in one fold of b that tests them all at once (the lane identity
of the `circulant` module docstring), once the row sum is nonzero.  That
fold has one loop, in `pair_screen`, which screens a scan chunk's rows in
place; `block_roots` hands it a as a one-row chunk.  No
circulant builds a matrix or runs the generic solver: that runs only for
a matrix that is not circulant, on the dense inverse
(`dense_classification`); the tests check the shortcut against it and it
against a brute-force search over diagonal pairs.

The traces of a semi-orthogonal pair follow from its form.  The map
j -> ((j - s0) mod n) div g takes each beta < m exactly g times, so
trace(d1) is g times the sum of mu^-beta over beta < m, and trace(d2) is
k^-1*g times the sum of mu^beta; mu^m == 1, and mu has odd order r, as
q - 1 is odd.  At even n, g or m is even.  An even g kills both traces.
An even m does too: at mu == 1 each sum is m*1 == 0, and otherwise it is
m/r full periods of the sum of mu^beta over beta < r, which is
(mu^r - 1)/(mu - 1) == 0.  So at even n every semi-orthogonal circulant,
MDS or not, has trace(d1) == trace(d2) == 0, on a connected support
(g == 1) or not.  At odd n, g and m are odd, and both traces are nonzero
exactly when mu == 1.  Corollary: at odd n with gcd(n, q - 1) == 1, the
one mu in GF(q)* with mu^m == 1, m | n, is 1, so A*A^T == t^2 * I for
the row sum t != 0: every semi-orthogonal circulant is t times an
orthogonal one, and both of its traces are nonzero.  In GF(2^8) that
holds at n = 7, 11, 13, 19, ....

A first row is decided in R = GF(q)[x]/(x^n - 1) without its n x n
matrix.  `is_mds` takes the row and logs its entries once, as the minors
of size 1, and builds every larger minor from smaller ones.  The
orthogonal test reads mu = 1 from the block's fold of the semi-orthogonal
search: A*A^T is (b(y)*b(y^-1))(x^g), and at mu = 1 the fold sums the
coefficients of b's d = 1 fold, so a row is folded at most once.  No first row forms an
inverse: the relations above need only whether A is nonsingular, and
`is_singular_row` decides that by one gcd at the odd part n' of
n = 2^e * n', as x^n - 1 == (x^(n') - 1)^(2^e) (the `circulant` module
docstring); only the `singular` field of `classify` asks for it.

`is_mds` computes a first row's minors once per orbit of a group.  As
A[i+s][j+s] == A[i][j] (indices mod n), the translation
t_s: (R, C) -> (R+s, C+s) permutes a minor's rows and columns, and as
A[-c][-r] == a_(c-r) == A[r][c], the reflection rho: (R, C) -> (-C, -R)
transposes it and permutes it; neither changes the determinant (every
sign is 1).  rho^2 == 1 and rho*t_s*rho == t_-s, so they generate a
dihedral group of order 2n.  The least member of an orbit in (size,
rows, cols) order has a necklace row set, the least of its n translates,
or a translate of it would be smaller.  The first singular minor is the
least of its orbit, as every member is singular, so computing each
orbit's least member alone keeps the witness.

Every minor `is_mds` computes is found by condensation.  For a k x k
matrix M, k >= 2, the Desnanot-Jacobi identity reads, with every sign 1
in characteristic 2,
det(M) * det(M_in) == det(M_11) * det(M_kk) + det(M_1k) * det(M_k1),
where M_ij lacks row i and column j, and M_in lacks rows and columns 1
and k (at k == 2 it is empty, with det 1).  The test reaches size k only
when every minor of a smaller size is nonzero, and M_in is one of them.
So det(M) is zero exactly when the two-product right side is, and its log
is that side's log minus the log of det(M_in), mod q - 1.  A matrix keeps
the minors of every row set, and reads the five by the ranks of their
row and column sets (`_ranks`).  For a first row's M = A[T, C], M_kk and
M_k1 lie on T - t_k, a necklace, but M_11 and M_1k lie on T - t_1 and
M_in on T - {t_1, t_k}, which are seldom necklaces.  A minor on a row set
R equals the one on its necklace R - t, at (R - t, C - t), and only the
least pair of each orbit was computed, so all five are read through the
slot of their orbit (`_orbits`).  The necklaces of each size are listed
once, each extending one a size smaller (`_visited`).  The test of a
first row reads one plan per order and size (`_condensation`): the
size's kept-minor count, in closed form (`_kept_minors`), the five
positions of every computed minor in one flat tuple, and a table that
names a zero minor's pair by bisection.
"""

from __future__ import annotations

from bisect import bisect
from functools import cache, lru_cache
from itertools import combinations, islice
from math import comb, gcd
from operator import itemgetter
from typing import NamedTuple, Optional

from .circulant import (
    OddOrder,
    _lanes,
    is_circulant,
    is_singular_row,
    scalar_square_root,
)
from .field import GF2m
from .matgf import (
    DimensionMismatch,
    Matrix,
    Singular,
    diag_trace,
    dims,
    inverse,
    require_square,
    transpose,
)
# unused here; perfbench/tracing.py wraps these props attributes by name
from .circulant import build
from .matgf import det, submatrix

# Order categories: odd, power of two, == 0 mod 4 but not a power of two,
# and == 2 mod 4 (with 2 itself claimed by POW2).
ODD = "ODD"
POW2 = "POW2"
MOD4_ZERO = "MOD4_ZERO"
MOD4_TWO = "MOD4_TWO"

SCHEMA_VERSION = 1


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def order_category(n: int) -> str:
    if n % 2 == 1:
        return ODD
    if is_power_of_two(n):
        return POW2
    return MOD4_ZERO if n % 4 == 0 else MOD4_TWO


# The records are named tuples, immutable and copied by `_replace`, as
# `check` builds one Classification per row and a frozen dataclass costs
# four to seven times as much to build; each equals a plain tuple of its
# fields.
class MdsVerdict(NamedTuple):
    is_mds: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __bool__(self) -> bool:
        return self.is_mds


class DiagonalPair(NamedTuple):
    """Associated diagonal pair (D1, D2), all entries nonzero."""

    d1: tuple[int, ...]
    d2: tuple[int, ...]


class MinorLayerTooLarge(ValueError):
    """An MDS test would keep more than MAX_LAYER_MINORS minors at once."""


# Most minors `is_mds` keeps for one size: 2^24 logs, about 130 MB of list slots
MAX_LAYER_MINORS = 1 << 24


@cache
def _ranks(n: int, size: int) -> tuple:
    """For each size-`size` index set S of range(n), in lexicographic order:
    the ranks of S - s_1 and S - s_k among the index sets a size smaller,
    and of S - {s_1, s_k} among those two sizes smaller, each set listed in
    lexicographic order; size >= 2."""
    rank1, rank2 = ({s: j for j, s in enumerate(combinations(range(n), k))}
                    for k in (size - 1, size - 2))
    return tuple((rank1[s[1:]], rank1[s[:-1]], rank2[s[1:-1]])
                 for s in combinations(range(n), size))


def _necklace(rows: tuple, n: int) -> tuple:
    """(N, t): the least N == rows - t (mod n) of the n translates of the
    nonempty `rows`, as sorted tuples, and one t giving it; N contains 0,
    so t ranges over `rows`."""
    return min((tuple(sorted((x - t) % n for x in rows)), t) for t in rows)


@cache
def _kept_minors(n: int, size: int) -> int:
    """How many minors of `size` a first row's MDS test keeps, counted
    without listing them: C(n, size) on each necklace below size n, of
    which there are (1/n) * sum over d | gcd(n, size) of
    phi(d) * C(n/d, size/d)."""
    if size == n:
        return 0
    g = gcd(n, size)
    return sum(
        sum(gcd(d, j) == 1 for j in range(1, d + 1)) * comb(n // d, size // d)
        for d in range(1, g + 1) if g % d == 0
    ) // n * comb(n, size)


@cache
def _visited(n: int, size: int) -> tuple:
    """The row sets a circulant's MDS test visits at `size` >= 1, in
    lexicographic order: the necklaces, each one a necklace a size smaller
    extended by a later row (`is_mds`)."""
    if size == 1:
        return ((0,),)
    return tuple(rows + (r,) for rows in _visited(n, size - 1) for r in range(rows[-1] + 1, n)
                 if _necklace(rows + (r,), n)[0] == rows + (r,))


# one int object for each position value, shared by the plans of every size
_POSITIONS: list[int] = []


@lru_cache(maxsize=3)
def _orbits(n: int, size: int) -> tuple:
    """(computed, rank, at) of a circulant's MDS test at `size` >= 0.

    computed holds, for each row set T of `_visited`, the column sets C in
    lexicographic order for which (T, C) is the least of its orbit.  The
    minors computed at one size form one list in that order.  rank maps a
    column set to its rank, and at(R), for any row set R, gives
    (slot, shift) with the position in that list of the minor of (R, C) at
    slot[shift[rank[C]]]: R is read on its necklace R - t, at the slot of
    (R - t, C - t).  At size 1 row 0's entries are computed, a_c at
    position c, and size 0 is the empty minor, at 0.

    The orbit of (T, C) meets the necklaces in T and in U, the least
    translate s - C of -C.  If U < T it was met first, at (U, s - T).  If
    not, its members on T are (T, C + d) for the d with T + d == T, and
    when U == T also (T, s + d - T); (T, C) is computed when C is least.

    Only the plans of the next two sizes read a size (`_condensation`), so
    the last three sizes asked for are kept: building the sizes in turn
    runs this once for each.
    """
    if size == 0:
        return (), {(): 0}, lambda rows: ((0,), (0,))
    table = list(combinations(range(n), size))
    rank = {cols: j for j, cols in enumerate(table)}

    def ranked(xs) -> int:
        return rank[tuple(sorted(x % n for x in xs))]

    visited = _visited(n, size)
    index = {rows: t for t, rows in enumerate(visited)}
    # for each column set C: the index of U and one s with s - C == U
    reflected = []
    for cols in table:
        u, s = min((tuple(sorted((s - c) % n for c in cols)), s) for s in cols)
        reflected.append((index[u], s))
    slots, computed = [], []
    made = 0
    for t, rows in enumerate(visited):
        neg = [ranked(s - x for x in rows) for s in range(n)]  # rank of s - T
        fixed = [d for d in range(1, n) if tuple(sorted((x + d) % n for x in rows)) == rows]
        mine, own = [], []
        for j, (u, s) in enumerate(reflected):
            if u < t:
                mine.append(slots[u][neg[s]])
                continue
            least = j
            if fixed or u == t:  # other members on T
                others = [ranked(c + d for c in table[j]) for d in fixed]
                if u == t:
                    others += [neg[(s + d) % n] for d in [0] + fixed]
                least = min(others + [j])
            if least < j:
                mine.append(mine[least])
            else:
                if made == len(_POSITIONS):
                    _POSITIONS.append(made)
                mine.append(_POSITIONS[made])
                made += 1
                own.append(table[j])
        slots.append(tuple(mine))
        computed.append(tuple(own))
    down = [ranked(c - 1 for c in cols) for cols in table]
    moved = [range(len(table))]  # moved[t][rank of C] == rank of C - t
    for _ in range(1, n):
        moved.append([down[j] for j in moved[-1]])

    def at(rows):
        neck, t = _necklace(rows, n)
        return slots[index[neck]], moved[t]
    return tuple(computed), rank, at


@cache
def _condensation(n: int, size: int) -> tuple:
    """(kept, reads, table) of a circulant's MDS test at `size` >= 2.  kept
    is `_kept_minors`, and a size that keeps more than MAX_LAYER_MINORS is
    refused before anything is built.  reads holds five positions for each
    pair (T, C) that `_orbits` computes, in order: those of
    (T - t_1, C - c_1), (T - t_k, C - c_k), (T - t_1, C - c_k) and
    (T - t_k, C - c_1) in the list computed at size k - 1, and that of
    (T - {t_1, t_k}, C - {c_1, c_k}) in the list at k - 2.  table holds,
    for each row set T that the test visits, in order, the position of its
    first computed minor, T and its computed column sets."""
    kept = _kept_minors(n, size)
    _refuse_large_layer(n, size, kept)
    _, rank1, at1 = _orbits(n, size - 1)
    _, rank2, at2 = _orbits(n, size - 2)
    reads, table = [], []
    for rows, computed in zip(_visited(n, size), _orbits(n, size)[0]):
        table.append((len(reads) // 5, rows, computed))
        (first, by_first), (last, by_last), (inner, by_inner) = (
            at1(rows[1:]), at1(rows[:-1]), at2(rows[1:-1]))
        for cols in computed:
            head, tail = rank1[cols[1:]], rank1[cols[:-1]]
            reads += (first[by_first[head]], last[by_last[tail]],
                      first[by_first[tail]], last[by_last[head]],
                      inner[by_inner[rank2[cols[1:-1]]]])
    return kept, tuple(reads), tuple(table)


def _refuse_large_layer(n: int, size: int, kept: int) -> None:
    # bound first: the tables of a refused size can be large (450 MiB at
    # n = 200, size 3), and the cache would keep them
    if kept > MAX_LAYER_MINORS:
        raise MinorLayerTooLarge(
            f"the MDS test of an order-{n} matrix would keep {kept} minors of "
            f"size {size}, above the limit of {MAX_LAYER_MINORS}")


def is_mds(gf: GF2m, A) -> MdsVerdict:
    """Check every square submatrix for nonsingularity, smallest first.

    A is the first row of a circulant (a sequence of ints) or a square
    matrix.  A row is tested on its necklaces without building its matrix,
    from the logs of its entries.  A matrix is tested on every row set,
    circulant or not; by the orbit argument below, a circulant's verdict
    and witness are the same either way.

    The witness is the first singular minor in (size, rows, cols) order,
    with rows and columns as increasing index tuples in lexicographic
    order; it is None when A is MDS.

    The minors are built size by size from smaller ones.  Size k is reached
    only when every smaller minor is nonzero, so those are kept as discrete
    logs, and each product is one `exp_table` lookup at the sum of two
    logs.  The minors computed at one size form one list, and the row sets
    of each size are tried in lexicographic order, each on its column sets
    in lexicographic order, so the first zero met is the first singular
    minor among the pairs computed.

    Every minor is computed by condensation (the module docstring) from
    four minors a size smaller and one two sizes smaller: two products, one
    sum and one division per minor.  A matrix has every pair computed.  Its
    minors of one size form one list by row-set rank, then column-set
    rank, so T - t_1 and T - t_k read theirs as two slices of the list a
    size smaller, and T - {t_1, t_k} as one slice of the list two sizes
    smaller; one table of the ranks of S - s_1, S - s_k and S - {s_1, s_k}
    for each index set S serves rows and columns alike (`_ranks`).

    A first row has only its necklaces visited: the row sets that are the
    least of their n translates R - t (mod n).  On them `_orbits` picks
    the least pair of each orbit of the dihedral group of the module
    docstring; by the lemma there the first singular minor is among them,
    and the witness is the one of the definition.  Each reads its five
    minors through their orbits' slots.  The plan of a size
    (`_condensation`, cached per order and size) holds five positions per
    minor as one flat tuple, walked by one `zip`, and the size's kept-minor
    count (`_kept_minors`), compared with MAX_LAYER_MINORS before the plan
    is built and again on every call before it is walked; the minor at
    position i of a size is zero only in the witness, whose row set and
    column set the size's table gives by bisection on i.

    Removing the last row of a necklace T leaves a necklace, so the
    necklaces of one size extend those a size smaller (`_visited`).  Write
    a row set by its gaps: the steps from each row to the next, and from
    the last round to n.  Among row sets of one size, lexicographic order
    is that of the gap sequences, and a necklace is a row set whose gaps no
    rotation makes smaller.  T - r has T's gaps with the last two, g_k and
    g_(k+1), merged.  A rotation of those either differs from them before
    the merged gap, where it is larger as the same rotation of T's gaps
    is, or it reaches the merged gap first, where it holds
    g_k + g_(k+1) > g_k, and g_k is at least the gap it is compared with,
    again as T is a necklace.  A necklace below size n also avoids row
    n-1 (a last gap of 1 would force every gap to 1), so every one is
    kept.  An order-8 circulant that passes is tested on 937 minors, the
    8 entries of row 0 and 929 orbits, with 1,858 products; its necklaces
    hold 1,725 pairs, the row sets through row 0 would give 6,435, and its
    built matrix has 12,869.

    One size keeps C(n, k)^2 minors of a matrix, and a plan for a first
    row is built from a slot for each of the necklaces(n, k)*C(n, k) pairs,
    about twice the minors it computes; the necklaces are counted without
    listing them (`_kept_minors`).  MinorLayerTooLarge is raised before
    that exceeds MAX_LAYER_MINORS, which can happen from order 15 (17 for
    a first row), and only when every smaller minor is nonzero; a refused
    size builds no plan or rank table, and a limit lowered after a size's
    plan was built still refuses it.
    """
    exp, log = gf.exp_table, gf.log_table
    q1 = gf.order - 1
    if A and isinstance(A[0], int):  # A is a circulant's first row
        n = len(A)
        if 0 in A:  # every row holds the same entries, so row 0 meets a zero first
            return MdsVerdict(False, ((0,), (A.index(0),)))
        lower, upper = [0], [log[v] for v in A]  # the minors of sizes 0 and 1
        for size in range(2, n + 1):
            kept, reads, table = _condensation(n, size)
            if kept > MAX_LAYER_MINORS:  # a plan built under a higher limit
                _refuse_large_layer(n, size, kept)
            grown = []
            it = iter(reads)
            for a, b, c, d, e in zip(it, it, it, it, it):
                v = exp[upper[a] + upper[b]] ^ exp[upper[c] + upper[d]]
                if not v:  # the minor at position len(grown) is the witness
                    start, rows, computed = table[bisect(table, len(grown), key=itemgetter(0)) - 1]
                    return MdsVerdict(False, (rows, computed[len(grown) - start]))
                grown.append((log[v] - lower[e]) % q1)
            lower, upper = upper, grown
        return MdsVerdict(True, None)
    n = require_square(A)
    for i, row in enumerate(A):
        if 0 in row:
            return MdsVerdict(False, ((i,), (row.index(0),)))
    # the minor on (T, C) of size k at position rank(T) * C(n, k) + rank(C)
    lower, upper = [0], [log[v] for row in A for v in row]
    for size in range(2, n + 1):
        _refuse_large_layer(n, size, comb(n, size) ** 2)
        ranks = _ranks(n, size)
        w1, w2 = comb(n, size - 1), comb(n, size - 2)
        grown = []
        for rows, (f, l, i) in zip(combinations(range(n), size), ranks):
            first, last = upper[f * w1:(f + 1) * w1], upper[l * w1:(l + 1) * w1]
            inner = lower[i * w2:(i + 1) * w2]
            for a, b, e in ranks:
                v = exp[first[a] + last[b]] ^ exp[first[b] + last[a]]
                if not v:  # the column set's rank is the minor's position within T's
                    cols = islice(combinations(range(n), size), len(grown) % comb(n, size), None)
                    return MdsVerdict(False, (rows, next(cols)))
                grown.append((log[v] - inner[e]) % q1)
        lower, upper = upper, grown
    return MdsVerdict(True, None)


def _times_is_identity(gf: GF2m, A: Matrix, cols) -> bool:
    """Whether A times the matrix whose column j is cols[j] is I, entry by
    entry with early exit."""
    require_square(A)
    mul = gf.mul
    for i, arow in enumerate(A):
        for j, col in enumerate(cols):
            s = 0
            for a, b in zip(arow, col):
                s ^= mul(a, b)
            if s != (i == j):
                return False
    return True


def is_involutory(gf: GF2m, A: Matrix) -> bool:
    """A*A == I."""
    return _times_is_identity(gf, A, transpose(A))


def is_orthogonal(gf: GF2m, A: Matrix) -> bool:
    """A*A^T == I (which over a field already forces A^T*A == I)."""
    return _times_is_identity(gf, A, A)


def diagonal_scaling_solve(gf: GF2m, A: Matrix, B: Matrix) -> Optional[DiagonalPair]:
    """Find nonsingular diagonal D1, D2 with B == D1*A*D2, or None.

    The zero patterns of A and B must coincide.  On nonzero positions the
    ratio B[i][j]/A[i][j] must factor as d_i*e_j, that is
    log d_i + log e_j == log of the ratio (mod q - 1).  The bipartite
    row/column graph is one node list, row i at node i and column j at
    node n + j, each node holding the log of its diagonal entry, and each
    edge its ratio's log.  A depth-first walk from every node not yet
    reached sets each node it meets from the edge it came by and checks
    every other edge when it meets it.  Nodes are started in order, so a
    component starts at its least row, which gets d = 1, and an all-zero
    column is a component of its own, with e = 1.
    """
    n = require_square(A)
    if dims(B) != (n, n):
        raise DimensionMismatch("A and B must have identical shapes")
    exp, log = gf.exp_table, gf.log_table
    q1 = gf.order - 1
    edges: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            a, b = A[i][j], B[i][j]
            if (a == 0) != (b == 0):
                return None
            if a:
                ratio = log[b] - log[a]
                edges[i].append((n + j, ratio))
                edges[n + j].append((i, ratio))
    logs: list[Optional[int]] = [None] * (2 * n)
    for start in range(2 * n):
        if logs[start] is None:
            logs[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for v, ratio in edges[u]:
                    if logs[v] is None:
                        logs[v] = (ratio - logs[u]) % q1
                        stack.append(v)
                    elif (logs[u] + logs[v] - ratio) % q1:
                        return None
    return DiagonalPair(tuple(exp[x] for x in logs[:n]), tuple(exp[x] for x in logs[n:]))


def row_block(a) -> tuple[int, int, tuple[int, ...]]:
    """(s0, g, b) for a nonzero row a (a tuple): g = gcd(n, s - s' for s,
    s' in the support S), s0 = min(S) mod g, and the block
    b = (a_(s0 + g*beta)) for beta < n/g, so a(x) == x^s0 * b(x^g) and b's
    support is connected.  A row of more than n/2 nonzero entries is its
    own block (the count lemma of the module docstring).  Not cached:
    `pair_screen` asks it once of a row with a nonzero row sum and at
    least n/2 zero entries, and `_geometric_pair` again only when a root
    of unity survives."""
    n = len(a)
    if 2 * a.count(0) < n:
        return 0, 1, a
    support = [j for j, v in enumerate(a) if v]
    g = gcd(n, *[j - support[0] for j in support])
    s0 = support[0] % g
    return s0, g, a[s0::g]


def block_roots(gf: GF2m, a) -> list[int]:
    """The e < d, in increasing order, for which b(y^-1)*b(mu*y) mod
    y^m - 1 is a constant, for the block b of the nonzero row a, m = len(b),
    d = gcd(m, q-1) and mu = w^(e*(q-1)/d) for the field generator w; [] at
    a zero row sum.  A semi-orthogonal pair needs one of them, and a nonzero
    row sum.  a goes through `pair_screen` as a one-row chunk, which folds
    b."""
    admitted = pair_screen(gf, ("orthogonal",), len(a), ((a, (), 0, False),))[0]
    return admitted[0][2] if admitted else []


def circulant_semi_pair(p: Properties, relation: str) -> Optional[DiagonalPair]:
    """Canonical pair with A^-1 == D1*A*D2 (`relation` "involutory") or
    A^-T == D1*A*D2 ("orthogonal") for A = circulant(p.row), or None.

    The result equals `diagonal_scaling_solve` on the dense A and its
    inverse (or transposed inverse); a singular A gives None.  Both
    relations are decided on any support from the first row, by the two
    lemmas of the module docstring, with no matrix built:
    - A^-1: the relation is A^2 == k*I, which the fold `p.square_root()`
      decides; a scalar square gives A^-1 == k^-1*A, the pair
      d1 = (1, ..., 1), d2 = (k^-1, ..., k^-1), as every component of the
      pattern is anchored at a 1, and any other row has no pair;
    - A^-T: on the block b of order m = n/g (`row_block`) the relation is
      b(y^-1)*b(mu*y) == k != 0 mod y^m - 1 for one of the gcd(m, q-1)
      powers of w^((q-1)/gcd(m, q-1)), w the field generator, and the pair
      is b's geometric pair spread over the g components
      (`_geometric_pair`); a zero row sum has no pair, as A is singular.
    """
    if relation == "involutory":
        r = p.square_root()
        if not r:
            return None
        gf = p.gf
        k_inv = gf.exp_table[-2 * gf.log_table[r] % (gf.order - 1)]
        return DiagonalPair((1,) * p.n, (k_inv,) * p.n)
    if relation != "orthogonal":
        raise ValueError(f"unknown relation {relation!r}")
    return _geometric_pair(p) if diag_trace(p.row) else None


def _geometric_pair(p: Properties) -> Optional[DiagonalPair]:
    """The pair of `circulant_semi_pair` for A^-T, or None, for a row
    a = p.row with a nonzero row sum, from its block b (`row_block`).

    The mu = w^s for the field generator w, s = 0, (q-1)/d, ..., for which
    b(y^-1)*b(mu*y) is a constant come from one fold that tests all
    d = gcd(m, q-1) of them at once (`p.autocorrelation()`: as mu^d == 1,
    mu^j depends only on j mod d).  The first whose constant k, the sum
    of b_j^2*mu^j, is nonzero gives the pair, d1_i = mu^-(i div g) and
    d2_j = k^-1 * mu^(((j - s0) mod n) div g); on a nonsingular A that is
    the first survivor, so k is summed about once.  At y = 1 the identity
    reads b(1)*b(mu) == k, and b(1) is the row sum, so a zero row sum,
    which the caller rules out, leaves none."""
    roots = p.autocorrelation()
    if not roots:  # most rows: no mu survives
        return None
    s0, g, b = row_block(p.row)
    gf, n = p.gf, p.n
    exp, log = gf.exp_table, gf.log_table
    q1 = gf.order - 1
    step = q1 // gcd(len(b), q1)
    for e in roots:
        s = e * step  # mu = w^s
        k = 0
        for j, v in enumerate(b):
            if v:
                k ^= exp[(2 * log[v] + j * s) % q1]
        if k:
            log_k = log[k]
            return DiagonalPair(
                tuple(exp[-(i // g) * s % q1] for i in range(n)),
                tuple(exp[((j - s0) % n // g * s - log_k) % q1] for j in range(n)),
            )
    return None


def power_scalar(gf: GF2m, d, n: int) -> Optional[int]:
    """The scalar k with D^n == k*I, if the entrywise n-th powers agree.

    Returns None when the powers differ or when k would be 0 (the scalar
    is required to be nonzero, so a zero entry disqualifies the diagonal).
    The powers of nonzero entries are compared by their logs,
    n*log(d_i) mod q-1, as exp_table is one-to-one on 0 .. q-2.
    """
    if 0 in d:  # log_table[0] is a placeholder, not a log
        return None
    log, q1 = gf.log_table, gf.order - 1
    powers = {n * log[v] % q1 for v in d}
    return gf.exp_table[powers.pop()] if len(powers) == 1 else None


def is_nonperiodic(d) -> bool:
    """For order 2h: every opposite pair differs (d_i != d_{i+h})."""
    n = len(d)
    if n % 2 != 0:
        raise OddOrder(f"nonperiodicity needs an even order, got {n}")
    h = n // 2
    return all(d[i] != d[i + h] for i in range(h))


class SemiReport(NamedTuple):
    """Outcome of one semi-property check on a nonsingular matrix."""

    found: bool
    pair: Optional[DiagonalPair] = None
    k1: Optional[int] = None
    k2: Optional[int] = None
    trace_d1: Optional[int] = None
    trace_d2: Optional[int] = None


# one instance for every relation without a pair, as a scan asks on every row
_NOT_FOUND = SemiReport(found=False)


def _semi_report(gf: GF2m, pair: Optional[DiagonalPair], n: int) -> SemiReport:
    """The report of an order-n pair, with its scalar powers and traces."""
    if pair is None:
        return _NOT_FOUND
    return SemiReport(found=True, pair=pair,
                      k1=power_scalar(gf, pair.d1, n), k2=power_scalar(gf, pair.d2, n),
                      trace_d1=diag_trace(pair.d1), trace_d2=diag_trace(pair.d2))


def _nonperiodic(report: SemiReport, n: int) -> tuple[Optional[bool], Optional[bool]]:
    """Nonperiodicity of D1 and D2 of a semi-orthogonal `report`; None at
    odd order or without a pair."""
    if n % 2 or not report.found:
        return None, None
    return is_nonperiodic(report.pair.d1), is_nonperiodic(report.pair.d2)


class Classification(NamedTuple):
    """Everything `check` reports about one square matrix."""

    order: int
    category: str
    first_row: Optional[tuple[int, ...]]  # None for a matrix that is not circulant
    singular: bool
    mds: MdsVerdict
    involutory: bool
    orthogonal: bool
    semi_involutory: SemiReport
    semi_orthogonal: SemiReport
    nonperiodic_d1: Optional[bool]  # of the semi-orthogonal pair, even order only
    nonperiodic_d2: Optional[bool]


class Properties:
    """The property battery of one circulant first row, each property
    evaluated on first use and cached.

    Everything is decided from the row itself, on any support, by the
    lemmas of the module docstring: MDS, the involutory and orthogonal
    identities and the semi pairs by `circulant_semi_pair`, with one fold
    (`square_root`) shared by the involutory test and the semi-involutory
    pair, and one autocorrelation fold of the row's block (`row_block`,
    `autocorrelation`) shared by the orthogonal test and the
    semi-orthogonal pair.  No dense matrix is built and the generic solver
    never runs; the gcd test `is_singular_row` serves only the `singular`
    field of `classification`.  `semi_reports` (relation -> SemiReport) and
    `mds_verdict` hold what has been evaluated so far, in evaluation order;
    a scan tallies its side invariants from them, so a property nothing
    asked for is never counted.
    """

    __slots__ = ("gf", "row", "n", "_root", "_roots", "mds_verdict", "semi_reports")

    def __init__(self, gf: GF2m, row, root: Optional[int] = None,
                 roots: Optional[list[int]] = None):
        """`root` and `roots`, when given, are the row's `square_root` and
        `autocorrelation`, folded already."""
        self.gf = gf
        self.row = tuple(row)
        self.n = len(self.row)
        self._root, self._roots = root, roots
        self.mds_verdict = None
        self.semi_reports: dict[str, SemiReport] = {}

    def semi(self, relation: str) -> SemiReport:
        """The pair with A^-1 == D1*A*D2 (`relation` "involutory") or
        A^-T == D1*A*D2 ("orthogonal"), with its scalar powers and traces."""
        reports = self.semi_reports
        if relation not in reports:
            reports[relation] = _semi_report(
                self.gf, circulant_semi_pair(self, relation), self.n)
        return reports[relation]

    def mds(self) -> MdsVerdict:
        if self.mds_verdict is None:
            self.mds_verdict = is_mds(self.gf, self.row)
        return self.mds_verdict

    def square_root(self) -> int:
        """`scalar_square_root` of the row, folded once for the involutory
        test, the semi-involutory pair and INV-NONE."""
        if self._root is None:
            self._root = scalar_square_root(self.row)
        return self._root

    def autocorrelation(self) -> list[int]:
        """`block_roots` of the row, folded once for the orthogonal test, the
        semi-orthogonal pair and ORTH-NONE."""
        if self._roots is None:
            self._roots = block_roots(self.gf, self.row)
        return self._roots

    def gram_root(self) -> int:
        """The t with A*A^T == t^2 * I, or 0 when that product is not a
        nonzero scalar matrix; A is orthogonal exactly when t == 1.

        A^T has the first row of a(x^-1), so A*A^T is a(x)*a(x^-1) mod
        x^n - 1, whose constant coefficient is the square of the row sum t.
        With a(x) == x^s0 * b(x^g) that product is (b(y)*b(y^-1))(x^g),
        and y -> x^g is injective, so it is scalar exactly when
        b(y)*b(y^-1) is: the mu = 1 (e = 0) case of `autocorrelation`,
        read from its one fold, whose lane for mu = 1 holds the
        coefficients of b(y)*b(y^-1).  A zero row sum folds nothing."""
        t = diag_trace(self.row)
        return t if t and self.autocorrelation()[:1] == [0] else 0

    def involutory(self) -> bool:
        return self.square_root() == 1

    def orthogonal(self) -> bool:
        return self.gram_root() == 1

    def nonperiodic(self) -> tuple[Optional[bool], Optional[bool]]:
        """Nonperiodicity of D1 and D2 of the semi-orthogonal pair; None at
        odd order or without a pair."""
        return _nonperiodic(self.semi("orthogonal"), self.n)

    def classification(self) -> Classification:
        # a singular matrix is never involutory, orthogonal or semi-anything,
        # so it needs no branch of its own; an MDS matrix has A itself among
        # its nonsingular minors, so only a matrix that is not MDS asks the
        # gcd test
        mds = self.mds()
        np1, np2 = self.nonperiodic()
        return Classification(
            order=self.n,
            category=order_category(self.n),
            first_row=self.row,
            singular=not mds.is_mds and is_singular_row(self.gf, self.row),
            mds=mds,
            involutory=self.involutory(),
            orthogonal=self.orthogonal(),
            semi_involutory=self.semi("involutory"),
            semi_orthogonal=self.semi("orthogonal"),
            nonperiodic_d1=np1,
            nonperiodic_d2=np2,
        )


def classify(gf: GF2m, first_row) -> Classification:
    """Run the full property battery on circulant(first_row)."""
    return Properties(gf, first_row).classification()


@cache
def _fold_plan(m: int, n: int) -> tuple:
    """(d, low, top, terms) of the lane fold of order-n rows over GF(2^m):
    d = gcd(n, 2^m - 1) lanes of m + 1 bits, low and top holding 2^m - 1
    and 2^m in each lane, and per shift t = 1 .. (n-1)//2 the
    (j, j - t mod n) of the terms a_j*a_(j-t) of coefficient t, j < n."""
    d = gcd(n, (1 << m) - 1)
    ones = ((1 << d * (m + 1)) - 1) // ((2 << m) - 1)  # 1 in each lane
    terms = tuple(tuple((j, (j - t) % n) for j in range(n)) for t in range(1, (n - 1) // 2 + 1))
    return d, ones * ((1 << m) - 1), ones << m, terms


def pair_screen(gf: GF2m, relations, n: int, items) -> tuple[list, int]:
    """(admitted, rejected) of a scan chunk's `items`, each (row, scalars,
    size, transposed) with a row of order n: admitted holds, in the order of
    `items`, (item, root, roots) for each row that by its folds may have the
    pair of one of the semi `relations` ("involutory", "orthogonal"), with
    root its `scalar_square_root` and roots its `block_roots` where they
    were folded, else None; rejected is the sum of
    len(scalars) * size << transposed over the other rows.

    The semi-involutory pair exists exactly when the scalar square root is
    nonzero, and a semi-orthogonal pair needs a nonzero row sum and a root
    of unity of the block's autocorrelation (`circulant_semi_pair`).  A row
    that passes the involutory fold is not folded for the other relation.
    One loop over the items runs both folds in place, with the lane tables
    of d = gcd(n, q - 1), the terms of each shift t (`_fold_plan`) and
    each position's residue table bound once; a row of more than n/2
    nonzero entries, or any with a connected support, is its own block
    (`row_block`) and is folded here, and any other row's block goes
    through `block_roots`, a one-row chunk at its order.

    The lane fold (the `circulant` module docstring): coefficient t of
    a(x^-1)*a(mu*x) is the sum over j of a_j*a_(j-t)*mu^j, which is mu^t
    times coefficient n - t; at even n = 2h the terms j and j + h of
    coefficient h differ by mu^h, which is 1 (mu has odd order dividing n),
    and cancel.  So only t = 1 .. (n-1)//2 are tested.  The XOR v of the
    entries the residue tables hold for the terms' products is coefficient
    t at every mu, lane by lane, and `alive &= ~(v + low)` keeps the mu
    whose lane is 0, where low holds 2^m - 1 and top 2^m in each of the d
    lanes of m + 1 bits.  A mu drops at its first nonzero coefficient, and
    the fold stops when none is alive.
    """
    involutory = "involutory" in relations
    orthogonal = "orthogonal" in relations
    exp, log = gf.exp_table, gf.log_table
    m = gf.m
    d, low, top, shifts = _fold_plan(m, n)
    residue = _lanes(gf, d) * (n // d)  # position j's table, of residue j mod d
    h = n >> 1
    admitted, rejected = [], 0
    for item in items:
        row = item[0]
        zeros = row.count(0)
        root = None
        if involutory:  # `scalar_square_root`
            if n & 1:
                root = row[0] if zeros == n - 1 else 0
            else:
                root = row[0] ^ row[h] if row[1:h] == row[h + 1:] else 0
            if root:
                admitted.append((item, root, None))
                continue
        if orthogonal:
            total = 0  # the row sum
            for u in row:
                total ^= u
            if total:
                b = row if 2 * zeros < n else row_block(row)[2]
                if len(b) == n:
                    alive = top
                    for terms in shifts:
                        v = 0
                        for j, i in terms:
                            u = row[j]
                            if u:
                                w = row[i]
                                if w:
                                    v ^= residue[j][exp[log[u] + log[w]]]
                        alive &= ~(v + low)
                        if not alive:
                            break
                    roots = alive and [e for e in range(d) if alive >> (e * (m + 1) + m) & 1]
                else:
                    roots = block_roots(gf, b)
                if roots:
                    admitted.append((item, root, roots))
                    continue
        rejected += len(item[1]) * item[2] << item[3]
    return admitted, rejected


def dense_classification(gf: GF2m, A: Matrix) -> Classification:
    """The property battery of a square matrix A that is not circulant:
    the dense inverse, the generic solver on A^-1 and A^-T, the dense
    involutory and orthogonal checks and `is_mds` over every row set.
    Its `first_row` is None.  On a circulant it gives `classify`'s record
    but for `first_row`, more slowly; the tests use it so, as the
    reference."""
    n = require_square(A)
    mds = is_mds(gf, A)
    try:
        inv = inverse(gf, A)
    except Singular:
        inv = None
    si = so = _NOT_FOUND
    if inv is not None:
        si = _semi_report(gf, diagonal_scaling_solve(gf, A, inv), n)
        so = _semi_report(gf, diagonal_scaling_solve(gf, A, transpose(inv)), n)
    np1, np2 = _nonperiodic(so, n)
    return Classification(
        order=n,
        category=order_category(n),
        first_row=None,
        singular=inv is None,
        mds=mds,
        involutory=is_involutory(gf, A),
        orthogonal=is_orthogonal(gf, A),
        semi_involutory=si,
        semi_orthogonal=so,
        nonperiodic_d1=np1,
        nonperiodic_d2=np2,
    )


def _semi_json(gf: GF2m, rep: SemiReport) -> dict:
    fmt = gf.format_element
    if not rep.found:
        return {"found": False, "d1": None, "d2": None, "k1": None, "k2": None,
                "trace_d1": None, "trace_d2": None}
    return {
        "found": True,
        "d1": [fmt(v) for v in rep.pair.d1],
        "d2": [fmt(v) for v in rep.pair.d2],
        "k1": fmt(rep.k1) if rep.k1 is not None else None,
        "k2": fmt(rep.k2) if rep.k2 is not None else None,
        "trace_d1": fmt(rep.trace_d1),
        "trace_d2": fmt(rep.trace_d2),
    }


def classification_json(gf: GF2m, cls: Classification, matrix: Optional[Matrix] = None) -> dict:
    """`check` output.  Given the explicit `matrix`, the record also says
    whether it is circulant and lists its entries."""
    fmt = gf.format_element
    witness = None
    if cls.mds.witness is not None:
        witness = {"rows": list(cls.mds.witness[0]), "cols": list(cls.mds.witness[1])}
    shape = {"first_row": None if cls.first_row is None else [fmt(v) for v in cls.first_row]}
    if matrix is not None:
        shape = {"circulant": cls.first_row is not None, **shape,
                 "matrix": [[fmt(v) for v in row] for row in matrix]}
    return {
        "schema_version": SCHEMA_VERSION,
        "field": {"m": gf.m, "poly": f"0x{gf.poly:X}"},
        "order": cls.order,
        **shape,
        "singular": cls.singular,
        "mds": cls.mds.is_mds,
        "mds_witness": witness,
        "involutory": cls.involutory,
        "orthogonal": cls.orthogonal,
        "semi_involutory": _semi_json(gf, cls.semi_involutory),
        "semi_orthogonal": _semi_json(gf, cls.semi_orthogonal),
        "category": cls.category,
        "nonperiodic_d1": cls.nonperiodic_d1,
        "nonperiodic_d2": cls.nonperiodic_d2,
    }


def matrix_properties_json(gf: GF2m, A: Matrix) -> dict:
    """`check` output for an explicit square matrix, which is scanned for
    circulance once: a circulant is classified from its first row, any
    other matrix by `dense_classification`."""
    cls = classify(gf, A[0]) if is_circulant(A) else dense_classification(gf, A)
    return classification_json(gf, cls, matrix=A)
