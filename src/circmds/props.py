"""Decision procedures for matrix properties over GF(2^m).

Covers the MDS test (all square minors nonsingular), the involutory and
orthogonal identity checks, detection of the generalized forms
A^-1 = D1*A*D2 (semi-involutory) and A^-T = D1*A*D2 (semi-orthogonal)
with recovery of the diagonal pair, and the order-based four-way
classification of circulants.  `Properties` runs that battery on one
circulant first row or explicit matrix, lazily, and is what `classify`,
`check`, the scan suites and `search` read.

A recovered pair is canonical: within each connected component of the
bipartite nonzero-pattern graph, the d-entry at the component's smallest
row index is normalized to 1.  On a connected pattern the full solution
set is exactly the one-parameter orbit {(c*D1, c^-1*D2)}, so the
trace-zero, nonperiodicity, and scalar-power predicates reported here do
not depend on the anchor choice.

Circulants take a shortcut (`circulant_semi_pair`).  If B = D1*A*D2 with A
and B circulant and A of full support, then d1_i*d2_j = B[i][j]/A[i][j]
depends only on j - i, so d1_{i+1}/d1_i = d2_j/d2_{j+1} is one constant
whose n-th power is 1: both diagonals are geometric, and the relation
becomes a polynomial identity on the first row.  The dense inverse and
the generic solver remain the reference, and run for explicit matrices
and for circulants with a zero entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from math import gcd
from typing import Optional

from .circulant import OddOrder, build, inverse_row, is_circulant
from .field import GF2m
from .matgf import (
    DimensionMismatch,
    Matrix,
    Singular,
    det,  # unused here; perfbench/tracing.py wraps props.det by name
    diag_trace,
    dims,
    inverse,
    require_square,
    submatrix,  # unused here; perfbench/tracing.py wraps props.submatrix by name
    transpose,
)

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


@dataclass(frozen=True)
class MdsVerdict:
    is_mds: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __bool__(self) -> bool:
        return self.is_mds


@dataclass(frozen=True)
class DiagonalPair:
    """Associated diagonal pair (D1, D2), all entries nonzero.

    `anchors` lists the row index normalized to d1 == 1 in each connected
    component of the nonzero pattern (one entry per component).
    """

    d1: tuple[int, ...]
    d2: tuple[int, ...]
    anchors: tuple[int, ...] = (0,)


class MinorLayerTooLarge(ValueError):
    """An MDS test would keep more than MAX_LAYER_MINORS minors at once."""


# Most minors `is_mds` keeps for one size: 2^24 logs, about 130 MB of list slots
MAX_LAYER_MINORS = 1 << 24


@cache
def _expansion(n: int, size: int) -> tuple:
    """(cols, ((c, rank of cols - c), ...)) for each size-`size` column set
    of range(n), both listed in lexicographic order."""
    rank = {cols: i for i, cols in enumerate(combinations(range(n), size - 1))}
    return tuple(
        (cols, tuple((c, rank[cols[:i] + cols[i + 1:]]) for i, c in enumerate(cols)))
        for cols in combinations(range(n), size)
    )


def is_mds(gf: GF2m, A: Matrix) -> MdsVerdict:
    """Check every square submatrix for nonsingularity, smallest first.

    The witness is the first singular minor in (size, rows, cols) order,
    with rows and columns as increasing index tuples in lexicographic
    order; it is None when A is MDS.

    The minors are built size by size from the ones a size smaller, by
    expansion along the last row r of the row set R:
    det(R, C) = sum over c in C of A[r][c] * det(R - r, C - c), with every
    sign 1 in characteristic 2.  Size k is reached only when every smaller
    minor is nonzero, so those are kept as discrete logs, and each term is
    one `exp_table` lookup at the sum of two logs.  Each kept row set has
    one list of minor logs, indexed by column-set rank; a row set is kept
    only when a larger one extends it (its last row is below n-1).  Row
    sets and column sets are both visited in lexicographic order, so the
    first zero met is the witness.

    A circulant needs only the minors whose row set contains 0.  As
    A[i+s][j+s] == A[i][j] (indices mod n), minor(R+s, C+s) is minor(R, C)
    with its rows and columns permuted, so it has the same determinant.
    Every singular minor therefore has a translate with 0 among its rows,
    and those row sets come first, so the witness is among them.  Removing
    the last row keeps row 0, so the recurrence starts from row 0 alone.

    One size keeps C(n-2, k-1)*C(n, k) minors of a circulant and
    C(n-1, k)*C(n, k) of any other matrix.  MinorLayerTooLarge is raised
    before that exceeds MAX_LAYER_MINORS, which can happen from order 15
    (16 for a circulant), and only when every smaller minor is nonzero.
    """
    n = require_square(A)
    for i in range(n):
        for j in range(n):
            if A[i][j] == 0:
                return MdsVerdict(False, ((i,), (j,)))
    exp, log = gf.exp_table, gf.log_table
    logs = [[log[v] for v in row] for row in A]
    # (row set, logs of its minors by column-set rank), in lexicographic order
    layer = [((i,), logs[i]) for i in ((0,) if is_circulant(A) else range(n - 1))]
    for size in range(2, n + 1):
        table = _expansion(n, size)
        kept = sum(n - 2 - rows[-1] for rows, _ in layer) * len(table)
        if kept > MAX_LAYER_MINORS:
            raise MinorLayerTooLarge(
                f"the MDS test of an order-{n} matrix would keep {kept} minors of "
                f"size {size}, above the limit of {MAX_LAYER_MINORS}")
        grown = []
        for rows, prev in layer:
            for r in range(rows[-1] + 1, n):
                last = logs[r]
                minors = []
                for cols, terms in table:
                    d = 0
                    for c, s in terms:
                        d ^= exp[last[c] + prev[s]]
                    if not d:
                        return MdsVerdict(False, (rows + (r,), cols))
                    minors.append(log[d])
                if r < n - 1:
                    grown.append((rows + (r,), minors))
        layer = grown
    return MdsVerdict(True, None)


def is_involutory(gf: GF2m, A: Matrix) -> bool:
    """A*A == I, computed entrywise with early exit."""
    n = require_square(A)
    mul = gf.mul
    for i in range(n):
        arow = A[i]
        for j in range(n):
            s = 0
            for k in range(n):
                s ^= mul(arow[k], A[k][j])
            if s != (1 if i == j else 0):
                return False
    return True


def is_orthogonal(gf: GF2m, A: Matrix) -> bool:
    """A*A^T == I (which over a field already forces A^T*A == I)."""
    n = require_square(A)
    mul = gf.mul
    for i in range(n):
        arow = A[i]
        for j in range(n):
            brow = A[j]
            s = 0
            for k in range(n):
                s ^= mul(arow[k], brow[k])
            if s != (1 if i == j else 0):
                return False
    return True


def diagonal_scaling_solve(
    gf: GF2m, A: Matrix, B: Matrix, anchor_pick=min
) -> Optional[DiagonalPair]:
    """Find nonsingular diagonal D1, D2 with B == D1*A*D2, or None.

    The zero patterns of A and B must coincide.  On nonzero positions the
    ratio B[i][j]/A[i][j] must factor as d_i*e_j; the factorization is
    recovered by spanning-tree propagation over the bipartite
    row/column graph and then verified on every position.  `anchor_pick`
    chooses the anchored row among each component's rows (min by default)
    and exists so tests can exercise the scalar freedom.
    """
    n = require_square(A)
    if dims(B) != (n, n):
        raise DimensionMismatch("A and B must have identical shapes")
    mul = gf.mul
    inv = gf.inv

    ratio = [[0] * n for _ in range(n)]
    row_adj: list[list[int]] = [[] for _ in range(n)]
    col_adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a = A[i][j]
            b = B[i][j]
            if (a == 0) != (b == 0):
                return None
            if a:
                ratio[i][j] = mul(b, inv(a))
                row_adj[i].append(j)
                col_adj[j].append(i)

    d: list[Optional[int]] = [None] * n
    e: list[Optional[int]] = [None] * n
    anchors = []
    seen_rows = [False] * n
    for start in range(n):
        if seen_rows[start]:
            continue
        # collect the rows of this component first so the anchor choice
        # does not depend on traversal order
        comp_rows = [start]
        comp_cols: list[int] = []
        seen_rows[start] = True
        seen_cols = set()
        frontier = [("r", start)]
        while frontier:
            kind, idx = frontier.pop()
            if kind == "r":
                for j in row_adj[idx]:
                    if j not in seen_cols:
                        seen_cols.add(j)
                        comp_cols.append(j)
                        frontier.append(("c", j))
            else:
                for i in col_adj[idx]:
                    if not seen_rows[i]:
                        seen_rows[i] = True
                        comp_rows.append(i)
                        frontier.append(("r", i))
        anchor = anchor_pick(comp_rows)
        anchors.append(anchor)
        d[anchor] = 1
        queue = [("r", anchor)]
        while queue:
            kind, idx = queue.pop()
            if kind == "r":
                di = d[idx]
                for j in row_adj[idx]:
                    if e[j] is None:
                        e[j] = mul(ratio[idx][j], inv(di))
                        queue.append(("c", j))
            else:
                ej = e[idx]
                for i in col_adj[idx]:
                    if d[i] is None:
                        d[i] = mul(ratio[i][idx], inv(ej))
                        queue.append(("r", i))

    # isolated all-zero rows/columns leave free entries; pin them to 1
    d_full = [v if v is not None else 1 for v in d]
    e_full = [v if v is not None else 1 for v in e]

    # verify every nonzero position (covers all non-tree edges)
    for i in range(n):
        for j in row_adj[i]:
            if mul(d_full[i], e_full[j]) != ratio[i][j]:
                return None
    return DiagonalPair(tuple(d_full), tuple(e_full), tuple(sorted(anchors)))


def circulant_semi_pair(
    gf: GF2m, first_row, relation: str, inv_row=None
) -> Optional[DiagonalPair]:
    """Canonical pair with A^-1 == D1*A*D2 (`relation` "involutory") or
    A^-T == D1*A*D2 ("orthogonal") for A = circulant(first_row), or None.

    The result equals `diagonal_scaling_solve` on the dense A and its
    inverse (or transposed inverse); a singular A gives None.  On a
    full-support row the diagonals are geometric, d1 = (mu^-i) and
    d2 = (k^-1 * mu^j), and the relation holds iff
    c(x)*a(mu*x) == k != 0 mod x^n - 1 for an n-th root of unity mu, where
    c = a(x) for A^-1 and c = a(x^-1) for A^-T.  The n-th roots of unity are
    the gcd(n, q-1) powers of g^((q-1)/gcd(n, q-1)) for the field generator
    g.  Rows with a zero entry go to the generic solver once the Euclidean
    inverse exists and has the zero pattern of A.  `inv_row`, when given,
    returns that inverse (`inverse_row(gf, first_row)`) and is called only
    on such rows, so a caller can share one inverse between both relations.
    """
    # the reflected rows are lists: a scan makes millions of them, and as
    # tuples of new sizes they would fill the interpreter's per-size tuple
    # free lists and raise peak memory
    a = tuple(first_row)
    if relation == "involutory":
        c = a
    elif relation == "orthogonal":
        c = [a[-j] for j in range(len(a))]  # first row of A^T: c_j = a_{-j}
    else:
        raise ValueError(f"unknown relation {relation!r}")
    if all(a):
        return _geometric_pair(gf, a, c)
    b = inv_row() if inv_row is not None else inverse_row(gf, a)
    if b is None:
        return None
    if relation == "orthogonal":
        b = [b[-j] for j in range(len(b))]  # first row of A^-T
    if any((x == 0) != (y == 0) for x, y in zip(a, b)):
        return None
    return diagonal_scaling_solve(gf, build(a), build(b))


def _geometric_pair(gf: GF2m, a, c) -> Optional[DiagonalPair]:
    # every entry is nonzero, so products are sums of discrete logs
    exp, log = gf.exp_table, gf.log_table
    n = len(a)
    q1 = gf.order - 1
    log_a = [log[v] for v in a]
    log_c = [log[v] for v in c]
    for s in range(0, q1, q1 // gcd(n, q1)):  # mu = g^s
        log_am = [(v + j * s) % q1 for j, v in enumerate(log_a)]  # a(mu*x)
        # coefficient t of c(x)*a(mu*x) mod x^n - 1 (a negative index wraps
        # around); the non-constant ones first, where most mu fail
        for t in chain(range(1, n), (0,)):
            k = 0
            for i in range(n):
                k ^= exp[log_c[i] + log_am[t - i]]
            if t and k:
                break
        else:
            if k:
                log_k = log[k]
                return DiagonalPair(
                    tuple(exp[-i * s % q1] for i in range(n)),
                    tuple(exp[(j * s - log_k) % q1] for j in range(n)),
                    (0,),
                )
    return None


def semi_orthogonal_check(gf: GF2m, A: Matrix) -> Optional[DiagonalPair]:
    """Diagonal pair with A^-T == D1*A*D2, or None.  Raises Singular."""
    return diagonal_scaling_solve(gf, A, transpose(inverse(gf, A)))


def semi_involutory_check(gf: GF2m, A: Matrix) -> Optional[DiagonalPair]:
    """Diagonal pair with A^-1 == D1*A*D2, or None.  Raises Singular."""
    return diagonal_scaling_solve(gf, A, inverse(gf, A))


def power_scalar(gf: GF2m, d, n: int) -> Optional[int]:
    """The scalar k with D^n == k*I, if the entrywise n-th powers agree.

    Returns None when the powers differ or when k would be 0 (the scalar
    is required to be nonzero, so a zero entry disqualifies the diagonal).
    """
    powers = {gf.pow(v, n) for v in d}
    if len(powers) != 1:
        return None
    k = powers.pop()
    return k if k != 0 else None


def is_nonperiodic(d) -> bool:
    """For order 2h: every opposite pair differs (d_i != d_{i+h})."""
    n = len(d)
    if n % 2 != 0:
        raise OddOrder(f"nonperiodicity needs an even order, got {n}")
    h = n // 2
    return all(d[i] != d[i + h] for i in range(h))


@dataclass(frozen=True)
class SemiReport:
    """Outcome of one semi-property check on a nonsingular matrix."""

    found: bool
    pair: Optional[DiagonalPair] = None
    k1: Optional[int] = None
    k2: Optional[int] = None
    trace_d1: Optional[int] = None
    trace_d2: Optional[int] = None


# one instance for every relation without a pair, as a scan asks on every row
_NOT_FOUND = SemiReport(found=False)


@dataclass(frozen=True)
class Classification:
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


_UNSET = object()


class Properties:
    """The property battery of one square matrix, each property evaluated on
    first use and cached.

    Built from a circulant first row (`Properties(gf, row)`) or from an
    explicit matrix (`Properties(gf, matrix=A)`).  Only `inverse` and `semi`
    compute by different means: a row takes the circulant fast path, with
    one Euclidean inverse shared by both relations, and a matrix takes the
    dense inverse and the generic solver.  `semi_reports` (relation -> SemiReport) and
    `mds_verdict` hold what has been evaluated so far, in evaluation order;
    a scan tallies its side invariants from them, so a property nothing
    asked for is never counted.
    """

    __slots__ = ("gf", "row", "n", "_matrix", "_inverse", "_involutory",
                 "_orthogonal", "mds_verdict", "semi_reports")

    def __init__(self, gf: GF2m, row=None, matrix: Optional[Matrix] = None):
        if (row is None) == (matrix is None):
            raise TypeError("give exactly one of row and matrix")
        self.gf = gf
        if row is not None:
            self.row = tuple(row)
            self.n = len(self.row)
        else:
            self.row = None
            self.n = require_square(matrix)
        self._matrix = matrix
        self._inverse = _UNSET
        self._involutory = self._orthogonal = self.mds_verdict = None
        self.semi_reports: dict[str, SemiReport] = {}

    @property
    def matrix(self) -> Matrix:
        """The dense matrix; a row builds it on first use, as the semi pairs
        of a row need only the row."""
        if self._matrix is None:
            self._matrix = build(self.row)
        return self._matrix

    def inverse(self):
        """The first row of A^-1 for a row, the dense A^-1 for a matrix;
        None when A is singular."""
        if self._inverse is _UNSET:
            if self.row is not None:
                self._inverse = inverse_row(self.gf, self.row)
            else:
                try:
                    self._inverse = inverse(self.gf, self._matrix)
                except Singular:
                    self._inverse = None
        return self._inverse

    def semi(self, relation: str) -> SemiReport:
        """The pair with A^-1 == D1*A*D2 (`relation` "involutory") or
        A^-T == D1*A*D2 ("orthogonal"), with its scalar powers and traces."""
        reports = self.semi_reports
        if relation not in reports:
            if self.row is not None:
                pair = circulant_semi_pair(self.gf, self.row, relation, self.inverse)
            else:
                inv = self.inverse()
                if inv is not None and relation == "orthogonal":
                    inv = transpose(inv)
                pair = None if inv is None else diagonal_scaling_solve(
                    self.gf, self._matrix, inv)
            reports[relation] = _NOT_FOUND if pair is None else SemiReport(
                found=True,
                pair=pair,
                k1=power_scalar(self.gf, pair.d1, self.n),
                k2=power_scalar(self.gf, pair.d2, self.n),
                trace_d1=diag_trace(pair.d1),
                trace_d2=diag_trace(pair.d2),
            )
        return reports[relation]

    def mds(self) -> MdsVerdict:
        if self.mds_verdict is None:
            self.mds_verdict = is_mds(self.gf, self.matrix)
        return self.mds_verdict

    def involutory(self) -> bool:
        if self._involutory is None:
            self._involutory = is_involutory(self.gf, self.matrix)
        return self._involutory

    def orthogonal(self) -> bool:
        if self._orthogonal is None:
            self._orthogonal = is_orthogonal(self.gf, self.matrix)
        return self._orthogonal

    def nonperiodic(self) -> tuple[Optional[bool], Optional[bool]]:
        """Nonperiodicity of D1 and D2 of the semi-orthogonal pair; None at
        odd order or without a pair."""
        so = self.semi("orthogonal")
        if self.n % 2 or not so.found:
            return None, None
        return is_nonperiodic(so.pair.d1), is_nonperiodic(so.pair.d2)

    def classification(self) -> Classification:
        # a singular matrix is never involutory, orthogonal or semi-anything,
        # so it needs no branch of its own
        row = self.row
        if row is None and is_circulant(self.matrix):
            row = tuple(self.matrix[0])
        np1, np2 = self.nonperiodic()
        return Classification(
            order=self.n,
            category=order_category(self.n),
            first_row=row,
            singular=self.inverse() is None,
            mds=self.mds(),
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
    """`check` output for an explicit (not necessarily circulant) matrix."""
    return classification_json(gf, Properties(gf, matrix=A).classification(), matrix=A)
