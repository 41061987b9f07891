"""Brute-force and dense references that the tests compare the package against.

None of this runs in a command or a scan: each function is the slow,
obvious form of something the package decides faster.
"""

import dataclasses
from itertools import product
from math import comb, gcd
from typing import Optional

from circmds import props, verify
from circmds.matgf import Singular, diag_trace, inverse, transpose
from circmds.props import DiagonalPair, Properties, diagonal_scaling_solve
from circmds.verify import RANDOM, SUITES, BudgetExceeded, ScanReport, random_rows, run_suite

ORACLE_MAX_Q = 8
ORACLE_MAX_N = 3

_TWO_TO_THE_64 = 1 << 64


def _target(gf, A, relation: str):
    """A^-1 for `relation` "involutory", A^-T for "orthogonal".  Raises
    Singular: the semi-properties need A^-1."""
    B = inverse(gf, A)
    if relation == "orthogonal":
        return transpose(B)
    if relation != "involutory":
        raise ValueError(f"unknown relation {relation!r}")
    return B


def dense_semi_pair(gf, A, relation: str) -> Optional[DiagonalPair]:
    """The generic solver's pair with A^-1 == D1*A*D2 (`relation`
    "involutory") or A^-T == D1*A*D2 ("orthogonal"), from the dense
    inverse; None without a pair.  Raises Singular."""
    return diagonal_scaling_solve(gf, A, _target(gf, A, relation))


def oracle_semi_search(gf, A, relation: str) -> Optional[DiagonalPair]:
    """Decide a semi-property by trying every nonzero diagonal pair.

    `relation` is "involutory" (target A^-1) or "orthogonal" (target A^-T).
    Independent of the ratio-propagation solver: for each of the (q-1)^n
    left diagonals, each right-diagonal entry is tested against every row
    of its column.  Kept to q <= 8, n <= 3, where (q-1)^(2n) is desk-sized.
    """
    n = len(A)
    q = gf.order
    if q > ORACLE_MAX_Q or n > ORACLE_MAX_N:
        raise BudgetExceeded(
            f"oracle limited to q <= {ORACLE_MAX_Q}, n <= {ORACLE_MAX_N}"
        )
    B = _target(gf, A, relation)
    mul = gf.mul
    nonzero = range(1, q)
    a_cols = [[A[i][j] for i in range(n)] for j in range(n)]
    b_cols = [[B[i][j] for i in range(n)] for j in range(n)]
    rows_idx = range(n)
    for d in product(nonzero, repeat=n):
        pick = []
        for j in range(n):
            ac = a_cols[j]
            bc = b_cols[j]
            found = None
            for e in nonzero:
                if all(mul(mul(d[i], ac[i]), e) == bc[i] for i in rows_idx):
                    found = e
                    break
            if found is None:
                break
            pick.append(found)
        else:
            return DiagonalPair(tuple(d), tuple(pick))
    return None


def per_root_geometric_pair(gf, row) -> Optional[DiagonalPair]:
    """`props._geometric_pair` one root of unity at a time: for each
    mu = g^s in the package's order, a(mu*x) is rebuilt and every tested
    coefficient of a(x^-1)*a(mu*x) mod x^n - 1 summed afresh; the first
    mu whose product is a nonzero constant k gives the geometric pair
    d1 = (mu^-i), d2 = (k^-1 * mu^j), and no such mu gives None."""
    exp, log = gf.exp_table, gf.log_table
    q1 = gf.order - 1
    n = len(row)
    a_logs = [(j, log[v]) for j, v in enumerate(row) if v]
    c_logs = [(-j % n, v) for j, v in a_logs]  # c = a(x^-1), the first row of A^T
    log_am: list = [None] * n  # logs of a(mu*x); None at a zero entry
    shifts = (*range(1, (n - 1) // 2 + 1), 0)
    for s in range(0, q1, q1 // gcd(n, q1)):  # mu = g^s
        for j, v in a_logs:
            log_am[j] = (v + j * s) % q1
        for t in shifts:
            k = 0
            for i, lc in c_logs:
                la = log_am[t - i]
                if la is not None:
                    k ^= exp[lc + la]
            if t and k:
                break
        else:
            if k:
                log_k = log[k]
                return DiagonalPair(
                    tuple(exp[-i * s % q1] for i in range(n)),
                    tuple(exp[(j * s - log_k) % q1] for j in range(n)),
                )
    return None


def scalar_square_root(first_row) -> int:
    """The r with circulant(first_row)^2 == r^2 * I, or 0 when that square
    is not a nonzero scalar matrix, by the XOR fold that `props.pair_screen`
    runs in place: r_t, the sum of the a_j with 2j == t (mod n), must be 0
    at every t != 0, and r = r_0.  At odd n that leaves the rows
    (r, 0, ..., 0); at even n = 2h the rows with a_i == a_(i+h) for
    0 < i < h, and r = a_0 + a_h."""
    n = len(first_row)
    h = n >> 1
    if n & 1:
        return 0 if any(first_row[1:]) else first_row[0]
    return first_row[0] ^ first_row[h] if first_row[1:h] == first_row[h + 1:] else 0


def autocorrelation_roots(gf, first_row, d: int) -> list:
    """The e < d, in increasing order, for which a(x^-1)*a(mu*x) mod x^n - 1
    is a constant, with mu = g^(e*(q-1)/d) for the field generator g; d
    divides gcd(n, q - 1), so these mu are the d-th roots of unity.

    The lane fold of `props.pair_screen` on its own, over the lane tables of
    `props._lanes` (d, m + 1 bits per lane), at any d and with no
    row-sum test: for t = 1 .. (n-1)//2 the XOR v of the residue tables'
    entries for the terms a_j*a_(j-t) is coefficient t at every mu, and
    `alive &= ~(v + low)` keeps the mu whose lane is 0.
    """
    tables = props._lanes(gf, d)
    exp, log = gf.exp_table, gf.log_table
    m = gf.m
    ones = sum(1 << (e * (m + 1)) for e in range(d))
    low, top = ones * ((1 << m) - 1), ones << m
    alive = top
    for t in range(1, (len(first_row) - 1) // 2 + 1):
        v = 0
        for j, u in enumerate(first_row):
            if u:
                w = first_row[j - t]  # a negative index wraps around
                if w:
                    v ^= tables[j % d][exp[log[u] + log[w]]]
        alive &= ~(v + low)
        if not alive:
            return []
    return [e for e in range(d) if alive >> (e * (m + 1) + m) & 1]


def pair_gate(gf, relations, n: int):
    """The per-row gate that `props.pair_screen` runs in place over a chunk:
    callable(row) -> (root, roots) of the order-n row, or None when by its
    folds the row has the pair of none of the semi `relations`.  root is
    `scalar_square_root` when "involutory" is asked, roots the
    `autocorrelation_roots` of the row's block by the support gcd
    (`gcd_block`) at d = gcd(len(b), q - 1) when the row sum is nonzero and
    "orthogonal" is asked; a row whose root is nonzero is not folded again.
    """
    involutory = "involutory" in relations
    orthogonal = "orthogonal" in relations

    def gate(row):
        root = roots = None
        if involutory:
            root = scalar_square_root(row)
            if root:
                return root, roots
        if orthogonal and diag_trace(row):
            b = gcd_block(row)[2]
            roots = autocorrelation_roots(gf, b, gcd(len(b), gf.order - 1))
            if roots:
                return root, roots
        return None
    return gate


def screen_by_gate(gf, relations, n: int, items) -> tuple:
    """(admitted, rejected) of `props.pair_screen`, one row at a time
    through `pair_gate`."""
    gate = pair_gate(gf, relations, n)
    admitted, rejected = [], 0
    for item in items:
        folds = gate(item[0])
        if folds is None:
            rejected += len(item[1]) * item[2] * (2 if item[3] else 1)
        else:
            admitted.append((item, *folds))
    return admitted, rejected


def scalar_gram_root(gf, first_row) -> int:
    """The t with A*A^T == t^2 * I for A = circulant(first_row), or 0 when
    that product is not a nonzero scalar matrix, from its own fold at
    d = 1; `Properties.gram_root` reads t from the fold at d = gcd(n, q-1).

    A^T has the first row of a(x^-1), so A*A^T is a(x)*a(x^-1) mod
    x^n - 1, the mu = 1 case of `autocorrelation_roots`; its constant
    coefficient is the sum of the squares, the square of the row sum t.
    """
    t = diag_trace(first_row)
    return t if t and autocorrelation_roots(gf, first_row, 1) else 0


def isomorphism(gf, gf2) -> tuple:
    """phi[v] for each v of gf: the isomorphism from gf onto gf2, two
    fields of one order, that takes x to beta, the least root in gf2 of
    gf's defining polynomial, so phi(sum of c_i*x^i) is the sum of
    c_i*beta^i (Lidl and Niederreiter, *Finite Fields*, ch. 2).  It is
    additive by its form and multiplicative as beta is a root.  Products
    go through `mul_raw`, the shift-and-reduce product, so no log table of
    either field is read."""
    m = gf.m

    def at(beta):  # gf's polynomial at beta, by Horner's rule
        value = 0
        for i in range(m, -1, -1):
            value = gf2.mul_raw(value, beta) ^ (gf.poly >> i & 1)
        return value

    beta = next(b for b in range(gf2.order) if at(b) == 0)
    powers = [1]
    for _ in range(1, m):
        powers.append(gf2.mul_raw(powers[-1], beta))
    phi = []
    for v in range(gf.order):
        image = 0
        for i, power in enumerate(powers):
            if v >> i & 1:
                image ^= power
        phi.append(image)
    return tuple(phi)


def planted_semi_orthogonal_row(gf, n: int, rng) -> tuple:
    """(a, b) of order n, for odd n dividing q - 1, with a(x)*a(x^-1) == 1
    and b(x^-1)*b(mu*x) constant at a mu != 1.  R splits at the powers of
    omega = g^((q-1)/n): a spectrum with lambda_0 = 1 and
    lambda_-j = lambda_j^-1 gives a by the inverse DFT (no 1/n at odd n),
    and its twist b_j = a_j*nu^j, nu^n == 1 and nu != 1, has
    b(x^-1)*b(mu*x) == a(nu*x^-1)*a(nu*mu*x) constant at mu = nu^-2, as
    x -> nu^-1*x is a ring automorphism of R."""
    exp, log = gf.exp_table, gf.log_table
    q1 = gf.order - 1
    w = q1 // n  # omega = g^w
    spectrum = [1] * n
    for j in range(1, (n + 1) // 2):
        spectrum[j] = rng.randrange(1, gf.order)
        spectrum[n - j] = gf.inv(spectrum[j])
    a = [0] * n
    for i in range(n):
        for j, lam in enumerate(spectrum):
            a[i] ^= exp[(log[lam] - i * j * w) % q1]
    nu = rng.randrange(1, n) * w  # the log of nu
    b = tuple(exp[(log[v] + j * nu) % q1] if v else 0 for j, v in enumerate(a))
    return tuple(a), b


def planted_singular_minor_row(gf, n: int, k: int, rng) -> tuple:
    """A row of order n whose circulant has a singular k x k minor, its
    other entries random.  On random row and column sets T and C, weights
    x_c != 0 make the columns of A[T, C] dependent when, for every r in T,
    the sum over c in C of x_c * a_(c - r) is 0: k equations linear in the
    row, solved for k random entries.  At k == n the row sum is made 0.
    Over a large field every smaller minor is nonzero in most draws, so
    the first singular minor has size k."""
    mul = gf.mul
    row = [rng.randrange(1, gf.order) for _ in range(n)]
    if k == n:
        row[0] = diag_trace(row[1:])
        return tuple(row)
    while True:
        T, C, pivots = (sorted(rng.sample(range(n), k)) for _ in range(3))
        x = [rng.randrange(1, gf.order) for _ in C]
        M = [[0] * n for _ in T]  # M[i][j]: the weight of a_j in equation i
        for i, r in enumerate(T):
            for c, w in zip(C, x):
                M[i][(c - r) % n] ^= w
        try:
            solve = inverse(gf, [[M[i][p] for p in pivots] for i in range(k)])
        except Singular:
            continue
        rest = [0] * k
        for i in range(k):
            for j in range(n):
                if j not in pivots:
                    rest[i] ^= mul(M[i][j], row[j])
        for p, s in zip(pivots, solve):
            row[p] = 0
            for v, b in zip(s, rest):
                row[p] ^= mul(v, b)
        return tuple(row)


def planted_singular_minor_matrix(gf, n: int, k: int, rng) -> list:
    """A random n x n matrix, entries nonzero, with a singular k x k minor
    on random row and column sets T and C: on C, the last row of T is a
    sum of nonzero multiples of the other rows of T, and at k == 1 the
    entry is 0.  Over a large field every smaller minor is nonzero in most
    draws, so the first singular minor has size k."""
    A = [[rng.randrange(1, gf.order) for _ in range(n)] for _ in range(n)]
    T, C = (sorted(rng.sample(range(n), k)) for _ in range(2))
    weights = [rng.randrange(1, gf.order) for _ in T[:-1]]
    for c in C:
        A[T[-1]][c] = 0
        for r, w in zip(T, weights):
            A[T[-1]][c] ^= gf.mul(w, A[r][c])
    return A


def roots_by_root(gf, first_row, d: int) -> list:
    """`autocorrelation_roots` one root of unity at a time: the e < d for
    which every coefficient t = 1 .. n-1 of a(x^-1)*a(mu*x) mod x^n - 1,
    mu = g^(e*(q-1)/d), is 0, each summed in full as the sum over j of
    a_(j-t)*a_j*mu^j, with no symmetry between t and n - t and no residues
    mod d."""
    mul = gf.mul
    n = len(first_row)

    def coefficient(am, t):
        c = 0
        for j in range(n):
            c ^= mul(first_row[j - t], am[j])  # a negative index wraps around
        return c

    roots = []
    for e in range(d):
        mu = gf.pow(gf.generator, e * ((gf.order - 1) // d))
        am = []  # a(mu*x)
        power = 1
        for v in first_row:
            am.append(mul(v, power))
            power = mul(power, mu)
        if not any(coefficient(am, t) for t in range(1, n)):
            roots.append(e)
    return roots


def semi_involutory_count(q: int, n: int) -> int:
    """How many first rows of order n over GF(q) give a semi-involutory
    circulant, in closed form: q^(n/2)*(q-1) at even n and q-1 at odd n.

    The relation is A^2 == k*I with k != 0 (the `props` module docstring),
    and `scalar_square_root` reads it from the row: at odd n the
    rows (r, 0, ..., 0), r != 0; at even n = 2h the rows with
    a_i == a_(i+h) for 0 < i < h, q^(h-1) choices, and a_0 != a_h, q*(q-1).
    """
    return q ** (n // 2) * (q - 1) if n % 2 == 0 else q - 1


def minor_orbit(n: int, rows: tuple, cols: tuple) -> set:
    """The orbit of the pair (rows, cols) of index sets mod n under the
    translations (R + s, C + s) and the reflection (R, C) -> (-C, -R), as
    pairs of increasing tuples."""
    def image(xs, s, sign):
        return tuple(sorted([(s + sign * x) % n for x in xs]))
    return {pair for s in range(n)
            for pair in ((image(rows, s, 1), image(cols, s, 1)),
                         (image(cols, s, -1), image(rows, s, -1)))}


def minor_orbit_count(n: int, k: int) -> int:
    """How many orbits `minor_orbit` splits the C(n, k)^2 pairs of size-k
    row and column sets into, by Burnside's lemma over the 2n maps:
    (sum over d | gcd(n, k) of phi(d) * C(n/d, k/d)^2 + n * C(n, k)) / 2n.

    The phi(d) translations of order d fix the pairs of unions of their
    n/d cycles, C(n/d, k/d)^2 when d | k; each reflection
    (R, C) -> (s - C, s - R) fixes the C(n, k) pairs with C == s - R.
    """
    g = gcd(n, k)
    fixed = sum(sum(gcd(d, j) == 1 for j in range(1, d + 1)) * comb(n // d, k // d) ** 2
                for d in range(1, g + 1) if g % d == 0)
    return (fixed + n * comb(n, k)) // (2 * n)


_MASK64 = _TWO_TO_THE_64 - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """The scalar SplitMix64 stream, one output per call: the oracle of
    `verify._outputs`, which computes a block of outputs at a time.

    The state advances by a fixed step per output, so output k of seed s
    is the first output of seed s + k * 0x9E3779B97F4A7C15 (mod 2^64).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def next_below(rng, bound: int) -> int:
    """Uniform draw in [0, bound) from a SplitMix64 stream by rejection
    (0 < bound <= 2^64)."""
    if not 0 < bound <= _TWO_TO_THE_64:
        raise ValueError(f"bound must be in [1, 2^64], got {bound}")
    limit = _TWO_TO_THE_64 - _TWO_TO_THE_64 % bound
    while True:
        r = rng.next_u64()
        if r < limit:
            return r % bound


def component_first_rows(A) -> list:
    """The smallest row index of each connected component of the bipartite
    row/column graph of A's nonzero entries, in increasing order."""
    n = len(A)
    seen = set()
    firsts = []
    for start in range(n):
        if start in seen:
            continue
        firsts.append(start)
        seen.add(start)
        stack = [start]
        while stack:
            i = stack.pop()
            # rows i and k share a component when some column is nonzero in both
            for k in range(n):
                if k not in seen and any(A[i][j] and A[k][j] for j in range(n)):
                    seen.add(k)
                    stack.append(k)
    return firsts


def count_folds(monkeypatch) -> list:
    """The (row, d) of every autocorrelation fold made from here on.  Each
    call of `props.pair_screen`, on a scan chunk or on the one-row chunk of
    `props.block_roots`, folds in place, at d = gcd(n, q - 1), each row of
    the chunk asked for the orthogonal relation that the involutory fold
    did not admit, with a nonzero row sum and a connected support
    (`gcd_block`); the block of any other row with a nonzero row sum goes
    through `block_roots`, a call of its own that folds it.  The calls through
    `props` and `verify` are counted so, the nested ones first, and
    the lane tables start empty (`fresh_lanes`)."""
    folds = []
    screen = props.pair_screen

    def counting(gf, relations, n, items):
        items = list(items)
        admitted, rejected = screen(gf, relations, n, items)
        if "orthogonal" in relations:
            square_roots = {id(item): root for item, root, _ in admitted}
            d = gcd(n, gf.order - 1)
            folds.extend((item[0], d) for item in items
                         if diag_trace(item[0]) and gcd_block(item[0])[1] == 1
                         and not square_roots.get(id(item)))
        return admitted, rejected

    fresh_lanes(monkeypatch)
    monkeypatch.setattr(props, "pair_screen", counting)
    monkeypatch.setattr(verify, "pair_screen", counting)
    return folds


def fresh_lanes(monkeypatch) -> None:
    """Empty `props._LANES` and its byte count, `props._lanes_held`."""
    monkeypatch.setattr(props, "_LANES", {})
    monkeypatch.setattr(props, "_lanes_held", 0)


def block_roots_by_root(gf, row) -> list:
    """The roots `props.block_roots` gives for the nonzero row: `roots_by_root`
    of its block b by the support gcd (`gcd_block`) at d = gcd(len(b),
    q - 1), and [] at a zero row sum."""
    if not diag_trace(row):
        return []
    b = gcd_block(row)[2]
    return roots_by_root(gf, b, gcd(len(b), gf.order - 1))


def index_to_row(index: int, q: int, n: int) -> tuple:
    """Base-q digits of index, least significant digit = c_0: the
    definition that `verify.random_rows` reads by shifts."""
    row = []
    for _ in range(n):
        index, digit = divmod(index, q)
        row.append(digit)
    return tuple(row)


def gcd_block(row) -> tuple:
    """(s0, g, b) of a nonzero row by the support gcd alone:
    g = gcd(n, S - S), s0 = min(S) mod g and b = row[s0::g]."""
    support = [j for j, v in enumerate(row) if v]
    g = gcd(len(row), *(j - support[0] for j in support))
    s0 = support[0] % g
    return s0, g, tuple(row[s0::g])


def disconnected_rows(gf, n, lead_one=False) -> list:
    """The nonzero rows of order n whose support is disconnected, in
    increasing order; with `lead_one`, those whose first nonzero entry is
    1.  A support S is disconnected when g = gcd(n, S - S) > 1, and then
    it lies in a coset of p*Z_n for each prime p | g, so the rows are
    listed coset by coset over the prime divisors p of n."""
    rows = set()
    for p in range(2, n + 1):
        if n % p or any(p % d == 0 for d in range(2, p)):
            continue
        for r in range(p):
            for values in product(range(gf.order), repeat=n // p):
                row = [0] * n
                row[r::p] = values
                if any(row) and (not lead_one or next(v for v in row if v) == 1):
                    rows.add(tuple(row))
    return sorted(rows)


def class_rows(q: int, n: int, start: int, end: int) -> list:
    """Representatives start .. end-1 of the scalar classes of q^n rows, in
    class order: for p = 0 .. n-1 in turn the q^(n-1-p) rows whose first
    nonzero entry a_p is 1, (0,)*p + (1,) + tail, with their tails in index
    order; the zero row last."""
    rows = [(0,) * p + (1,) + index_to_row(i, q, n - 1 - p)
            for p in range(n) for i in range(q ** (n - 1 - p))]
    rows.append((0,) * n)
    return rows[start:end]


# the payload entries a scan decides; the others describe its config
DECIDED = ("examined", "suites", "side_invariants", "ok")


def decided(report) -> dict:
    """The DECIDED entries of a scan report's payload."""
    payload = report.payload()
    return {key: payload[key] for key in DECIDED}


def row_by_row(config) -> dict:
    """The DECIDED entries of an exhaustive `config` scanned one row at a
    time: the same config in random mode with no draws, whose forced rows
    are its own followed by every row of the space in index order.  Each
    row gets its own tally, so no orbit stands for another; the gate still
    decides a row without a pair of the suites' relations on its folds
    alone, where `every_row_tally` gives it a `Properties` and a tally."""
    q, n = config.field.order, config.order
    every = tuple(index_to_row(i, q, n) for i in range(q ** n))
    return decided(run_suite(dataclasses.replace(
        config, mode=RANDOM, sample_count=0, extra_rows=config.extra_rows + every)))


def every_row_tally(config) -> dict:
    """The DECIDED entries of `config` with every row tallied on its own by
    `verify._tally` on a fresh `Properties`, with no chunk, orbit or gate:
    its forced rows, then every row of the space in index order, or in
    random mode the draws of its seeded stream."""
    q, n = config.field.order, config.order
    if config.mode == RANDOM:
        rows = random_rows(config.seed, q, n, 0, config.sample_count)
    else:
        rows = (index_to_row(i, q, n) for i in range(q ** n))
    report = ScanReport(config)
    runners = [(SUITES[name].run, report.suites[name]) for name in config.suites]
    for row in config.extra_rows + tuple(rows):
        verify._tally(report, runners, Properties(config.field, row))
    return decided(report)
