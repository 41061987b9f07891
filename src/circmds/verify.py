"""Theorem scan suites over circulant first rows, plus golden-instance checks.

A scan enumerates candidate first rows over a field (exhaustively, or by
seeded sampling), evaluates one or more suites on every candidate, and
returns a `ScanReport`.  Each implication suite counts the candidates that
satisfy its hypothesis and those that also satisfy its conclusion; any gap
is recorded as a counterexample, so a correct implementation always
produces an empty counterexample list.

Determinism contract: given equal (field, order, suites, mode, seed,
sample_count, extra_rows), the report payload is bit-identical across runs
and across worker counts.  Candidates are enumerated as base-q counters
with c_0 in the least significant position; random mode draws them from
one seeded SplitMix64 stream, computed a block of up to 4,096 outputs at
a time in the 128-bit lanes of one int (`_outputs`).  A chunk is the
config's forced rows or a (start, end) span of at most CHUNK draws of the
stream, or of at most CHUNK class representatives of an exhaustive scan,
which goes by orbits (below); each chunk returns a partial `ScanReport`,
and the partials are merged in order, forced rows first.  A scan by
orbits meets its failing rows out of enumeration order, so `run_suite`
sorts its merged span lists (counterexamples, power-scalar and
interleaved failures) by enumeration index, stably, which keeps the
entries of one row in the order they were found; the forced rows'
entries stay first, unsorted.  Every payload thus
equals that of a scan that tallies each row on its own, which the tests
build in tests/reference.py from the same config with every row forced,
and that of one that runs every suite on every row, with no gate.
A pool runs the chunks in at most min(workers, chunks, CPUs) processes.
Wall-clock time and worker count live outside the deterministic payload.

Scalar classes.  Take A = circulant(a), c != 0, and the member c*a:
  MDS          every k x k minor of cA is c^k times the minor of A, so the
               MDS verdict and the witness are the same for every member.
  semi pairs   (cA)^-1 == D1*(cA)*(c^-2*D2) when A^-1 == D1*A*D2, and the
               same holds for A^-T; so `found`, d1, k1 is None,
               trace(d1) == 0 and nonperiodicity are the same for every
               member, and d2 only scales by c^-2, which keeps whether
               k2 is None and whether trace(d2) == 0.
  interleaved  both sums scale by c, so whether one is zero is the same.
  involutory   with r = scalar_square_root(a), (cA)^2 == c^2*r^2*I, so c*a
               has the root c*r, and a member (c = r^-1) is involutory
               exactly when r != 0.
  orthogonal   with t = Properties.gram_root(), (cA)*(cA)^T == c^2*t^2*I, so
               c*a has the root c*t, and a member (c = t^-1) is orthogonal
               exactly when t != 0.

Frobenius.  sigma(v) = v^2 is an automorphism of GF(2^m) that fixes 0 and
1; take B = sigma(A) entrywise, the circulant of sigma(a):
  MDS          every minor of B is sigma of the minor of A, so the MDS
               verdict and the witness are the same.
  semi pairs   B^-1 == sigma(A^-1), so (sigma(D1), sigma(D2)) is B's pair,
               still canonical as sigma(1) == 1; `found`, k is None,
               trace == 0 and nonperiodicity are kept, and so is whether
               an interleaved sum is zero.
  roots        B^2 == sigma(r)^2*I and B*B^T == sigma(t)^2*I, so whether
               r or t is zero is the same.
A class representative (first nonzero entry 1) maps to one, so sigma acts
on the representatives; its orbit has m/s distinct images sigma^f(a),
where s is the number of f < m with sigma^f(a) == a.

Transposition.  tau(a) = a(x^-1) = (a_0, a_(n-1), ..., a_1) is the first
row of A^T:
  MDS          every minor of A^T is a minor of A transposed, so the MDS
               verdict is the same (a scan reads no witness).
  semi pairs   A^-1 == D1*A*D2 gives (A^T)^-1 == D2*A^T*D1, and A^-T ==
               D1*A*D2 gives (A^T)^-T == A^-1 == D2*A^T*D1; so tau(a) has a
               pair exactly when a has one, and its canonical pair is
               (D2, D1) rescaled to be 1 at the least row of each component
               of the nonzero pattern.  On a connected support one scalar
               does it, (c*D2, c^-1*D1), and a scalar keeps k is None,
               trace == 0 and nonperiodicity: tau(a)'s d1 has those of a's
               d2, and its d2 those of a's d1.
  disconnected A support S with g = gcd(n, S - S) > 1 lies in a coset
               s0 + g*Z_n, and `props` decides the row on its block
               b = (a_(s0 + g*beta)) of order n/g, whose support is
               connected (the `props` module docstring): the canonical
               pair is D1 == (mu^-(i div g)) and
               D2 == (k^-1 * mu^(((j - s0) mod n) div g)) for the mu and k
               of b, mu^(n/g) == 1, and a semi-involutory pair is a scalar
               square's, with mu == 1.  So each diagonal is a cycle of runs
               of g equal entries, each run mu^-1 or mu times the one
               before: its n-th power is scalar, its trace is 0 exactly
               when mu != 1 or n is even, and the ratios d_(i+h)/d_i over
               every i (h = n/2), which nonperiodicity reads, move with
               neither the offset of the runs nor mu -> mu^-1, nor a
               scalar.  tau(a)'s block is tau(b) rotated, so its pair has
               this form with mu^-1.  So on every row with a pair d1 and
               d2 agree on each predicate a scan counts, and agree with
               tau(a)'s, in either order.
  roots        (A^T)^2 == (A^2)^T and A^T*A == A*A^T, so r and t are the
               same for tau(a).
  interleaved  at even n, j -> -j keeps the parity of j, so both sums are
               the same.
The representative of tau(a) is c*tau(a), with c the inverse of its first
nonzero entry: 1 when a_0 != 0, or else the inverse of a's last nonzero
entry.  tau commutes with sigma and with the scalars, so the sigma-orbits
of the classes of a and of tau(a) have the same size, and they are one
orbit or disjoint.

By these facts every runner's result, and everything it evaluates, is
the same on every row of the orbit of a row under the group
a -> c*sigma^f(tau^e(a)), c != 0.  INV-NONE and ORTH-NONE state their
theorems on whole scalar classes for this: some member of the class is
involutory (r != 0), or orthogonal (t != 0), and MDS.  An exhaustive
scan goes over the classes: the representatives whose first
nonzero entry is 1, then the zero row on its own.  Of each orbit it
evaluates only the representative a that is least in enumeration order
among the representatives of its images sigma^f(a) and sigma^f(tau(a)),
and it generates those alone, digit by digit from a_(n-1) down, the order
in which the index compares rows (`orbit_representatives`; R. C. Read's
orderly generation).  sigma^f maps each entry on its own; call it tied
while it fixes the digits read.  When a tied sigma^f maps the next digit
lower, sigma^f(a) is below a in every completion of the prefix, so the
prefix goes with all its rows.  Once no sigma^f is tied, every completion
survives sigma.  tau is tested on the top digit: when a_0 = 1, the
representative of tau(a) is tau(a) itself, read from the top a_1, ...,
a_(n-1), a_0, so a is least only if the least image sigma^f(a_1) is at
least a_(n-1), and a_1 runs over those values alone.  The representative
gets one tally for its orbit, with the q - 1 scalars times the orbit size
as weight, doubled when tau leaves the sigma-orbit; the zero row is an
orbit of its own, of weight 1.  A failure lists the rows sigma^f(c*a)
and, when tau leaves the sigma-orbit, their transposes, whose
power-scalar entries carry d1 and d2 swapped, in the order of a row
tallied on its own: by relation, then d1 before d2.  Over GF(2) the only
scalar is 1 and sigma is the identity, so the orbits are {a, tau(a)}.

The gate.  Each `SuiteDef` declares in `relation` the semi relation
whose pair exists on every row where its hypothesis holds: "orthogonal",
A^-T == D1*A*D2, for the SO-* suites and ORTH-NONE, as A*A^T == t^2*I
gives A^-T == I*A*(t^-2*I); "involutory", A^-1 == D1*A*D2, for the SI-*
suites and INV-NONE, as A^2 == r^2*I gives A^-1 == I*A*(r^-2*I).  Each
runner asks that relation first and stops when the pair is missing,
before it evaluates anything a tally counts: no hypothesis holds, no pair
is found and no MDS verdict is made, so such a row adds its weight to
`examined` and nothing else.  When every suite of a scan declares a
relation, the scan decides this on the relations' folds alone, a chunk
at a time, before any row gets a `Properties`: `props.pair_screen` runs
one loop over the chunk's rows that folds, in place, the scalar square
for the involutory pair, and the row sum and the roots of unity of the
block's autocorrelation for the orthogonal one, at gcd(n, q - 1) with no
block step when the row is its own block; that loop is the package's one
lane fold.  It hands back the admitted rows in chunk order, which keeps
the unsorted failure lists of a random scan in draw order, and the
weight of the others.  Whether a row has a pair is the same on its whole
orbit, so a rejected representative stands for the orbit.  A row that
passes takes its folds into its `Properties`, so no row folds a relation
twice.  A suite that declares none, such as a test's probe, makes the
scan see every row.

Suites:
  INV-NONE      a multiple involutory, and MDS: expected empty (n >= 3)
  ORTH-NONE     a multiple orthogonal, and MDS, at order 2^d, d >= 2:
                expected empty
  SO-POW2       semi-orthogonal at order 2^d: both diagonal traces zero
  SI-POW2       semi-involutory at order 2^d: both diagonal traces zero
  SO-MOD4       semi-orthogonal MDS at order == 0 mod 4 (not a power of
                two): both traces zero
  SO-MOD2       semi-orthogonal MDS at order == 2 mod 4 (>= 6): every
                non-periodic associated diagonal has trace zero
  SI-GEN        semi-involutory MDS at order >= 3, not a power of two:
                both traces zero
  SO-ODD-EXIST  odd order: collect semi-orthogonal MDS instances and count
                how many carry a nonzero-trace diagonal (existence survey,
                not an implication)

Every suite additionally asserts, on each semi-property instance it finds,
that the n-th powers of both recovered diagonals are scalar matrices, and,
on each even-order MDS instance, that both interleaved first-row sums are
nonzero; failures of these side invariants are reported separately.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import chain, product, repeat
from typing import Optional

from .circulant import build, interleaved_sums
from .field import GF2m, get_field
from .matgf import diag_trace, identity, mat_mul, sandwich, transpose
from .props import SCHEMA_VERSION, Properties, classify, is_power_of_two, pair_screen
# unused here; perfbench/tracing.py wraps these verify attributes by name
from .matgf import inverse
from .props import diagonal_scaling_solve, is_involutory, is_mds, is_orthogonal, power_scalar

EXHAUSTIVE = "exhaustive"
RANDOM = "random"

DEFAULT_BUDGET = 1 << 24
DEFAULT_SAMPLES = 4096
DEFAULT_SEED = 0x5EED
CHUNK = 16384


class BudgetExceeded(ValueError):
    """Exhaustive candidate space larger than the configured budget."""


class IncompatibleSuite(ValueError):
    """Suite constraint on the order is violated."""


# -- seeded candidate stream --------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 4096  # outputs per block; each lane constant is 64 KiB
# one 128-bit lane per output: 1, the low 64 bits set, and k * gamma mod 2^64
_ONES = int.from_bytes(b"\1".ljust(16, b"\0") * _BLOCK, "little")
_MASKS = _ONES * _MASK64
_STEPS = _GAMMA * int.from_bytes(
    b"".join(k.to_bytes(16, "little") for k in range(1, _BLOCK + 1)), "little") & _MASKS
_LOW = 2 if sys.byteorder == "little" else -2  # the low halves, lane 0 first


def _outputs(state: int, count: int):
    """The `count` outputs of SplitMix64 that follow `state`, in lists of
    at most _BLOCK, each computed as one block.

    Output k mixes the state state + (k + 1) * gamma (mod 2^64) alone, so
    a block puts its states in the low halves of the 128-bit lanes of one
    int and runs each step of the mix as one big-int operation on every
    lane: a lane times a 64-bit constant stays in its lane, and `mask`
    clears what a right shift pulls in from the next lane before each
    multiply.  The last shift leaves that in the high halves, which are
    not read.  A shorter block masks the constants down to its lanes.
    """
    for lo in range(0, count, _BLOCK):
        lanes = min(count - lo, _BLOCK)
        keep = (1 << 128 * lanes) - 1
        mask = _MASKS & keep
        z = ((state + lo * _GAMMA) & _MASK64) * (_ONES & keep) + (_STEPS & keep) & mask
        z = (z ^ z >> 30 & mask) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27 & mask) * 0x94D049BB133111EB & mask
        z ^= z >> 31
        yield memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")[::_LOW].tolist()


def random_rows(seed: int, q: int, n: int, start: int, end: int):
    """Draws start .. end-1 of the seeded row stream of a q^n space.

    q^n is a power of two, so a draw is ceil(log2(q^n) / 64) outputs of
    the SplitMix64 stream of `seed`, low word first, and its low
    log2(q^n) bits are the row's base-q digits, least significant digit =
    c_0: q = 2^m, so digit i is bits i*m .. i*m + m - 1, and no bit above
    n*m is read.  No draw is rejected.  Draw k therefore starts at state
    seed + k * words * gamma, and a chunk computes its span of the stream
    from there, _BLOCK outputs at a time (`_outputs`): a caller that stops
    early has computed at most one block past its last row, and the rows
    are the same.  For q^n <= 2^64 a draw is one output.  Up to q = 2^12
    the digits are read k = 12 // m at a time, each k of them as one entry
    of `_digit_table(m)`, and the digits read past c_(n-1) are dropped;
    above, each digit is read by its own shift.
    """
    m = q.bit_length() - 1
    words = -(-n * m // 64)
    draws = chain.from_iterable(_outputs(seed + start * words * _GAMMA, (end - start) * words))
    if words > 1:
        draws = (sum(w << 64 * i for i, w in enumerate(draw)) for draw in zip(*[draws] * words))
    if m > 12:
        shifts = range(0, n * m, m)
        digit = q - 1
        for r in draws:
            yield tuple([r >> s & digit for s in shifts])
        return
    table = _digit_table(m)
    mask = len(table) - 1
    width = mask.bit_length()  # k*m bits
    shifts = range(width, n * m, width)
    for r in draws:
        row = table[r & mask]
        for s in shifts:
            row += table[r >> s & mask]
        yield row[:n]  # the very row when n is a multiple of k


@cache
def _digit_table(m: int) -> list[tuple[int, ...]]:
    """The k = 12 // m base-2^m digits of each v < 2^(k*m), least
    significant first: 4,096 tuples at most, about 0.4 MB at m = 2 and
    0.6 MB at m = 1 (tracemalloc)."""
    return [digits[::-1] for digits in product(range(1 << m), repeat=12 // m)]


def class_count(q: int, n: int) -> int:
    """Scalar classes of the q^n rows: (q^n - 1)/(q - 1), and the zero row."""
    return (q ** n - 1) // (q - 1) + 1


def _image(gf: GF2m, c: int, f: int, row) -> tuple[int, ...]:
    """The row sigma^f(c*row), each entry v mapped to (c*v)^(2^f)."""
    exp, log = gf.exp_table, gf.log_table
    q1 = gf.order - 1
    lc = log[c]
    return tuple(exp[((lc + log[v]) << f) % q1] if v else 0 for v in row)


def orbit_representatives(gf: GF2m, n: int, start: int, end: int):
    """The least class representative of each orbit among scalar classes
    start .. end-1 of the q^n rows, in class order, as (row, size,
    transposed).

    The classes come in blocks p = 0 .. n-1: the rows (0,)*p + (1,) + tail
    whose first nonzero entry a_p is 1, their tails in index order, then
    the zero row.  A row is kept when it is least, in enumeration order,
    among the representatives of its images sigma^f(row) and
    sigma^f(tau(row)), f < m; `size` is then the number of distinct rows
    sigma^f(row), and `transposed` says that tau(row)'s class is not among
    them, so that the orbit holds twice as many classes.

    The tail is walked from the top, a_(n-1) first, as the index compares
    it, one surviving prefix at a time, and bit f of `tied` stays set while
    sigma^f(row) agrees with the prefix: a tied f that maps the next digit
    lower drops that prefix with all its completions, and one that maps it
    higher is cleared.  Once no f is tied the m images differ whatever
    follows, and the remaining digits are a plain `product`; the f tied at
    the end fix row, and with f = 0 they are its stabilizer.  The head
    (0,...,0,1) is fixed by every sigma^f.

    The representative of tau(row) = (a_0, a_(n-1), ..., a_1) is
    c*tau(row), where c is 1 when a_0 is nonzero and else the inverse of
    row's top nonzero digit; read from the top it is c*a_1, ...,
    c*a_(n-1), c*a_0.  When its least image sigma^f(c*a_1) is below
    a_(n-1), that image is smaller than row, and when it is above, every
    one is larger; on a tie the images whose top digit ties are compared
    whole.  In block 0, c = 1, so after an untied prefix a_1 runs over the
    values whose least image is at least a_(n-1) alone; every other row
    that survives sigma gets the test whole.  tau fixes every row of order
    n <= 2.

    A prefix whose completions all lie outside the span is skipped, and
    one whose completions an end of the span cuts is read a digit further:
    each end costs at most q prefixes per digit.
    """
    q = gf.order
    exp, log = gf.exp_table, gf.log_table
    q1 = q - 1
    m = gf.m
    every = (1 << m) - 2  # f = 1 .. m-1
    # powers[f][v] == sigma^f(v)
    powers = [[exp[(log[v] << f) % q1] if v else 0 for v in range(q)] for f in range(m)]
    least = [min(images) for images in zip(*powers)]
    lower = [0] * q  # bit f: sigma^f(v) < v
    fixed = [every] + [0] * q1  # bit f: sigma^f(v) == v
    for f in range(1, m):
        for v in range(1, q):
            if powers[f][v] < v:
                lower[v] |= 1 << f
            elif powers[f][v] == v:
                fixed[v] |= 1 << f

    def tau(row):
        """None when some sigma^f(tau(row))'s class is below row, else
        whether tau(row)'s class is outside row's sigma-orbit."""
        if n < 3:
            return False
        # the top digits: c*a_1 of c*tau(row), against a_(n-1) of row
        w, v = row[1], row[-1]
        shift = 0
        if not row[0]:
            for top in reversed(row):
                if top:
                    shift = -log[top] % q1  # the log of 1/top
                    break
            if w:
                w = exp[log[w] + shift]
        if least[w] != v:
            return None if least[w] < v else True
        # a tie: compare whole the images whose top digit ties, as tuples
        # read from the top; the others are larger
        turned = row[1:] + row[:1]
        if shift:
            turned = [exp[log[x] + shift] if x else 0 for x in turned]
        key = row[::-1]
        transposed = True
        for power in powers:
            if power[w] != v:
                continue
            image = tuple(map(power.__getitem__, turned))
            if image < key:
                return None
            transposed = transposed and image != key
        return transposed

    digits = range(q)

    def walk(p, lo, hi):
        """The kept rows (0,)*p + (1,) + tail with tail index lo .. hi-1."""
        head = (0,) * p + (1,)
        # (the digits read, c_0 first; their index; tied; the digits left
        # below them)
        stack = [((), 0, every, n - 1 - p)]
        while stack:
            suffix, index, tied, free = stack.pop()
            first, last = index * q ** free, (index + 1) * q ** free
            if last <= lo or hi <= first:
                continue
            # read the next digit down while a sigma^f is tied or the span
            # cuts the completions; a_(n-1) always, for the a_1 bound
            if free and (tied or not suffix or first < lo or hi < last):
                for v in reversed(digits):
                    if not tied & lower[v]:
                        stack.append(((v,) + suffix, index * q + v, tied & fixed[v], free - 1))
                continue
            size = m // (1 + tied.bit_count())
            if p or not free or n < 3:
                for bottom in product(digits, repeat=free):
                    row = head + bottom[::-1] + suffix
                    transposed = tau(row)
                    if transposed is not None:
                        yield row, size, transposed
                continue
            # the a_1 that keep row under a_(n-1) = v, and whether they put
            # tau(row) outside the orbit
            v = suffix[-1]
            choices = [(w, least[w] > v) for w in digits if least[w] >= v]
            if not choices:
                continue
            for middle in product(digits, repeat=free - 1):
                body = middle[::-1] + suffix
                for w, outside in choices:
                    row = (1, w) + body
                    transposed = True if outside else tau(row)
                    if transposed is not None:
                        yield row, size, transposed

    base = 0
    for p in range(n):
        yield from walk(p, start - base, end - base)
        base += q ** (n - 1 - p)
    if start <= base < end:
        yield (0,) * n, 1, False


def _index_key(row):
    """Sort key of the enumeration index: c_0 is the least significant digit."""
    return row[::-1]


# -- suite definitions ---------------------------------------------------------
#
# A runner takes a row's `Properties` and returns (hypothesis, conclusion,
# extras).  Each evaluates its hypothesis left to right and stops at the
# first false part, its declared relation first and MDS last: the
# side-invariant counts follow what the runners evaluated, so this order is
# part of the report, and the gate relies on it.


def _run_inv_none(p: Properties):
    return p.square_root() != 0 and p.mds().is_mds, False, None


def _run_orth_none(p: Properties):
    return p.gram_root() != 0 and p.mds().is_mds, False, None


def _traces_zero(relation: str, needs_mds: bool):
    """Runner: every `relation` pair (on an MDS row if `needs_mds`) has both traces zero."""
    def run(p: Properties):
        rep = p.semi(relation)
        if not rep.found or needs_mds and not p.mds().is_mds:
            return False, False, None
        return True, rep.trace_d1 == 0 and rep.trace_d2 == 0, None
    return run


def _run_so_mod2(p: Properties):
    rep = p.semi("orthogonal")
    if not rep.found or not p.mds().is_mds:
        return False, False, None
    np1, np2 = p.nonperiodic()
    if not (np1 or np2):
        return False, False, None
    return True, (not np1 or rep.trace_d1 == 0) and (not np2 or rep.trace_d2 == 0), None


def _run_so_odd_exist(p: Properties):
    rep = p.semi("orthogonal")
    if not rep.found or not p.mds().is_mds:
        return False, False, None
    nonzero = rep.trace_d1 != 0 or rep.trace_d2 != 0
    return True, True, {"nonzero_trace": 1} if nonzero else {"zero_trace": 1}


def _order_pow2(n: int) -> bool:
    return n >= 2 and is_power_of_two(n)


@dataclass(frozen=True)
class SuiteDef:
    """A scan suite.  Its runner's result, and everything the runner
    evaluates, is the same on every row of an orbit of the module
    docstring, so an orbit's representative stands for it.  `relation` is
    the semi relation, "involutory" (A^-1 == D1*A*D2) or "orthogonal"
    (A^-T == D1*A*D2), whose pair exists on every row where the hypothesis
    holds, and on which the runner stops first: a scan whose every suite
    declares one skips, by the module docstring's gate, the rows that have
    the pair of none.  None declares nothing, and a scan with such a suite
    sees every row."""

    name: str
    order_ok: object  # callable(n) -> bool
    order_note: str
    run: object  # callable(Properties) -> (hyp, ok, extras)
    implication: bool = True
    relation: Optional[str] = None


SUITES: dict[str, SuiteDef] = {
    s.name: s
    for s in (
        SuiteDef("INV-NONE", lambda n: n >= 3, "order >= 3", _run_inv_none,
                 relation="involutory"),
        SuiteDef("ORTH-NONE", lambda n: n >= 4 and is_power_of_two(n),
                 "order 2^d with d >= 2", _run_orth_none, relation="orthogonal"),
        SuiteDef("SO-POW2", _order_pow2, "order a power of two",
                 _traces_zero("orthogonal", needs_mds=False), relation="orthogonal"),
        SuiteDef("SI-POW2", _order_pow2, "order a power of two",
                 _traces_zero("involutory", needs_mds=False), relation="involutory"),
        SuiteDef("SO-MOD4", lambda n: n % 4 == 0 and not is_power_of_two(n),
                 "order == 0 mod 4, not a power of two",
                 _traces_zero("orthogonal", needs_mds=True), relation="orthogonal"),
        SuiteDef("SO-MOD2", lambda n: n % 4 == 2 and n >= 6,
                 "order == 2 mod 4, >= 6", _run_so_mod2, relation="orthogonal"),
        SuiteDef("SI-GEN", lambda n: n >= 3 and not is_power_of_two(n),
                 "order >= 3, not a power of two",
                 _traces_zero("involutory", needs_mds=True), relation="involutory"),
        SuiteDef("SO-ODD-EXIST", lambda n: n >= 3 and n % 2 == 1, "odd order >= 3",
                 _run_so_odd_exist, implication=False, relation="orthogonal"),
    )
}


# -- scan configuration and report ---------------------------------------------


def check_order(order: int) -> None:
    """Refuse an order below 1, for `ScanConfig.validate` and `search` alike."""
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")


def check_space(mode: str, space: int, samples: int, budget: int) -> None:
    """Refuse a candidate space that may not be drawn: a negative sample
    count, an exhaustive `space` of more than `budget` rows, or a random
    draw of more than `budget` samples.  `ScanConfig.validate` and `search`
    both ask it, so `scan` and `search` refuse alike, in the same words."""
    if samples < 0:
        raise ValueError(f"sample count must not be negative, got {samples}")
    if mode == EXHAUSTIVE and space > budget:
        raise BudgetExceeded(
            f"exhaustive space {space} exceeds budget {budget}; "
            "use --mode random or raise --budget"
        )
    if mode == RANDOM and samples > budget:
        raise BudgetExceeded(
            f"random sample count {samples} exceeds budget {budget}; "
            "raise --budget to draw more"
        )


@dataclass(frozen=True)
class ScanConfig:
    field: GF2m
    order: int
    suites: tuple[str, ...]
    mode: str = EXHAUSTIVE
    seed: int = DEFAULT_SEED
    sample_count: int = DEFAULT_SAMPLES
    extra_rows: tuple[tuple[int, ...], ...] = ()
    worker_count: int = 1
    budget: int = DEFAULT_BUDGET

    @property
    def space_size(self) -> int:
        return self.field.order ** self.order

    def validate(self) -> None:
        check_order(self.order)
        if self.mode not in (EXHAUSTIVE, RANDOM):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.worker_count < 1:
            raise ValueError(f"worker count must be at least 1, got {self.worker_count}")
        if not self.suites:
            raise IncompatibleSuite("at least one suite required")
        for name in self.suites:
            suite = SUITES.get(name)
            if suite is None:
                raise IncompatibleSuite(f"unknown suite {name!r}")
            if not suite.order_ok(self.order):
                raise IncompatibleSuite(
                    f"suite {name} needs {suite.order_note}, got order {self.order}"
                )
        check_space(self.mode, self.space_size, self.sample_count, self.budget)
        for row in self.extra_rows:
            if len(row) != self.order:
                raise ValueError(f"extra row {row} does not match order {self.order}")
            if any(not 0 <= v < self.field.order for v in row):
                raise ValueError(f"extra row {row} has out-of-field entries")


@dataclass
class SuiteResult:
    name: str
    hypothesis_count: int = 0
    conclusion_count: int = 0
    counterexamples: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)


@dataclass
class ScanReport:
    """The tallies of a scan, or of one chunk of it: `run_suite` merges the
    chunks' partial reports in order into the report of the whole scan."""

    config: ScanConfig
    examined: int = 0
    power_scalar_checked: int = 0
    power_scalar_failures: list = dc_field(default_factory=list)
    interleaved_checked: int = 0
    interleaved_failures: list = dc_field(default_factory=list)
    elapsed_seconds: float = 0.0
    suites: dict = dc_field(init=False)

    def __post_init__(self):
        self.suites = {name: SuiteResult(name) for name in self.config.suites}

    @property
    def space_size(self) -> int:
        return self.config.space_size

    def merge(self, other: ScanReport) -> None:
        """Add the tallies of the next chunk: counts add, lists extend."""
        self.examined += other.examined
        self.power_scalar_checked += other.power_scalar_checked
        self.power_scalar_failures += other.power_scalar_failures
        self.interleaved_checked += other.interleaved_checked
        self.interleaved_failures += other.interleaved_failures
        for name, part in other.suites.items():
            res = self.suites[name]
            res.hypothesis_count += part.hypothesis_count
            res.conclusion_count += part.conclusion_count
            res.counterexamples += part.counterexamples
            for key, inc in part.extras.items():
                res.extras[key] = res.extras.get(key, 0) + inc

    def sort_by_index(self) -> None:
        """Put the failure lists in enumeration order, which is the order of
        the reversed rows; the sort is stable, so one row's entries keep
        their order."""
        self.power_scalar_failures.sort(key=lambda failure: _index_key(failure[2]))
        self.interleaved_failures.sort(key=_index_key)
        for res in self.suites.values():
            res.counterexamples.sort(key=_index_key)

    def ok(self) -> bool:
        for res in self.suites.values():
            if res.counterexamples:
                return False
            if SUITES[res.name].implication and res.hypothesis_count != res.conclusion_count:
                return False
        return not self.power_scalar_failures and not self.interleaved_failures

    def payload(self) -> dict:
        """The deterministic portion of the report (excludes timing/workers)."""
        gf = self.config.field
        fmt = gf.format_element

        def fmt_row(row):
            return [fmt(v) for v in row]

        return {
            "schema_version": SCHEMA_VERSION,
            "field": {"m": gf.m, "poly": f"0x{gf.poly:X}"},
            "order": self.config.order,
            "mode": self.config.mode,
            "seed": self.config.seed if self.config.mode == RANDOM else None,
            "sample_count": self.config.sample_count if self.config.mode == RANDOM else None,
            "extra_rows": [fmt_row(r) for r in self.config.extra_rows],
            "space_size": self.space_size,
            "examined": self.examined,
            "suites": {
                name: {
                    "hypothesis_count": res.hypothesis_count,
                    "conclusion_count": res.conclusion_count,
                    "counterexamples": [fmt_row(r) for r in res.counterexamples],
                    "extras": dict(sorted(res.extras.items())),
                }
                for name, res in sorted(self.suites.items())
            },
            "side_invariants": {
                "power_scalar_checked": self.power_scalar_checked,
                "power_scalar_failures": [
                    {"relation": rel, "diagonal": diag, "first_row": fmt_row(r)}
                    for rel, diag, r in self.power_scalar_failures
                ],
                "interleaved_checked": self.interleaved_checked,
                "interleaved_failures": [fmt_row(r) for r in self.interleaved_failures],
            },
            "ok": self.ok(),
        }

    def to_dict(self) -> dict:
        out = self.payload()
        out["elapsed_seconds"] = round(self.elapsed_seconds, 3)
        out["worker_count"] = self.config.worker_count
        return out


# -- scan execution -------------------------------------------------------------

_ONE = (1,)


def _tally(part: ScanReport, runners, p: Properties, scalars=_ONE, orbit=1,
           transposed=False) -> None:
    """Add the runners' verdicts on `p`, and the side invariants of what they
    evaluated, once for each row sigma^f(c*p.row) with c in `scalars` and
    f < `orbit`, and, when `transposed`, once for the transpose tau of each:
    the counts add the weight len(scalars)*orbit, doubled when `transposed`,
    and a failure lists each of those rows.  A transpose has the semi pair
    (D2, D1), rescaled, so its power-scalar failures swap d1 and d2.  A row
    that the gate rejects (the module docstring) is not tallied: for it
    this would add the weight to `examined` alone."""
    weight = len(scalars) * orbit
    if transposed:
        weight *= 2
    part.examined += weight
    # (list, entry prefixes of a row and of its transpose, or None for the
    # bare rows), in the order they failed
    failed = []
    for run, res in runners:
        hyp, ok, extras = run(p)
        if not hyp:
            continue
        res.hypothesis_count += weight
        if ok:
            res.conclusion_count += weight
        else:
            failed.append((res.counterexamples, None, None))
        if extras:
            for key, inc in extras.items():
                res.extras[key] = res.extras.get(key, 0) + inc * weight
    # side invariants, on what the suites evaluated
    for relation, rep in p.semi_reports.items():
        if rep.found:
            part.power_scalar_checked += 2 * weight
            if rep.k1 is None or rep.k2 is None:
                name = "semi-" + relation
                failed.append((
                    part.power_scalar_failures,
                    [(name, d) for d, k in (("d1", rep.k1), ("d2", rep.k2)) if k is None],
                    [(name, d) for d, k in (("d1", rep.k2), ("d2", rep.k1)) if k is None],
                ))
    verdict = p.mds_verdict
    if verdict is not None and verdict.is_mds and p.n % 2 == 0:
        part.interleaved_checked += weight
        even, odd = interleaved_sums(p.row)
        if even == 0 or odd == 0:
            failed.append((part.interleaved_failures, None, None))
    if failed:
        rows = [_image(p.gf, c, f, p.row) for c in scalars for f in range(orbit)]
        flips = [row[:1] + row[:0:-1] for row in rows] if transposed else []
        for entries, prefixes, swapped in failed:
            if prefixes is None:
                entries += rows + flips
            else:
                entries += [prefix + (row,) for prefix in prefixes for row in rows]
                entries += [prefix + (row,) for prefix in swapped for row in flips]


def _scan_chunk(args) -> ScanReport:
    """The partial report of one chunk: the config's forced rows (span None),
    rows start .. end-1 of its seeded stream, or in an exhaustive scan the
    orbits whose least representative is among its scalar classes
    start .. end-1.

    Each row stands for the rows sigma^f(c*row), c in `scalars`, f < `size`,
    and their transposes when `transposed`: a forced or seeded row for
    itself alone, a representative for its orbit, the zero row for itself.
    When every suite declares a relation, the chunk first goes through
    `pair_screen` on those relations, the gate of the module docstring: the
    rejected rows only add their weight to `examined`; each row that passes
    gets its `Properties` with the folds in place, and one `_tally`, in
    chunk order."""
    config, span = args
    gf = config.field
    part = ScanReport(config)
    suites = [SUITES[name] for name in config.suites]
    runners = [(suite.run, part.suites[name]) for name, suite in zip(config.suites, suites)]
    relations = {suite.relation for suite in suites}
    if span is None or config.mode == RANDOM:
        rows = config.extra_rows if span is None else random_rows(
            config.seed, gf.order, config.order, *span)
        # zip, not a generator expression: that costs a sampled scan ~3 %
        items = zip(rows, repeat(_ONE), repeat(1), repeat(False))
    else:
        nonzero = tuple(range(1, gf.order))
        items = ((rep, nonzero if any(rep) else _ONE, size, transposed)
                 for rep, size, transposed in orbit_representatives(gf, config.order, *span))
    if None in relations:  # a suite that declares no relation sees every row
        admitted = ((item, None, None) for item in items)
    else:
        admitted, rejected = pair_screen(gf, relations, config.order, items)
        part.examined += rejected  # no row they stand for has a declared pair
    for (row, scalars, size, transposed), root, roots in admitted:
        _tally(part, runners, Properties(gf, row, root, roots), scalars, size, transposed)
    return part


def _chunk_spans(config: ScanConfig) -> list:
    """The chunks in merge order: None for the forced rows, then (start, end)
    spans of at most CHUNK draws of the seeded stream or CHUNK scalar
    classes of the enumeration."""
    if config.mode == RANDOM:
        total = config.sample_count
    else:
        total = class_count(config.field.order, config.order)
    spans = [None] if config.extra_rows else []
    spans += [(start, min(start + CHUNK, total)) for start in range(0, total, CHUNK)]
    return spans


def run_suite(config: ScanConfig) -> ScanReport:
    """Run every configured suite in a single pass over the candidates."""
    config.validate()
    started = time.perf_counter()
    args = [(config, span) for span in _chunk_spans(config)]
    # the pool forks every worker at once: no more than there are chunks or CPUs
    workers = min(config.worker_count, len(args), os.cpu_count() or 1)

    if workers > 1:
        # imported here: it loads multiprocessing, which a 1-worker scan never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_scan_chunk, args))
    else:
        partials = [_scan_chunk(a) for a in args]

    report = ScanReport(config)
    if config.extra_rows:
        report.merge(partials.pop(0))
    spans = ScanReport(config)
    for part in partials:
        spans.merge(part)
    if config.mode == EXHAUSTIVE:
        spans.sort_by_index()
    report.merge(spans)
    report.elapsed_seconds = time.perf_counter() - started
    return report


# -- golden reference instances ---------------------------------------------------

REFERENCE_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1, primitive

# Published odd-order semi-orthogonal MDS circulants over GF(2^8)/0x11D with
# their associated diagonal pairs, written with a = the class of x (0x02):
#   1: circulant(a, a+1, a^2+a),
#      D1 = (a^7+a^6+a^5+a) * I, D2 = (a^6+a^4+a^3+a) * I
#   2: circulant(1, 1+a+a^3, 1+a+a^3, a+a^3, 1+a^3+a^4+a^7),
#      D1 = (a^2+a, a^7+a^2+1, a^7+a^6+a^5+a^4+a^2,
#            a^5+a^4+a^3+a^2, a^6+a^3+a+1),
#      D2 = (a^7+a^6+a^3+a^2+a+1, a^7+a^5+a^3, a^7+a^5+a^4+a^2+1,
#            a^6+a^5+a^2, a^7+a^5+a^4+a^2+a)
EXAMPLES = {
    1: {
        "row": (0x02, 0x03, 0x06),
        "d1": (0xE2, 0xE2, 0xE2),
        "d2": (0x5A, 0x5A, 0x5A),
    },
    2: {
        "row": (0x01, 0x0B, 0x0B, 0x0A, 0x99),
        "d1": (0x06, 0x85, 0xF4, 0x3C, 0x4B),
        "d2": (0xCF, 0xA8, 0xB5, 0x64, 0xB6),
    },
}


@dataclass
class ExampleRecord:
    example_id: int
    field_m: int
    field_poly: int
    assertions: list  # of (name, ok, detail)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.assertions)

    def to_dict(self) -> dict:
        return {
            "example": self.example_id,
            "field": {"m": self.field_m, "poly": f"0x{self.field_poly:X}"},
            "assertions": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.assertions
            ],
            "ok": self.ok,
        }


def verify_example(example_id: int) -> ExampleRecord:
    """Re-derive one golden instance over GF(2^8)/REFERENCE_POLY and check
    all six stated assertions.

    (a) nonsingular, (b) MDS, (c) semi-orthogonal and (e) the canonical
    pair is a scalar multiple of the recorded one are read from `classify`
    of the first row, the record `check --circulant` prints; (d) the
    recorded pair satisfies A^-T == D1*A*D2 verbatim, checked as
    D1*A*D2*A^T == I by dense products, which share nothing with the ring
    path that found the canonical pair; (f) both recorded diagonals have
    nonzero trace.  REFERENCE_POLY is read at call time, so a test can swap
    the field as a negative control: the recorded pairs are tied to 0x11D
    and fail (d) elsewhere.
    """
    spec = EXAMPLES[example_id]
    gf = get_field(8, REFERENCE_POLY)
    row = spec["row"]
    d1p = spec["d1"]
    d2p = spec["d2"]
    cls = classify(gf, row)
    record = ExampleRecord(example_id, gf.m, gf.poly, [])
    asserts = record.assertions

    if cls.singular:
        asserts.append(("nonsingular", False, "matrix is singular"))
        for name in ("mds", "semi_orthogonal", "stated_pair_verbatim",
                     "canonical_matches_stated", "nonzero_traces"):
            asserts.append((name, False, "skipped: singular"))
        return record
    asserts.append(("nonsingular", True, None))

    verdict = cls.mds
    asserts.append(("mds", verdict.is_mds,
                    None if verdict.is_mds else f"singular minor {verdict.witness}"))

    pair = cls.semi_orthogonal.pair
    asserts.append(("semi_orthogonal", pair is not None,
                    None if pair is not None else "no diagonal pair exists"))

    A = build(row)
    stated = mat_mul(gf, sandwich(gf, d1p, A, d2p), transpose(A))
    want = identity(len(row))
    if stated == want:
        asserts.append(("stated_pair_verbatim", True, None))
    else:
        i, j = next(
            (i, j) for i in range(len(A)) for j in range(len(A))
            if stated[i][j] != want[i][j]
        )
        asserts.append((
            "stated_pair_verbatim", False,
            f"first differing entry ({i},{j}): "
            f"D1*A*D2*A^T gives {gf.format_element(stated[i][j])}, "
            f"I has {gf.format_element(want[i][j])}",
        ))

    if pair is None:
        asserts.append(("canonical_matches_stated", False, "skipped: no solver pair"))
    else:
        scale = gf.mul(pair.d1[0], gf.inv(d1p[0]))
        inv_scale = gf.inv(scale)
        mismatch = None
        for i in range(len(row)):
            if pair.d1[i] != gf.mul(scale, d1p[i]):
                mismatch = ("d1", i)
                break
            if pair.d2[i] != gf.mul(inv_scale, d2p[i]):
                mismatch = ("d2", i)
                break
        asserts.append((
            "canonical_matches_stated", mismatch is None,
            None if mismatch is None else
            f"{mismatch[0]}[{mismatch[1]}] not on the scalar orbit "
            f"(scale {gf.format_element(scale)})",
        ))

    t1 = diag_trace(d1p)
    t2 = diag_trace(d2p)
    asserts.append((
        "nonzero_traces", t1 != 0 and t2 != 0,
        f"trace(D1)={gf.format_element(t1)}, trace(D2)={gf.format_element(t2)}",
    ))
    return record


# -- the bundled verification plan -------------------------------------------------

GF4 = (2, 0x7)
GF8 = (3, 0xB)
GF256 = (8, REFERENCE_POLY)


def verification_plan(scale: str = "full", worker_count: int = 1) -> list[ScanConfig]:
    """Scan configurations backing the `verify-paper` command.

    `small` keeps the sub-second GF(4)/GF(8) exhaustives (orders <= 5);
    `full` adds the order-6 exhaustives over GF(8), sampled order-12
    coverage, and the sampled odd-order existence survey over GF(2^8).
    """
    if scale not in ("small", "full"):
        raise ValueError(f"unknown scale {scale!r}")
    cfgs = []

    def cfg(field, order, suites, **kw):
        cfgs.append(ScanConfig(
            field=get_field(*field), order=order, suites=tuple(suites),
            worker_count=worker_count, **kw,
        ))

    for fld in (GF4, GF8):
        cfg(fld, 2, ("SO-POW2", "SI-POW2"))
        cfg(fld, 3, ("INV-NONE",) if fld == GF4 else ("INV-NONE", "SI-GEN"))
        cfg(fld, 4, ("INV-NONE", "ORTH-NONE", "SO-POW2", "SI-POW2"))
        cfg(fld, 5, ("INV-NONE",) if fld == GF4 else ("INV-NONE", "SI-GEN"))
    if scale == "full":
        cfg(GF8, 6, ("SO-MOD2", "SI-GEN"))
        cfg(GF4, 12, ("SO-MOD4",), mode=RANDOM, sample_count=2048)
        cfg(GF256, 3, ("SO-ODD-EXIST",), mode=RANDOM, sample_count=2048,
            extra_rows=(EXAMPLES[1]["row"],))
    return cfgs
