"""Circulant construction, recognition, and structural sums."""

import random
from collections import Counter
from itertools import product
from math import gcd

import pytest

from circmds import props
from circmds.circulant import OddOrder, build, interleaved_sums, is_circulant, is_singular_row
from circmds.field import get_field
from circmds.matgf import Singular, det, diag_trace, identity, inverse, mat_mul, transpose
from circmds.props import Properties, block_roots, classify, is_involutory, is_mds, is_orthogonal
from circmds.verify import RANDOM, ScanConfig, run_suite
from reference import (
    autocorrelation_roots,
    block_roots_by_root,
    fresh_lanes,
    planted_semi_orthogonal_row,
    roots_by_root,
    scalar_gram_root,
    scalar_square_root,
)

GF4 = get_field(2, 0x7)
GF8 = get_field(3, 0xB)
GF16 = get_field(4, 0x13)
F11D = get_field(8, 0x11D)
F11B = get_field(8, 0x11B)
GF4096 = get_field(12, 0x1053)
GF65536 = get_field(16, 0x1002B)


def test_entry_rule():
    A = build((10, 20, 30))
    assert A == [
        [10, 20, 30],
        [30, 10, 20],
        [20, 30, 10],
    ]


def test_aes_diffusion_matrix():
    A = build((0x02, 0x03, 0x01, 0x01))
    assert A == [
        [0x02, 0x03, 0x01, 0x01],
        [0x01, 0x02, 0x03, 0x01],
        [0x01, 0x01, 0x02, 0x03],
        [0x03, 0x01, 0x01, 0x02],
    ]


def test_build_1x1():
    assert build((7,)) == [[7]]


def test_is_circulant():
    assert is_circulant(build((1, 2, 3, 4)))
    assert is_circulant(identity(4))
    assert not is_circulant([[1, 0], [1, 1]])


def test_row_sum_examples():
    # the first-row sum is the XOR fold that also gives a diagonal's trace
    assert diag_trace((1, 1)) == 0
    assert det(GF4, build((1, 1))) == 0
    assert diag_trace((0x02, 0x03, 0x01, 0x01)) == 0x01
    assert diag_trace((7,)) == 7


def test_first_row_identities_match_dense_checks_exhaustively():
    # A^2 == I and A*A^T == I decided from the first row, against the dense
    # n^3 checks on every first row of each space
    rows = involutory = orthogonal = 0
    for (m, poly), top in (((1, 0x3), 10), ((2, 0x7), 7), ((3, 0xB), 5), ((4, 0x13), 4)):
        gf = get_field(m, poly)
        for n in range(1, top + 1):
            for row in product(range(gf.order), repeat=n):
                A = build(row)
                inv, orth = is_involutory(gf, A), is_orthogonal(gf, A)
                assert Properties(gf, row).involutory() == inv, (m, row)
                assert (scalar_gram_root(gf, row) == 1) == orth, (m, row)
                rows += 1
                involutory += inv
                orthogonal += orth
    assert (rows, involutory, orthogonal) == (131242, 504, 1068)


def test_scalar_square_root_matches_the_dense_square_exhaustively():
    # A^2 == r^2 * I exactly when the fold returns r != 0, on every first row
    # of each space, rows with zero entries and singular rows among them;
    # the screen's fold of the row (`block_roots`) gives the same r
    scalars = 0
    for (m, poly), top in (((2, 0x7), 6), ((3, 0xB), 4), ((4, 0x13), 3)):
        gf = get_field(m, poly)
        for n in range(1, top + 1):
            for row in product(range(gf.order), repeat=n):
                A = build(row)
                r = scalar_square_root(row)
                assert block_roots(gf, row, ("involutory",)) == (r, None), (m, row)
                square = mat_mul(gf, A, A)
                k = square[0][0]
                scalar = k != 0 and square == [
                    [k if i == j else 0 for j in range(n)] for i in range(n)]
                assert bool(r) == scalar, (m, row)
                if r:
                    assert gf.mul(r, r) == k, (m, row)
                    scalars += 1
    # at odd n only the rows (c, 0, ..., 0); at even n the rows with
    # a_i == a_(i+n/2) for 0 < i < n/2 and a_0 != a_(n/2): q^(n/2) * (q-1);
    # that is 261 over GF(4), 518 over GF(8) and 270 over GF(16)
    assert scalars == 261 + 518 + 270


def test_scalar_gram_root_matches_the_dense_gram_exhaustively():
    # A*A^T == t^2 * I exactly when the helper returns t != 0, on every first
    # row of each space, rows with zero entries and singular rows among them
    scalars = 0
    for (m, poly), top in (((2, 0x7), 6), ((3, 0xB), 4), ((4, 0x13), 3)):
        gf = get_field(m, poly)
        for n in range(1, top + 1):
            for row in product(range(gf.order), repeat=n):
                A = build(row)
                t = scalar_gram_root(gf, row)
                gram = mat_mul(gf, A, transpose(A))
                k = gram[0][0]
                scalar = k != 0 and gram == [
                    [k if i == j else 0 for j in range(n)] for i in range(n)]
                assert bool(t) == scalar, (m, row)
                if t:
                    assert gf.mul(t, t) == k and t == diag_trace(row), (m, row)
                    scalars += 1
    # every t has a square root, so these are q - 1 times the orthogonal
    # rows: 3 * 113 over GF(4), 7 * 146 over GF(8) and 15 * 32 over GF(16)
    assert scalars == 339 + 1022 + 480


def test_even_order_inverse_agrees_with_the_dense_inverse():
    # the gcd test says singular exactly when the dense inverse raises
    # Singular, at n = 2^e * n' with e >= 2 and n' > 1, and e = 4, beyond
    # the spaces the exhaustive agreement test covers; every fourth row at
    # n' > 1 has all its residue sums mod n' equal to one t != 0, so its row
    # sum is t but its fold b at n' is the singular order-n' circulant
    # (t, ..., t)
    rng = random.Random(18)
    census = Counter()
    for gf, n in ((GF16, 12), (GF16, 20), (F11D, 12), (F11D, 16), (F11D, 24)):
        odd = n // (n & -n)
        for k in range(60):
            row = [rng.randrange(gf.order) if rng.random() < 0.85 else 0 for _ in range(n)]
            planted = k % 4 == 0 and odd > 1
            if planted:
                t = rng.randrange(1, gf.order)
                for u in range(odd):
                    row[u] ^= t ^ diag_trace(row[u::odd])
                assert diag_trace(row) == t
            try:
                inverse(gf, build(row))
                singular = False
            except Singular:
                singular = True
            assert is_singular_row(gf, row) is singular, (gf.m, row)
            assert singular or not planted, (gf.m, row)
            census[planted, singular, diag_trace(row) == 0] += 1
    assert census[True, True, False] == 60
    assert census[False, False, False] > 200 and census[False, True, True] > 0


def test_interleaved_sums_aes():
    assert interleaved_sums((0x02, 0x03, 0x01, 0x01)) == (0x03, 0x02)


def test_interleaved_sums_cancel():
    assert interleaved_sums((5, 9, 5, 9)) == (0, 0)


def test_interleaved_sums_odd_order():
    with pytest.raises(OddOrder):
        interleaved_sums((1, 2, 3))


def test_transpose_reverses_tail():
    rng = random.Random(20)
    for n in (1, 2, 3, 5, 6):
        row = [rng.randrange(GF8.order) for _ in range(n)]
        reversed_tail = [row[0]] + row[1:][::-1]
        assert transpose(build(row)) == build(reversed_tail)


def test_transpose_entrywise_oracle():
    # T[i][j] = C[j][i] = c[(i-j) mod n] directly from the entry rule
    row = (3, 1, 4, 1, 5)
    T = transpose(build(row))
    n = len(row)
    for i in range(n):
        for j in range(n):
            assert T[i][j] == row[(i - j) % n]


def test_circulant_products_are_circulant_and_commute():
    rng = random.Random(21)
    for gf in (GF8, F11B):
        for n in (2, 3, 4, 5):
            A = build([rng.randrange(gf.order) for _ in range(n)])
            B = build([rng.randrange(gf.order) for _ in range(n)])
            AB = mat_mul(gf, A, B)
            assert is_circulant(AB)
            assert AB == mat_mul(gf, B, A)


def test_all_ones_eigenvector():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randrange(1, 6)
        row = [rng.randrange(GF8.order) for _ in range(n)]
        A = build(row)
        s = diag_trace(row)
        ones = [[1]] * n
        assert mat_mul(GF8, A, ones) == [[s]] * n


def test_mds_even_order_forces_nonzero_interleaved_sums():
    # exhaustive at GF(4) order 2: every MDS circulant has nonzero components
    seen_mds = 0
    for a in range(GF4.order):
        for b in range(GF4.order):
            if is_mds(GF4, build((a, b))).is_mds:
                seen_mds += 1
                even, odd = interleaved_sums((a, b))
                assert even != 0 and odd != 0
    assert seen_mds == 6  # nonzero distinct pairs


def _seeded_rows(gf, n, count, rng):
    """`count` rows of order n, every other one with up to 70 % zero
    entries, so that some roots of unity survive the fold."""
    rows = []
    for i in range(count):
        zeros = 0.7 * rng.random() if i % 2 else 0.0
        rows.append(tuple(rng.randrange(1, gf.order) if rng.random() >= zeros else 0
                          for _ in range(n)))
    return rows


def _orthogonal_roots(gf, row) -> list:
    """The roots `block_roots` screens for the orthogonal relation alone."""
    return block_roots(gf, row, ("orthogonal",))[1]


def _fold_rows(name):
    """(field, row) pairs of the named set of `test_lanes_match_the_root_by_root_reference`."""
    if name == "gf4-n<=7":
        return [(GF4, row) for n in range(1, 8) for row in product(range(4), repeat=n)]
    if name == "gf8-n<=5":
        return [(GF8, row) for n in range(1, 6) for row in product(range(8), repeat=n)]
    if name == "gf16-n5-lead-one":
        return [(GF16, (1,) + tail) for tail in product(range(16), repeat=4)]
    rng = random.Random(25)
    if name == "seeded":
        return [(gf, row) for gf, n, count in (
            (F11D, 3, 400), (F11D, 5, 400), (F11D, 15, 200), (F11D, 17, 200), (F11D, 51, 60),
            (GF4096, 9, 200), (GF65536, 3, 200), (GF65536, 5, 200),
        ) for row in _seeded_rows(gf, n, count, rng)]
    assert name == "planted"  # each a has mu = 1 alone, each b some mu != 1
    return [(gf, row) for gf, n in (
        (F11D, 15), (F11D, 17), (F11D, 51), (GF4096, 9), (GF65536, 3), (GF65536, 15),
    ) for _ in range(20) for row in planted_semi_orthogonal_row(gf, n, rng)]


# per row set, over its folds at both d: those that keep mu = 1 alone, those
# that keep some mu != 1, and those that keep none
FOLD_CENSUS = {
    "gf4-n<=7": (1024, 515, 24465),
    "gf8-n<=5": (1552, 0, 35896),
    "gf16-n5-lead-one": (485, 994, 129593),
    "seeded": (121, 123, 3476),
    "planted": (240, 120, 120),
}


@pytest.mark.parametrize("name", FOLD_CENSUS)
def test_lanes_match_the_root_by_root_reference(name):
    # the lanes test every d-th root of unity in one XOR per term; the
    # reference sums every coefficient at one root at a time.  The plain
    # lane fold (reference.autocorrelation_roots) agrees with it at
    # d = gcd(n, q-1) and at d = 1, and so does the screen's fold of the
    # row's block at d = gcd(len(b), q-1), which `block_roots` runs as a
    # one-row chunk: on a row that is its own block, the first of those
    census = Counter()
    for gf, row in _fold_rows(name):
        whole = {}
        for d in {gcd(len(row), gf.order - 1), 1}:
            whole[d] = roots = autocorrelation_roots(gf, row, d)
            assert roots == roots_by_root(gf, row, d), (gf, row, d)
            census["mu=1 only" if roots == [0] else "mu!=1" if roots else "none"] += 1
        if any(row):
            want = (whole[gcd(len(row), gf.order - 1)] if 0 not in row and diag_trace(row)
                    else block_roots_by_root(gf, row))
            assert _orthogonal_roots(gf, row) == want, (gf, row)
    assert (census["mu=1 only"], census["mu!=1"], census["none"]) == FOLD_CENSUS[name]


def test_lane_tables_keep_only_the_entries_a_row_meets(monkeypatch):
    # the tables fill an entry on first use: one classify of a GF(2^16) row
    # of order 15 (d = 15, and a zero entry, so is_mds stops at once) meets
    # a few of the 15 x 65,536 slots, where whole tables would fill them all
    fresh_lanes(monkeypatch)
    row = list(_seeded_rows(GF65536, 15, 1, random.Random(15))[0])
    row[7] = 0
    assert diag_trace(row) and classify(GF65536, row).mds.is_mds is False
    tables = props._lanes(GF65536, 15)
    filled = sum(map(len, tables))
    assert 0 < filled < 0.01 * 15 * 65536, filled


def test_lane_tables_stay_within_their_bound(monkeypatch):
    # a scan sends every sampled row into the fold, and the tables of every
    # (field, d) together keep entries while their one count,
    # _lanes_held == lane_bytes(), stays within LANE_BYTES; an entry met
    # after that is made again on each use.  At
    # the real bound the benchmark's tables, GF(2^8) and GF(4) at d = 3,
    # are kept whole.  A bound lowered to 64 KiB fills up in a 2,048-row
    # scan of GF(2^16) rows at d = 15, and the roots `block_roots` reads
    # past it stay right
    fresh_lanes(monkeypatch)
    for gf in (F11D, GF4):
        tables = props._lanes(gf, 3)
        for table in tables:
            for x in range(1, gf.order):
                table[x]
        assert [len(table) for table in tables] == [gf.order - 1] * 3
    monkeypatch.setattr(props, "LANE_BYTES", 1 << 16)
    fresh_lanes(monkeypatch)
    size = props.lane_entry_bytes(16, 15)
    assert size == 128 + 15 * 17 // 8
    report = run_suite(ScanConfig(field=GF65536, order=15, suites=("SO-ODD-EXIST",),
                                  mode=RANDOM, seed=15, sample_count=2048))
    assert report.examined == 2048
    assert list(props._LANES) == [(GF65536.poly, 15)]
    held = props.lane_bytes()
    assert (1 << 16) - size < held <= 1 << 16
    assert props._lanes_held == held  # the running count
    rng = random.Random(16)
    rows = _seeded_rows(GF65536, 15, 20, rng)
    rows += [row for _ in range(5) for row in planted_semi_orthogonal_row(GF65536, 15, rng)]
    for row in filter(any, rows):
        assert _orthogonal_roots(GF65536, row) == block_roots_by_root(GF65536, row), row
    assert props.lane_bytes() == held
    # the bound is for the whole process: folding GF(2^16) rows at d = 3,
    # 5, 15 and 17 in turn under a bound of 32 KiB keeps every entry met at
    # d = 3, then entries at d = 5 until the entries of all of them reach
    # the bound, and none at d = 15 and 17; the roots read past it stay right
    monkeypatch.setattr(props, "LANE_BYTES", 1 << 15)
    fresh_lanes(monkeypatch)
    rng = random.Random(28)
    kept = []
    for n in (3, 5, 15, 17):
        for row in filter(any, _seeded_rows(GF65536, n, 60, rng)):
            assert _orthogonal_roots(GF65536, row) == block_roots_by_root(GF65536, row), row
        kept.append(sum(map(len, props._lanes(GF65536, n))))
    assert kept[0] and kept[1] and kept[2:] == [0, 0]
    total = props.lane_bytes()
    assert total == sum(props.lane_entry_bytes(16, d) * k for d, k in zip((3, 5, 15, 17), kept))
    assert (1 << 15) - props.lane_entry_bytes(16, 17) < total <= 1 << 15
    assert props._lanes_held == total
