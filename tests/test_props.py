"""Decision procedures: MDS, identity checks, diagonal solving, classification."""

import random
from collections import Counter
from functools import cache
from itertools import combinations, groupby, product
from math import comb, gcd

import pytest

from circmds import props
from circmds.circulant import OddOrder, build, is_circulant, is_singular_row, scalar_square_root
from circmds.field import get_field
from circmds.matgf import (
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
from circmds.props import (
    MOD4_TWO,
    MOD4_ZERO,
    ODD,
    POW2,
    MdsVerdict,
    MinorLayerTooLarge,
    Properties,
    circulant_semi_pair,
    classification_json,
    classify,
    dense_classification,
    diagonal_scaling_solve,
    is_involutory,
    is_mds,
    is_nonperiodic,
    is_orthogonal,
    matrix_properties_json,
    order_category,
    power_scalar,
    row_block,
)
from circmds.verify import random_rows
from reference import (
    class_rows,
    component_first_rows,
    count_folds,
    dense_semi_pair,
    disconnected_rows,
    gcd_block,
    minor_orbit,
    minor_orbit_count,
    oracle_semi_search,
    per_root_geometric_pair,
    planted_semi_orthogonal_row,
    scalar_gram_root,
    screen_by_gate,
    semi_involutory_count,
)

GF4 = get_field(2, 0x7)
GF8 = get_field(3, 0xB)
GF16 = get_field(4, 0x13)
GF32 = get_field(5, 0x25)
F11D = get_field(8, 0x11D)
F11B = get_field(8, 0x11B)
GF65536 = get_field(16, 0x1002B)

EX1_ROW = (0x02, 0x03, 0x06)
EX2_ROW = (0x01, 0x0B, 0x0B, 0x0A, 0x99)


def random_matrix(rng, gf, n):
    return [[rng.randrange(gf.order) for _ in range(n)] for _ in range(n)]


# -- MDS ---------------------------------------------------------------------------


def test_aes_matrix_is_mds():
    assert is_mds(F11B, build((0x02, 0x03, 0x01, 0x01))).is_mds


def test_identity_not_mds_with_1x1_witness():
    verdict = is_mds(F11B, identity(3))
    assert not verdict.is_mds
    assert verdict.witness == ((0,), (1,))


def test_gf4_2x2_exhaustive_against_definition():
    # independent characterization: MDS iff a != 0, b != 0, a != b
    for a in range(GF4.order):
        for b in range(GF4.order):
            expect = a != 0 and b != 0 and a != b
            assert is_mds(GF4, build((a, b))).is_mds is expect


def test_witness_minor_is_singular():
    rng = random.Random(30)
    found = 0
    while found < 25:
        A = random_matrix(rng, GF8, 4)
        verdict = is_mds(GF8, A)
        if verdict.is_mds:
            assert verdict.witness is None
            continue
        rows, cols = verdict.witness
        assert det(GF8, submatrix(A, rows, cols)) == 0
        found += 1


def test_mds_invariant_under_transpose_and_diagonal_scaling():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(2, 5)
        A = random_matrix(rng, GF8, n)
        verdict = is_mds(GF8, A).is_mds
        assert is_mds(GF8, transpose(A)).is_mds is verdict
        d1 = [rng.randrange(1, GF8.order) for _ in range(n)]
        d2 = [rng.randrange(1, GF8.order) for _ in range(n)]
        assert is_mds(GF8, sandwich(GF8, d1, A, d2)).is_mds is verdict


def minor_dets(gf, A):
    """Every square minor's determinant in (size, rows, cols) order, with row
    and column sets as increasing tuples in lexicographic order.  A minor is
    expanded along its first row over the minors one size smaller, with
    `mul_raw` only (every sign is 1 in characteristic 2)."""
    n = len(A)
    dets = {((), ()): 1}
    for size in range(1, n + 1):
        for rows in combinations(range(n), size):
            for cols in combinations(range(n), size):
                d = 0
                for idx, c in enumerate(cols):
                    d ^= gf.mul_raw(A[rows[0]][c], dets[rows[1:], cols[:idx] + cols[idx + 1:]])
                dets[rows, cols] = d
                yield (rows, cols), d


def reference_is_mds(gf, A):
    """The MDS definition: the first singular minor is the witness."""
    for witness, d in minor_dets(gf, A):
        if d == 0:
            return MdsVerdict(False, witness)
    return MdsVerdict(True, None)


def _mds_outcome(verdict):
    if verdict.is_mds:
        return "pass"
    return {1: "1x1", 2: "2x2"}.get(len(verdict.witness[0]), "kxk")


def _witness_symmetries(n, witness):
    """What fixes a circulant's witness (R, C) of size 2 to n - 1, among the
    maps `is_mds` folds a row's minors by: "periodic" when R + t == R for
    some t != 0, "self-reflected" when C == s - R for some s, so that the
    reflection (R, C) -> (s - C, s - R) fixes the pair."""
    rows, cols = witness
    if not 1 < len(rows) < n:
        return []
    found = []
    if any(sorted((x + t) % n for x in rows) == list(rows) for t in range(1, n)):
        found.append("periodic")
    if any(sorted((s - x) % n for x in rows) == list(cols) for s in range(n)):
        found.append("self-reflected")
    return found


def cauchy_matrix(gf, xs, ys):
    """1/(x_i + y_j): MDS whenever the xs and ys are 2n distinct elements."""
    return [[gf.inv(x ^ y) for y in ys] for x in xs]


# GF(2^8)/0x11D first rows whose first singular minor is large: witness size
# 4 and 6 at order 7, and 5 and 8 at order 8, then one MDS row of each order
LARGE_WITNESS_ROWS = (
    (0x5A, 0xA1, 0x6B, 0x78, 0x20, 0xBA, 0xBF),
    (0xB1, 0xEA, 0xE6, 0x94, 0x47, 0x3C, 0x39),
    (0x37, 0xAD, 0xBB, 0x8B, 0x7A, 0xB7, 0x3F, 0x50),
    (0x3C, 0x23, 0xAF, 0x57, 0x23, 0x27, 0x77, 0x94),
    (0x05, 0xF9, 0xDE, 0x43, 0xD9, 0x82, 0x52),
    (0x38, 0xE5, 0x33, 0xC9, 0x64, 0x2E, 0x84, 0xDA),
)

# GF(2^8)/0x11D first rows whose first singular minor lies on a row set that
# some translations fix, with that minor's columns avoiding column 0
PERIODIC_WITNESS_ROWS = {
    (0xDF, 0x92, 0x24, 0x37, 0x92, 0x96): ((0, 3), (1, 4)),
    (0xC2, 0x8A, 0x53, 0x50, 0xC9, 0xDC): ((0, 2, 4), (1, 3, 5)),
    (0x54, 0xFA, 0xB5, 0x8F, 0x55, 0xFA, 0x6E, 0xD8): ((0, 4), (1, 5)),
    (0xF9, 0xBB, 0x53, 0x5C, 0x74, 0xD8, 0x59, 0x3F): ((0, 2, 4, 6), (1, 3, 5, 7)),
    (0xA9, 0x12, 0xC6, 0x4C, 0x74, 0xF1, 0xED, 0xA0, 0x46): ((0, 3, 6), (1, 4, 7)),
}

WHIRLPOOL_ROW = (0x01, 0x01, 0x04, 0x01, 0x08, 0x05, 0x02, 0x09)


def test_is_mds_matches_definition_and_witness():
    # circulants are given as first rows, which `is_mds` tests on their
    # necklaces, and the other matrices as matrices; the reference expands
    # every minor of the built matrix
    rng = random.Random(40)
    cases = []
    for gf, orders in ((GF4, range(2, 7)), (GF8, range(2, 5))):
        for n in orders:
            cases += [(gf, row) for row in product(range(gf.order), repeat=n)]
    for n in (5, 6, 7):
        for _ in range(6):
            cases.append((F11D, tuple(rng.randrange(F11D.order) for _ in range(n))))
    cauchy = cauchy_matrix(F11D, range(6), range(6, 12))
    assert is_mds(F11D, WHIRLPOOL_ROW) and is_mds(F11D, cauchy)
    cases += [(F11D, WHIRLPOOL_ROW), (F11D, cauchy)]
    cases += [(F11D, row) for row in LARGE_WITNESS_ROWS]
    for gf, n, count in ((GF8, 4, 80), (F11D, 3, 40), (F11D, 5, 20)):
        for _ in range(count):
            cases.append((gf, random_matrix(rng, gf, n)))
    for n in (9, 10):
        for _ in range(6):
            cases.append((F11D, tuple(rng.randrange(1, F11D.order) for _ in range(n))))
    census = Counter()
    symmetries = Counter()
    witness_sizes = set()
    for gf, A in cases:
        verdict = is_mds(gf, A)
        row = isinstance(A[0], int)
        assert verdict == reference_is_mds(gf, build(A) if row else A), (gf.m, A)
        census[row, _mds_outcome(verdict)] += 1
        if verdict.witness is not None:
            witness_sizes.add(len(verdict.witness[0]))
            if row:
                symmetries.update(_witness_symmetries(len(A), verdict.witness))
    for outcome in ("1x1", "2x2", "kxk", "pass"):
        assert census[True, outcome] > 0, outcome
    for outcome in ("2x2", "kxk", "pass"):
        assert census[False, outcome] > 0, outcome
    assert {4, 5, 6, 8} <= witness_sizes
    # rows whose first singular minor a translation or a reflection fixes
    assert symmetries["periodic"] > 0 and symmetries["self-reflected"] > 0


def test_is_mds_finds_witnesses_on_periodic_row_sets():
    # the first singular minor of each row is on a row set R with R + t == R
    # for some t != 0, so R has fewer than n translates
    for row, witness in PERIODIC_WITNESS_ROWS.items():
        rows = witness[0]
        assert any(t and sorted((x + t) % len(row) for x in rows) == list(rows)
                   for t in range(len(row)))
        assert (is_mds(F11D, row) == reference_is_mds(F11D, build(row))
                == MdsVerdict(False, witness))


def test_the_row_mds_test_agrees_with_the_general_one():
    # `Properties.mds` hands `is_mds` the first row, whose rotations are the
    # rows of the recurrence, and tests it on its necklaces; the general
    # path on the built matrix visits every row set and must find the same
    # verdict and witness, as must the definition
    rng = random.Random(44)
    cases = [(gf, row) for gf, orders in ((GF4, range(2, 6)), (GF8, (3, 4)))
             for n in orders for row in product(range(gf.order), repeat=n)]
    for n in range(4, 10):
        for _ in range(15):
            cases.append((F11D, tuple(rng.randrange(F11D.order) if rng.random() < 0.9 else 0
                                      for _ in range(n))))
    census = Counter()
    symmetries = Counter()
    for gf, row in cases:
        verdict = Properties(gf, row).mds()
        A = build(row)
        assert verdict == is_mds(gf, A) == reference_is_mds(gf, A), (gf.m, row)
        census[gf is F11D, _mds_outcome(verdict)] += 1
        if verdict.witness is not None:
            symmetries.update(_witness_symmetries(len(row), verdict.witness))
    for outcome in ("1x1", "2x2", "kxk", "pass"):
        assert census[True, outcome] > 0 and census[False, outcome] > 0, outcome
    assert symmetries["periodic"] > 0 and symmetries["self-reflected"] > 0


# GF(2^8)/0x11D first rows of orders 11 and 12 whose first singular minor
# has size 4, on the row set (0, 1, 2, 3)
ORDER_11_12_SIZE_4_ROWS = (
    (0x6B, 0xF0, 0x52, 0x08, 0xAA, 0x45, 0x82, 0xEF, 0x2A, 0x07, 0x07),
    (0x58, 0x12, 0xC8, 0x82, 0x71, 0xC3, 0xBD, 0xC5, 0xD7, 0x42, 0x69, 0xD5),
)


def test_the_row_mds_test_agrees_with_the_matrix_one_at_orders_11_and_12():
    # the condensation plans of orders 11 and 12 are tried on no other
    # input; a first row and its built matrix give one verdict and witness
    rng = random.Random(47)
    cases = list(ORDER_11_12_SIZE_4_ROWS)
    for n in (11, 12):
        for _ in range(16):
            cases.append(tuple(rng.randrange(F11D.order) if rng.random() < 0.98 else 0
                               for _ in range(n)))
    census = Counter()
    for row in cases:
        verdict = is_mds(F11D, row)
        assert verdict == is_mds(F11D, build(row)), row
        census[len(row), len(verdict.witness[0])] += 1
    assert all(census[n, size] for n in (11, 12) for size in (1, 2, 3, 4)), census


def test_a_circulant_plan_holds_one_necklace_per_translation_orbit():
    for n in range(2, 13):
        for k in range(2, n + 1):
            visited = list(props._visited(n, k))
            assert visited == sorted(visited)
            # the orbits of the visited row sets are disjoint and cover every
            # row set, and each visited row set is the least of its orbit
            orbits = [{tuple(sorted((x + t) % n for x in rows)) for t in range(n)}
                      for rows in visited]
            assert all(min(orbit) == rows for orbit, rows in zip(orbits, visited))
            assert sum(map(len, orbits)) == len(set().union(*orbits)) == comb(n, k)
            # the kept ones are the necklaces below size n: (1/n) * sum over
            # d | gcd(n, k) of phi(d) * C(n/d, k/d) of them
            kept = [rows for rows in visited if rows[-1] < n - 1]
            assert len(kept) * comb(n, k) == props._kept_minors(n, k)
            assert len(kept) == (len(visited) if k < n else 0)
            # removing the last row of a necklace leaves a kept necklace
            if k < n:
                assert {rows[:-1] for rows in props._visited(n, k + 1)} <= set(kept)


def test_a_circulant_mds_test_computes_the_least_pair_of_each_orbit():
    # the pairs (T, C) computed at a size are the least of their orbits
    # under the translations and the reflection (R, C) -> (-C, -R), in the
    # order of the test; each orbit's least pair lies on a visited necklace,
    # and there are Burnside's count of them; each row set reads each
    # column set's minor through `at` from a computed pair of its own orbit
    for n in range(2, 11):
        for k in range(2, n + 1):
            computed, rank, at = props._orbits(n, k)
            visited = props._visited(n, k)
            pairs = [(rows, cols) for rows, own in zip(visited, computed, strict=True)
                     for cols in own]
            orbits = {}  # each pair on a visited row set -> its orbit
            for rows in visited:
                for cols in combinations(range(n), k):
                    if (rows, cols) not in orbits:
                        orbit = frozenset(minor_orbit(n, rows, cols))
                        orbits.update(dict.fromkeys(orbit, orbit))
            assert pairs == sorted({min(orbit) for orbit in orbits.values()})
            assert len(pairs) == minor_orbit_count(n, k)
            assert len(orbits) == comb(n, k) ** 2  # every pair's orbit meets a necklace
            for rows in combinations(range(n), k):
                slot, shift = at(rows)
                for cols in combinations(range(n), k):
                    assert pairs[slot[shift[rank[cols]]]] in orbits[rows, cols]
    assert [minor_orbit_count(8, k) for k in range(2, 9)] == [64, 224, 344, 224, 64, 8, 1]


def computed_pairs(n, size):
    """The pairs a circulant's MDS test computes at `size`, in its order:
    row 0's entries at size 1, and the empty minor at size 0."""
    if size < 2:
        return [((0,) * size, (c,) * size) for c in range(n if size else 1)]
    return [(rows, cols) for rows, own in zip(props._visited(n, size),
                                             props._orbits(n, size)[0]) for cols in own]


def test_a_circulant_condensation_reads_the_orbits_of_its_five_minors():
    # each computed minor det(T, C) of size k reads det(T - t_1, C - c_1),
    # det(T - t_k, C - c_k), det(T - t_1, C - c_k) and det(T - t_k, C - c_1)
    # from the minors computed at k - 1, and det(T - {t_1, t_k},
    # C - {c_1, c_k}) from those at k - 2, each at a pair of its orbit; the
    # table gives each visited row set the position of its first minor
    for n in range(2, 10):
        below = [computed_pairs(n, 0), computed_pairs(n, 1)]
        for k in range(2, n + 1):
            _, reads, table = props._condensation(n, k)
            assert tuple(rows for _, rows, _ in table) == props._visited(n, k)
            assert len(reads) % 5 == 0
            pairs = []
            for start, rows, computed in table:
                assert start == len(pairs)
                pairs += [(rows, cols) for cols in computed]
            for (rows, cols), i in zip(pairs, range(0, len(reads), 5), strict=True):
                reads_of = reads[i:i + 5]
                wanted = [(rows[1:], cols[1:]), (rows[:-1], cols[:-1]),
                          (rows[1:], cols[:-1]), (rows[:-1], cols[1:])]
                for (r, c), position in zip(wanted, reads_of[:4]):
                    assert below[-1][position] in minor_orbit(n, r, c)
                inner = (rows[1:-1], cols[1:-1])
                assert below[-2][reads_of[4]] in (minor_orbit(n, *inner) if k > 2 else {inner})
            assert pairs == computed_pairs(n, k)
            below.append(pairs)


def test_condensation_holds_over_gf8_and_gf256():
    # Desnanot-Jacobi in characteristic 2, with `det` as the oracle:
    # det(M) * det(interior) == det_11 * det_kk + det_1k * det_k1, where
    # det_ij removes row i and column j and the interior removes rows and
    # columns 1 and k; interiors that are singular are planted too
    rng = random.Random(46)
    singular_interiors = Counter()
    for gf in (GF8, F11D):
        for n in range(2, 8):
            for trial in range(12):
                M = random_matrix(rng, gf, n)
                if trial % 3 == 0 and n > 2:  # interior rows 1 and n - 2 equal, or 0 at n = 3
                    M[1][1:-1] = M[n - 2][1:-1] if n > 3 else [0] * (n - 2)
                every = range(n)

                def minor(rows, cols):
                    return det(gf, submatrix(M, rows, cols)) if rows else 1
                inner = minor(every[1:-1], every[1:-1])
                singular_interiors[gf.m] += inner == 0
                left = gf.mul(det(gf, M), inner)
                right = (gf.mul(minor(every[1:], every[1:]), minor(every[:-1], every[:-1]))
                         ^ gf.mul(minor(every[1:], every[:-1]), minor(every[:-1], every[1:])))
                assert left == right, (gf.m, M)
    assert singular_interiors[3] > 0 and singular_interiors[8] > 0


def test_a_circulant_mds_test_visits_one_row_set_per_translation_orbit():
    # an order-8 MDS circulant is tested on 8 + 929 = 937 minors, the 8
    # entries of row 0 and one minor per orbit of each larger size under the
    # translations and the reflection (R, C) -> (-C, -R), each by
    # condensation with two products, 1,858 in all; its necklace row sets
    # hold sum over k of necklaces(8, k) * C(8, k) = 1,725 minors, and the
    # row sets through row 0 would give sum of C(7, k-1) * C(8, k) = 6,435
    assert is_mds(F11D, WHIRLPOOL_ROW)
    minors = [comb(8, 1)] + [len(props._condensation(8, k)[1]) // 5 for k in range(2, 9)]
    assert minors == [8, 64, 224, 344, 224, 64, 8, 1]
    assert len(minors) == 8 and sum(minors) == 937
    assert sum(comb(7, k - 1) * comb(8, k) for k in range(1, 9)) == 6435


def test_a_circulant_mds_test_refuses_a_layer_before_building_its_plan(monkeypatch):
    # the Whirlpool circulant keeps necklaces(8, k) * C(8, k) minors of size
    # k: 112, 392 and 700 for k = 2, 3, 4, so a limit of 392 refuses size 4
    # before its plan is built: neither its necklaces nor its orbits are
    # asked for, and no plan of size 4 is kept; a first row never asks for
    # a matrix's rank table
    asked = []

    def recording(name):
        real = getattr(props, name)

        def wrapper(n, size, *rest):
            asked.append((name, size))
            return real(n, size, *rest)
        monkeypatch.setattr(props, name, wrapper)

    plans = props._condensation
    for name in ("_ranks", "_visited", "_orbits", "_condensation"):
        getattr(props, name).cache_clear()
        recording(name)
    monkeypatch.setattr(props, "MAX_LAYER_MINORS", 392)
    with pytest.raises(MinorLayerTooLarge, match="order-8 matrix would keep 700 minors of size 4"):
        is_mds(F11D, WHIRLPOOL_ROW)
    assert sorted(set(asked)) == [("_condensation", 2), ("_condensation", 3),
                                  ("_condensation", 4), ("_orbits", 0),
                                  ("_orbits", 1), ("_orbits", 2), ("_orbits", 3),
                                  ("_visited", 1), ("_visited", 2), ("_visited", 3)]
    assert plans.cache_info().currsize == 2
    kept = [rows for rows in props._visited(8, 4) if rows[-1] < 7]
    assert len(kept) * comb(8, 4) == 700


def test_a_lowered_limit_refuses_a_size_whose_plan_is_kept(monkeypatch):
    # the limit is compared on every call, not only when a size's plan is
    # built: at 392 the Whirlpool row refuses size 4 with one message
    # before and after a call at the full limit has kept the plans of sizes
    # 2 .. 8, and a refused size builds no plan
    message = ("the MDS test of an order-8 matrix would keep 700 minors of size 4, "
               "above the limit of 392")
    props._condensation.cache_clear()
    full = props.MAX_LAYER_MINORS
    for limit, built in ((392, 2), (full, 7), (392, 7)):
        monkeypatch.setattr(props, "MAX_LAYER_MINORS", limit)
        if limit < full:
            with pytest.raises(MinorLayerTooLarge) as refused:
                is_mds(F11D, WHIRLPOOL_ROW)
            assert str(refused.value) == message
        else:
            assert is_mds(F11D, WHIRLPOOL_ROW)
        assert props._condensation.cache_info().currsize == built


def test_a_huge_first_row_is_refused_without_listing_its_necklaces():
    # the kept count of a size is Burnside's closed form: listing the
    # order-200,000 necklaces of size 2 to count them would take seconds
    # and tens of MB before the refusal
    import time
    import tracemalloc

    row = (1,) * 200_000
    message = ("order-200000 matrix would keep 1999990000000000 minors of size 2, "
               "above the limit")
    for traced in (False, True):
        props._kept_minors.cache_clear()
        if traced:
            tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(MinorLayerTooLarge, match=message):
                is_mds(F11D, row)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if traced:
            assert peak < 4 << 20, peak
        else:
            assert elapsed < 0.1, elapsed


def test_is_mds_checks_every_row_set_of_a_non_circulant():
    # the singular minors of A all avoid row 0, so the circulant shortcut
    # (row sets through row 0 only) would wrongly pass it
    rng = random.Random(41)
    while True:
        A = random_matrix(rng, F11D, 4)
        singular = [w for w, d in minor_dets(F11D, A) if d == 0]
        if singular and all(rows[0] != 0 for rows, _ in singular):
            break
    assert not is_circulant(A)
    assert is_mds(F11D, A) == MdsVerdict(False, singular[0])


def test_is_mds_refuses_a_layer_above_the_limit(monkeypatch):
    # the largest layer of a non-circulant 4x4 keeps C(4, 2)^2 = 36 minors
    # of size 2
    A = cauchy_matrix(F11D, range(4), range(4, 8))
    monkeypatch.setattr(props, "MAX_LAYER_MINORS", 36)
    assert is_mds(F11D, A).is_mds
    monkeypatch.setattr(props, "MAX_LAYER_MINORS", 35)
    with pytest.raises(MinorLayerTooLarge, match="size 2"):
        is_mds(F11D, A)


def test_is_mds_refuses_a_layer_before_building_its_table(monkeypatch):
    # an 8x8 MDS matrix keeps C(8, k)^2 minors of size k: 784, 3,136 and
    # 4,900 for k = 2, 3, 4; the rank table of the refused size 4 is never
    # asked for, so the cache cannot keep it
    A = cauchy_matrix(F11D, range(8), range(8, 16))
    built = []

    def ranks(n, size):
        built.append((n, size))
        return real(n, size)

    real = props._ranks
    monkeypatch.setattr(props, "_ranks", ranks)
    monkeypatch.setattr(props, "MAX_LAYER_MINORS", 3136)
    with pytest.raises(MinorLayerTooLarge, match="4900 minors of size 4"):
        is_mds(F11D, A)
    assert built == [(8, 2), (8, 3)]


# -- involutory / orthogonal ----------------------------------------------------------


def test_identity_is_involutory_and_orthogonal():
    assert is_involutory(GF8, identity(4))
    assert is_orthogonal(GF8, identity(4))


def test_aes_matrix_neither_involutory_nor_orthogonal():
    A = build((0x02, 0x03, 0x01, 0x01))
    assert not is_involutory(F11B, A)
    assert not is_orthogonal(F11B, A)


def test_swap_matrix_involutory_with_identity_pair():
    A = [[0, 1], [1, 0]]
    assert is_involutory(GF4, A)
    pair = dense_semi_pair(GF4, A, "involutory")
    assert pair is not None
    assert pair.d1 == (1, 1) and pair.d2 == (1, 1)


def test_orthogonal_implies_semi_orthogonal_with_identity_pair():
    # circulant(a, a+1) with a+b = 1 is orthogonal at order 2
    A = build((2, 3))
    assert is_orthogonal(GF4, A)
    pair = dense_semi_pair(GF4, A, "orthogonal")
    assert pair is not None
    assert pair.d1 == (1, 1) and pair.d2 == (1, 1)


# -- diagonal_scaling_solve --------------------------------------------------------------


def test_solve_identity_to_identity():
    pair = diagonal_scaling_solve(GF8, identity(3), identity(3))
    assert pair.d1 == (1, 1, 1)
    assert pair.d2 == (1, 1, 1)
    # one component per diagonal position, each anchored at its row
    assert component_first_rows(identity(3)) == [0, 1, 2]
    assert all(pair.d1[r] == 1 for r in component_first_rows(identity(3)))


def test_solve_anchors_each_component_and_checks_the_entry_off_its_tree():
    # components {rows 0, 2; cols 1, 3} (a cycle), {rows 1, 4; cols 0, 4}
    # (a tree) and {row 5; col 5}; row 3 and column 2 are all zero
    A = [[0, 3, 0, 5, 0, 0],
         [2, 0, 0, 0, 7, 0],
         [0, 6, 0, 1, 0, 0],
         [0, 0, 0, 0, 0, 0],
         [4, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, 3]]
    assert component_first_rows(A) == [0, 1, 3, 5]
    first_row = [0, 1, 0, 3, 1, 5]  # the least row of each row's component
    first_row_of_col = [1, 0, None, 0, 1, 5]
    d1, d2 = [3, 5, 7, 2, 6, 4], [6, 2, 3, 5, 7, 1]
    B = sandwich(GF8, d1, A, d2)
    pair = diagonal_scaling_solve(GF8, A, B)
    mul, inv = GF8.mul, GF8.inv
    # the planted pair rescaled so that d = 1 at each component's least row
    # and e = 1 on the all-zero column
    assert pair.d1 == tuple(mul(d1[i], inv(d1[first_row[i]])) for i in range(6))
    assert pair.d2 == tuple(1 if r is None else mul(d2[j], d1[r])
                            for j, r in enumerate(first_row_of_col))
    assert all(pair.d1[r] == 1 for r in component_first_rows(A)) and pair.d2[2] == 1
    assert sandwich(GF8, pair.d1, A, pair.d2) == B
    # the walk from row 0 reaches row 2 through column 3, so entry (2, 1)
    # closes the cycle off the tree: changing it leaves no pair
    off_tree = [row[:] for row in B]
    off_tree[2][1] = mul(off_tree[2][1], 2)
    assert diagonal_scaling_solve(GF8, A, off_tree) is None
    # on a tree every entry is free: changing one moves its column's e
    on_tree = [row[:] for row in B]
    on_tree[1][4] = mul(on_tree[1][4], 2)
    moved = diagonal_scaling_solve(GF8, A, on_tree)
    assert moved.d1 == pair.d1 and moved.d2 == pair.d2[:4] + (mul(pair.d2[4], 2), pair.d2[5])


def test_solve_zero_pattern_mismatch():
    A = [[1, 0], [1, 1]]
    B = [[1, 1], [1, 1]]
    assert diagonal_scaling_solve(GF8, A, B) is None


def test_solve_recovers_planted_pair_exactly():
    rng = random.Random(32)
    for gf in (GF8, F11D):
        for _ in range(40):
            n = rng.randrange(1, 5)
            A = random_matrix(rng, gf, n)
            d1 = [rng.randrange(1, gf.order) for _ in range(n)]
            d2 = [rng.randrange(1, gf.order) for _ in range(n)]
            B = sandwich(gf, d1, A, d2)
            pair = diagonal_scaling_solve(gf, A, B)
            assert pair is not None
            assert all(v != 0 for v in pair.d1 + pair.d2)
            assert sandwich(gf, pair.d1, A, pair.d2) == B


def test_solve_rejects_non_factorable_ratio():
    # B/A ratio matrix [[1,1],[1,x]] with x != 1 cannot split as d_i * e_j
    A = [[1, 1], [1, 1]]
    B = [[1, 1], [1, 3]]
    assert diagonal_scaling_solve(GF8, A, B) is None


def test_example1_canonical_pair_frozen():
    A = build(EX1_ROW)
    pair = dense_semi_pair(F11D, A, "orthogonal")
    assert pair.d1 == (1, 1, 1)
    # canonical d2 entry = (first stated d1 entry) * (stated d2 entry) = E2 * 5A
    assert pair.d2 == (0x3E, 0x3E, 0x3E)
    assert component_first_rows(A) == [0]  # full support: one component
    assert all(pair.d1[r] == 1 for r in component_first_rows(A))


def test_example1_matches_stated_pair_up_to_scalar():
    A = build(EX1_ROW)
    pair = dense_semi_pair(F11D, A, "orthogonal")
    scale = F11D.mul(pair.d1[0], F11D.inv(0xE2))
    inv_scale = F11D.inv(scale)
    for i in range(3):
        assert pair.d1[i] == F11D.mul(scale, 0xE2)
        assert pair.d2[i] == F11D.mul(inv_scale, 0x5A)


def test_scalar_freedom_orbit():
    A = build(EX1_ROW)
    B = transpose(inverse(F11D, A))
    base = diagonal_scaling_solve(F11D, A, B)
    for c in (0x02, 0x5A, 0xFF):
        cinv = F11D.inv(c)
        d1 = [F11D.mul(c, v) for v in base.d1]
        d2 = [F11D.mul(cinv, v) for v in base.d2]
        assert sandwich(F11D, d1, A, d2) == B


def test_reanchoring_gives_constant_quotient():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randrange(2, 5)
        A = [[rng.randrange(1, GF8.order) for _ in range(n)] for _ in range(n)]
        d1 = [rng.randrange(1, GF8.order) for _ in range(n)]
        d2 = [rng.randrange(1, GF8.order) for _ in range(n)]
        B = sandwich(GF8, d1, A, d2)
        low = diagonal_scaling_solve(GF8, A, B)
        # anchored at the last row: reverse the rows, then reverse d1 back
        rev = diagonal_scaling_solve(GF8, A[::-1], B[::-1])
        high_d1, high_d2 = rev.d1[::-1], rev.d2
        assert high_d1[-1] == 1
        quotients = {GF8.mul(h, GF8.inv(l)) for h, l in zip(high_d1, low.d1)}
        assert len(quotients) == 1
        c = quotients.pop()
        cinv = GF8.inv(c)
        assert all(h == GF8.mul(cinv, l) for h, l in zip(high_d2, low.d2))


# -- semi checks on singular input ----------------------------------------------------------


def test_semi_checks_raise_singular():
    # the dense path raises; the first-row path reports no pair
    row = (1, 1, 0)  # zero row sum
    for relation in ("orthogonal", "involutory"):
        with pytest.raises(Singular):
            dense_semi_pair(GF4, build(row), relation)
        assert circulant_semi_pair(Properties(GF4, row), relation) is None


# -- power_scalar -----------------------------------------------------------------------------


def test_power_scalar_constant_diagonal():
    c = 0x57
    assert power_scalar(F11D, [c] * 4, 4) == F11D.pow(c, 4)


def test_power_scalar_example1_stated_pair():
    assert power_scalar(F11D, [0xE2] * 3, 3) == 0x60  # 0xE2 cubed


def test_power_scalar_order2_forces_equal_entries():
    # squaring is injective in characteristic 2, so d^2 all-equal means d constant
    for a in range(1, GF8.order):
        result = power_scalar(GF8, [1, a], 2)
        assert (result is not None) is (a == 1)


def test_power_scalar_absent_cases():
    # in GF(8)/0xB: 2^3 = 3 and 4^3 = 5, so the cubes {1, 3, 5} disagree
    assert power_scalar(GF8, [1, 2, 4], 3) is None
    assert power_scalar(GF8, [1, 3], 3) is None
    assert power_scalar(GF8, [0, 0], 2) is None  # zero scalar disallowed


@pytest.mark.parametrize("gf", [GF4, GF8])
def test_power_scalar_matches_the_entrywise_powers_exhaustively(gf):
    # every diagonal of length <= 3, zeros included, at every exponent up to
    # q: the logs compared mod q - 1 against the powers themselves
    for length in range(1, 4):
        for d in product(range(gf.order), repeat=length):
            for n in range(1, gf.order + 1):
                powers = {gf.pow(v, n) for v in d}
                want = powers.pop() if len(powers) == 1 else None
                assert power_scalar(gf, d, n) == (want or None), (d, n)


# -- nonperiodicity ----------------------------------------------------------------------------


def test_nonperiodic_examples():
    assert is_nonperiodic([1, 2]) is True
    assert is_nonperiodic([7, 7]) is False
    assert is_nonperiodic([5, 5, 5, 5]) is False
    assert is_nonperiodic([1, 2, 3, 1]) is True  # 1!=3 and 2!=1
    assert is_nonperiodic([1, 2, 1, 4]) is False  # d0 == d2


def test_nonperiodic_odd_order_raises():
    with pytest.raises(OddOrder):
        is_nonperiodic([1, 2, 3])


# -- classification -----------------------------------------------------------------------------


@pytest.mark.parametrize("n,cat", [
    (1, ODD), (2, POW2), (3, ODD), (4, POW2), (5, ODD), (6, MOD4_TWO),
    (8, POW2), (10, MOD4_TWO), (12, MOD4_ZERO), (16, POW2), (20, MOD4_ZERO),
])
def test_order_category(n, cat):
    assert order_category(n) == cat


def test_classify_example1():
    cls = classify(F11D, EX1_ROW)
    assert cls.category == ODD
    assert not cls.singular
    assert cls.mds.is_mds
    assert cls.semi_orthogonal.found
    assert cls.semi_orthogonal.trace_d1 != 0
    assert cls.semi_orthogonal.trace_d2 != 0
    assert cls.semi_orthogonal.k1 is not None
    assert cls.semi_orthogonal.k2 is not None
    # k1 and k2 are the cubes of d1 = (1, 1, 1) and d2 = (0x3E, 0x3E, 0x3E)
    so = cls.semi_orthogonal
    assert (so.k1, so.k2) == (1, F11D.pow(0x3E, 3)) != (so.k2, so.k1)
    assert cls.nonperiodic_d1 is None  # odd order


def test_records_are_immutable_tuples_with_the_dataclass_repr():
    # what callers rely on: the verdict's truth, no assignment, copies by
    # _replace, hashing, and the repr the frozen dataclasses printed
    assert bool(MdsVerdict(False, ((0,), (1,)))) is False and bool(MdsVerdict(True)) is True
    cls = classify(F11D, EX1_ROW)
    for record in (cls, cls.mds, cls.semi_orthogonal, cls.semi_orthogonal.pair):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    changed = cls._replace(first_row=None)
    assert changed.first_row is None and cls.first_row == EX1_ROW
    assert changed._replace(first_row=EX1_ROW) == cls
    assert hash(changed._replace(first_row=EX1_ROW)) == hash(cls)
    assert repr(cls) == (
        "Classification(order=3, category='ODD', first_row=(2, 3, 6), singular=False, "
        "mds=MdsVerdict(is_mds=True, witness=None), involutory=False, orthogonal=False, "
        "semi_involutory=SemiReport(found=False, pair=None, k1=None, k2=None, "
        "trace_d1=None, trace_d2=None), semi_orthogonal=SemiReport(found=True, "
        "pair=DiagonalPair(d1=(1, 1, 1), d2=(62, 62, 62)), k1=1, k2=127, trace_d1=1, "
        "trace_d2=62), nonperiodic_d1=None, nonperiodic_d2=None)")


def test_classify_example2_has_zero_trace_pair():
    # this 5x5 instance is semi-orthogonal MDS, yet both diagonal traces
    # vanish; zero trace is invariant under the scalar orbit, so every
    # representative pair shares it
    cls = classify(F11D, EX2_ROW)
    assert cls.category == ODD
    assert cls.mds.is_mds
    assert cls.semi_orthogonal.found
    assert cls.semi_orthogonal.trace_d1 == 0
    assert cls.semi_orthogonal.trace_d2 == 0


def test_classify_singular_row():
    cls = classify(GF4, (1, 1))
    assert cls.singular
    assert not cls.semi_orthogonal.found
    assert not cls.semi_involutory.found
    assert not cls.mds.is_mds


def test_classify_asks_for_the_inverse_only_off_mds(monkeypatch):
    # an MDS matrix has A itself among its nonsingular minors, so classify
    # takes nonsingularity from the verdict; a row that is not MDS asks the
    # gcd test once, as its connected support keeps the semi pairs off it
    calls = []

    def counting(gf, row):
        calls.append(tuple(row))
        return is_singular_row(gf, row)

    monkeypatch.setattr(props, "is_singular_row", counting)
    cls = classify(F11D, EX1_ROW)
    assert cls.mds.is_mds and not cls.singular and calls == []
    for row, singular in (((1, 2, 3, 5), False), ((1, 2, 3, 0), True)):
        calls.clear()
        cls = classify(GF8, row)
        assert not cls.mds.is_mds and cls.singular is singular and calls == [row]
    # the flag is the determinant's verdict on every row of GF(8) n = 3
    for row in product(range(GF8.order), repeat=3):
        assert classify(GF8, row).singular == (det(GF8, build(row)) == 0), row


def test_an_explicit_matrix_is_scanned_for_circulance_once(monkeypatch):
    calls = []

    def counting(A):
        calls.append(A)
        return is_circulant(A)

    monkeypatch.setattr(props, "is_circulant", counting)
    rng = random.Random(3)
    for A, circulant in ((build((2, 3, 1, 1)), True), (random_matrix(rng, F11B, 4), False)):
        calls.clear()
        doc = matrix_properties_json(F11B, A)
        assert doc["circulant"] is circulant and len(calls) == 1


def test_classify_degenerate_1x1():
    cls = classify(GF8, (5,))
    assert cls.category == ODD
    assert cls.mds.is_mds
    assert not cls.involutory  # 5^2 != 1
    one = classify(GF8, (1,))
    assert one.involutory and one.orthogonal


def test_classification_json_shape():
    doc = classification_json(F11D, classify(F11D, EX1_ROW))
    assert doc["schema_version"] == 1
    assert doc["field"] == {"m": 8, "poly": "0x11D"}
    assert doc["first_row"] == ["0x02", "0x03", "0x06"]
    assert doc["mds"] is True and doc["mds_witness"] is None
    assert doc["semi_orthogonal"]["found"] is True
    assert doc["semi_orthogonal"]["trace_d1"] == "0x01"
    assert doc["semi_orthogonal"]["d1"] == ["0x01", "0x01", "0x01"]
    assert doc["category"] == "ODD"
    assert doc["nonperiodic_d1"] is None


def test_classify_even_order_fills_nonperiodic_flags():
    # scan GF(4) order 2 for a semi-orthogonal instance and check the flags
    seen = False
    for a in range(GF4.order):
        for b in range(GF4.order):
            cls = classify(GF4, (a, b))
            if cls.semi_orthogonal.found:
                seen = True
                assert cls.nonperiodic_d1 in (True, False)
                assert cls.nonperiodic_d2 in (True, False)
    assert seen


def test_row_and_matrix_records_agree_exhaustively():
    # the circulant fast path of a first row against the dense path of its
    # matrix, field by field: the dense inverse, the generic solver, the
    # dense identity checks and the MDS test over every row set
    with_flags = 0
    for gf, orders in ((GF4, range(1, 6)), (GF8, range(1, 5))):
        for n in orders:
            for row in product(range(gf.order), repeat=n):
                want = classify(gf, row)
                got = dense_classification(gf, build(row))
                assert want.first_row == row and got.first_row is None
                assert got == want._replace(first_row=None), (gf.m, row)
                with_flags += want.nonperiodic_d1 is not None
    assert with_flags == 1060


# -- exhaustive cross-check against the brute-force oracle (small) ----------------------------


def test_gf4_n2_solver_agrees_with_oracle():
    checked = agreements = 0
    for a in range(GF4.order):
        for b in range(GF4.order):
            A = build((a, b))
            try:
                fast_si = dense_semi_pair(GF4, A, "involutory")
                fast_so = dense_semi_pair(GF4, A, "orthogonal")
            except Singular:
                continue
            slow_si = oracle_semi_search(GF4, A, "involutory")
            slow_so = oracle_semi_search(GF4, A, "orthogonal")
            checked += 1
            agreements += (fast_si is None) == (slow_si is None)
            agreements += (fast_so is None) == (slow_so is None)
    assert checked == 12  # circulant(a, b) is singular iff a == b: det = (a + b)^2
    assert agreements == 2 * checked


# -- circulant fast path against the dense reference ---------------------------------------

AGREEMENT_SPACES = (
    [(1, 0x3, n) for n in range(1, 11)]
    + [(2, 0x7, n) for n in range(2, 8)]
    + [(3, 0xB, n) for n in range(2, 6)]
    + [(4, 0x13, 3)]
)


def _agreement_census(space):
    """Check `is_singular_row` and `circulant_semi_pair` against the dense
    inverse and the generic solver on every first row of one (m, poly, n)
    space, and count the branch behind each outcome on a nonsingular row: a
    geometric pair on a full-support row (by its mu) or on a connected
    support with a zero entry, and on a disconnected support a pattern
    mismatch or a solver pair.  Every involutory pair on a connected support
    must be d1 = (1, ..., 1) with A^2 == k*I for k = d2[0]^-1: its mu is 1."""
    m, poly, n = space
    gf = get_field(m, poly)
    census = Counter()
    for row in product(range(gf.order), repeat=n):
        A = build(row)
        try:
            Ainv = inverse(gf, A)
        except Singular:
            Ainv = None
        assert is_singular_row(gf, row) is (Ainv is None), (space, row)
        support = [j for j, v in enumerate(row) if v]
        connected = bool(support) and gcd(n, *(j - support[0] for j in support)) == 1
        for relation in ("involutory", "orthogonal"):
            pair = circulant_semi_pair(Properties(gf, row), relation)
            if Ainv is None:
                assert pair is None
                continue
            target = Ainv if relation == "involutory" else transpose(Ainv)
            assert pair == diagonal_scaling_solve(gf, A, target), (space, row, relation)
            if relation == "involutory" and connected and pair is not None:
                assert pair.d1 == (1,) * n, (space, row)
                k = gf.inv(pair.d2[0])
                assert mat_mul(gf, A, A) == [[k if i == j else 0 for j in range(n)]
                                             for i in range(n)], (space, row)
            if all(row):
                if pair is not None:
                    census[relation, "mu=1" if set(pair.d1) == {1} else "mu!=1"] += 1
            elif connected:
                if pair is not None:
                    census[relation, "geometric-zero"] += 1
            elif any((x == 0) != (y == 0) for x, y in zip(row, target[0])):
                census[relation, "pattern-reject"] += 1
            elif pair is not None:
                census[relation, "solver-found"] += 1
    return census


def test_circulant_semi_pair_agrees_with_dense_path_exhaustively():
    census = {space: _agreement_census(space) for space in AGREEMENT_SPACES}
    total = sum(census.values(), Counter())
    for relation in ("involutory", "orthogonal"):
        for branch in ("mu=1", "geometric-zero", "pattern-reject", "solver-found"):
            assert total[relation, branch] > 0, (relation, branch)
    # a semi-involutory pair never has a nontrivial root of unity
    for space in AGREEMENT_SPACES:
        assert census[space]["involutory", "mu!=1"] == 0, space
    # semi-orthogonal pairs with a nontrivial root of unity
    assert census[2, 0x7, 6]["orthogonal", "mu!=1"] == 108
    assert census[4, 0x13, 3]["orthogonal", "mu!=1"] == 360
    # pairs on rows with a zero entry, from either branch
    assert sum(census[2, 0x7, 6][relation, branch]
               for relation in ("involutory", "orthogonal")
               for branch in ("geometric-zero", "solver-found")) == 336


# (m, poly, n, rows): seeded samples for the fold of `_geometric_pair` against
# the per-root loop; d = gcd(n, q - 1) runs from 3 to 17, and over 0x11B the
# field generator is 0x03, as x is not primitive
FOLD_SPACES = (
    (2, 0x7, 9, 300), (2, 0x7, 12, 300), (2, 0x7, 15, 300),
    (4, 0x13, 5, 300), (4, 0x13, 6, 300), (4, 0x13, 10, 300),
    (8, 0x11D, 3, 300), (8, 0x11D, 5, 300), (8, 0x11D, 15, 100), (8, 0x11D, 17, 100),
    (8, 0x11B, 3, 300), (8, 0x11B, 5, 300),
)


def _fold_census(gf, rows, searches) -> Counter:
    """Check `_geometric_pair` against `per_root_geometric_pair` on each row
    with a nonzero row sum, and that the others have no pair and try no
    root of unity, and count the pairs by whether mu is 1."""
    census = Counter()
    for row in rows:
        want = per_root_geometric_pair(gf, row)
        if diag_trace(row):
            assert props._geometric_pair(Properties(gf, row)) == want, (gf.poly, row)
        else:
            assert want is None, (gf.poly, row)
            searches.clear()
            assert circulant_semi_pair(Properties(gf, row), "orthogonal") is None
            assert not searches, row
        if want is not None:
            census["mu=1" if set(want.d1) == {1} else "mu!=1"] += 1
    return census


def test_geometric_pair_folds_the_per_root_loop(monkeypatch):
    assert F11B.generator == 0x03
    searches = count_folds(monkeypatch)
    rng = random.Random(17)
    for m, poly, n, count in FOLD_SPACES:
        gf = get_field(m, poly)
        rows = []
        for _ in range(count):
            row = [rng.randrange(gf.order) if rng.random() < 0.8 else 0 for _ in range(n)]
            rows.append(tuple(row))
            row[0] ^= diag_trace(row)  # the same row with a zero row sum
            rows.append(tuple(row))
        _fold_census(gf, rows, searches)
    assert _fold_census(F11D, (EX1_ROW, EX2_ROW), searches) == {"mu=1": 1, "mu!=1": 1}
    # every a_0 = 1 row of GF(16) n = 5: d = 5, and most pairs have mu != 1
    census = _fold_census(GF16, [(1,) + tail for tail in product(range(16), repeat=4)],
                          searches)
    assert census == {"mu=1": 213, "mu!=1": 848}


def test_planted_semi_orthogonal_pairs_at_large_d():
    # at GF(2^8) n = 15 and 17, n divides q - 1, so d = gcd(n, q - 1) = n;
    # each planted a is orthogonal and its twist b is semi-orthogonal at a
    # mu != 1 (`planted_semi_orthogonal_row`)
    rng = random.Random(19)
    for n in (15, 17):
        assert gcd(n, 255) == n
        for _ in range(20):
            a, b = planted_semi_orthogonal_row(F11D, n, rng)
            assert Properties(F11D, a).orthogonal()
            pair = props._geometric_pair(Properties(F11D, b))
            assert pair == per_root_geometric_pair(F11D, b), b
            assert pair is not None and set(pair.d1) != {1}, b
            assert Properties(F11D, b).semi("orthogonal").pair == pair


def test_a_row_folds_its_autocorrelation_at_most_once(monkeypatch):
    # the orthogonal test reads mu = 1 from the fold of the semi-orthogonal
    # search, and both fold the row's block, so classify folds a row once
    # when its row sum is nonzero and never otherwise, on every support, and
    # so does a row asked only for the semi-orthogonal pair; the one fold is
    # of the block b = (a_(s0 + g*beta)) at d = gcd(n/g, q-1), and the Gram
    # root read from it, A*A^T == (b(y)*b(y^-1))(x^g), equals the d = 1 fold
    # of `scalar_gram_root` on the whole row: at d = 3 on the connected rows
    # of GF(4) n = 6, and on every disconnected row of GF(16) n = 6
    folds = count_folds(monkeypatch)
    gf8_rows = [(GF8, row) for row in product(range(8), repeat=4)]
    for gf, row in [(GF16, (1,) + tail) for tail in product(range(16), repeat=4)] + gf8_rows:
        folds.clear()
        classify(gf, row)
        assert len(folds) == (diag_trace(row) != 0), row
    disconnected = 0
    for gf, row in (gf8_rows + [(GF4, row) for row in product(range(4), repeat=6)]
                    + [(GF16, row) for row in disconnected_rows(GF16, 6)]):
        gram_root = scalar_gram_root(gf, row)  # the reference folds too: before the count
        folds.clear()
        p = Properties(gf, row)
        p.semi("orthogonal")
        if diag_trace(row):
            _, g, b = gcd_block(row)
            assert folds == [(b, gcd(len(b), gf.order - 1))], row
            disconnected += g > 1
        else:
            assert folds == [], row
        assert p.gram_root() == gram_root, row
        assert len(folds) <= 1
    # the rows folded on a block with g > 1, most of them of GF(16) n = 6
    assert disconnected == 8536


@cache
def _gate_rows() -> tuple:
    """(field, row) pairs, grouped by field and order: every row of GF(4)
    n <= 6, GF(8) n <= 4 and GF(16) n = 4, and seeded GF(2^8) and GF(2^16)
    rows with floor(n/2) and ceil(n/2) zero entries, at even n half of them
    on one coset of 2*Z_n, so that the block has order n/2, and order-6 rows
    on such a coset whose block has a planted root: its whole-row fold at
    d = 3 keeps the root e of the block as 2e mod 3."""
    rng = random.Random(28)
    rows = [(gf, row) for gf, top in ((GF4, 6), (GF8, 4)) for n in range(1, top + 1)
            for row in product(range(gf.order), repeat=n)]
    rows += [(GF16, row) for row in product(range(16), repeat=4)]
    for gf in (F11D, GF65536):
        for n in (6, 8, 9, 15):
            for zeros in sorted({n // 2, (n + 1) // 2}):
                for i in range(40):
                    if n % 2 == 0 and i % 2:
                        zero_at = range(i // 2 % 2, n, 2)
                    else:
                        zero_at = rng.sample(range(n), zeros)
                    rows.append((gf, tuple(0 if j in zero_at else rng.randrange(1, gf.order)
                                           for j in range(n))))
        for _ in range(10):  # blocks of order 3 with roots mu = 1 and mu != 1
            for b in planted_semi_orthogonal_row(gf, 3, rng):
                s0 = rng.randrange(2)
                rows.append((gf, tuple(0 if (j - s0) % 2 else b[(j - s0) // 2] for j in range(6))))
    return tuple(rows)


def _gate_chunks():
    """(field, order, rows) of each chunk of `_gate_rows`."""
    for (gf, n), group in groupby(_gate_rows(), key=lambda pair: (pair[0], len(pair[1]))):
        yield gf, n, [row for _, row in group]


def test_pair_gate_folds_a_dense_row_with_no_block_step(monkeypatch):
    # the gate of a scan chunk (`pair_screen`) folds a row with fewer than
    # n/2 zero entries, its own block, in place at d = gcd(n, q - 1), with
    # no block step; it asks `row_block` of any other row, and hands the
    # block of one whose support is disconnected to block_roots.  Either way
    # it admits
    # exactly the rows with a nonzero row sum and a non-empty block_roots,
    # in chunk order, gives them those roots, counts each other row's weight
    # as rejected and folds each row with a nonzero row sum once, on its
    # block: on the rows of `_gate_rows`
    wants = {(gf, row): props.block_roots(gf, row) if diag_trace(row) else []
             for gf, row in _gate_rows()}
    folds = count_folds(monkeypatch)
    asked = []

    def counting_block(row):
        asked.append(row)
        return row_block(row)

    monkeypatch.setattr(props, "row_block", counting_block)
    census = Counter()
    for gf, n, rows in _gate_chunks():
        folds.clear()
        asked.clear()
        admitted, rejected = props.pair_screen(gf, {"orthogonal"}, n,
                                               [(row, (1,), 1, False) for row in rows])
        assert [(item[0], roots) for item, _, roots in admitted] == [
            (row, wants[gf, row]) for row in rows if wants[gf, row]]
        assert rejected == len(rows) - len(admitted)
        blocks = [gcd_block(row)[2] for row in rows if diag_trace(row)]
        assert Counter(folds) == Counter((b, gcd(len(b), gf.order - 1)) for b in blocks)
        assert {row for row in asked if len(row) == n} == {
            row for row in rows if diag_trace(row) and 2 * row.count(0) >= n}
        for item, _, _ in admitted:
            census["dense" if 2 * item[0].count(0) < n else "block"] += 1
    assert census == {"dense": 8621, "block": 763}


# the admitted rows of `_gate_rows` with a nonzero square root and with
# roots of unity: 4,619 rows have a scalar square, 9,384 an orthogonal
# root, 4,547 of them both
@pytest.mark.parametrize("relations, admitted_census", [
    (("involutory",), {"root": 4619}),
    (("orthogonal",), {"roots": 9384}),
    (("involutory", "orthogonal"), {"root": 4619, "roots": 4837}),
], ids=("involutory", "orthogonal", "both"))
def test_pair_screen_matches_the_per_row_gate(relations, admitted_census):
    # one loop over a chunk against the per-row gate it replaced
    # (reference.pair_gate: `scalar_square_root`, then the plain lane fold
    # of the support-gcd block): the same admitted rows, in chunk order,
    # with the same root and roots, and the same rejected weight, with
    # weights of 1 to 3 scalars, orbits of 1 to 3 and transposes, on every
    # row of `_gate_rows`
    rng = random.Random(35)
    census = Counter()
    for gf, n, rows in _gate_chunks():
        items = [(row, (1,) * rng.randrange(1, 4), rng.randrange(1, 4), rng.random() < 0.5)
                 for row in rows]
        admitted, rejected = props.pair_screen(gf, relations, n, items)
        assert (admitted, rejected) == screen_by_gate(gf, relations, n, items), (gf.poly, n)
        for _, root, roots in admitted:
            census["root" if root else "roots"] += 1
    assert census == admitted_census


# (m, poly, n, lead_one, rows, orthogonal pairs, those with mu != 1): every
# disconnected row of the space, or with `lead_one` those whose first nonzero
# entry is 1, which the scalar lemma carries to every multiple.  Only a block
# of order m with gcd(m, q-1) > 1 can have mu != 1: at GF(16) n = 6 the
# blocks of order 3
BLOCK_SPACES = (
    (1, 0x3, 12, False, 153, 36, 0), (1, 0x3, 16, False, 510, 64, 0),
    (2, 0x7, 6, False, 153, 36, 0), (2, 0x7, 8, False, 510, 192, 0),
    (2, 0x7, 9, False, 189, 27, 0),
    (3, 0xB, 4, False, 126, 112, 0), (3, 0xB, 6, False, 1169, 252, 0),
    (4, 0x13, 4, False, 510, 480, 0), (5, 0x25, 4, False, 2046, 1984, 0),
    (4, 0x13, 6, True, 591, 120, 48),
)


@pytest.mark.parametrize("m, poly, n, lead_one, rows, pairs, nontrivial", BLOCK_SPACES)
def test_a_disconnected_row_is_decided_on_its_block(m, poly, n, lead_one, rows, pairs,
                                                     nontrivial):
    # both relations of a row whose support lies in a coset of g*Z_n, g > 1,
    # decided on its order-n/g block, equal the generic solver's pair from
    # the dense inverse; a semi-involutory pair is always a scalar square
    gf = get_field(m, poly)
    census = Counter()
    space = disconnected_rows(gf, n, lead_one)
    for row in space:
        A = build(row)
        p = Properties(gf, row)
        for relation in ("involutory", "orthogonal"):
            try:
                want = dense_semi_pair(gf, A, relation)
            except Singular:
                want = None
            assert circulant_semi_pair(p, relation) == want, (relation, row)
            if relation == "orthogonal" and want is not None:
                census["pairs"] += 1
                census["nontrivial"] += len(set(want.d1)) > 1  # d1_g == mu^-1
    assert (len(space), census["pairs"], census["nontrivial"]) == (rows, pairs, nontrivial)


def test_a_support_of_more_than_half_the_entries_is_its_own_block():
    # a disconnected support lies in one coset of g*Z_n, g >= 2, so it has at
    # most n/2 entries; `row_block` counts zeros instead of taking the gcd, and
    # both sides of the bound at exactly n/2 entries occur here, connected
    # like (1, 1, 1, 0, 0, 0) and disconnected like (1, 0, 1, 0, 1, 0)
    census = Counter()
    for gf, n in [(GF4, n) for n in range(1, 9)] + [(GF8, n) for n in range(1, 6)]:
        for row in product(range(gf.order), repeat=n):
            if any(row):
                want = gcd_block(row)
                assert props.row_block(row) == want, row
                census[2 * row.count(0) == n, want[1] > 1] += 1
    assert census[True, False] and census[True, True]


def test_block_takes_the_support_gcd_only_on_rows_with_half_their_entries_zero(monkeypatch):
    # the sampled GF(4) n = 12 rows of a scan at seed 1: 1,971 of 2,048 have
    # a zero entry, and 109 have at least six
    calls = []

    def counting(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(props, "gcd", counting)
    reached = []
    for row in random_rows(1, 4, 12, 0, 2048):
        calls.clear()
        props.row_block(row)
        if calls:
            reached.append(row)
    assert reached == [row for row in random_rows(1, 4, 12, 0, 2048) if row.count(0) >= 6]
    assert len(reached) == 109


@pytest.mark.parametrize("gf, n, scalar, other", [
    (GF16, 3, 13, 24), (GF16, 5, 213, 848), (GF8, 5, 61, 0), (GF32, 3, 31, 0),
    (GF8, 9, 189, 0), (GF4, 15, 225, 0), (GF16, 9, 675, 1080),
    # gcd(n, q - 1) == 1, as at (GF8, 5) and (GF32, 3): only mu == 1, so
    # every pair is scalar-orthogonal
    (GF8, 3, 7, 0), (GF4, 5, 17, 0), (GF4, 7, 55, 0)])
def test_odd_order_traces_vanish_exactly_off_scalar_orthogonal(gf, n, scalar, other):
    # at odd n a semi-orthogonal pair has trace c*g*(sum of mu^-u over u < n/g)
    # for runs of g entries: c when mu == 1, that is when A*A^T is scalar,
    # and 0 otherwise, for d1 and d2 alike.  At a prime n every a_0 = 1 row
    # is checked; at a composite n, where that space is out of reach, every
    # disconnected row, whose block has order n/g
    if all(n % p for p in range(2, n)):
        rows = [(1,) + tail for tail in product(range(gf.order), repeat=n - 1)]
    else:
        rows = disconnected_rows(gf, n)
        assert len(rows) == {(8, 9): 1533, (4, 15): 3339, (16, 9): 12285}[gf.order, n]
    census = Counter()
    for row in rows:
        p = Properties(gf, row)
        so = p.semi("orthogonal")
        if so.found:
            scalar_gram = p.gram_root() != 0
            assert (so.trace_d1 != 0) == (so.trace_d2 != 0) == scalar_gram, row
            census[scalar_gram] += 1
    assert (census[True], census[False]) == (scalar, other)


@pytest.mark.parametrize("gf, n, pairs, nontrivial", [
    (GF4, 6, 120, 72), (GF4, 8, 512, 0), (GF8, 6, 576, 0)])
def test_even_order_traces_vanish(gf, n, pairs, nontrivial):
    # at even n a semi-orthogonal pair has trace c*g*(sum of mu^-u over
    # u < n/g) with g or n/g even: 0 for d1 and d2 alike, at mu == 1 and
    # mu != 1, on connected and disconnected supports; checked on the rows
    # whose first nonzero entry is 1, which carry every other row by c
    q = gf.order
    census = Counter()
    for row in class_rows(q, n, 0, (q ** n - 1) // (q - 1)):
        so = Properties(gf, row).semi("orthogonal")
        if so.found:
            assert so.trace_d1 == so.trace_d2 == 0, row
            census["pairs"] += 1
            census["nontrivial"] += set(so.pair.d1) != {1}
    assert (census["pairs"], census["nontrivial"]) == (pairs, nontrivial)


def test_semi_involutory_rows_have_a_closed_count():
    for (m, poly), top in (((1, 0x3), 10), ((2, 0x7), 6), ((3, 0xB), 4)):
        gf = get_field(m, poly)
        for n in range(1, top + 1):
            found = sum(Properties(gf, row).semi("involutory").found
                        for row in product(range(gf.order), repeat=n))
            assert found == semi_involutory_count(gf.order, n), (m, n)


def test_no_semi_involutory_row_is_mds():
    # the lemma that empties SI-GEN and SI-POW2 with MDS: a semi-involutory
    # row (a nonzero scalar square root, in number `semi_involutory_count`)
    # has a singular minor of size at most 2.  At odd n it is (r, 0, ..., 0);
    # at even n = 2h it has a_j == a_(j+h) for 0 < j < h, so rows {0, h} and
    # columns {j, j + h} give the minor (a_j + a_(j+h))^2 == 0
    for gf, orders in ((GF4, (3, 4, 6)), (GF8, (3, 4, 5, 6))):
        for n in orders:
            h = n // 2
            rows = [row for row in product(range(gf.order), repeat=n)
                    if scalar_square_root(row)]
            assert len(rows) == semi_involutory_count(gf.order, n), (gf.order, n)
            for row in rows:
                verdict = is_mds(gf, row)
                assert not verdict and len(verdict.witness[0]) <= 2, row
                if n % 2 == 0:
                    A = build(row)
                    assert all(det(gf, submatrix(A, (0, h), (j, j + h))) == 0
                               for j in range(1, h)), row


def test_circulant_semi_pair_rejects_unknown_relation():
    with pytest.raises(ValueError):
        circulant_semi_pair(Properties(GF4, (1, 2)), "sideways")
